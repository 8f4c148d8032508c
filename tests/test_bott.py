"""Tower presentations, xi-coordinates, push-forward, tangent class."""

import random
from fractions import Fraction

import pytest

from flagcohom.bott import BSRing, bs_presentation, bs_pushforward, theta_coefficients
from flagcohom.coeffring import CoeffRing
from flagcohom.errors import InsufficientPrecisionError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.fgring import FormalGroupRing
from flagcohom.rootdata import RootDatum


@pytest.fixture(scope="module")
def a2_add():
    return FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(6))


@pytest.fixture(scope="module")
def a2_univ():
    return FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.universal(7))


def rand_elt(fgr, rng):
    terms = {}
    for _ in range(4):
        e = [0] * fgr.n
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(fgr.n)] += 1
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return fgr.from_monomials(terms)


def test_multiplicative_law_by_its_log_gives_the_ktheory_presentation(multiplicative_by_log):
    # One law given by its logarithm and by its coefficients, whose logarithm
    # is computed as the integral of 1/d_2F(x, 0).
    datum, word, trunc = RootDatum.build("A2"), (1, 2, 1, 2), 6
    by_log = BSRing(FormalGroupRing(datum, multiplicative_by_log(trunc)), word)
    by_coefficients = BSRing(FormalGroupRing(datum, FormalGroupLaw.multiplicative(trunc)), word)
    assert by_coefficients.fgr.law.log == by_log.fgr.law.log

    def text(ring):
        relations = [{K: str(c) for K, c in rel.items()} for rel in ring.presentation.relations]
        return relations, {K: str(c) for K, c in ring.tangent_chern_class().coords.items()}

    assert text(by_log) == text(by_coefficients)


def test_first_relation_always_trivial(a2_univ):
    pres = bs_presentation(a2_univ, (1, 2, 1))
    rel = pres.relation(1)
    assert all(c.is_zero() for c in rel.values())


def test_second_relation_additive(a2_add):
    pres = bs_presentation(a2_add, (1, 2))
    rel = pres.relation(2)
    assert rel[()].is_zero()
    assert rel[(1,)] == a2_add.ring.const(-1)


def test_presentation_multiplicative_matches_specialized_universal(a2_univ):
    from fractions import Fraction

    from flagcohom.coeffring import CoeffRing

    target = CoeffRing((("beta", 1),), True)
    beta = target.gen("beta")
    assignment = {
        f"m{i}": beta ** i * Fraction(1, i + 1) for i in range(1, a2_univ.trunc)
    }
    mult = FormalGroupRing(
        a2_univ.datum, a2_univ.law.specialize(assignment, target)
    )
    word = (1, 2, 1)
    pres_u = bs_presentation(a2_univ, word)
    pres_m = bs_presentation(mult, word)
    for j in range(1, len(word) + 1):
        for K, c in pres_u.relation(j).items():
            assert c.specialize(assignment, target) == pres_m.relation(j)[K]


def test_cc_in_xi_of_unit(a2_univ):
    coords = theta_coefficients(a2_univ, (1, 2), a2_univ.one())
    for K, c in coords.items():
        want = a2_univ.ring.one() if K == () else a2_univ.ring.zero()
        assert c == want


def test_cc_in_xi_empty_word(a2_univ):
    rng = random.Random(0)
    u = rand_elt(a2_univ, rng)
    coords = theta_coefficients(a2_univ, (), u)
    assert coords == {(): u.constant_term()}


def test_characteristic_map_is_ring_morphism(a2_univ):
    ring = BSRing(a2_univ, (1, 2, 1))
    rng = random.Random(1)
    for _ in range(5):
        u, v = rand_elt(a2_univ, rng), rand_elt(a2_univ, rng)
        assert ring.characteristic_class(u * v) == (
            ring.characteristic_class(u) * ring.characteristic_class(v)
        )


def test_pushforward_empty_word(a2_univ):
    rng = random.Random(2)
    u = rand_elt(a2_univ, rng)
    assert bs_pushforward(a2_univ, (), u) == u.constant_term()


def test_pushforward_u0_reduced_words(a2_universal):
    fgr = a2_universal.fgr
    u0 = a2_universal.torsion.u0
    N, t = a2_universal.N, a2_universal.t
    for word in ((1, 2, 1), (2, 1, 2)):
        assert bs_pushforward(fgr, word, u0) == fgr.ring.const((-1) ** N * t)


def test_pushforward_reversal_symmetry_b2(b2_universal):
    fgr = b2_universal.fgr
    u0 = b2_universal.torsion.u0
    words = [()]
    for _ in range(b2_universal.N):
        words = [w + (i,) for w in words for i in (1, 2)]
        for word in words:
            lhs = bs_pushforward(fgr, word, u0)
            rhs = bs_pushforward(fgr, tuple(reversed(word)), u0)
            assert lhs == rhs


def test_tangent_empty_word(a2_univ):
    ring = BSRing(a2_univ, ())
    assert ring.tangent_chern_class() == ring.one()


def test_tangent_single_letter_additive(a2_add):
    ring = BSRing(a2_add, (1,))
    got = ring.tangent_chern_class()
    want = ring.one() + ring.xi(1).scale(2)
    assert got == want


def test_tangent_unit_coefficient(a2_univ):
    ring = BSRing(a2_univ, (1, 2))
    tangent = ring.tangent_chern_class()
    assert tangent.coords[()] == a2_univ.ring.one()


def test_xi_squares_from_relations(a2_univ):
    ring = BSRing(a2_univ, (1, 2, 1))
    for j in (1, 2, 3):
        lhs = ring.xi(j) * ring.xi(j)
        rhs = ring.zero()
        for K, c in ring.presentation.relation(j).items():
            if not c.is_zero():
                rhs = rhs + ring.from_subset_coords({tuple(sorted(set(K) | {j})): c})
        assert lhs == rhs


def naive_evaluate(ring, series, args):
    """series(args) summed over every monomial, by repeated tower products.

    Asserts first that every monomial of degree trunc + 1 in the arguments
    vanishes, so the truncated sum is the exact value.
    """
    one = ring.one()

    def monomial(e):
        term = one
        for a, k in zip(args, e):
            for _ in range(k):
                term = term * a
        return term

    n, top = len(args), series.trunc + 1
    for e in _exponents(n, top):
        assert monomial(e).is_zero()
    acc = ring.zero()
    for e, c in series.coeffs.items():
        acc = acc + monomial(e).scale(c)
    return acc


def _exponents(n, d):
    if n == 1:
        return [(d,)]
    return [(k,) + e for k in range(d + 1) for e in _exponents(n - 1, d - k)]


def naive_tangent(ring):
    """prod_j (1 + xi_j)(1 + F(xi_j, iota(y_j))), from the two-variable law."""
    law = ring.fgr.law
    total = ring.one()
    for j in range(1, len(ring.word) + 1):
        xi = ring.xi(j)
        iota_y = naive_evaluate(ring, law.inverse, [ring.y_element(j)])
        diff = naive_evaluate(ring, law.F, [xi, iota_y])
        total = total * (ring.one() + xi) * (ring.one() + diff)
    return total


def _law(name, trunc):
    if name == "universal":
        return FormalGroupLaw.universal(trunc)
    if name == "ktheory":
        return FormalGroupLaw.multiplicative(trunc)
    if name == "connective":
        return FormalGroupLaw.connective(trunc)
    ring = CoeffRing((), rational_mode=True)
    return FormalGroupLaw.from_log(ring, trunc, [Fraction(1, 2), Fraction(-2, 3), 3])


@pytest.mark.parametrize(
    "typ, word, theory, trunc",
    [
        ("A2", (1, 2, 1), "universal", 7),
        ("A2", (1, 1, 2), "universal", 5),
        ("B2", (1, 2, 1, 2), "ktheory", 6),
        ("G2", (1, 2), "connective", 7),
        ("A2", (2, 1, 2), "from_log", 5),
    ],
)
def test_tangent_matches_two_variable_oracle(typ, word, theory, trunc):
    fgr = FormalGroupRing(RootDatum.build(typ), _law(theory, trunc))
    ring = BSRing(fgr, word)
    assert ring.tangent_chern_class() == naive_tangent(ring)


def test_tangent_needs_nilpotency_within_truncation():
    # y_3 squares to a nonzero class, so k(y_3), valid to degree 1, is not known.
    ring = BSRing(FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.universal(2)), (1, 2, 1))
    with pytest.raises(InsufficientPrecisionError):
        ring.tangent_chern_class()


@pytest.mark.parametrize(
    "typ, word, theory", [("A2", (1, 2, 1), "universal"), ("B2", (1, 2, 1, 2), "ktheory")]
)
def test_bs_body_does_not_depend_on_the_truncation(typ, word, theory):
    from flagcohom.tables import make_theory

    def body(trunc):
        law, _ = make_theory(theory, trunc)
        ring = BSRing(FormalGroupRing(RootDatum.build(typ), law), word)
        relations = [
            {K: str(c) for K, c in ring.presentation.relation(j).items() if not c.is_zero()}
            for j in range(1, len(word) + 1)
        ]
        return relations, {K: str(c) for K, c in ring.tangent_chern_class().coords.items()}

    # len(word) + 2 is what bs builds its law at for these words
    assert body(len(word) + 2) == body(len(word) + 6)
