"""Tower presentations, xi-coordinates, push-forward, tangent class."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from flagcohom import cli
from flagcohom.bott import BSRing, bs_pushforward, theta_coefficients
from flagcohom.coeffring import CoeffRing
from flagcohom.errors import InsufficientPrecisionError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.fgring import FormalGroupRing
from flagcohom.rootdata import RootDatum
from flagcohom.tables import make_theory
from flagcohom.tseries import TruncatedSeries


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
    by_log = BSRing(datum, multiplicative_by_log(trunc), word)
    by_coefficients = BSRing(datum, FormalGroupLaw.multiplicative(trunc), word)
    assert by_coefficients.law.log == by_log.law.log

    def text(ring):
        relations = [{K: str(c) for K, c in rel.items()} for rel in ring.relations]
        return relations, {K: str(c) for K, c in ring.tangent_chern_class().coords.items()}

    assert text(by_log) == text(by_coefficients)


def test_first_relation_always_trivial(a2_univ):
    rel = BSRing(a2_univ.datum, a2_univ.law, (1, 2, 1)).relation(1)
    assert all(c.is_zero() for c in rel.values())


def test_second_relation_additive(a2_add):
    rel = BSRing(a2_add.datum, a2_add.law, (1, 2)).relation(2)
    assert rel[()].is_zero()
    assert rel[(1,)] == a2_add.ring.const(-1)


def test_presentation_multiplicative_matches_specialized_universal(a2_univ):
    from fractions import Fraction

    from flagcohom.coeffring import CoeffRing

    target = CoeffRing((("beta", 1),))
    beta = target.gen("beta")
    assignment = {
        f"m{i}": beta ** i * Fraction(1, i + 1) for i in range(1, a2_univ.trunc)
    }
    mult = a2_univ.law.specialize(assignment, target)
    word = (1, 2, 1)
    ring_u, ring_m = BSRing(a2_univ.datum, a2_univ.law, word), BSRing(a2_univ.datum, mult, word)
    for j in range(1, len(word) + 1):
        for K, c in ring_u.relation(j).items():
            assert c.specialize(assignment, target) == ring_m.relation(j)[K]


def test_cc_in_xi_of_unit(a2_univ):
    coords = theta_coefficients(a2_univ.datum, a2_univ.law, (1, 2), a2_univ.one())
    for K, c in coords.items():
        want = a2_univ.ring.one() if K == () else a2_univ.ring.zero()
        assert c == want


def test_cc_in_xi_empty_word(a2_univ):
    rng = random.Random(0)
    u = rand_elt(a2_univ, rng)
    coords = theta_coefficients(a2_univ.datum, a2_univ.law, (), u)
    assert coords == {(): u.constant_term()}


def test_characteristic_map_is_ring_morphism(a2_univ):
    ring = BSRing(a2_univ.datum, a2_univ.law, (1, 2, 1))
    rng = random.Random(1)
    for _ in range(5):
        u, v = rand_elt(a2_univ, rng), rand_elt(a2_univ, rng)
        assert ring.characteristic_class(u * v) == (
            ring.characteristic_class(u) * ring.characteristic_class(v)
        )


def test_characteristic_class_reads_the_towers_model(a2_univ, monkeypatch):
    # c_I(u) reads the model the presentation was built on: mapping many
    # elements through one tower builds no further FlagBasis.
    from flagcohom import bott

    ring, built = BSRing(a2_univ.datum, a2_univ.law, (1, 2, 1)), []
    init = bott.FlagBasis.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bott.FlagBasis, "__init__", counted)
    rng = random.Random(3)
    for _ in range(3):
        ring.characteristic_class(rand_elt(a2_univ, rng))
    ring.tangent_chern_class()
    assert built == []


def test_characteristic_class_needs_the_whole_word_in_the_truncation():
    # The relations of a length-4 word read r_k for k <= 2, c_I for k <= 3.
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.universal(3))
    ring = BSRing(fgr.datum, fgr.law, (1, 2, 1, 2))
    with pytest.raises(InsufficientPrecisionError, match="at least 4"):
        ring.characteristic_class(fgr.one())


@pytest.mark.parametrize(
    "typ, word",
    [("A2", (1, 2, 1)), ("A3", (1, 2, 3, 1, 2)), ("G2", (1, 2, 1, 2)), ("B3", (1, 2, 3, 2))],
)
def test_tower_characteristic_class_matches_a_model_of_the_words_degree(typ, word):
    # The tower's one model serves its relations (r_k, k <= l - 2) and c_I
    # (r_k, k <= l - 1); c_I must read r up to l - 1 as a model built for
    # the word alone does.
    datum = RootDatum.build(typ)
    law, _ = make_theory("universal", max(len(word) + 2, datum.N + 1))
    rng = random.Random(len(word))
    for _ in range(2):
        terms = {}
        for _ in range(8):
            e = [0] * datum.rank
            for _ in range(rng.randint(0, len(word))):
                e[rng.randrange(datum.rank)] += 1
            terms[tuple(e)] = rng.randint(-3, 3)
        u = TruncatedSeries.from_terms(law.ring, datum.rank, law.trunc, terms)
        got = BSRing(datum, law, word).characteristic_class(u).coords
        want = theta_coefficients(datum, law, word, u)
        assert got == {K: c for K, c in want.items() if not c.is_zero()}


def test_a_read_past_the_models_degree_raises():
    # A model reads the law through its own degree, whatever the law's
    # truncation: a reader that needs more raises instead of reading less.
    from flagcohom import bott
    from flagcohom.flagring import FlagBasis

    datum, law = RootDatum.build("A2"), FormalGroupLaw.universal(9)
    model, u = FlagBasis(datum, law, 1), TruncatedSeries.const(law.ring, 2, 9, 1)
    c_12 = bott._characteristic(model, (1, 2))(model._image(u, 2))
    assert c_12 == theta_coefficients(datum, law, (1, 2), u)
    with pytest.raises(InsufficientPrecisionError, match="model of degree 1"):
        bott._characteristic(model, (1, 2, 1))
    for table_reader in (model.unit_class, lambda: model.eps_vector(u)):
        with pytest.raises(InsufficientPrecisionError, match="model of degree 1"):
            table_reader()


def test_pushforward_empty_word(a2_univ):
    rng = random.Random(2)
    u = rand_elt(a2_univ, rng)
    assert bs_pushforward(a2_univ.datum, a2_univ.law, (), u) == u.constant_term()


def test_pushforward_u0_reduced_words(a2_universal):
    fb = a2_universal
    u0, N, t = fb.torsion.u0, fb.N, fb.t
    for word in ((1, 2, 1), (2, 1, 2)):
        assert bs_pushforward(fb.datum, fb.law, word, u0) == fb.ring.const((-1) ** N * t)


def test_pushforward_reversal_symmetry_b2(b2_universal):
    datum, law = b2_universal.datum, b2_universal.law
    u0 = b2_universal.torsion.u0
    words = [()]
    for _ in range(b2_universal.N):
        words = [w + (i,) for w in words for i in (1, 2)]
        for word in words:
            lhs = bs_pushforward(datum, law, word, u0)
            rhs = bs_pushforward(datum, law, tuple(reversed(word)), u0)
            assert lhs == rhs


def test_tangent_empty_word(a2_univ):
    ring = BSRing(a2_univ.datum, a2_univ.law, ())
    assert ring.tangent_chern_class() == ring.one()


def test_tangent_single_letter_additive(a2_add):
    ring = BSRing(a2_add.datum, a2_add.law, (1,))
    got = ring.tangent_chern_class()
    want = ring.one() + ring.xi(1).scale(2)
    assert got == want


def test_tangent_unit_coefficient(a2_univ):
    ring = BSRing(a2_univ.datum, a2_univ.law, (1, 2))
    tangent = ring.tangent_chern_class()
    assert tangent.coords[()] == a2_univ.ring.one()


def test_tower_product_skips_d_times_y_when_b_is_empty(monkeypatch):
    # In (a + b xi_j)(c + d xi_j), d*y_j is read only through b*(c + d*y_j):
    # with no b it is not computed.  The A3 universal tangent class at
    # length 6 made 2,742 recursive calls when d*y_j was always computed.
    from flagcohom import bott

    word = (1, 2, 3, 1, 2, 1)
    law, _ = make_theory("universal", 8)
    ring = BSRing(RootDatum.build("A3"), law, word)
    calls, inner = [], bott._tower_mul
    monkeypatch.setattr(bott, "_tower_mul", lambda *args: calls.append(1) or inner(*args))
    assert len(ring.tangent_chern_class().coords) == 64
    assert len(calls) == 2650


def test_xi_squares_from_relations(a2_univ):
    ring = BSRing(a2_univ.datum, a2_univ.law, (1, 2, 1))
    for j in (1, 2, 3):
        lhs = ring.xi(j) * ring.xi(j)
        rhs = ring.zero()
        for K, c in ring.relation(j).items():
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
    law = ring.law
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
    ring = CoeffRing(())
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
    ring = BSRing(RootDatum.build(typ), _law(theory, trunc), word)
    assert ring.tangent_chern_class() == naive_tangent(ring)


def test_tangent_needs_nilpotency_within_truncation():
    # y_3 squares to a nonzero class, so k(y_3), valid to degree 1, is not known.
    ring = BSRing(RootDatum.build("A2"), FormalGroupLaw.universal(2), (1, 2, 1))
    with pytest.raises(InsufficientPrecisionError):
        ring.tangent_chern_class()


@pytest.mark.parametrize(
    "typ, word, theory", [("A2", (1, 2, 1), "universal"), ("B2", (1, 2, 1, 2), "ktheory")]
)
def test_bs_body_does_not_depend_on_the_truncation(typ, word, theory):
    from flagcohom.tables import make_theory

    def body(trunc):
        law, _ = make_theory(theory, trunc)
        ring = BSRing(RootDatum.build(typ), law, word)
        relations = [
            {K: str(c) for K, c in ring.relation(j).items() if not c.is_zero()}
            for j in range(1, len(word) + 1)
        ]
        return relations, {K: str(c) for K, c in ring.tangent_chern_class().coords.items()}

    # len(word) + 2 is what bs builds its law at for these words
    assert body(len(word) + 2) == body(len(word) + 6)


@pytest.mark.parametrize(
    "typ, word, theory",
    [
        ("A2", (1, 2, 1), "universal"),
        ("A3", (1, 2, 3, 1, 2, 1), "universal"),
        ("B3", (1, 2, 3, 2, 1), "ktheory"),
        ("G2", (1, 2, 1, 2), "connective"),
    ],
)
def test_model_functionals_match_the_series_operators(typ, word, theory):
    # FormalGroupRing.theta and c_word compose the operators on the formal
    # group ring itself: the definition the model's functionals must meet.
    datum = RootDatum.build(typ)
    law, _ = make_theory(theory, max(len(word) + 2, datum.N + 1))
    fgr = FormalGroupRing(datum, law)
    rng = random.Random(len(word))
    for _ in range(2):
        terms = {}
        for _ in range(6):
            e = [0] * fgr.n
            for _ in range(rng.randint(0, len(word))):
                e[rng.randrange(fgr.n)] += 1
            terms[tuple(e)] = rng.randint(-3, 3)
        u = fgr.from_monomials(terms)
        want = {K: v.constant_term() for K, v in fgr.theta(word, u.restrict(len(word)))}
        assert theta_coefficients(fgr.datum, fgr.law, word, u) == want
        assert bs_pushforward(fgr.datum, fgr.law, word, u) == fgr.c_word(word, u).constant_term()


@pytest.mark.parametrize(
    "args, digest",
    [
        (["bs", "--type", "A3", "--word", "1,2,3,1,2,1", "--theory", "universal"],
         "f010e751075217f4834f08e6b8513a9f86e716b04559c68002142e6d5ae57d01"),
        (["bs", "--type", "A3", "--word", "1,2,3,1,2,1,3,2", "--theory", "ktheory"],
         "1f0449a1aba37d6805929b17c3e3d5617dac1f2801a26e03c34c5eecbf67f2ee"),
    ],
)
def test_bs_runs_no_series_operator_and_no_multivariate_substitution(args, digest, monkeypatch):
    # The presentation, the tangent factors and the push-forward are
    # functionals on the Chow model: bs builds no formal group ring and
    # composes none of its operators.  Building a law given by its coefficients validates F by
    # multivariate substitution; that is the law's check, not the tower's.
    def refuse(*args, **kwargs):
        raise AssertionError("the formal group ring ran for bs")

    substitute, building = TruncatedSeries.substitute, []

    def one_variable_only(series, images):
        if series.n_vars > 1 and not building:
            raise AssertionError("a multivariate substitution ran for bs")
        return substitute(series, images)

    def law(*args):
        building.append(True)
        try:
            return make_theory(*args)
        finally:
            building.pop()

    for name in ("__init__", "theta", "s_act", "delta_neg", "cc", "x_lambda_series"):
        monkeypatch.setattr(FormalGroupRing, name, refuse)
    monkeypatch.setattr(TruncatedSeries, "substitute", one_variable_only)
    monkeypatch.setattr(cli, "make_theory", law)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args)
    assert rc == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
