"""The formal group ring: x_lambda, Weyl action, difference operators, torsion."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom.bott import theta_coefficients
from flagcohom.coeffring import CoeffRing, _ext_gcd
from flagcohom.errors import InsufficientPrecisionError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.fgring import FormalGroupRing
from flagcohom.flagring import torsion_bezout
from flagcohom.reference import RANK4_TORSION
from flagcohom.rootdata import RootDatum
from flagcohom.selfcheck import (
    CheckContext,
    check_decomposition_system,
    check_simple_operators_by_substitution,
)
from flagcohom.tseries import TruncatedSeries


@pytest.fixture(scope="module")
def a2_small():
    return FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.universal(6))


@pytest.fixture(scope="module")
def b2_small():
    return FormalGroupRing(RootDatum.build("B2"), FormalGroupLaw.universal(6))


def rand_elt(fgr, rng, nterms=4, max_deg=3):
    terms = {}
    for _ in range(nterms):
        e = [0] * fgr.n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(fgr.n)] += 1
        c = rng.randint(-3, 3)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return fgr.from_monomials(terms)


def test_x_fundamental_weight(a2_small):
    assert a2_small.x_lambda_series((1, 0)) == a2_small.variable(0)


def test_x_lambda_additive_linear():
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(5))
    got = fgr.x_lambda_series((2, -3))
    want = fgr.variable(0) * 2 - fgr.variable(1) * 3
    assert got == want


def _rational_from_log(trunc):
    return FormalGroupLaw.from_log(
        CoeffRing(()), trunc, [Fraction(1, 2), Fraction(-2, 3), 3]
    )


def _twisted_from_log(trunc):
    t1 = CoeffRing((("t1", 1),))
    x = TruncatedSeries.variable(t1, 1, trunc, 0)
    return _rational_from_log(trunc).twist(x + (x * x).scale(t1.gen("t1")))


LAWS = {
    "additive": FormalGroupLaw.additive,
    "universal": FormalGroupLaw.universal,
    "multiplicative": FormalGroupLaw.multiplicative,
    "connective": FormalGroupLaw.connective,
    "from_log": _rational_from_log,
    "twist": _twisted_from_log,
}


@functools.lru_cache(maxsize=None)
def sum_ring(law, typ):
    return FormalGroupRing(RootDatum.build(typ), LAWS[law](5))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["universal", "multiplicative", "connective", "from_log", "twist"]),
    st.sampled_from(["A2", "G2", "A3"]),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
)
def test_x_lambda_sum_relation(law, typ, entries):
    # The law's F is an oracle that the log route never uses.
    fgr = sum_ring(law, typ)
    n = fgr.n
    lam, mu = tuple(entries[:n]), tuple(entries[3 : 3 + n])
    total = tuple(a + b for a, b in zip(lam, mu))
    lhs = fgr.x_lambda_series(total)
    rhs = fgr.law.formal_sum(fgr.x_lambda_series(lam), fgr.x_lambda_series(mu))
    assert lhs == rhs and lhs.valid_degree == rhs.valid_degree
    for i in range(n):
        omega = fgr.x_lambda_series(fgr.datum.fundamental_weight(i))
        assert omega == fgr.variable(i) and omega.valid_degree == fgr.trunc


@pytest.mark.parametrize("typ", ["A2", "B2", "G2", "A3"])
def test_x_lambda_log_route_matches_substitution(typ):
    datum = RootDatum.build(typ)
    law = FormalGroupLaw.universal(7)
    fgr = FormalGroupRing(datum, law)
    weights = [r for r, _ in datum.all_roots()]
    weights += [datum.reflect(i, datum.fundamental_weight(i)) for i in range(fgr.n)]
    for lam in weights:
        images = [law.multiple(c, fgr.variable(i)) for i, c in enumerate(lam)]
        want = functools.reduce(law.formal_sum, images)
        got = fgr.x_lambda_series(lam)
        assert got == want and got.valid_degree == want.valid_degree


def test_weyl_identity_action(a2_small):
    rng = random.Random(2)
    u = rand_elt(a2_small, rng)
    e = a2_small.datum.weyl_elements()[0]
    assert a2_small.weyl_act(e, u) == u


def test_weyl_on_x_lambda(a2_small):
    rng = random.Random(3)
    datum = a2_small.datum
    for w in datum.weyl_elements():
        lam = (rng.randint(-2, 2), rng.randint(-2, 2))
        x = a2_small.x_lambda_series
        assert a2_small.weyl_act(w, x(lam)) == x(w.apply(lam))


def test_s_squared_identity(a2_small):
    rng = random.Random(4)
    for _ in range(5):
        u = rand_elt(a2_small, rng)
        for i in (1, 2):
            assert a2_small.s_act(i, a2_small.s_act(i, u)) == u


def test_augmentation(a2_small):
    rng = random.Random(5)
    assert a2_small.one().constant_term() == 1
    assert a2_small.x_lambda_series((1, 1)).constant_term().is_zero()
    u, v = rand_elt(a2_small, rng), rand_elt(a2_small, rng)
    assert (u * v).constant_term() == u.constant_term() * v.constant_term()


def test_delta_of_one(a2_small):
    assert a2_small.delta(1, a2_small.one()).is_zero()


def test_delta_additive_fundamental():
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(5))
    assert fgr.delta(1, fgr.variable(0)) == fgr.const(1)


def test_delta_defining_relation(a2_small):
    rng = random.Random(6)
    for _ in range(10):
        u = rand_elt(a2_small, rng)
        for i in (1, 2):
            xa = a2_small.x_lambda_series(a2_small.datum.simple_roots[i - 1])
            assert a2_small.delta(i, u) * xa + a2_small.s_act(i, u) == u


def test_simple_operators_match_the_substitution_route():
    ok, detail = check_simple_operators_by_substitution(CheckContext(seed=5))
    assert ok, detail


@pytest.mark.parametrize("law", ["universal", "multiplicative"])
def test_operator_tables_rebuilt_when_demand_grows(law):
    datum = RootDatum.build("B2")
    fgr = FormalGroupRing(datum, LAWS[law](7))
    u = rand_elt(fgr, random.Random(14), nterms=8, max_deg=5)
    ops = ("s_act", "delta", "delta_neg", "cc", "cc_neg")
    for valid in (2, fgr.trunc):
        fresh = FormalGroupRing(datum, LAWS[law](7))
        for op in ops:
            for i in (1, 2):
                got = getattr(fgr, op)(i, u.restrict(valid))
                want = getattr(fresh, op)(i, u.restrict(valid))
                assert got == want and got.valid_degree == want.valid_degree
    for op in ops[1:]:
        with pytest.raises(InsufficientPrecisionError):
            getattr(fgr, op)(1, u.restrict(0))


def test_cc_values(a2_small):
    i = 1
    alpha = a2_small.datum.simple_roots[0]
    xm = a2_small.x_lambda_series(tuple(-c for c in alpha))
    assert a2_small.cc(i, xm) == a2_small.const(2)
    assert a2_small.cc(i, a2_small.one()) == a2_small.kappa_element(i)


def test_cc_additive_is_minus_delta():
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(5))
    rng = random.Random(7)
    for _ in range(5):
        u = rand_elt(fgr, rng)
        for i in (1, 2):
            assert fgr.cc(i, u) == -fgr.delta(i, u)


def test_word_empty(a2_small):
    rng = random.Random(8)
    u = rand_elt(a2_small, rng)
    assert a2_small.delta_word((), u) == u
    assert a2_small.c_word((), u) == u


def test_word_precision_guard(a2_small):
    u = a2_small.one().restrict(1)
    with pytest.raises(InsufficientPrecisionError):
        a2_small.delta_word((1, 2), u)


def test_theta_empty_subset_is_weyl_action(a2_small):
    rng = random.Random(10)
    u = rand_elt(a2_small, rng)
    word = (1, 2)
    got = dict(a2_small.theta(word, u))[()]
    want = a2_small.weyl_act(a2_small.datum.element_of_word(word), u)
    assert got == want


def test_theta_full_subset_is_delta_neg_chain(a2_small):
    rng = random.Random(11)
    u = rand_elt(a2_small, rng)
    word = (1, 2)
    got = dict(a2_small.theta(word, u))[(1, 2)]
    want = a2_small.delta_neg(1, a2_small.delta_neg(2, u))
    assert got == want


def test_theta_additive_example():
    # Presentation coefficient at j = 2, K = {1} for the word (1, 2):
    # eps delta_{-alpha_1}(x_{-alpha_2}) = -1 classically at A2.
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(5))
    x = fgr.x_lambda_series(tuple(-c for c in fgr.datum.simple_roots[1]))
    val = dict(fgr.theta((1,), x))[(1,)].constant_term()
    # independent route: (u - s_1 u)/x_{-alpha_1} on the linear form -alpha_2
    num = x - fgr.s_act(1, x)
    den = fgr.x_lambda_series(tuple(-c for c in fgr.datum.simple_roots[0]))
    want = num.exact_divide(den).constant_term()
    assert val == want
    assert val == -1
    # over the full word (1, 2) with K = {1} the extra reflection flips it
    val2 = dict(fgr.theta((1, 2), x))[(1,)].constant_term()
    assert val2 == 1


@pytest.mark.parametrize("fgr_name", ["a2_small", "b2_small"])
def test_theta_family_matches_definition(fgr_name, request, monkeypatch):
    fgr = request.getfixturevalue(fgr_name)
    u = rand_elt(fgr, random.Random(12))
    word = (1, 2, 1)
    l = len(word)
    calls = []
    s_act = fgr.s_act
    monkeypatch.setattr(fgr, "s_act", lambda i, v: calls.append(i) or s_act(i, v))
    family = dict(fgr.theta(word, u))
    assert len(calls) == 2 ** l - 1
    assert sorted(family) == sorted(
        K for r in range(l + 1) for K in itertools.combinations(range(1, l + 1), r)
    )
    for K, got in family.items():
        want = u
        for j in range(l, 0, -1):
            op = fgr.delta_neg if j in K else fgr.s_act
            want = op(word[j - 1], want)
        assert got == want
        assert got.valid_degree == want.valid_degree


@pytest.mark.parametrize("fgr_name", ["a2_small", "b2_small"])
def test_theta_coefficients_read_degrees_up_to_word_length(fgr_name, request):
    fgr = request.getfixturevalue(fgr_name)
    word = (1, 2, 1)
    high = {(2, 2): 1, (1, 3): -2, (4, 1): 3, (0, 5): 1, (3, 3): -1}
    u = rand_elt(fgr, random.Random(13)) + fgr.from_monomials(high)
    assert any(sum(e) > len(word) for e in u.coeffs)
    got = theta_coefficients(fgr.datum, fgr.law, word, u)
    assert len(got) == 2 ** len(word)
    for K, value in got.items():
        want = u
        for j in range(len(word), 0, -1):
            op = fgr.delta_neg if j in K else fgr.s_act
            want = op(word[j - 1], want)
        assert value == want.constant_term()


@pytest.mark.parametrize("typ", ["A2", "B2", "G2"])
@pytest.mark.parametrize(
    "law", ["additive", "multiplicative", "universal", "from_log", "twist"]
)
def test_kappa_quotient_identity_matches_substitution(typ, law):
    datum = RootDatum.build(typ)
    fgr = FormalGroupRing(datum, LAWS[law](7))

    def substituted(root):
        xs = [fgr.x_lambda_series(r) for r in (root, tuple(-c for c in root))]
        return fgr.law.kappa().substitute(xs)

    for i, root in enumerate(datum.simple_roots, start=1):
        got, want = fgr.kappa_element(i), substituted(root)
        assert got == want and got.valid_degree == want.valid_degree
    root = next(r for r in datum.positive_roots() if r not in datum.simple_roots)
    coroot = dict(datum.all_roots())[root]
    got, want = fgr.cc_root(root, coroot, fgr.one()), substituted(root)
    assert got == want and got.valid_degree == want.valid_degree


def per_monomial_torsion(datum):
    """eps delta_{I_w0}(y^e) chain by chain on each degree-N monomial, then the gcd fold."""
    N = datum.N
    fgr = FormalGroupRing(datum, FormalGroupLaw.additive(N + 1))
    word = datum.longest_element().canonical_word
    monomials = sorted(
        tuple(letters.count(i) for i in range(datum.rank))
        for letters in itertools.combinations_with_replacement(range(datum.rank), N)
    )
    g, combo = 0, []
    for e in monomials:
        c = fgr.delta_word(word, fgr.from_monomials({e: 1})).constant_term().constant_term()
        g, xs, ys = _ext_gcd(g, int(c))
        combo = [a * xs for a in combo] + [ys]
    return g, tuple((e, a) for e, a in zip(monomials, combo) if a)


@pytest.mark.parametrize("typ", ["A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4"])
def test_torsion_fold_matches_per_monomial_chains(typ):
    # Every table's bytes depend on this witness, so it must be tuple-equal.
    # The oracle runs series delta chains, which share no code with the Chow
    # class table that torsion_bezout reads.
    datum = RootDatum.build(typ)
    assert torsion_bezout(datum) == per_monomial_torsion(datum)


def test_rank4_torsion_values():
    # Cheap since the w0 functional is one fold: F4 takes a few seconds.
    for typ, want in RANK4_TORSION.items():
        datum = RootDatum.build(typ)
        t, monomials = torsion_bezout(datum)
        assert t == want, typ
        assert all(sum(e) == datum.N for e, _ in monomials)


def test_torsion_witness_evaluates_to_t(b2_small):
    td = b2_small.torsion_and_u0()
    datum = b2_small.datum
    for word in datum.reduced_words(datum.longest_element()):
        val = b2_small.delta_word(word, td.u0).constant_term()
        assert val == td.t


def test_decompose_over_invariants():
    ok, detail = check_decomposition_system(CheckContext())
    assert ok, detail


def test_decompose_unit_additive_satisfies_system():
    # Decompose 1 over the delta_w(u0) basis at the additive law and verify
    # every defining equation of the linear system directly.
    fgr = FormalGroupRing(RootDatum.build("A2"), FormalGroupLaw.additive(8))
    td = fgr.torsion_and_u0()
    r = fgr.decompose_over_invariants(fgr.one(), td)
    datum = fgr.datum
    w0 = datum.longest_element()
    for v in datum.weyl_elements():
        lhs = fgr.delta_word(v.canonical_word, fgr.one())
        rhs = None
        for w in datum.weyl_elements():
            word = w.canonical_word
            inner = fgr.delta_word(
                v.canonical_word, fgr.delta_word(word, td.u0)
            )
            term = r[word] * inner
            rhs = term if rhs is None else rhs + term
        assert lhs == rhs
    # the longest coefficient is the invariant lifting 1/t of the unit
    assert r[w0.canonical_word].constant_term() == 1
