"""Integral a-basis of the universal coefficient ring."""

from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom.coeffring import CoeffPoly, CoeffRing
from flagcohom.errors import IntegralityError, NotInImageError, RingMismatchError
from flagcohom.fgl import FormalGroupLaw
from flagcohom.lazard import PAPER_COMBOS, LazardBasis, lazard_combination, weighted_monomials
from flagcohom.selfcheck import CheckContext, check_lazard_roundtrip


def test_a1_is_minus_two_m1(universal8, lazard6):
    m1 = universal8.ring.gen("m1")
    assert lazard6.to_a_basis(m1.scale(-2)) == lazard6.a_ring.gen("a1")


def test_zero_maps_to_zero(lazard6):
    assert lazard6.to_a_basis(lazard6.m_ring.zero()).is_zero()


def test_a12_is_a2(universal8, lazard6):
    assert lazard6.to_a_basis(universal8.a_table[(1, 2)]) == lazard6.a_ring.gen("a2")


def test_paper_combinations(universal8, lazard6):
    t = universal8.a_table
    a = lazard6.a_ring.gen
    assert lazard6.to_a_basis(t[(1, 1)]) == a("a1")
    assert lazard6.to_a_basis(t[(2, 2)] - t[(1, 3)]) == a("a3")
    assert lazard6.to_a_basis(t[(1, 4)]) == a("a4")
    combo = t[(1, 5)].scale(-9) + t[(2, 4)] + t[(3, 3)].scale(2)
    assert lazard6.to_a_basis(combo) == a("a5")


@pytest.mark.parametrize("trunc, bound", [(13, 6), (19, 9)])
def test_expansions_from_the_low_sum_match_the_full_law(trunc, bound, monkeypatch):
    # The basis reads x +F y built only to degree bound + 1, never the full F.
    law = FormalGroupLaw.universal(trunc)
    degrees = []
    log_sum = FormalGroupLaw.log_sum
    monkeypatch.setattr(
        FormalGroupLaw, "log_sum", lambda self, valid: degrees.append(valid) or log_sum(self, valid)
    )
    laz = LazardBasis(law, bound)
    assert degrees == [bound + 1]
    table = law.a_table
    assert degrees == [bound + 1, trunc]
    for d in range(1, bound + 1):
        want = law.ring.zero()
        for (i, j), c in PAPER_COMBOS.get(d) or lazard_combination(d):
            want = want + table[(i, j)].scale(c)
        assert laz.expansions[f"a{d}"] == want


def test_every_aij_is_integral():
    assert check_lazard_roundtrip(CheckContext()) == (True, "")


def test_roundtrip_random_products():
    assert check_lazard_roundtrip(CheckContext(seed=2)) == (True, "")


def test_non_integral_raises(universal8, lazard6):
    # m1 = -a1/2 is not in the integral subring.
    with pytest.raises(IntegralityError):
        lazard6.to_a_basis(universal8.ring.gen("m1"))


def test_exceeding_bound_raises(universal8, lazard6):
    p = universal8.a_table[(1, 1)] ** 7  # weight 7 > 6
    with pytest.raises(NotInImageError):
        lazard6.to_a_basis(p)
    with pytest.raises(NotInImageError):  # m7 has no image, and weight 7
        lazard6.to_a_basis(universal8.ring.gen("m7"))
    with pytest.raises(RingMismatchError):
        lazard6.to_a_basis(lazard6.a_ring.gen("a1"))


def _g(d):
    """gcd_i binom(d+1, i): p when d+1 is a power of the prime p, else 1."""
    n, p = d + 1, 2
    while n % p:
        p += 1
    while n % p == 0:
        n //= p
    return p if n == 1 else 1


@pytest.mark.parametrize("d", range(1, 21))
def test_lazard_combination_hits_the_binomial_gcd(d):
    g = 0
    for i in range(1, d + 1):
        g = gcd(g, comb(d + 1, i))
    assert g == _g(d)
    for combo in (lazard_combination(d), PAPER_COMBOS.get(d, ())):
        if combo:
            assert sum(lam * comb(d + 1, i) for (i, _), lam in combo) == g


def test_lazard_combination_pinned():
    assert lazard_combination(5) == (((1, 5), -14), ((2, 4), 7), ((3, 3), -1))
    assert lazard_combination(6) == (((1, 6), 1),)
    assert lazard_combination(7) == (((1, 7), 51), ((2, 6), -17), ((4, 4), 1))
    assert lazard_combination(8) == (((1, 8), -9), ((3, 6), 1))
    assert lazard_combination(9) == (((1, 9), -404), ((2, 8), 101), ((5, 5), -2))


@pytest.fixture(scope="module")
def lazard10():
    # The bound of A4, the largest universal table the CLI builds.
    return LazardBasis(FormalGroupLaw.universal(11), 10)


def test_a6_leading_term(lazard10):
    # Every generator, paper or not, has m_d coefficient exactly -g_d (for a6
    # that is -7); the inverse map divides by it.
    for d in range(1, 11):
        m_index = lazard10.m_ring.names.index(f"m{d}")
        e = tuple(int(k == m_index) for k in range(lazard10.m_ring.ngens))
        assert dict(lazard10.expansions[f"a{d}"].sorted_terms())[e] == -_g(d), d


def test_weighted_monomials():
    assert weighted_monomials((1, 2), 4) == [(0, 2), (2, 1), (4, 0)]
    assert len(weighted_monomials((1, 2, 3, 4, 5, 6), 6)) == 11


@pytest.mark.parametrize("weights", [(), (3,), (1, 2), (4, 6), (2, 3, 5), (1, 2, 3, 4, 5, 6)])
def test_weighted_monomials_match_brute_force(weights):
    from itertools import product

    for target in range(-1, 13):
        ranges = [range(max(target, 0) // w + 1) for w in weights]
        want = [e for e in product(*ranges) if sum(k * w for k, w in zip(e, weights)) == target]
        assert weighted_monomials(weights, target) == want


@pytest.fixture(scope="module")
def lazard9():
    return LazardBasis(FormalGroupLaw.universal(10), 9)


A9 = CoeffRing(tuple((f"a{d}", d) for d in range(1, 10)))
A9_POLYS = st.dictionaries(
    st.sampled_from([e for w in range(10) for e in weighted_monomials(A9.weights, w)]),
    st.integers(-50, 50),
    max_size=6,
).map(lambda t: CoeffPoly(A9, t))


@settings(max_examples=40, deadline=None)
@given(A9_POLYS)
def test_roundtrip_integral_a_polynomials(lazard9, p):
    # Weights 6-9 use lazard_combination; no table byte pin reaches weights 7-9.
    assert lazard9.a_ring == A9
    m = lazard9.from_a_basis(p)
    assert m.ring == lazard9.m_ring
    assert lazard9.to_a_basis(m) == p
