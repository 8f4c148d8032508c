"""Integral a-basis of the universal coefficient ring."""

import pytest

from flagcohom.errors import IntegralityError, NotInImageError
from flagcohom.lazard import _solve_structure, weighted_monomials
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


def test_every_aij_is_integral(universal8, lazard6):
    for (i, j), poly in universal8.a_table.items():
        if i + j - 1 <= 6:
            conv = lazard6.to_a_basis(poly)
            assert conv.is_integer()
            assert lazard6.from_a_basis(conv) == poly


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


def test_a6_leading_term(lazard6):
    # The degree-6 indecomposable has m6-coefficient +-7.
    a6 = lazard6.expansions["a6"]
    m6_index = lazard6.m_ring.names.index("m6")
    e = tuple(1 if k == m6_index else 0 for k in range(lazard6.m_ring.ngens))
    assert abs(dict(a6.sorted_terms())[e]) == 7


def test_weighted_monomials():
    assert weighted_monomials((1, 2), 4) == [(0, 2), (2, 1), (4, 0)]
    assert len(weighted_monomials((1, 2, 3, 4, 5, 6), 6)) == 11


def test_solve_structure_left_inverse_and_span_checks():
    # Universal weights give square systems, so the span checks are empty
    # there; a tall system exercises them.
    columns = [[1, 2, 0], [0, 3, 1]]
    left_inverse, checks = _solve_structure(columns, 3)
    for row, want in zip(left_inverse, ((1, 0), (0, 1))):
        assert tuple(sum(r * col[k] for k, r in enumerate(row)) for col in columns) == want
    assert len(checks) == 1 and any(checks[0])
    assert all(sum(r * col[k] for k, r in enumerate(checks[0])) == 0 for col in columns)
    assert sum(r * v for r, v in zip(checks[0], (0, 0, 1))) != 0
    with pytest.raises(NotInImageError):
        _solve_structure([[1, 2], [2, 4]], 2)
