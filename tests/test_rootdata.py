"""Root systems, Weyl groups, reduced words."""

from fractions import Fraction

import pytest

from flagcohom.rootdata import RootDatum, cartan_matrix
from flagcohom.selfcheck import CheckContext, check_poincare, check_reduced_words


def test_a2_constants():
    rd = RootDatum.build("A2")
    assert rd.cartan == ((2, -1), (-1, 2))
    assert rd.N == 3
    assert rd.order == 6


def test_b2_g2_counts():
    assert RootDatum.build("B2").N == 4
    assert RootDatum.build("B2").order == 8
    assert RootDatum.build("G2").N == 6
    assert RootDatum.build("G2").order == 12


def test_lengths_a2():
    lengths = [w.length for w in RootDatum.build("A2").weyl_elements()]
    assert lengths == [0, 1, 1, 2, 2, 3]


def test_reduced_words():
    rd = RootDatum.build("A2")
    w0 = rd.longest_element()
    assert rd.reduced_words(w0) == ((1, 2, 1), (2, 1, 2))
    assert rd.reduced_words(rd.weyl_elements()[0]) == ((),)
    b2 = RootDatum.build("B2")
    assert b2.reduced_words(b2.longest_element()) == ((1, 2, 1, 2), (2, 1, 2, 1))


def test_longest_element():
    assert RootDatum.build("A1").longest_element().length == 1
    g2 = RootDatum.build("G2")
    w0 = g2.longest_element()
    assert w0.length == 6
    assert w0.canonical_word == (1, 2, 1, 2, 1, 2)


def test_reflect():
    rd = RootDatum.build("A2")
    # s_1(omega_1) = omega_1 - alpha_1 = -omega_1 + omega_2
    assert rd.reflect(0, (1, 0)) == (-1, 1)
    # fixed weight
    assert rd.reflect(0, (0, 1)) == (0, 1)
    # involution
    lam = (3, -2)
    assert rd.reflect(1, rd.reflect(1, lam)) == lam


def test_words_multiply_to_elements():
    ok, detail = check_reduced_words(CheckContext())
    assert ok, detail


def test_poincare_polynomials():
    ok, detail = check_poincare(CheckContext())
    assert ok, detail


def test_positive_root_count():
    for typ, n in (("A2", 3), ("B2", 4), ("G2", 6), ("B3", 9), ("A3", 6)):
        rd = RootDatum.build(typ)
        assert len(rd.positive_roots()) == n
        assert len(rd.all_roots()) == 2 * n


def test_simple_root_reflection_negates():
    for typ in ("A2", "B2", "G2"):
        rd = RootDatum.build(typ)
        for i in range(rd.rank):
            alpha = rd.simple_roots[i]
            assert rd.reflect(i, alpha) == tuple(-c for c in alpha)


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        RootDatum.from_cartan([[2, -2], [-2, 2]])  # affine A1~
    with pytest.raises(ValueError):
        RootDatum.from_cartan([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        RootDatum.from_cartan([[2, -1], [0, 2]])
    for bad in ([], [[2, -1.5], [-1, 2]], 5):
        with pytest.raises(ValueError):
            RootDatum.from_cartan(bad)


def test_named_types_exist():
    for name in ("A1", "A4", "B4", "C2", "D4", "F4", "E6"):
        kind, rank = name[0], int(name[1:])
        cartan_matrix(kind, rank)


def test_custom_cartan_matches_named():
    rd = RootDatum.from_cartan([[2, -1], [-3, 2]])
    assert rd.N == 6


@pytest.mark.parametrize("typ", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_order_from_roots_matches_the_enumerated_group(typ):
    # |W| and N are read off the roots, without enumerating W.
    datum = RootDatum.build(typ)
    order, N = datum.order, datum.N
    assert datum._elements is None
    assert (order, N) == (len(datum.weyl_elements()), datum.longest_element().length)


def _solved_coordinates(datum, root):
    """The simple-root coordinates of a weight, by exact elimination on the Cartan system."""
    n = datum.rank
    aug = [[Fraction(datum.cartan[i][j]) for j in range(n)] + [Fraction(root[i])]
           for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    return tuple(row[n] for row in aug)


ROOT_COUNTS = {
    "A1": (1, 2), "A2": (3, 6), "A3": (6, 24), "A4": (10, 120), "B2": (4, 8),
    "B3": (9, 48), "B4": (16, 384), "C3": (9, 48), "C4": (16, 384), "D4": (12, 192),
    "F4": (24, 1152), "G2": (6, 12),
}


@pytest.mark.parametrize("typ", sorted(ROOT_COUNTS))
def test_tracked_root_coordinates_match_the_cartan_solve(typ):
    # positive_roots and order read the simple-root coordinates
    # tracked while reflecting; solving the Cartan system gives the same.
    datum = RootDatum.build(typ)
    roots = datum.all_roots()
    solved = {root: _solved_coordinates(datum, root) for root, _ in roots}
    assert all(min(c) >= 0 or max(c) <= 0 for c in solved.values())
    want = tuple(root for root, _ in roots if min(solved[root]) >= 0)
    heights = [sum(c) for c in solved.values() if sum(c) > 0]
    order = 1
    for h in heights:
        order = order * Fraction(h + 1, h)
    assert datum.positive_roots() == want
    assert (len(want), order) == ROOT_COUNTS[typ]
    assert datum.order == order
    assert datum._elements is None
