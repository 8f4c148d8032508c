"""The truncated series kernel: arithmetic, substitution, exact division."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from flagcohom.coeffring import CoeffRing
from flagcohom.errors import DegreeValidityError, DivisionError, RingMismatchError
from flagcohom.tseries import _CAP, TruncatedSeries

R = CoeffRing(())
RB = CoeffRing((("beta", 1),))


def xy(trunc=8, ring=R):
    return (
        TruncatedSeries.variable(ring, 2, trunc, 0),
        TruncatedSeries.variable(ring, 2, trunc, 1),
    )


def test_mul_basic():
    x, y = xy()
    assert (x * y).coeffs == {(1, 1): R.one()}


def test_valid_degree_min_rule():
    x, y = xy()
    p = x.restrict(3) * y.restrict(5)
    assert p.valid_degree == 3


def test_geometric_inverse():
    x, _ = xy()
    one = TruncatedSeries.const(R, 2, 8, 1)
    geom = one - x + x * x - x ** 3 + x ** 4 - x ** 5 + x ** 6 - x ** 7 + x ** 8
    assert (one + x) * geom == one


def test_shape_mismatch():
    x, _ = xy()
    with pytest.raises(RingMismatchError):
        x + TruncatedSeries.variable(R, 2, 9, 0)


def test_substitute_swap():
    x, y = xy()
    s = x + y
    assert s.substitute([y, x]) == s


def test_substitute_square():
    x1 = TruncatedSeries.variable(R, 1, 8, 0)
    x, y = xy()
    assert (x1 * x1).substitute([x + y]) == x * x + 2 * (x * y) + y * y


def test_substitute_identity():
    x, y = xy()
    s = x * y + x * x * y
    assert s.substitute([x, y]) == s


def test_substitute_rejects_constant_term():
    x, y = xy()
    one = TruncatedSeries.const(R, 2, 8, 1)
    with pytest.raises(ValueError):
        (x + y).substitute([x + one, y])


def test_exact_divide_difference_of_squares():
    x, y = xy()
    q = (x * x - y * y).exact_divide(x - y)
    assert q == x + y


def test_exact_divide_self():
    x, _ = xy()
    s = x.scale(2) + x * x
    assert s.exact_divide(s) == TruncatedSeries.const(R, 2, 8, 1, valid_degree=7)


def test_exact_divide_multiplicative_remainder():
    # With x + y - beta*x*y, the correction term beta*x*y divides by x.
    x, y = xy(ring=RB)
    beta = RB.gen("beta")
    q = (x * y).scale(beta).exact_divide(x)
    assert q == y.scale(beta)


def test_exact_divide_failure():
    x, y = xy()
    one = TruncatedSeries.const(R, 2, 8, 1)
    for num in (y, one + x):
        with pytest.raises(DivisionError):
            num.exact_divide(x)


def test_invert_unit():
    one = TruncatedSeries.const(R, 2, 8, 1)
    x, _ = xy()
    assert one.invert_unit() == one
    inv = (one - x).invert_unit()
    assert inv * (one - x) == one
    two = TruncatedSeries.const(R, 2, 8, 2)
    assert two.invert_unit() * two == one


def test_invert_unit_requires_unit():
    x, _ = xy()
    with pytest.raises(DivisionError):
        x.invert_unit()


# -- properties of the kernel on drawn sparse series ---------------------------

TRUNC = 6
PROPERTY = settings(max_examples=30, deadline=None)
SHAPES = st.tuples(st.sampled_from((R, RB)), st.integers(1, 3))
NONZERO = st.sampled_from((-3, -2, -1, 1, 2, 3))


def coefficients(ring):
    """Small integers over R; a + b*beta over RB."""
    if not ring.ngens:
        return st.integers(-3, 3).map(ring.const)
    beta = ring.gen("beta")
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda c: beta.scale(c[1]) + c[0]
    )


@st.composite
def series(draw, ring, n, low=0, linear=False):
    """At most five terms of degree >= low, valid to a drawn degree >= 1.

    With ``linear``, a linear part with nonzero constant coefficients is added.
    """
    exps = st.tuples(*[st.integers(0, 3)] * n)
    drawn = draw(st.dictionaries(exps, coefficients(ring), max_size=5))
    terms = {e: c for e, c in drawn.items() if sum(e) >= low}
    if linear:
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            terms[tuple(int(k == i) for k in range(n))] = draw(NONZERO)
    return TruncatedSeries.from_terms(ring, n, TRUNC, terms, draw(st.integers(1, TRUNC)))


@PROPERTY
@given(st.data())
def test_valid_degree_min_rule_property(data):
    ring, n = data.draw(SHAPES)
    a = data.draw(series(ring, n))
    b = data.draw(series(ring, n))
    ar = a.restrict(data.draw(st.integers(0, TRUNC)))
    br = b.restrict(data.draw(st.integers(0, TRUNC)))
    v = min(ar.valid_degree, br.valid_degree)
    for op in (lambda u, w: u + w, lambda u, w: u * w):
        r = op(ar, br)
        assert r.valid_degree == v
        assert r == op(a, b)


@PROPERTY
@given(st.data())
def test_exact_divide_roundtrip_property(data):
    ring, n = data.draw(SHAPES)
    a = data.draw(series(ring, n))
    b = data.draw(series(ring, n, low=2, linear=True))
    q = (a * b).exact_divide(b)
    assert q.valid_degree == min(a.valid_degree, b.valid_degree) - 1
    assert q == a


@PROPERTY
@given(st.data())
def test_exact_divide_rejects_scalar_remainder(data):
    ring, n = data.draw(SHAPES)
    a = data.draw(series(ring, n))
    b = data.draw(series(ring, n, low=2, linear=True))
    c = TruncatedSeries.const(ring, n, TRUNC, data.draw(NONZERO))
    with pytest.raises(DivisionError):
        (a * b + c).exact_divide(b)


@PROPERTY
@given(st.data())
def test_invert_unit_property(data):
    ring, n = data.draw(SHAPES)
    s = data.draw(series(ring, n, low=1)) + TruncatedSeries.const(
        ring, n, TRUNC, data.draw(NONZERO)
    )
    inv = s.invert_unit()
    assert inv.valid_degree == s.valid_degree
    assert inv * s == TruncatedSeries.const(ring, n, TRUNC, 1)


def naive_product(a, b):
    """{exponent: CoeffPoly} of a*b by direct convolution of the coeffs views."""
    v = min(a.valid_degree, b.valid_degree)
    out = {}
    for e1, p1 in a.coeffs.items():
        for e2, p2 in b.coeffs.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if sum(e) <= v:
                out[e] = out.get(e, a.ring.zero()) + p1 * p2
    return {e: p for e, p in out.items() if not p.is_zero()}


@PROPERTY
@given(st.data())
def test_ring_axioms_property(data):
    ring, n = data.draw(SHAPES)
    a, b, c = (data.draw(series(ring, n)) for _ in range(3))
    for u, w in ((a, b), (b, c), (a, c)):
        p = u * w
        assert p.valid_degree == min(u.valid_degree, w.valid_degree)
        assert p.coeffs == naive_product(u, w)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    diff = a - a
    assert diff.is_zero() and diff.valid_degree == a.valid_degree


@st.composite
def compositions(draw):
    """(s, f, g): s in n variables, images f in m variables, images g in p."""
    ring, n = draw(SHAPES)
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = draw(series(ring, n))
    f = [draw(series(ring, m, low=1)) for _ in range(n)]
    g = [draw(series(ring, p, low=1)) for _ in range(m)]
    return s, f, g


@PROPERTY
@given(st.data())
def test_mul_prefixes_property(data):
    ring, n = data.draw(SHAPES)
    a = data.draw(series(ring, n))
    b = data.draw(series(ring, n))
    p = data.draw(st.integers(0, TRUNC))
    prefixes = b.prefixes(p)
    for v in range(min(p, a.valid_degree, b.valid_degree) + 1):
        got = a.mul_prefixes(prefixes, v)
        want = (a * b).restrict(v)
        assert got.valid_degree == want.valid_degree == v
        assert got.coeffs == want.coeffs


@PROPERTY
@given(st.data())
def test_convolve_split_property(data):
    # y_i -> y_i + y_j fixes the series free of y_i, so it is linear over them.
    ring, n = data.draw(SHAPES)
    u = data.draw(series(ring, n))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    images = [TruncatedSeries.variable(ring, n, TRUNC, k) for k in range(n)]
    images[i] = images[i] + images[j]

    def image(k):
        return (images[i] ** k).prefixes(TRUNC)

    for v in range(u.valid_degree + 1):
        got = u.convolve_split(i, image, v)
        want = u.substitute(images).restrict(v)
        assert got.valid_degree == want.valid_degree == v
        assert got.coeffs == want.coeffs


@PROPERTY
@given(st.data())
def test_grouped_property(data):
    # grouped(d) is restrict(d).coeffs keyed by packed y-monomials, one m-key per term.
    ring, n = data.draw(SHAPES)
    u = data.draw(series(ring, n))
    d = data.draw(st.integers(0, TRUNC))
    got = u.grouped(d)
    assert all(len(terms) == len(dict(terms)) for terms in got.values())
    got = {y: dict(terms) for y, terms in got.items()}
    assert got == {u.y_key(e): p.terms for e, p in u.restrict(d).coeffs.items()}
    top = min(d, u.valid_degree)
    for e in itertools.product(range(top + 1), repeat=n):
        if sum(e) <= top:
            assert got.get(u.y_key(e), {}) == u.coefficient(e).terms


_x7, _y7 = xy(7)


@PROPERTY
@given(compositions())
@example(
    (
        TruncatedSeries.from_terms(R, 2, 7, {(0, 1): 2, (2, 1): -3, (1, 2): 1, (2, 2): 3}),
        [_x7 + _y7 * _y7, _y7 + _x7 * _y7],
        [_y7, _x7 + _y7],
    )
)
def test_substitute_functoriality(case):
    s, f, g = case
    assert s.substitute(f).substitute(g) == s.substitute([fi.substitute(g) for fi in f])


def test_degree_trap():
    x, _ = xy()
    s = (x * x).restrict(1)
    with pytest.raises(DegreeValidityError):
        s.coefficient((2, 0))
    # reads at or below the valid degree are fine
    assert s.coefficient((1, 0)).is_zero()


def test_malformed_exponents_rejected():
    x, _ = xy()
    for bad in ((1, 2, 3), (1,)):
        with pytest.raises(RingMismatchError):
            TruncatedSeries.from_terms(R, 2, 8, {bad: 1})
        with pytest.raises(RingMismatchError):
            x.coefficient(bad)
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(R, 2, 8, {(-1, 2): 1})
    with pytest.raises(ValueError):
        x.coefficient((-1, 2))
    with pytest.raises(RingMismatchError):
        TruncatedSeries.from_terms(R, 2, 8, {(1, 0): RB.gen("beta")})


def test_exponent_cap():
    assert not TruncatedSeries.const(RB, 1, 4, RB.monomial((_CAP,))).is_zero()
    with pytest.raises(OverflowError):
        TruncatedSeries.const(RB, 1, 4, RB.monomial((2**20,)))
    half = RB.monomial((_CAP // 2 + 1,))
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        TruncatedSeries.const(RB, 1, 4, half) * TruncatedSeries.const(RB, 1, 4, half)
    # A quotient term beta^(CAP - 1) * y pushes beta^CAP * y^2, then beta^(CAP + 1) * y^3.
    y = TruncatedSeries.variable(RB, 1, 4, 0)
    den = y + (y * y).scale(RB.gen("beta"))
    num = y.scale(RB.monomial((_CAP - 1,)))
    with pytest.raises(OverflowError):
        num.exact_divide(den)


def test_mul_computes_only_valid_part():
    x, y = xy()
    s = (x + y).restrict(2)
    p = s * s
    assert p.valid_degree == 2
    assert all(sum(e) <= 2 for e in p.coeffs)
