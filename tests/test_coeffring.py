"""Exact polynomial coefficient rings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom.coeffring import CoeffPoly, CoeffRing
from flagcohom.errors import RingMismatchError, SpecializationError


@pytest.fixture
def aring():
    return CoeffRing(tuple((f"a{i}", i) for i in range(1, 7)))


def test_additive_inverse(aring):
    a1 = aring.gen("a1")
    assert (a1 + (-a1)).is_zero()


def test_weight_additivity(aring):
    a1, a2 = aring.gen("a1"), aring.gen("a2")
    p = a1 * a2
    assert p.weight() == 3


def test_binomial_expansion(aring):
    a1, a2 = aring.gen("a1"), aring.gen("a2")
    p = (a1 + a2) * (a1 + a2)
    assert p == a1 * a1 + 2 * a1 * a2 + a2 * a2


def test_ring_mismatch(aring):
    other = CoeffRing((("b", 1),))
    with pytest.raises(RingMismatchError):
        aring.gen("a1") + other.gen("b")


def test_canonical_string(aring):
    a1, a2, a3, a4 = (aring.gen(f"a{i}") for i in range(1, 5))
    assert str(aring.one() + 2 * a2 + a1 * a1) == "1 + 2*a2 + a1^2"
    p = -4 * a4 + a1 * a3 + 13 * a2 ** 2 + 15 * a1 ** 2 * a2 + a1 ** 4
    assert str(p) == "-4*a4 + a1*a3 + 13*a2^2 + 15*a1^2*a2 + a1^4"
    assert str(aring.zero()) == "0"
    assert str(aring.const(Fraction(1, 2)) * a1) == "1/2*a1"


def test_specialize_to_zero(aring):
    a1, a2 = aring.gen("a1"), aring.gen("a2")
    p = 2 * a2 + a1 * a1
    assert p.specialize({f"a{i}": 0 for i in range(1, 7)}).is_zero()


def test_specialize_to_other_ring(aring):
    # The coefficient of xy in x + y - beta*x*y is -beta.
    target = CoeffRing((("beta", 1),))
    beta = target.gen("beta")
    img = aring.gen("a1").specialize({"a1": -beta}, target)
    assert img == -beta


def test_specialize_connective(aring):
    target = CoeffRing((("v", 1),))
    v = target.gen("v")
    p = aring.gen("a1") ** 2 + aring.gen("a2")
    assert p.specialize({"a1": v, "a2": 0}, target) == v * v


def test_specialize_missing_generator(aring):
    with pytest.raises(SpecializationError):
        aring.gen("a3").specialize({"a1": 1})


# -- properties on drawn polynomials --------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)
RING = CoeffRing((("a1", 1), ("a2", 2), ("a3", 3)))
TARGET = CoeffRing((("v", 1),))
SCALARS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def polys(ring):
    exps = st.tuples(*[st.integers(0, 3)] * ring.ngens)
    return st.dictionaries(exps, SCALARS, max_size=5).map(lambda t: CoeffPoly(ring, t))


def naive_product(p, q):
    """The exponent-tuple convolution, read through the printing edge."""
    out = {}
    for e1, c1 in p.sorted_terms():
        for e2, c2 in q.sorted_terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return CoeffPoly(p.ring, out)


@PROPERTY
@given(polys(RING), polys(RING), polys(RING))
def test_ring_axioms_random(p, q, r):
    assert p * q == naive_product(p, q)
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@PROPERTY
@given(
    polys(RING),
    polys(RING),
    st.fixed_dictionaries(
        {name: st.one_of(SCALARS, polys(TARGET)) for name in RING.names}
    ),
)
def test_specialize_is_morphism(p, q, assign):
    def spec(f):
        return f.specialize(assign, TARGET)

    assert spec(p * q) == spec(p) * spec(q)
    assert spec(p + q) == spec(p) + spec(q)
    assert spec(RING.one()) == TARGET.one()


def naive_specialize(p, assign):
    """sum c * prod value^e over the terms, read through the printing edge."""
    out = TARGET.zero()
    for exps, c in p.sorted_terms():
        term = TARGET.const(c)
        for name, e in zip(RING.names, exps):
            value = assign[name]
            term = term * (value if isinstance(value, CoeffPoly) else TARGET.const(value)) ** e
        out = out + term
    return out


@PROPERTY
@given(
    polys(RING),
    st.fixed_dictionaries({name: st.one_of(SCALARS, polys(TARGET)) for name in RING.names}),
)
def test_specialize_matches_naive_reference(p, assign):
    mapped = RING.morphism(assign, TARGET)
    assert p.specialize(assign, TARGET) == mapped(p) == naive_specialize(p, assign)
    assert mapped(p * p) == mapped(p) * mapped(p)  # the kept monomial images are reused
    partial = {k: v for k, v in assign.items() if k != "a3"}
    if any(e[2] for e, _ in p.sorted_terms()):
        with pytest.raises(SpecializationError):
            p.specialize(partial, TARGET)
    else:
        assert p.specialize(partial, TARGET) == naive_specialize(p, assign)


def test_homogeneity_helpers(aring):
    a1, a2 = aring.gen("a1"), aring.gen("a2")
    p = a2 + a1 * a1
    assert p.is_homogeneous(2)
    assert not (p + a1).is_homogeneous()
    assert (p + a1).homogeneous_part(1) == a1
