"""Formal group laws: the universal law, specializations, twisting."""

from fractions import Fraction

import pytest

from flagcohom.coeffring import CoeffRing
from flagcohom.errors import AssociativityError, DegreeValidityError, RingMismatchError
from flagcohom.fgl import FormalGroupLaw, embed, revert
from flagcohom.selfcheck import CheckContext, check_fgl_axioms
from flagcohom.tseries import TruncatedSeries


def test_universal_xy_coefficient(universal8):
    m = universal8.ring
    assert universal8.a_table[(1, 1)] == m.gen("m1").scale(-2)


def test_universal_specializes_to_additive(universal8):
    target = CoeffRing(())
    assign = {name: 0 for name in universal8.ring.names}
    spec = universal8.specialize(assign, target)
    additive = FormalGroupLaw.additive(universal8.trunc)
    assert spec.F == additive.F


def test_universal_specializes_to_multiplicative(universal8):
    target = CoeffRing((("beta", 1),))
    beta = target.gen("beta")
    assign = {
        f"m{i}": beta ** i * Fraction(1, i + 1) for i in range(1, universal8.trunc)
    }
    spec = universal8.specialize(assign, target)
    direct = FormalGroupLaw.multiplicative(universal8.trunc)
    assert spec.F == direct.F


def test_from_coefficients_multiplicative_inverse():
    law = FormalGroupLaw.multiplicative(7)
    ring = law.ring
    beta = ring.gen("beta")
    # i(x) = -x/(1 - beta x) = -(x + beta x^2 + beta^2 x^3 + ...)
    terms = {(k,): -(beta ** (k - 1)) for k in range(1, 8)}
    want = TruncatedSeries.from_terms(ring, 1, 7, terms)
    assert law.inverse == want


def test_from_coefficients_additive():
    ring = CoeffRing(())
    law = FormalGroupLaw.from_coefficients(ring, 6, {})
    x = TruncatedSeries.variable(ring, 1, 6, 0)
    assert law.inverse == -x


def test_fgl_axioms_hold_by_construction():
    assert check_fgl_axioms(CheckContext()) == (True, "")


def test_from_coefficients_associativity_error():
    ring = CoeffRing(())
    with pytest.raises(AssociativityError):
        FormalGroupLaw.from_coefficients(ring, 6, {(1, 1): 1, (2, 2): 1})


def test_multiples():
    add = FormalGroupLaw.additive(6)
    x = TruncatedSeries.variable(add.ring, 1, 6, 0)
    assert add.multiple(3, x) == x.scale(3)
    assert add.multiple(0, x).is_zero()
    mult = FormalGroupLaw.multiplicative(6)
    xm = TruncatedSeries.variable(mult.ring, 1, 6, 0)
    beta = mult.ring.gen("beta")
    want = xm.scale(2) - (xm * xm).scale(beta)
    assert mult.multiple(2, xm) == want
    # s known only to degree 2: 2 .F s is known only to degree 2 as well
    s = (xm + xm * xm * xm).restrict(2)
    got = mult.multiple(2, s)
    assert got.valid_degree == 2
    with pytest.raises(DegreeValidityError):
        got.coefficient((3,))


def test_formal_sum_inverse_cancel(universal8):
    x = TruncatedSeries.variable(universal8.ring, 1, 8, 0)
    s = universal8.multiple_series(2)
    assert universal8.formal_sum(s, universal8.formal_inverse(s)).is_zero()


def test_multiple_additivity(universal8):
    for k1 in (-3, -1, 0, 2, 3):
        for k2 in (-2, 1, 3):
            lhs = universal8.multiple_series(k1 + k2)
            rhs = universal8.formal_sum(
                universal8.multiple_series(k1), universal8.multiple_series(k2)
            )
            assert lhs == rhs


def test_kappa_additive_zero():
    add = FormalGroupLaw.additive(6)
    assert add.kappa().is_zero()


def test_kappa_multiplicative_constant():
    mult = FormalGroupLaw.multiplicative(6)
    kap = mult.kappa()
    assert kap == TruncatedSeries.const(
        mult.ring, 2, 6, mult.ring.gen("beta"), valid_degree=4
    )


def test_kappa_universal_leading(universal8):
    kap = universal8.kappa()
    # g(0,0) = -a11 = 2 m1
    assert kap.coefficient((0, 0)) == universal8.ring.gen("m1").scale(2)


def test_twist_identity(universal8):
    lam = TruncatedSeries.variable(universal8.ring, 1, universal8.trunc, 0)
    twisted = universal8.twist(lam)
    assert twisted.F == universal8.F


def test_twist_additive_order_two():
    ring = CoeffRing((("t1", 1),))
    add = FormalGroupLaw.additive(6)
    t1 = ring.gen("t1")
    x = TruncatedSeries.variable(ring, 1, 6, 0)
    lam = x + (x * x).scale(t1)
    twisted = FormalGroupLaw.additive(6).twist(lam)
    # F'(x, y) = lam(lam^-1 x + lam^-1 y): the xy-coefficient is 2 t1
    assert twisted.F.coefficient((1, 1)) == t1.scale(2)
    # setting t1 = 0 recovers the additive law
    back = twisted.specialize({"t1": 0}, CoeffRing(()))
    assert back.F == FormalGroupLaw.additive(6).F


def test_twist_requires_unit_linear(universal8):
    ring = universal8.ring
    bad = TruncatedSeries.from_terms(ring, 1, universal8.trunc, {(2,): 1})
    with pytest.raises(ValueError):
        universal8.twist(bad)


def test_log_laws_build_sum_and_inverse_on_read(universal8):
    # F = exp(log x + log y) and inverse = exp(-log), built when read; the
    # twisted and specialized laws also agree with twisting and specializing
    # the sum itself.
    rational = CoeffRing(())
    t1 = CoeffRing((("t1", 1),))
    x = TruncatedSeries.variable(t1, 1, 8, 0)
    lam = x + (x * x).scale(t1.gen("t1"))
    from_log = FormalGroupLaw.from_log(rational, 8, [Fraction(1, 2), Fraction(-2, 3), 3])
    assignment = {f"m{i}": i * (-1) ** i for i in range(1, 8)}
    twisted = from_log.twist(lam)
    specialized = universal8.specialize(assignment, rational)
    for law in (universal8, from_log, FormalGroupLaw.additive(8), twisted, specialized):
        s = embed(law.log, 2, [0]) + embed(law.log, 2, [1])
        assert law.F == law.exp.substitute([s]) and law.F.valid_degree == 8
        assert law.inverse == law.exp.substitute([-law.log]) and law.inverse.valid_degree == 8
    lam_inv = revert(lam)
    F = from_log.F.map_coefficients(rational.morphism({}, t1), t1)
    assert twisted.F == lam.substitute([F.substitute([embed(lam_inv, 2, [0]), embed(lam_inv, 2, [1])])])
    spec = lambda p: p.specialize(assignment, rational)
    assert specialized.F == universal8.F.map_coefficients(spec, rational)
    assert specialized.inverse == universal8.inverse.map_coefficients(spec, rational)


def test_revert_roundtrip(universal8):
    log = universal8.log
    exp = revert(log)
    x = TruncatedSeries.variable(universal8.ring, 1, universal8.trunc, 0)
    assert exp.substitute([log]) == x
    assert log.substitute([exp]) == x


def test_connective_normalization():
    law = FormalGroupLaw.connective(6)
    v = law.ring.gen("v")
    assert law.F.coefficient((1, 1)) == v


def test_universal_law_against_sympy_reversion():
    # Independent oracle: sympy's series reversion of x + sum m_i x^(i+1)
    # gives the exponential, and F(x, y) = exp(log x + log y).
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_series_reversion
    from sympy.polys.rings import ring

    D = 6
    law = FormalGroupLaw.universal(D + 1)
    R, x, y, *m = ring(("x", "y") + law.ring.names, QQ)
    log_x = x + sum(mi * x ** (i + 2) for i, mi in enumerate(m))
    log_y = y + sum(mi * y ** (i + 2) for i, mi in enumerate(m))
    exp = rs_series_reversion(log_x, x, D + 1, x)

    def low(p):
        return R({e: c for e, c in p.items() if e[0] + e[1] <= D})

    F, power, s = R(0), R(1), log_x + log_y
    for k in range(1, D + 1):
        power = low(power * s)
        exp_k = R({(0, 0) + e[2:]: c for e, c in exp.items() if e[0] == k})
        F += low(exp_k * power)

    def from_sympy(p, n_vars):
        out = {}
        for e, c in p.items():
            out.setdefault(e[:n_vars], {})[e[2:]] = Fraction(int(c.numerator), int(c.denominator))
        return out

    def from_series(series):
        return {e: dict(p.sorted_terms()) for e, p in series.coeffs.items() if sum(e) <= D}

    assert from_series(revert(law.log)) == from_sympy(exp, 1)
    assert from_series(law.F) == from_sympy(F, 2)


def _sympy_coeffs(p, n_vars):
    """{y-exponents: {m-exponents: Fraction}} of a sympy series whose first n_vars generators are y."""
    out = {}
    for e, c in p.items():
        out.setdefault(e[:n_vars], {})[e[n_vars:]] = Fraction(int(c.numerator), int(c.denominator))
    return out


def _series_coeffs(series, degree):
    return {e: dict(p.sorted_terms()) for e, p in series.coeffs.items() if sum(e) <= degree}


def test_revert_against_sympy_reversion():
    # Independent oracle for the Lagrange inversion in ``revert``: sympy's
    # rs_series_reversion, on the universal log at truncation 13 (the depth
    # G2 uses) and on a scalar series with linear coefficient 3 and gaps.
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_series_reversion
    from sympy.polys.rings import ring

    D = 13
    law = FormalGroupLaw.universal(D)
    R, x, *m = ring(("x",) + law.ring.names, QQ)
    log = x + sum(mi * x ** (i + 2) for i, mi in enumerate(m))
    exp = rs_series_reversion(log, x, D + 1, x)
    assert _series_coeffs(revert(law.log), D) == _sympy_coeffs(exp, 1)

    D = 21
    gaps = {1: 3, 2: 1, 4: -2, 7: Fraction(1, 5), 12: Fraction(-3, 7), 20: 4}
    rational = CoeffRing(())
    s = TruncatedSeries.from_terms(rational, 1, D, {(k,): c for k, c in gaps.items()})
    R1, y = ring("y", QQ)
    s_sympy = sum(QQ(Fraction(c)) * y**k for k, c in gaps.items())
    g = revert(s)
    assert g.valid_degree == D
    assert _series_coeffs(g, D) == _sympy_coeffs(rs_series_reversion(s_sympy, y, D + 1, y), 1)
    assert revert(g) == s
    assert revert(revert(law.log)) == law.log

    # An input valid below its truncation: the reverse keeps that valid
    # degree and agrees with sympy's reversion to the same precision.
    low = s.restrict(9)
    g = revert(low)
    assert g.valid_degree == 9
    with pytest.raises(DegreeValidityError):
        g.coefficient((10,))
    assert _series_coeffs(g, 9) == _sympy_coeffs(rs_series_reversion(s_sympy, y, 10, y), 1)


def test_twist_keeps_generator_weights():
    t1 = CoeffRing((("t1", 1),))
    heavy = CoeffRing((("t1", 2),))
    x = TruncatedSeries.variable(heavy, 1, 6, 0)
    law = FormalGroupLaw.from_log(t1, 6, [t1.gen("t1")])
    with pytest.raises(RingMismatchError):
        law.twist(x)
