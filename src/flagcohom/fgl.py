"""Formal group laws as truncated bivariate series, each with its logarithm.

Every law here lives over a Q-algebra R, so it has a unique logarithm with
log'(x) = 1/d_2F(x, 0) (Hazewinkel, "Formal Groups and Applications",
1978), its exponential is the compositional reverse, and F(x, y) =
exp(log x + log y).  A law is held by log and exp; F and the formal inverse
exp(-log) are built only when something reads them.

The universal law is built over QQ[m1, m2, ...] from its logarithm
log(x) = x + sum m_i x^(i+1).  ``revert`` is Lagrange inversion: writing
the series as c*x*(1 + B), the coefficient of x^k in its reverse is read
off the powers of B, one product each.  Reversion keeps all coefficients in
ZZ[m], so the whole universal apparatus stays exact and denominator free.

A law given by explicit coefficients (``from_coefficients``, which also
builds the multiplicative and connective laws) is validated against unit,
commutativity, associativity and its inverse on construction; after that
check its logarithm is the integral of 1/d_2F(x, 0).  For x + y - beta*x*y
this is -ln(1 - beta*x)/beta = sum beta^k x^(k+1)/(k + 1).  Every other
constructor (``universal``, ``from_log``, ``additive``, ``twist``,
``specialize``) gives a law that satisfies the axioms by construction;
``selfcheck.check_fgl_axioms`` validates every constructor.

The formal group ring of every law works in log coordinates (``fgring``):
there c_1 x_1 +F ... +F c_n x_n is exp(c_1 log x_1 + ... + c_n log x_n),
and the characteristic map of ``flagring`` reads the law only through the
coefficients of r(t) = t/exp(t), which each model builds to its own degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffring import CoeffRing
from .errors import AssociativityError, RingMismatchError
from .tseries import TruncatedSeries


def embed(series, n_out, var_map):
    """Re-index a series into more variables: old var i -> new var var_map[i]."""
    return series.substitute(
        [TruncatedSeries.variable(series.ring, n_out, series.trunc, j) for j in var_map]
    )


def revert(series):
    """Compositional inverse g of a 1-variable series with invertible linear coefficient.

    Lagrange inversion: for series = c*x*(1 + B),

        [x^k] g = c^(-k)/k * sum_{l=1}^{k-1} binom(-k, l) [x^(k-1)] B^l,  k >= 2,

    so g needs only the powers B, B^2, ..., each one product with B, shared
    by every k.  g is valid to the series' valid degree.
    """
    ring, valid = series.ring, series.valid_degree
    lin = series.coefficient((1,))
    if not lin.is_constant() or lin.is_zero():
        raise ValueError("series must have an invertible linear coefficient")
    inv = Fraction(1) / Fraction(lin.constant_term())
    B = TruncatedSeries.from_terms(
        ring,
        1,
        series.trunc,
        {(k - 1,): p.scale(inv) for (k,), p in series.coeffs.items() if k > 1},
        valid - 1,
    )
    # sums[k] = sum_l binom(-k, l) [x^(k-1)] B^l, binom(-k, l) = (-1)^l binom(k+l-1, l)
    sums = {}
    power, l = B, 1
    while not power.is_zero():
        for (j,), p in power.coeffs.items():
            sums[j + 1] = sums.get(j + 1, ring.zero()) + p.scale((-1) ** l * comb(j + l, l))
        power, l = power * B, l + 1
    terms = {(1,): inv}
    for k, p in sums.items():
        terms[(k,)] = p.scale(inv**k / k)
    return TruncatedSeries.from_terms(ring, 1, series.trunc, terms, valid)


class FormalGroupLaw:
    """A one-dimensional commutative formal group law over a CoeffRing.

    Fields: ``log`` the logarithm, ``exp`` its compositional inverse, ``F``
    the 2-variable sum series, ``inverse`` the 1-variable formal inverse
    with F(x, inverse(x)) = 0, and ``tag`` naming the backend.  F, when not
    given, and the inverse are built on first read.  ``integral`` tells
    whether the coefficients of F are integral polynomials.
    """

    def __init__(self, ring, trunc, tag, log, exp, F=None, integral=None):
        self.ring = ring
        self.trunc = trunc
        self._F = F
        self._inverse = None
        self._integral = integral
        self.tag = tag
        self.log = log
        self.exp = exp
        self._mult = {}
        self._kappa = None
        self._log_kappa = None
        self._log_ratio = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def universal(trunc):
        """The universal law over QQ[m1..m_{trunc-1}], built from its logarithm."""
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        gens = tuple((f"m{i}", i) for i in range(1, trunc))
        ring = CoeffRing(gens)
        log = _log_from_coeffs(ring, trunc, [ring.gen(f"m{i}") for i in range(1, trunc)])
        # exp(log x + log y) has its coefficients in ZZ[m], as revert keeps them
        return FormalGroupLaw(ring, trunc, "universal", log, revert(log), integral=True)

    @staticmethod
    def from_log(ring, trunc, coefficients):
        """Law with logarithm x + sum c_i x^(i+1); c_i scalars or CoeffPolys."""
        coeffs = []
        for c in coefficients[: trunc - 1]:
            coeffs.append(c if hasattr(c, "ring") else ring.const(c))
        while len(coeffs) < trunc - 1:
            coeffs.append(ring.zero())
        log = _log_from_coeffs(ring, trunc, coeffs)
        return FormalGroupLaw(ring, trunc, "custom", log, revert(log))

    @staticmethod
    def additive(trunc):
        ring = CoeffRing(())
        x = TruncatedSeries.variable(ring, 1, trunc, 0)
        return FormalGroupLaw(ring, trunc, "additive", x, x, integral=True)

    @staticmethod
    def multiplicative(trunc, name="beta"):
        """F(x, y) = x + y - beta*x*y over ZZ[beta] (beta of weight 1)."""
        ring = CoeffRing(((name, 1),))
        return FormalGroupLaw.from_coefficients(
            ring, trunc, {(1, 1): -ring.gen(name)}, tag="multiplicative"
        )

    @staticmethod
    def connective(trunc, name="v"):
        """Connective normalization: the xy-coefficient itself is the generator.

        F(x, y) = x + y + v*x*y, i.e. the classifying map sends the degree-1
        universal generator a1 = a11 to v.
        """
        ring = CoeffRing(((name, 1),))
        return FormalGroupLaw.from_coefficients(
            ring, trunc, {(1, 1): ring.gen(name)}, tag="connective"
        )

    @staticmethod
    def from_coefficients(ring, trunc, coefficients, tag="custom"):
        """Build F = x + y + sum a_ij x^i y^j, validate it, and take its logarithm.

        ``coefficients`` maps (i, j) with i, j >= 1 to CoeffPoly or scalar;
        missing mirror entries are filled symmetrically, conflicting ones
        rejected.  The logarithm is the integral of 1/d_2F(x, 0), d_2F(x, 0)
        = 1 + sum_i a_i1 x^i; the axioms are checked against F itself.
        """
        table = {}
        for (i, j), c in coefficients.items():
            if i < 1 or j < 1:
                raise ValueError("coefficient indices must be >= 1")
            p = c if hasattr(c, "ring") else ring.const(c)
            for key in ((i, j), (j, i)):
                if key in table and table[key] != p:
                    raise ValueError(f"asymmetric coefficients at {key}")
                table[key] = p
        terms = {(1, 0): ring.one(), (0, 1): ring.one()}
        for (i, j), p in table.items():
            if i + j <= trunc:
                terms[(i, j)] = p
        F = TruncatedSeries.from_terms(ring, 2, trunc, terms)
        slope = {(i,): p for (i, j), p in terms.items() if j == 1}
        dlog = TruncatedSeries.from_terms(ring, 1, trunc, slope, trunc - 1).invert_unit()
        antiderivative = {(k + 1,): p.scale(Fraction(1, k + 1)) for (k,), p in dlog.coeffs.items()}
        log = TruncatedSeries.from_terms(ring, 1, trunc, antiderivative)
        law = FormalGroupLaw(ring, trunc, tag, log, revert(log), F=F)
        law._validate()
        return law

    # -- the sum and the inverse ---------------------------------------------

    @property
    def F(self):
        if self._F is None:
            self._F = self.log_sum(self.trunc)
        return self._F

    @property
    def inverse(self):
        if self._inverse is None:
            self._inverse = self.exp.substitute([-self.log])
        return self._inverse

    @property
    def integral(self):
        """Whether every coefficient of F is an integral polynomial; read off F if not given."""
        if self._integral is None:
            self._integral = all(p.is_integer() for p in self.a_table.values())
        return self._integral

    @property
    def a_table(self):
        """{(i, j): a_ij}: the coefficients of F, a new dict on each access."""
        return self.F.coeffs

    def log_sum(self, valid):
        """x +F y valid to degree ``valid``, as exp(log x + log y).

        Below the truncation this is the sum's low part, built without F.
        """
        log = self.log.restrict(valid)
        return self.exp.restrict(valid).substitute([embed(log, 2, [0]) + embed(log, 2, [1])])

    # -- validation -----------------------------------------------------------

    def _validate(self):
        F = self.F
        ring = self.ring
        D = self.trunc
        # unit: F(x, 0) = x
        for (i, j), p in F.coeffs.items():
            if j == 0 and not (i == 1 and p == ring.one()):
                raise ValueError("law fails F(x, 0) = x")
            if i == 0 and not (j == 1 and p == ring.one()):
                raise ValueError("law fails F(0, y) = y")
        # commutativity
        if not (F == embed(F, 2, [1, 0])):
            raise ValueError("law is not commutative")
        # associativity F(F(x,y),z) = F(x,F(y,z))
        left = F.substitute([embed(F, 3, [0, 1]), TruncatedSeries.variable(ring, 3, D, 2)])
        right = F.substitute([TruncatedSeries.variable(ring, 3, D, 0), embed(F, 3, [1, 2])])
        diff = left - right
        if not diff.is_zero():
            bad = min(diff.coeffs, key=lambda e: (sum(e), e))
            raise AssociativityError(bad)
        # inverse
        xi = self.inverse
        if not F.substitute(
            [TruncatedSeries.variable(ring, 1, D, 0), xi]
        ).is_zero():
            raise ValueError("formal inverse does not satisfy F(x, i(x)) = 0")

    # -- operations -------------------------------------------------------------

    def formal_sum(self, s, t):
        return self.F.substitute([s, t])

    def formal_inverse(self, s):
        return self.inverse.substitute([s])

    def multiple_series(self, k):
        """The 1-variable series k .F x, cached per integer k."""
        cached = self._mult.get(k)
        if cached is not None:
            return cached
        ring, D = self.ring, self.trunc
        if k == 0:
            s = TruncatedSeries.zero(ring, 1, D)
        elif k == 1:
            s = TruncatedSeries.variable(ring, 1, D, 0)
        elif k < 0:
            s = self.inverse.substitute([self.multiple_series(-k)])
        else:
            x = TruncatedSeries.variable(ring, 1, D, 0)
            s = self.F.substitute([self.multiple_series(k - 1), x])
        self._mult[k] = s
        return s

    def multiple(self, k, s):
        """k .F s for a series s with zero constant term."""
        return self.multiple_series(k).substitute([s])

    def log_kappa(self):
        """k(t) = g(exp t, exp(-t)) for the kappa series g; cached.

        x = exp(L) has formal inverse exp(-L), so g(x, inverse(x)) = k(L);
        by the quotient identity of ``fgring``, k(t) = (r(t) - r(-t))/t for
        r = ``log_ratio``: the odd coefficients of r, doubled and shifted
        down one degree.
        """
        if self._log_kappa is None:
            r = self.log_ratio()
            odd = {(k - 1,): p.scale(2) for (k,), p in r.coeffs.items() if k % 2}
            self._log_kappa = TruncatedSeries.from_terms(
                self.ring, 1, self.trunc, odd, r.valid_degree - 1
            )
        return self._log_kappa

    def log_ratio(self):
        """r(t) = t / exp(t); cached.

        x = exp(L), so L / x = r(L): dividing by x_alpha is multiplying by
        one substitution into r.
        """
        if self._log_ratio is None:
            t = TruncatedSeries.variable(self.ring, 1, self.trunc, 0)
            self._log_ratio = t.exact_divide(self.exp)
        return self._log_ratio

    def kappa(self):
        """g with x +F y = x + y - x*y*g(x, y); cached."""
        if self._kappa is None:
            ring, D = self.ring, self.trunc
            x = TruncatedSeries.variable(ring, 2, D, 0)
            y = TruncatedSeries.variable(ring, 2, D, 1)
            num = x + y - self.F
            self._kappa = num.exact_divide(x).exact_divide(y)
        return self._kappa

    def twist(self, lam):
        """Conjugate the law by a coordinate change lam = (unit)x + higher.

        ``lam`` must live over a ring extending self.ring (same generator
        names present); returns the law lam(F(lam^-1 x, lam^-1 y)) over
        lam's ring, with logarithm log(lam^-1 x) and exponential lam(exp x).
        """
        target = lam.ring
        lin = lam.coefficient((1,))
        if not lin.is_constant() or lin.is_zero():
            raise ValueError("twist requires a unit linear coefficient")
        weights = dict(target.generators)
        for name, weight in self.ring.generators:
            if weights.get(name, weight) != weight:
                raise RingMismatchError(f"generator {name} changes weight")
        incl = self.ring.morphism({name: target.gen(name) for name in self.ring.names}, target)
        log2 = self.log.map_coefficients(incl, target).substitute([revert(lam)])
        exp2 = lam.substitute([self.exp.map_coefficients(incl, target)])
        return FormalGroupLaw(target, self.trunc, "twisted", log2, exp2)

    def specialize(self, assignment, target_ring):
        """Push the law through a coefficient specialization."""
        func = self.ring.morphism(assignment, target_ring)
        return FormalGroupLaw(
            target_ring,
            self.trunc,
            "specialized",
            self.log.map_coefficients(func, target_ring),
            self.exp.map_coefficients(func, target_ring),
        )

    def __repr__(self):
        return f"FormalGroupLaw({self.tag}, trunc={self.trunc})"


def _log_from_coeffs(ring, trunc, coeffs):
    terms = {(1,): ring.one()}
    for i, c in enumerate(coeffs, start=1):
        if i + 1 <= trunc and not c.is_zero():
            terms[(i + 1,)] = c
    return TruncatedSeries.from_terms(ring, 1, trunc, terms)
