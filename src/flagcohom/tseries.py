"""Truncated multivariate power series with tracked valid degree.

A :class:`TruncatedSeries` lives in R[[y_1..y_n]] modulo total degree >
``trunc``.  On top of the hard truncation every series carries a
``valid_degree`` d <= trunc: the element is certified only modulo total
degree > d, and the kernel traps any read above that bound.  Operations
propagate validity exactly: add/mul take the min of the operand validities
(knowing u, v mod degree > d determines u+v and u*v mod degree > d), while
exact division by a series with linear lowest term loses exactly one degree.

Coefficients of degree > valid_degree are never stored, so shrinking the
valid degree (``restrict``) is also how callers cap the cost of a chain of
operations to the precision actually needed downstream.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .coeffring import CoeffPoly
from .errors import DegreeValidityError, DivisionError, RingMismatchError


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TruncatedSeries:
    __slots__ = ("ring", "n_vars", "trunc", "valid_degree", "coeffs")

    def __init__(self, ring, n_vars, trunc, valid_degree, coeffs, _clean=True):
        if valid_degree < 0:
            raise ValueError("valid_degree must be >= 0")
        if valid_degree > trunc:
            valid_degree = trunc
        self.ring = ring
        self.n_vars = n_vars
        self.trunc = trunc
        self.valid_degree = valid_degree
        if _clean:
            coeffs = {
                e: p
                for e, p in coeffs.items()
                if sum(e) <= valid_degree and not p.is_zero()
            }
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring, n_vars, trunc, valid_degree=None):
        v = trunc if valid_degree is None else valid_degree
        return TruncatedSeries(ring, n_vars, trunc, v, {}, _clean=False)

    @staticmethod
    def const(ring, n_vars, trunc, value, valid_degree=None):
        v = trunc if valid_degree is None else valid_degree
        p = value if isinstance(value, CoeffPoly) else ring.const(value)
        coeffs = {} if p.is_zero() else {(0,) * n_vars: p}
        return TruncatedSeries(ring, n_vars, trunc, v, coeffs, _clean=False)

    @staticmethod
    def variable(ring, n_vars, trunc, index, valid_degree=None):
        v = trunc if valid_degree is None else valid_degree
        e = [0] * n_vars
        e[index] = 1
        return TruncatedSeries(ring, n_vars, trunc, v, {tuple(e): ring.one()}, _clean=False)

    @staticmethod
    def from_terms(ring, n_vars, trunc, terms, valid_degree=None):
        """Build from {exponent tuple: CoeffPoly | scalar}."""
        v = trunc if valid_degree is None else valid_degree
        coeffs = {}
        for e, p in terms.items():
            if not isinstance(p, CoeffPoly):
                p = ring.const(p)
            if not p.is_zero():
                coeffs[tuple(e)] = p
        return TruncatedSeries(ring, n_vars, trunc, v, coeffs)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exps):
        exps = tuple(exps)
        if sum(exps) > self.valid_degree:
            raise DegreeValidityError(
                f"read of degree {sum(exps)} above valid degree {self.valid_degree}"
            )
        return self.coeffs.get(exps, self.ring.zero())

    def constant_term(self):
        return self.coefficient((0,) * self.n_vars)

    def is_zero(self):
        return not self.coeffs

    def lowest_degree(self):
        return min((sum(e) for e in self.coeffs), default=None)

    def by_degree(self):
        buckets = {}
        for e, p in self.coeffs.items():
            buckets.setdefault(sum(e), []).append((e, p))
        return buckets

    def graded_weight(self):
        """Total grading |e| - weight(coefficient) when homogeneous."""
        weights = set()
        for e, p in self.coeffs.items():
            weights.add(sum(e) - p.weight())
        if len(weights) > 1:
            raise ValueError(f"not graded-homogeneous: {sorted(weights)}")
        return weights.pop() if weights else None

    def _shape_check(self, other):
        if self.ring != other.ring or self.n_vars != other.n_vars or self.trunc != other.trunc:
            raise RingMismatchError("series shapes differ")

    def __eq__(self, other):
        """Agreement up to the smaller valid degree (same shape required)."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._shape_check(other)
        d = min(self.valid_degree, other.valid_degree)
        for e, p in self.coeffs.items():
            if sum(e) <= d and other.coeffs.get(e) != p:
                return False
        for e, p in other.coeffs.items():
            if sum(e) <= d and e not in self.coeffs:
                return False
        return True

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def restrict(self, valid_degree):
        """Forget precision above ``valid_degree`` (a no-op if already lower)."""
        if valid_degree >= self.valid_degree:
            return self
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, valid_degree, self.coeffs)

    def map_coefficients(self, func, ring=None):
        """Apply a coefficient-ring morphism to every coefficient."""
        ring = ring or self.ring
        coeffs = {}
        for e, p in self.coeffs.items():
            q = func(p)
            if not q.is_zero():
                coeffs[e] = q
        return TruncatedSeries(ring, self.n_vars, self.trunc, self.valid_degree, coeffs, _clean=False)

    # -- linear arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._shape_check(other)
        v = min(self.valid_degree, other.valid_degree)
        coeffs = {e: p for e, p in self.coeffs.items() if sum(e) <= v}
        for e, p in other.coeffs.items():
            if sum(e) > v:
                continue
            s = coeffs.get(e)
            if s is None:
                coeffs[e] = p
            else:
                s = s + p
                if s.is_zero():
                    del coeffs[e]
                else:
                    coeffs[e] = s
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, v, coeffs, _clean=False)

    def __neg__(self):
        return TruncatedSeries(
            self.ring, self.n_vars, self.trunc, self.valid_degree,
            {e: -p for e, p in self.coeffs.items()}, _clean=False,
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar or CoeffPoly of weight 0 cost; validity kept."""
        if not isinstance(c, CoeffPoly):
            c = self.ring.const(c)
        if c.is_zero():
            return TruncatedSeries.zero(self.ring, self.n_vars, self.trunc, self.valid_degree)
        coeffs = {}
        for e, p in self.coeffs.items():
            q = p * c
            if not q.is_zero():
                coeffs[e] = q
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, self.valid_degree, coeffs, _clean=False)

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CoeffPoly)):
            return self.scale(other)
        self._shape_check(other)
        v = min(self.valid_degree, other.valid_degree)
        raw = {}
        sb = self.by_degree()
        ob = other.by_degree()
        sdegs = sorted(sb)
        odegs = sorted(ob)
        for ds in sdegs:
            for do in odegs:
                if ds + do > v:
                    break
                for e1, p1 in sb[ds]:
                    t1 = p1.terms
                    for e2, p2 in ob[do]:
                        e = _vec_add(e1, e2)
                        dst = raw.get(e)
                        if dst is None:
                            dst = raw[e] = {}
                        for m1, c1 in t1.items():
                            for m2, c2 in p2.terms.items():
                                m = _vec_add(m1, m2)
                                s = dst.get(m, 0) + c1 * c2
                                if s == 0:
                                    dst.pop(m, None)
                                else:
                                    dst[m] = s
        return self._wrap_raw(raw, v)

    __rmul__ = __mul__

    def _wrap_raw(self, raw, valid):
        coeffs = {}
        for e, d in raw.items():
            p = CoeffPoly(self.ring, d)
            if not p.is_zero():
                coeffs[e] = p
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, valid, coeffs, _clean=False)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative series power")
        result = TruncatedSeries.const(self.ring, self.n_vars, self.trunc, 1, self.valid_degree)
        for _ in range(n):
            result = result * self
        return result

    # -- substitution ------------------------------------------------------------

    def substitute(self, images):
        """Compose: evaluate this series at the given image series.

        Every image must have zero constant term so that composition is
        well defined on truncations.  The images fix the output shape (they
        may have a different number of variables than ``self``).  The result
        is valid up to min(self.valid_degree, valid degrees of the images of
        variables that actually occur).
        """
        if len(images) != self.n_vars:
            raise RingMismatchError("wrong number of substitution images")
        if self.n_vars == 0:
            raise RingMismatchError("cannot substitute into a 0-variable series")
        ring = self.ring
        out_vars = images[0].n_vars
        trunc = images[0].trunc
        for img in images:
            if img.ring != ring or img.n_vars != out_vars or img.trunc != trunc:
                raise RingMismatchError("substitution images have mismatched shapes")
            if not img.coefficient((0,) * out_vars).is_zero():
                raise ValueError("substitution image has a nonzero constant term")

        used = [False] * self.n_vars
        for e in self.coeffs:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        bound = self.valid_degree
        for i, u in enumerate(used):
            if u:
                bound = min(bound, images[i].valid_degree)

        pow_cache = {}

        def power(i, k):
            key = (i, k)
            s = pow_cache.get(key)
            if s is None:
                if k == 1:
                    s = images[i].restrict(bound)
                else:
                    s = power(i, k - 1) * images[i]
                pow_cache[key] = s
            return s

        zero_e = (0,) * out_vars

        def eval_group(items, var):
            # items: [(exps, poly)] sharing exps[:var]; returns result series
            if var == self.n_vars:
                total = ring.zero()
                for _, p in items:
                    total = total + p
                return TruncatedSeries.const(ring, out_vars, trunc, total, bound)
            groups = {}
            for e, p in items:
                groups.setdefault(e[var], []).append((e, p))
            acc = TruncatedSeries.zero(ring, out_vars, trunc, bound)
            for k in sorted(groups):
                sub = eval_group(groups[k], var + 1)
                if k:
                    if k > bound:
                        continue
                    sub = sub * power(var, k)
                acc = acc + sub
            return acc

        items = [(e, p) for e, p in self.coeffs.items() if sum(e) <= bound]
        return eval_group(items, 0)

    # -- division and inversion ------------------------------------------------

    def exact_divide(self, den):
        """Exact quotient self / den for den with zero constant term.

        ``den`` must have a nonzero linear part with constant (rational)
        coefficients; its lowest term c_j*y_j, for the smallest j with
        c_j != 0, is the one cancelled (see ``_divide``).  Raises
        DivisionError when self is not divisible by den.  The result is valid
        to min(self.valid_degree, den.valid_degree) - 1.
        """
        self._shape_check(den)
        if not den.coefficient((0,) * self.n_vars).is_zero():
            raise DivisionError("divisor has a nonzero constant term")
        pivots = []
        for e, p in den.coeffs.items():
            if sum(e) == 1:
                if not p.is_constant():
                    raise DivisionError("divisor linear part must have constant coefficients")
                pivots.append(e.index(1))
        if not pivots:
            raise DivisionError("divisor has zero linear part")
        v = min(self.valid_degree, den.valid_degree) - 1
        if v < 0:
            raise DivisionError("not enough valid degrees to divide")
        j = min(pivots)
        return self._divide(den, tuple(int(i == j) for i in range(self.n_vars)), v)

    def invert_unit(self):
        """Multiplicative inverse of a series with invertible constant term."""
        c = self.constant_term()
        if not c.is_constant() or c.is_zero():
            raise DivisionError("constant term is not an invertible scalar")
        if not self.ring.rational_mode and c.constant_term() not in (1, -1):
            raise DivisionError("constant term must be a unit of the integral ring")
        one = TruncatedSeries.const(self.ring, self.n_vars, self.trunc, 1)
        return one._divide(self, (0,) * self.n_vars, self.valid_degree)

    def _divide(self, den, lead, valid):
        """Sparse quotient self / den, valid to degree ``valid``.

        ``lead`` is the exponent of den's lowest term, y_j or 1, whose
        coefficient is a nonzero scalar c.  The remainder self - q*den is kept
        in buckets keyed by (total degree, -exponent of y_j), with second part
        0 when ``lead`` = 1.  The lowest bucket is cancelled next: a term
        r*y^e adds t = (r/c)*y^(e - lead) to q and pushes the other terms of
        t*den into later buckets, since every other term of den has higher
        degree or, in degree 1, no y_j.  Every remainder term up to degree
        valid + |lead| must cancel; one that y^lead does not divide raises
        DivisionError.
        """
        pivot = itemgetter(lead.index(1)) if any(lead) else (lambda e: 0)
        inv = Fraction(1) / Fraction(den.coeffs[lead].constant_term())
        dl = sum(lead)
        bound = valid + dl
        rest = sorted((sum(f), f, p) for f, p in den.coeffs.items() if f != lead)
        rem = {}
        for e, p in self.coeffs.items():
            d = sum(e)
            if d <= bound:
                rem.setdefault((d, -pivot(e)), {})[e] = p
        keys = list(rem)
        heapify(keys)
        q = {}
        while keys:
            key = heappop(keys)
            d = key[0]
            for e, r in rem.pop(key).items():
                if r.is_zero():
                    continue
                if pivot(e) < pivot(lead):
                    raise DivisionError(f"series not divisible at degree {d}")
                eq = tuple(a - b for a, b in zip(e, lead))
                t = r.scale(inv)
                q[eq] = t
                neg = -t
                for df, f, p in rest:
                    d2 = d - dl + df
                    if d2 > bound:
                        break
                    e2 = _vec_add(eq, f)
                    key2 = (d2, -pivot(e2))
                    bucket = rem.get(key2)
                    if bucket is None:
                        bucket = rem[key2] = {}
                        heappush(keys, key2)
                    s = bucket.get(e2)
                    bucket[e2] = neg * p if s is None else s + neg * p
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, valid, q, _clean=False)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = [f"y{i + 1}" for i in range(self.n_vars)]
        parts = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            mono = "*".join(
                nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, e) if k
            )
            c = self.coeffs[e]
            if mono and c == self.ring.one():
                parts.append(mono)
                continue
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return (
            f"TruncatedSeries(n={self.n_vars}, trunc={self.trunc}, "
            f"valid={self.valid_degree}, {self})"
        )


def _degree_monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend(e + (k,) for e in _degree_monomials(n - 1, d - k))
    return out

