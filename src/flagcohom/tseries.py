"""Truncated multivariate power series with tracked valid degree.

A :class:`TruncatedSeries` lives in R[[y_1..y_n]] modulo total degree >
``trunc``, where R = QQ[m_1..m_k] is a :class:`CoeffRing`.  On top of the
hard truncation every series carries a ``valid_degree`` d <= trunc: the
element is certified only modulo total degree > d, and the kernel traps any
read above that bound.  Operations propagate validity exactly: add/mul take
the min of the operand validities (knowing u, v mod degree > d determines
u+v and u*v mod degree > d), while exact division by a series with linear
lowest term loses exactly one degree.

Coefficients of degree > valid_degree are never stored, so shrinking the
valid degree (``restrict``) is also how callers cap the cost of a chain of
operations to the precision actually needed downstream.

A series is one flat sparse map from monomials y^e m^a to exact scalars
(int, or Fraction when not integral), keyed by the packed monomials of
``coeffring``'s layout.  The coefficient of y^e is the set of keys with that
y-part, and their low (m-) part is the :class:`CoeffPoly` key as it is: no
coefficient is unpacked or repacked on its way in or out, through
``from_terms``, ``const``, ``scale``, ``coefficient``, ``constant_term`` and
the ``coeffs`` and ``grouped`` views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_

from .coeffring import _CAP, _MASK, CoeffPoly, _fold, _layout, convolve
from .errors import DegreeValidityError, DivisionError, RingMismatchError


class TruncatedSeries:
    __slots__ = ("ring", "n_vars", "trunc", "valid_degree", "_terms", "_lay")

    def __init__(self, ring, n_vars, trunc, valid_degree, terms):
        """Wrap packed ``terms`` (nonzero, of degree <= valid_degree); kernel use only."""
        if valid_degree < 0:
            raise ValueError("valid_degree must be >= 0")
        self.ring = ring
        self.n_vars = n_vars
        self.trunc = trunc
        self.valid_degree = min(valid_degree, trunc)
        self._terms = terms
        self._lay = _layout(ring.ngens, n_vars)

    def _like(self, terms, valid):
        return TruncatedSeries(self.ring, self.n_vars, self.trunc, valid, terms)

    def _graded(self, valid):
        """Terms (key, scalar) of degree <= valid, in lists indexed by degree."""
        ds = self._lay.deg_shift
        graded = [[] for _ in range(valid + 1)]
        for k, c in self._terms.items():
            d = k >> ds
            if d <= valid:
                graded[d].append((k, c))
        return graded

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring, n_vars, trunc, valid_degree=None):
        v = trunc if valid_degree is None else valid_degree
        return TruncatedSeries(ring, n_vars, trunc, v, {})

    @staticmethod
    def const(ring, n_vars, trunc, value, valid_degree=None):
        return TruncatedSeries.from_terms(
            ring, n_vars, trunc, {(0,) * n_vars: value}, valid_degree
        )

    @staticmethod
    def variable(ring, n_vars, trunc, index, valid_degree=None):
        e = tuple(int(i == index) for i in range(n_vars))
        return TruncatedSeries.from_terms(ring, n_vars, trunc, {e: 1}, valid_degree)

    @staticmethod
    def from_terms(ring, n_vars, trunc, terms, valid_degree=None):
        """Build from {exponent tuple: CoeffPoly | scalar}.

        Exponent tuples must have ``n_vars`` non-negative entries
        (RingMismatchError, ValueError otherwise); terms above the valid
        degree are dropped.
        """
        s = TruncatedSeries.zero(ring, n_vars, trunc, valid_degree)
        lay = s._lay
        for e, p in terms.items():
            y = lay.pack(e, True)
            if not isinstance(p, CoeffPoly):
                p = ring.const(p)
            elif p.ring != ring:
                raise RingMismatchError("coefficient from a different ring")
            if y >> lay.deg_shift <= s.valid_degree:
                for k, c in p.terms.items():
                    s._terms[y | k] = c
        return s

    # -- queries -----------------------------------------------------------

    def _part(self, y):
        """{m-part key: scalar} of the terms whose y-part key is ``y``."""
        top = y + (1 << self._lay.m_bits)
        return {k - y: c for k, c in self._terms.items() if y <= k < top}

    def coefficient(self, exps):
        y = self._lay.pack(exps, True)
        d = y >> self._lay.deg_shift
        if d > self.valid_degree:
            raise DegreeValidityError(
                f"read of degree {d} above valid degree {self.valid_degree}"
            )
        return CoeffPoly._wrap(self.ring, self._part(y))

    def constant_term(self):
        return CoeffPoly._wrap(self.ring, self._part(0))

    def is_zero(self):
        return not self._terms

    @property
    def coeffs(self):
        """Read-only view {y-exponent tuple: CoeffPoly}: a new dict on each access."""
        unpack, wrap = self._lay.unpack, CoeffPoly._wrap
        return {
            unpack(y, True): wrap(self.ring, dict(terms))
            for y, terms in self.grouped(self.valid_degree).items()
        }

    def grouped(self, degree):
        """The terms of degree <= ``degree`` as {packed y-key: [(m-key, scalar)]}.

        y-keys are those of ``y_key`` and m-keys those of ``CoeffPoly``; no
        key is unpacked.
        """
        lay = self._lay
        low, ds = (1 << lay.m_bits) - 1, lay.deg_shift
        terms = self._terms.items()
        if degree < self.valid_degree:
            terms = [(k, c) for k, c in terms if k >> ds <= degree]
        groups = {}
        for k, c in terms:
            groups.setdefault(k & ~low, []).append((k & low, c))
        return groups

    def y_key(self, exps):
        """The packed key of y^exps, as ``grouped`` uses it."""
        return self._lay.pack(exps, True)

    def _shape_check(self, other):
        if self.ring != other.ring or self.n_vars != other.n_vars or self.trunc != other.trunc:
            raise RingMismatchError("series shapes differ")

    def __eq__(self, other):
        """Agreement up to the smaller valid degree (same shape required)."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._shape_check(other)
        d = min(self.valid_degree, other.valid_degree)
        return self.restrict(d)._terms == other.restrict(d)._terms

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def restrict(self, valid_degree):
        """Forget precision above ``valid_degree`` (a no-op if already lower)."""
        if valid_degree >= self.valid_degree:
            return self
        ds = self._lay.deg_shift
        return self._like(
            {k: c for k, c in self._terms.items() if k >> ds <= valid_degree}, valid_degree
        )

    def map_coefficients(self, func, ring=None):
        """Apply a coefficient-ring morphism to every coefficient."""
        terms = {e: func(p) for e, p in self.coeffs.items()}
        return TruncatedSeries.from_terms(
            ring or self.ring, self.n_vars, self.trunc, terms, self.valid_degree
        )

    def split(self, index):
        """{k: p_k} with self = sum_k y_index^k * p_k and no y_index in any p_k."""
        lay = self._lay
        shift = lay.y_shift[index]
        unit = lay.y_unit[index]
        parts = {}
        for key, c in self._terms.items():
            k = (key >> shift) & _MASK
            parts.setdefault(k, {})[key - k * unit] = c
        return {k: self._like(t, self.valid_degree) for k, t in parts.items()}

    # -- linear arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._shape_check(other)
        v = min(self.valid_degree, other.valid_degree)
        out = dict(self.restrict(v)._terms)
        for k, c in other.restrict(v)._terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s += c
                if s:
                    out[k] = _fold(s)
                else:
                    del out[k]
        return self._like(out, v)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()}, self.valid_degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar or a CoeffPoly; validity kept."""
        if not isinstance(c, CoeffPoly):
            c = self.ring.const(c)
        elif c.ring != self.ring:
            raise RingMismatchError("scalar from a different ring")
        if not c.is_constant():
            return self * TruncatedSeries.const(
                self.ring, self.n_vars, self.trunc, c, self.valid_degree
            )
        c = c.constant_term()
        if not c:
            return self._like({}, self.valid_degree)
        return self._like({k: _fold(v * c) for k, v in self._terms.items()}, self.valid_degree)

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """The convolution: terms of degree d meet the other factor's of degree <= v - d."""
        if isinstance(other, (int, Fraction, CoeffPoly)):
            return self.scale(other)
        self._shape_check(other)
        v = min(self.valid_degree, other.valid_degree)
        a, b = self._graded(v), other._graded(v)
        if sum(map(len, a)) > sum(map(len, b)):
            a, b = b, a
        return self._like(convolve_graded(a, _flatten(b), v, self._lay.guard), v)

    def prefixes(self, valid):
        """(flat, ends): the terms of degree <= ``valid`` in degree order.

        ends[d] counts those of degree <= d, so flat[:ends[d]] is the
        truncation above degree d.  Kernel data for ``convolve_split`` and
        ``mul_prefixes``.
        """
        return _flatten(self._graded(valid))

    def mul_prefixes(self, prefixes, valid):
        """self * f, valid to ``valid``, for f given by ``prefixes`` = f.prefixes(p).

        For a factor f used many times: its terms are put in degree order
        once.  The caller vouches that valid <= p, f's and self's valid
        degrees.
        """
        terms = convolve_graded(self._graded(valid), prefixes, valid, self._lay.guard)
        return self._like(terms, valid)

    def convolve_split(self, index, image, valid):
        """sum_k p_k * f(y_index^k) for self = sum_k y_index^k p_k, valid to ``valid``.

        For a map f that is linear over the series free of y_index.
        ``image(k)`` gives the ``prefixes`` of f(y_index^k), through degree
        ``valid`` at least; a term of p_k of degree d meets the prefix
        through degree valid - d.  The caller vouches that f takes terms
        above self's valid degree above ``valid``.  One convolution over all
        k.
        """
        lay = self._lay
        shift, unit, ds = lay.y_shift[index], lay.y_unit[index], lay.deg_shift
        parts = {}
        for key, c in self._terms.items():
            k = (key >> shift) & _MASK
            rest = key - k * unit
            d = rest >> ds
            if d <= valid:
                parts.setdefault(k, {}).setdefault(d, []).append((rest, c))
        pairs = []
        for k, by_degree in parts.items():
            flat, ends = image(k)
            if flat:
                pairs += ((terms, flat[: ends[valid - d]]) for d, terms in by_degree.items())
        return self._like(convolve(pairs, lay.guard), valid)

    __rmul__ = __mul__

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
        out = images[0]
        for img in images:
            if img.ring != self.ring or img.n_vars != out.n_vars or img.trunc != out.trunc:
                raise RingMismatchError("substitution images have mismatched shapes")
            if img._part(0):
                raise ValueError("substitution image has a nonzero constant term")
        used = reduce(or_, self._terms, 0)
        bound = self.valid_degree
        for i, img in enumerate(images):
            if (used >> self._lay.y_shift[i]) & _MASK:
                bound = min(bound, img.valid_degree)
        powers = [[img.restrict(bound)] for img in images]
        acc = TruncatedSeries.zero(self.ring, out.n_vars, out.trunc, bound)
        return self.restrict(bound)._compose(powers, 0, acc)

    def _compose(self, powers, i, acc):
        """acc + self(images) for a series free of y_1..y_i.

        ``powers[j]`` lists the powers of the j-th image computed so far.
        """
        if i == self.n_vars:  # only m-parts are left, and they pack alike in every shape
            return acc + acc._like(self._terms, acc.valid_degree)
        zero = acc._like({}, acc.valid_degree)
        for k, part in sorted(self.split(i).items()):
            if k:
                p = powers[i]
                while len(p) < k:
                    p.append(p[-1] * p[0])
                acc = acc + part._compose(powers, i + 1, zero) * p[k - 1]
            else:
                acc = part._compose(powers, i + 1, acc)
        return acc

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
        graded = den._graded(den.valid_degree)
        if graded[0]:
            raise DivisionError("divisor has a nonzero constant term")
        linear = graded[1] if len(graded) > 1 else []
        if not linear:
            raise DivisionError("divisor has zero linear part")
        if any(k & ((1 << self._lay.m_bits) - 1) for k, _ in linear):
            raise DivisionError("divisor linear part must have constant coefficients")
        v = min(self.valid_degree, den.valid_degree) - 1
        if v < 0:
            raise DivisionError("not enough valid degrees to divide")
        return self._divide(graded, min(linear)[0], v)

    def invert_unit(self):
        """Multiplicative inverse of a series with invertible constant term."""
        c = self.constant_term()
        if not c.is_constant() or c.is_zero():
            raise DivisionError("constant term is not an invertible scalar")
        one = TruncatedSeries.const(self.ring, self.n_vars, self.trunc, 1)
        return one._divide(self._graded(self.valid_degree), 0, self.valid_degree)

    def _divide(self, den, lead, valid):
        """Sparse quotient self / den, valid to degree ``valid``.

        ``den`` is the divisor's ``_graded`` term lists and ``lead`` the key
        of its lowest term, y_j or 1, whose coefficient is a nonzero scalar
        c.  The remainder self - q*den is kept in buckets keyed by (total
        degree, -exponent of y_j), with second part 0 when ``lead`` = 1.  The
        lowest bucket is cancelled next: a term r*y^e m^a adds
        t = (r/c)*y^(e - lead) m^a to q and pushes the other terms of t*den
        into later buckets, since every other term of den has higher degree
        or, in degree 1, no y_j.  Every remainder term up to degree
        valid + |lead| must cancel; one that y^lead does not divide raises
        DivisionError.
        """
        lay = self._lay
        ds = lay.deg_shift
        # e & pivot orders keys by their exponent of y_j (all alike if lead = 1)
        pivot = _MASK << lay.y_shift[lay.y_unit.index(lead)] if lead else 0
        dl = lead >> ds
        inv = Fraction(1) / dict(den[dl])[lead]
        den[dl] = [(f, p) for f, p in den[dl] if f != lead]
        bound = valid + dl
        rem = {}
        for k, c in self._terms.items():
            if k >> ds <= bound:
                rem.setdefault((k >> ds, -(k & pivot)), {})[k] = c
        keys = list(rem)
        heapify(keys)
        q = {}
        while keys:
            key = heappop(keys)
            d = key[0]
            for e, r in rem.pop(key).items():
                if not r:
                    continue
                if e & pivot < lead & pivot:
                    raise DivisionError(f"series not divisible at degree {d}")
                eq = e - lead
                if eq & lay.guard:
                    raise OverflowError(f"a quotient exponent exceeds the packing cap {_CAP}")
                t = q[eq] = _fold(r * inv)
                for d2, terms in enumerate(den[dl : bound - d + dl + 1], d):
                    for f, p in terms:
                        e2 = eq + f
                        key2 = (d2, -(e2 & pivot))
                        bucket = rem.get(key2)
                        if bucket is None:
                            bucket = rem[key2] = {}
                            heappush(keys, key2)
                        bucket[e2] = bucket.get(e2, 0) - t * p
        return self._like(q, valid)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        names = [f"y{i + 1}" for i in range(self.n_vars)]
        parts = []
        for e in sorted(coeffs, key=lambda t: (sum(t), t)):
            mono = "*".join(
                nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, e) if k
            )
            c = coeffs[e]
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


def convolve_graded(graded, prefixes, valid, guard):
    """Packed terms of (graded terms) * (prefixes' series) through degree ``valid``."""
    flat, ends = prefixes
    pairs = ((terms, flat[: ends[valid - d]]) for d, terms in enumerate(graded) if terms)
    return convolve(pairs, guard)


def _flatten(graded):
    """Concatenate per-degree term lists; return (flat, ends) as in ``prefixes``."""
    flat, ends = [], []
    for terms in graded:
        flat += terms
        ends.append(len(flat))
    return flat, ends


def _degree_monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend(e + (k,) for e in _degree_monomials(n - 1, d - k))
    return out
