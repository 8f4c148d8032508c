"""Exact weighted-graded polynomial coefficient rings, and the monomial layout.

A :class:`CoeffRing` is a polynomial ring over the rationals whose generators
carry positive integer weights (``a1`` has weight 1, ``a2`` weight 2, ...).
Polynomials are stored sparsely as packed monomial -> coefficient maps with
exact arithmetic: coefficients are Python ints whenever integral and
``fractions.Fraction`` otherwise.  All values are immutable after
construction, so they are safe to share between threads.

This module keeps the one monomial layout of the package.  A monomial
y^e m^a of a series in n variables over k generators is one int of
fixed-width fields: m-exponents lowest, then y-exponents, and the total
y-degree |e| on top, so a monomial product is one integer addition and a
degree is one shift.  A polynomial's keys are the same layout with no
y-part, so the coefficient of y^e in a series (``tseries``) is the low part
of its keys, unchanged.  Exponents above ``_CAP`` are refused when packed, and
a field that overflows into its guard bit raises OverflowError rather than
wrap.  :func:`convolve` is the one monomial product, for polynomials and
series alike.  Exponent tuples appear only at the edges that print, parse or
index by generator, through :meth:`CoeffRing.exponents` and the public
``CoeffPoly(ring, {exponent tuple: scalar})`` constructor.

A table of many polynomials, one per column, packs in the same layout: the
key of term m^a of column j is j << m_bits | (key of m^a), with the column
index in the field above the m-fields (``_Layout.m_bits``, the y-part of a
series key being one such index).  Convolving a column table with plain
polynomials under the ring layout's ``guard`` adds m-keys only: an m-field
that would carry into the column field reaches its guard bit first and
raises, so the column index comes out as it went in, and one convolution
serves every column.  The characteristic map and the operator functionals
of ``flagring`` keep their tables so.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .errors import IntegralityError, NotInImageError, RingMismatchError, SpecializationError

Scalar = "int | Fraction"

_BITS = 16  # per field: 15 exponent bits under one guard bit
_CAP = (1 << (_BITS - 1)) - 1
_MASK = (1 << _BITS) - 1


class _Layout:
    """Field offsets of the keys of series in ``n_vars`` y's over ``ngens`` generators."""

    def __init__(self, ngens, n_vars):
        self.ngens = ngens
        self.n_vars = n_vars
        self.m_bits = _BITS * ngens  # keys below 1 << m_bits have y-part 1
        self.y_shift = [_BITS * (ngens + i) for i in range(n_vars)]
        self.deg_shift = _BITS * (ngens + n_vars)
        self.guard = sum(1 << (_BITS * f - 1) for f in range(1, ngens + n_vars + 1))
        self.y_unit = [1 << s | 1 << self.deg_shift for s in self.y_shift]  # key of y_i

    def pack(self, exps, y):
        """Key of a y-monomial (with its degree) if ``y``, else of an m-monomial."""
        exps = tuple(exps)
        if len(exps) != (self.n_vars if y else self.ngens):
            raise RingMismatchError(f"exponent {exps} has the wrong number of entries")
        key = sum(exps) << self.deg_shift if y else 0
        for i, k in enumerate(exps, self.ngens if y else 0):
            if k < 0:
                raise ValueError(f"negative exponent in {exps}")
            if k > _CAP:
                raise OverflowError(f"exponent {k} exceeds the packing cap {_CAP}")
            key |= k << (_BITS * i)
        return key

    def unpack(self, key, y):
        first, count = (self.ngens, self.n_vars) if y else (0, self.ngens)
        return tuple((key >> (_BITS * i)) & _MASK for i in range(first, first + count))


_layout = lru_cache(maxsize=None)(_Layout)


def _fold(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def convolve(pairs, guard):
    """Sum over ``pairs`` of the products of a left and a right term list.

    Terms are (packed key, scalar); a monomial product is key addition.
    Returns the nonzero sums, folded to ints where integral.  A sum whose
    key reaches a ``guard`` bit raises OverflowError.
    """
    out = {}
    get = out.get
    for left, right in pairs:
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    out = {k: _fold(c) for k, c in out.items() if c}
    if reduce(or_, out, 0) & guard:
        raise OverflowError(f"a product exponent exceeds the packing cap {_CAP}")
    return out


class CoeffRing:
    """A weighted polynomial ring QQ[g1, ..., gk].

    ``generators`` is a tuple of (name, weight) pairs with unique names and
    weights >= 1.  Rings are equal when their generators are.  Integrality
    is a property of outputs, checked where they are made (``assert_integer``).
    """

    def __init__(self, generators):
        self.generators = generators
        self.names = tuple(g[0] for g in generators)
        self.weights = tuple(g[1] for g in generators)
        self.ngens = len(generators)
        if len(set(self.names)) != self.ngens:
            raise ValueError("generator names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("generator weights must be >= 1")
        self.layout = _layout(self.ngens, 0)  # the packed layout of its monomials

    def __eq__(self, other):
        if not isinstance(other, CoeffRing):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"CoeffRing({self.generators!r})"

    def exponents(self, key):
        """The exponent tuple of a packed monomial."""
        return self.layout.unpack(key, False)

    def zero(self):
        return CoeffPoly._wrap(self, {})

    def one(self):
        return self.const(1)

    def const(self, value):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        value = _fold(value)
        return CoeffPoly._wrap(self, {0: value} if value else {})

    def gen(self, name):
        idx = self.names.index(name)
        return self.monomial(tuple(int(i == idx) for i in range(self.ngens)))

    def monomial(self, exps, coeff=1):
        return CoeffPoly(self, {tuple(exps): coeff})

    def morphism(self, assignment, target=None, max_weight=None):
        """The ring morphism sending each generator to its assigned value, as a map.

        ``assignment`` maps generator names to rationals or to CoeffPoly
        values in ``target`` (by default the ring of the polynomial values,
        else this ring).  The image of each monomial is built once, from the
        monomial with its lowest nonzero exponent one less, and kept; the
        image of a polynomial is one convolution over those images.  Mapping
        a monomial raises SpecializationError when it uses an unassigned
        generator and NotInImageError when its weight exceeds ``max_weight``.
        """
        if target is None:
            target = next((v.ring for v in assignment.values() if isinstance(v, CoeffPoly)), self)
        values = {}
        for name, v in assignment.items():
            if not isinstance(v, CoeffPoly):
                v = target.const(v)
            elif v.ring != target:
                raise RingMismatchError("assignment value in the wrong ring")
            values[name] = tuple(v.terms.items())
        guard = target.layout.guard
        images = {0: ((0, 1),)}  # packed monomial -> terms of its image

        def image(key):
            path = []
            while key not in images:
                i = ((key & -key).bit_length() - 1) // _BITS  # lowest nonzero field
                path.append((key, i))
                key -= 1 << _BITS * i
            if path and max_weight is not None:
                weight = self.term_weight(path[0][0])
                if weight > max_weight:
                    raise NotInImageError(f"weight {weight} exceeds degree bound {max_weight}")
            terms = images[key]
            for key, i in reversed(path):
                name = self.names[i]
                if name not in values:
                    raise SpecializationError(f"no assignment for generator {name}")
                terms = images[key] = tuple(convolve([(terms, values[name])], guard).items())
            return terms

        def apply(poly):
            if poly.ring is not self and poly.ring != self:
                raise RingMismatchError("polynomial is not over the morphism's source ring")
            pairs = ((((0, c),), image(k)) for k, c in poly.terms.items())
            return CoeffPoly._wrap(target, convolve(pairs, guard))

        return apply

    def term_weight(self, key):
        """Weighted degree of a packed monomial."""
        return sum(e * w for e, w in zip(self.exponents(key), self.weights))

    def term_sort_key(self, exps):
        # Canonical order: ascending weighted degree, then descending
        # lexicographic comparison starting from the last generator.  This
        # prints e.g. "a4 + a1*a3 + 13*a2^2 + 15*a1^2*a2 + a1^4".
        weight = sum(e * w for e, w in zip(exps, self.weights))
        return (weight, tuple(-e for e in reversed(exps)))


class CoeffPoly:
    """Sparse exact polynomial in a :class:`CoeffRing`: {packed monomial: scalar}.

    Never mutated after construction; zero coefficients are never stored.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        """Polynomial from {exponent tuple: scalar}; zero scalars are dropped."""
        pack = ring.layout.pack
        self.ring = ring
        self.terms = {pack(e, False): _fold(c) for e, c in terms.items() if c}

    @classmethod
    def _wrap(cls, ring, terms):
        """Wrap packed ``terms`` (nonzero, folded scalars); kernel use only."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_integer(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def constant_term(self):
        return self.terms.get(0, 0)

    def is_constant(self):
        return not any(self.terms)  # the monomial 1 is the key 0

    def weight(self):
        """Weighted degree when homogeneous; raises otherwise."""
        weights = {self.ring.term_weight(k) for k in self.terms}
        if len(weights) > 1:
            raise ValueError(f"not homogeneous: weights {sorted(weights)}")
        return weights.pop() if weights else 0

    def is_homogeneous(self, weight=None):
        weights = {self.ring.term_weight(k) for k in self.terms}
        if not weights:
            return True
        if len(weights) > 1:
            return False
        return weight is None or weights == {weight}

    def max_weight(self):
        return max((self.ring.term_weight(k) for k in self.terms), default=0)

    def homogeneous_part(self, weight):
        return CoeffPoly._wrap(
            self.ring,
            {k: c for k, c in self.terms.items() if self.ring.term_weight(k) == weight},
        )

    def uses_generator(self, name):
        idx = self.ring.names.index(name)
        return any(self.ring.exponents(k)[idx] for k in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c
            if s == 0:
                terms.pop(k, None)
            else:
                terms[k] = _fold(s)
        return CoeffPoly._wrap(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return CoeffPoly._wrap(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        pairs = [(self.terms.items(), other.terms.items())]
        return CoeffPoly._wrap(self.ring, convolve(pairs, self.ring.layout.guard))

    __rmul__ = __mul__

    def scale(self, c):
        c = _fold(c)
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return CoeffPoly._wrap(self.ring, {k: _fold(v * c) for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- morphisms -------------------------------------------------------

    def specialize(self, assignment, target=None):
        """Image under the ring morphism ``self.ring.morphism(assignment, target)``."""
        return self.ring.morphism(assignment, target)(self)

    # -- printing --------------------------------------------------------

    def sorted_terms(self):
        """[(exponent tuple, scalar)] in the canonical printing order."""
        exponents = self.ring.exponents
        terms = [(exponents(k), c) for k, c in self.terms.items()]
        return sorted(terms, key=lambda kv: self.ring.term_sort_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CoeffPoly({self})"


def _ext_gcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def assert_integer(poly, context=""):
    """Raise IntegralityError unless every coefficient of ``poly`` is an int."""
    if not poly.is_integer():
        where = f" in {context}" if context else ""
        raise IntegralityError(f"non-integer coefficient{where}: {poly}")
    return poly
