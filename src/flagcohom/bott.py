"""Tower presentations: the free-module model of a desingularization tower.

For a word I = (i_1..i_l) the cohomology of the associated tower of
P^1-bundles is free on classes xi_K indexed by subsets K of [1, l], subject
to the relations

    xi_j^2 = sum over K in [1, j-1] of  eps Theta_K(x_{-alpha_{i_j}}) xi_K xi_j

where Theta_K composes delta at negative simple roots (positions in K) with
plain reflections (positions outside K).  The same coefficient family
expresses the characteristic map of the tower: c_I(u) = sum eps Theta_K(u) xi_K.

So the tower ring is the iterated extension

    H_0 = R,    H_j = H_{j-1}[xi_j] / (xi_j^2 - y_j xi_j),

with y_j = sum_K eps Theta_K(x_{-alpha_{i_j}}) xi_K in H_{j-1}, and H_j is
free over H_{j-1} on 1 and xi_j.  A product in H_j is four in H_{j-1}:

    (a + b xi_j)(c + d xi_j) = ac + (ad + b (c + d y_j)) xi_j,

so products recurse down the letters and no reduction of xi-monomials is
stored.  Since xi_j^n = y_j^(n-1) xi_j for n >= 1, a series g has
g(xi_j) = g(0) + xi_j h(y_j) with h(t) = (g(t) - g(0))/t.  For
g(t) = F(t, iota(y_j)), with the formal inverse iota, F(y, iota(y)) = 0 and
F(0, s) = s, this is h(y_j) = k(y_j) with k(t) = -iota(t)/t, so

    xi_j -_F y_j = F(xi_j, iota(y_j)) = iota(y_j) + xi_j k(y_j),
    (1 + xi_j)(1 + (xi_j -_F y_j)) = (1 + iota(y_j)) + xi_j (1 + k(y_j)),

the factor of the tangent class at letter j: two one-variable series at
y_j, and no two-variable series evaluated in the tower ring.
"""

from __future__ import annotations

from .errors import InsufficientPrecisionError, RingMismatchError
from .tseries import TruncatedSeries


def theta_coefficients(fgr, word, u):
    """{K: eps Theta_K(u)} over all subsets K of [1, len(word)]."""
    # s_i keeps I^d and delta takes I^d into I^(d-1), so eps Theta_K(u)
    # reads only the terms of u of degree <= |K| <= len(word).
    return {K: v.constant_term() for K, v in fgr.theta(word, u.restrict(len(word)))}


def bs_pushforward(fgr, word, u):
    """Push-forward along the tower structure map: eps C_I(u).

    The composite uses the geometric operator C at the positive simple
    roots, in the order C_{i_1} o ... o C_{i_l}.
    """
    fgr.require_valid(u, len(word), f"push-forward along a length-{len(word)} word")
    for i in reversed(word):
        u = fgr.cc(i, u)
    return u.constant_term()


class BSPresentation:
    """Relation data of a tower: coefficients of xi_j^2 over xi_K xi_j."""

    def __init__(self, word, relations):
        self.word = word
        self.relations = relations  # relations[j-1] = {K: CoeffPoly} with K in [1, j-1]

    def relation(self, j):
        return self.relations[j - 1]


def bs_presentation(fgr, word):
    word = tuple(word)
    xs = [fgr.x_lambda_series(tuple(-c for c in fgr.datum.simple_roots[i - 1])) for i in word]
    # Checked up front, against the longest prefix, before any chain runs.
    if xs:
        fgr.require_valid(xs[-1], len(word) - 1, f"a length-{len(word)} presentation")
    rels = [theta_coefficients(fgr, word[:j], x) for j, x in enumerate(xs)]
    return BSPresentation(word, tuple(rels))


def _split(u, j):
    """(a, b) with u = a + b xi_j, for coordinates u over subsets of [1, j]."""
    a, b = {}, {}
    for K, c in u.items():
        if K and K[-1] == j:
            b[K[:-1]] = c
        else:
            a[K] = c
    return a, b


def _add(u, v):
    """Sum of two coordinate maps, zero coordinates dropped."""
    out = dict(u)
    for K, c in v.items():
        s = out.get(K)
        if s is None:
            out[K] = c
        else:
            s = s + c
            if s.is_zero():
                del out[K]
            else:
                out[K] = s
    return out


def _tower_mul(u, v, j, ys):
    """Product in H_j of coordinates over subsets of [1, j]; ys[i] is y_(i+1)."""
    if not u or not v:
        return {}
    if j == 0:
        p = u[()] * v[()]
        return {} if p.is_zero() else {(): p}
    a, b = _split(u, j)
    c, d = _split(v, j)
    # (a + b xi_j)(c + d xi_j) = ac + (ad + b (c + d y_j)) xi_j, as xi_j^2 = y_j xi_j.
    out = _tower_mul(a, c, j - 1, ys)
    if b or d:
        dy = _tower_mul(d, ys[j - 1], j - 1, ys)
        high = _add(_tower_mul(a, d, j - 1, ys), _tower_mul(b, _add(c, dy), j - 1, ys))
        for K, x in high.items():
            out[K + (j,)] = x
    return out


class BSRingElement:
    """Element of the tower ring: {subset of [1, l]: CoeffPoly}."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords, _clean=True):
        self.ring = ring
        if _clean:
            coords = {K: c for K, c in coords.items() if not c.is_zero()}
        self.coords = coords

    def is_zero(self):
        return not self.coords

    def constant_part(self):
        return self.coords.get((), self.ring.coeff_ring.zero())

    def __add__(self, other):
        return BSRingElement(self.ring, _add(self.coords, other.coords), _clean=False)

    def __neg__(self):
        return BSRingElement(
            self.ring, {K: -c for K, c in self.coords.items()}, _clean=False
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not hasattr(c, "ring"):
            c = self.ring.coeff_ring.const(c)
        return BSRingElement(
            self.ring, {K: v * c for K, v in self.coords.items()}
        )

    def __mul__(self, other):
        ring = self.ring
        return BSRingElement(
            ring, _tower_mul(self.coords, other.coords, len(ring.word), ring._ys), _clean=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, BSRingElement)
            and self.ring is other.ring
            and self.coords == other.coords
        )

    __hash__ = None

    def __repr__(self):
        parts = []
        for K in sorted(self.coords):
            mono = "*".join(f"xi{j}" for j in K) or "1"
            parts.append(f"({self.coords[K]})*{mono}")
        return "BSRingElement(" + (" + ".join(parts) or "0") + ")"


class BSRing:
    """The tower cohomology ring on xi_K generators with its relations."""

    def __init__(self, fgr, word):
        self.fgr = fgr
        self.word = tuple(word)
        self.coeff_ring = fgr.ring
        self.presentation = bs_presentation(fgr, self.word)
        self._ys = [self.y_element(j).coords for j in range(1, len(self.word) + 1)]

    def zero(self):
        return BSRingElement(self, {}, _clean=False)

    def one(self):
        return BSRingElement(self, {(): self.coeff_ring.one()}, _clean=False)

    def xi(self, j):
        return BSRingElement(self, {(j,): self.coeff_ring.one()}, _clean=False)

    def from_subset_coords(self, coords):
        return BSRingElement(self, dict(coords))

    def y_element(self, j):
        """The class the j-th relation squares against: c_prefix(x_{-alpha})."""
        return self.from_subset_coords(self.presentation.relation(j))

    def evaluate_series(self, series, a):
        """[s(a) for s in series]: one-variable series at a nilpotent element.

        ``a`` must have zero constant part.  The series share one list of
        powers of ``a``, which must vanish above the smallest valid degree d
        among them (a^(d+1) = 0), since their terms above d are unknown.
        """
        if not a.constant_part().is_zero():
            raise RingMismatchError("series argument has a constant part")
        d = min(s.valid_degree for s in series)
        powers = [self.one(), a]
        while not powers[-1].is_zero() and len(powers) <= d + 1:
            powers.append(powers[-1] * a)
        if not powers[-1].is_zero():
            raise InsufficientPrecisionError("nilpotency exceeds the series truncation")
        dot = self.coeff_ring.dot
        values = []
        for s in series:
            pairs = {}
            for (i,), c in s.coeffs.items():
                if i < len(powers):
                    for K, r in powers[i].coords.items():
                        pairs.setdefault(K, []).append((c, r))
            values.append(BSRingElement(self, {K: dot(p) for K, p in pairs.items()}))
        return values

    def characteristic_class(self, u):
        """c_I(u) as a ring element (coordinates eps Theta_K(u))."""
        return self.from_subset_coords(theta_coefficients(self.fgr, self.word, u))

    def tangent_chern_class(self):
        """Total Chern class of the tower tangent bundle in the xi basis.

        The product over the letters of (1 + xi_j)(1 + (xi_j -_F y_j)), each
        factor taken as (1 + iota(y_j)) + xi_j (1 + k(y_j)) with
        k(t) = -iota(t)/t (see the module docstring).  The partial product
        lies in H_{j-1}, so both of its products do, and multiplying by xi_j
        only appends j to the subsets.
        """
        law = self.fgr.law
        t = TruncatedSeries.variable(law.ring, 1, law.trunc, 0)
        k = -law.inverse.exact_divide(t)
        total = self.one()
        for j in range(1, len(self.word) + 1):
            iota_y, k_y = self.evaluate_series([law.inverse, k], self.y_element(j))
            shifted = total * (self.one() + k_y)
            total = total * (self.one() + iota_y) + BSRingElement(
                self, {K + (j,): c for K, c in shifted.coords.items()}, _clean=False
            )
        return total
