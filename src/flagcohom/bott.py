"""Tower presentations: the free-module model of a desingularization tower.

For a word I = (i_1..i_l) the cohomology of the associated tower of
P^1-bundles is free on classes xi_K indexed by subsets K of [1, l], subject
to the relations

    xi_j^2 = sum over K in [1, j-1] of  eps Theta_K(x_{-alpha_{i_j}}) xi_K xi_j

where Theta_K composes delta at negative simple roots (positions in K) with
plain reflections (positions outside K).  The same coefficient family
expresses the characteristic map of the tower: c_I(u) = sum eps Theta_K(u) xi_K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecisionError, RingMismatchError


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


@dataclass(frozen=True)
class BSPresentation:
    """Relation data of a tower: coefficients of xi_j^2 over xi_K xi_j."""

    word: tuple
    relations: tuple  # relations[j-1] = {K: CoeffPoly} with K in [1, j-1]

    def relation(self, j):
        return self.relations[j - 1]


def bs_presentation(fgr, word):
    word = tuple(word)
    xs = [fgr.x_lambda_series(tuple(-c for c in fgr.datum.simple_roots[i - 1])) for i in word]
    # Checked up front so the error names the deficit of the longest prefix.
    if xs:
        fgr.require_valid(xs[-1], len(word) - 1, f"a length-{len(word)} presentation")
    rels = [theta_coefficients(fgr, word[:j], x) for j, x in enumerate(xs)]
    return BSPresentation(word, tuple(rels))


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
        coords = dict(self.coords)
        for K, c in other.coords.items():
            s = coords.get(K)
            s = c if s is None else s + c
            if s.is_zero():
                coords.pop(K, None)
            else:
                coords[K] = s
        return BSRingElement(self.ring, coords, _clean=False)

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
        pairs = {}
        for K, c in self.coords.items():
            for L, d in other.coords.items():
                cd = c * d
                for M, r in self.ring.monomial_product(K, L).coords.items():
                    pairs.setdefault(M, []).append((cd, r))
        dot = self.ring.coeff_ring.dot
        return BSRingElement(self.ring, {M: dot(p) for M, p in pairs.items()})

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
        self._mono_cache = {}

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

    def monomial_product(self, K, L):
        """Product xi_K * xi_L reduced to the subset basis, memoized."""
        counts = {}
        for j in K:
            counts[j] = counts.get(j, 0) + 1
        for j in L:
            counts[j] = counts.get(j, 0) + 1
        return self._reduce(tuple(sorted(counts.items())))

    def _reduce(self, counts):
        cached = self._mono_cache.get(counts)
        if cached is not None:
            return cached
        repeated = [j for j, k in counts if k >= 2]
        if not repeated:
            result = BSRingElement(
                self, {tuple(j for j, _ in counts): self.coeff_ring.one()},
                _clean=False,
            )
        else:
            j = max(repeated)
            rest = []
            for i, k in counts:
                if i == j:
                    k -= 2
                if k:
                    rest.append((i, k))
            rel = self.presentation.relation(j)
            acc = self.zero()
            for K, coef in rel.items():
                if coef.is_zero():
                    continue
                merged = dict(rest)
                for i in K:
                    merged[i] = merged.get(i, 0) + 1
                merged[j] = merged.get(j, 0) + 1
                acc = acc + self._reduce(tuple(sorted(merged.items()))).scale(coef)
            result = acc
        self._mono_cache[counts] = result
        return result

    def evaluate_series(self, series, args):
        """Evaluate a truncated series at nilpotent ring elements.

        Every argument must have zero constant part; powers are expanded
        until they vanish, which must happen within the series truncation.
        """
        pows = []
        for a in args:
            if not a.constant_part().is_zero():
                raise RingMismatchError("series argument has a constant part")
            levels = [self.one(), a]
            while not levels[-1].is_zero() and len(levels) <= series.trunc + 1:
                levels.append(levels[-1] * a)
            if not levels[-1].is_zero():
                raise InsufficientPrecisionError(
                    "nilpotency exceeds the series truncation",
                    deficit=1,
                )
            pows.append(levels)
        acc = self.zero()
        for e, c in series.coeffs.items():
            term = self.one().scale(c)
            skip = False
            for i, k in enumerate(e):
                if k >= len(pows[i]):
                    skip = True
                    break
                if k:
                    term = term * pows[i][k]
            if not skip and not term.is_zero():
                acc = acc + term
        return acc

    def characteristic_class(self, u):
        """c_I(u) as a ring element (coordinates eps Theta_K(u))."""
        return self.from_subset_coords(theta_coefficients(self.fgr, self.word, u))

    def tangent_chern_class(self):
        """Total Chern class of the tower tangent bundle in the xi basis.

        The product of (1 + xi_j)(1 + (xi_j - y_j taken in the formal
        group sense)) over the letters of the word.
        """
        law = self.fgr.law
        total = self.one()
        for j in range(1, len(self.word) + 1):
            xi = self.xi(j)
            y = self.y_element(j)
            minus_y = self.evaluate_series(law.inverse, [y])
            diff = self.evaluate_series(law.F, [xi, minus_y])
            total = total * (self.one() + xi) * (self.one() + diff)
        return total
