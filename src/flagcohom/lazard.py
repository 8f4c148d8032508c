"""Integral generator basis a1, a2, ... of the universal coefficient ring.

The universal law lives over QQ[m1, m2, ...]; its coefficients a_ij
generate an integral subring L, polynomial on one generator a_d per weight.
By Lazard's theorem (Lazard 1955; Adams, *Stable homotopy and generalised
homology*, Part II; Ravenel's green book, A2), modulo decomposables
a_{i,d+1-i} = binom(d+1, i) / g_d * (generator), g_d = gcd_i binom(d+1, i)
(p when d+1 is a power of a prime p, 1 otherwise).  So a_d =
sum_i lam_i a_{i,d+1-i} is a generator whenever sum_i lam_i binom(d+1, i)
= g_d; as a_{i,d+1-i} has m_d coefficient -binom(d+1, i), a_d has -g_d.

Up to weight 5 lam is the paper's combination:

    a1 = a11, a2 = a12, a3 = a22 - a13, a4 = a14, a5 = -9 a15 + a24 + 2 a33

From weight 6 on it is the extended gcd of the binomials folded left to
right (``lazard_combination``): a6 = a16, a7 = 51 a17 - 17 a26 + a44, ...
Other choices differ by decomposables, so the printed coefficients of a6
and beyond depend on this one.  Conversion of an m-polynomial into the
a-basis is a per-weight exact linear solve, required to exist
(NotInImageError otherwise) and to be integral (IntegralityError).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffring import CoeffPoly, CoeffRing
from .errors import IntegralityError, NotInImageError, RingMismatchError

PAPER_COMBOS = {
    1: (((1, 1), 1),),
    2: (((1, 2), 1),),
    3: (((2, 2), 1), ((1, 3), -1)),
    4: (((1, 4), 1),),
    5: (((1, 5), -9), ((2, 4), 1), ((3, 3), 2)),
}


def weighted_monomials(weights, target):
    """Exponent tuples e with sum e_i * weights_i == target."""
    out = []

    def rec(idx, remaining, prefix):
        if idx == len(weights):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[idx]
        for k in range(remaining // w + 1):
            rec(idx + 1, remaining - k * w, prefix + [k])

    rec(0, target, [])
    return out


def _aij_pairs(weight):
    """Unordered coefficient positions (i <= j) of the given weight i+j-1."""
    return [(i, weight + 1 - i) for i in range(1, weight // 2 + 2) if i <= weight + 1 - i]


def lazard_combination(d):
    """Integers lam over ``_aij_pairs(d)`` with sum lam_i binom(d+1, i) = g_d.

    One extended Euclid step per binomial, left to right; zero terms are
    dropped.  Returns ((i, j), lam) pairs in the layout of PAPER_COMBOS.
    """
    pairs = _aij_pairs(d)
    g, lams = comb(d + 1, pairs[0][0]), [1]
    for i, _ in pairs[1:]:
        g, s, t = _extended_gcd(g, comb(d + 1, i))
        lams = [s * lam for lam in lams] + [t]
    return tuple((p, lam) for p, lam in zip(pairs, lams) if lam)


def _extended_gcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class LazardBasis:
    """Integral a-basis attached to a universal formal group law."""

    def __init__(self, law, bound):
        if law.log is None:
            raise ValueError("law has no logarithm")
        if bound + 1 > law.trunc:
            raise ValueError(
                f"truncation {law.trunc} too small for a-basis up to weight {bound}"
            )
        self.law = law
        self.m_ring = law.ring
        self.bound = bound
        self.a_ring = CoeffRing(
            tuple((f"a{d}", d) for d in range(1, bound + 1)), rational_mode=True
        )
        # the a_ij of weight <= bound, from x +F y built only to degree bound + 1
        table = law.log_sum(bound + 1).coeffs
        self.expansions = {}  # generator name -> CoeffPoly over m_ring
        self._solvers = {}
        for d in range(1, bound + 1):
            self.expansions[f"a{d}"] = self._build_generator(table, d)

    # -- construction -----------------------------------------------------

    def _m_coordinates(self, poly, weight):
        monos = weighted_monomials(self.m_ring.weights, weight)
        index = {e: k for k, e in enumerate(monos)}
        vec = [0] * len(monos)
        for k, c in poly.terms.items():
            vec[index[poly.ring.exponents(k)]] = c
        return vec

    def _build_generator(self, table, d):
        p = self.m_ring.zero()
        for (i, j), c in PAPER_COMBOS.get(d) or lazard_combination(d):
            p = p + table[(i, j)].scale(c)
        return p

    # -- conversion ----------------------------------------------------------

    def to_a_basis(self, poly, degree_bound=None):
        """Rewrite an m-polynomial integrally in the a-generators.

        Solved weight by weight by exact linear algebra; raises
        NotInImageError when no rational solution exists and
        IntegralityError when the solution is not integral.
        """
        bound = self.bound if degree_bound is None else degree_bound
        if bound > self.bound:
            raise ValueError(f"basis built only up to weight {self.bound}")
        if poly.ring != self.m_ring:
            raise RingMismatchError("polynomial is not over the universal ring")
        if poly.max_weight() > bound:
            raise NotInImageError(
                f"weight {poly.max_weight()} exceeds degree bound {bound}"
            )
        out = self.a_ring.zero()
        const = poly.constant_term()
        out = out + self.a_ring.const(const)
        for d in range(1, bound + 1):
            part = poly.homogeneous_part(d)
            if part.is_zero():
                continue
            out = out + self._solve_weight(part, d)
        return out

    def _solver(self, d):
        cached = self._solvers.get(d)
        if cached is not None:
            return cached
        cols = weighted_monomials(self.a_ring.weights, d)
        monos = weighted_monomials(self.m_ring.weights, d)
        mat = []
        for exps in cols:
            p = self.m_ring.one()
            for name, e in zip(self.a_ring.names, exps):
                for _ in range(e):
                    p = p * self.expansions[name]
            mat.append(self._m_coordinates(p, d))
        cached = (cols, monos) + _solve_structure(mat, len(monos))
        self._solvers[d] = cached
        return cached

    def _solve_weight(self, part, d):
        cols, monos, left_inverse, checks = self._solver(d)
        index = {e: k for k, e in enumerate(monos)}
        target = [(index[part.ring.exponents(k)], c) for k, c in part.terms.items()]
        for row in checks:
            if sum(row[k] * v for k, v in target) != 0:
                raise NotInImageError(f"no a-basis expression at weight {d}")
        terms = {}
        for exps, row in zip(cols, left_inverse):
            c = sum(row[k] * v for k, v in target)
            if c != 0:
                if c.denominator != 1:
                    raise IntegralityError(
                        f"a-basis coefficient {c} is not an integer at weight {d}"
                    )
                terms[exps] = int(c)
        return CoeffPoly(self.a_ring, terms)

    def from_a_basis(self, poly):
        """Substitute the m-expansions back (inverse of to_a_basis)."""
        assignment = {name: self.expansions[name] for name in self.a_ring.names}
        return poly.specialize(assignment, self.m_ring)


def _solve_structure(columns, nrows):
    """Prepare exact solving of sum_c x_c columns[c] = target.

    One Gauss-Jordan pass over [A | I], where A has the given columns:
    the transform rows that end beside the pivots form a left inverse of
    A, and those beside zero rows are functionals that vanish exactly on
    the span of the columns.  Returns (left inverse, span checks).  The
    columns must be linearly independent.
    """
    ncols = len(columns)
    aug = [
        [Fraction(columns[c][r]) for c in range(ncols)]
        + [Fraction(int(r == k)) for k in range(nrows)]
        for r in range(nrows)
    ]
    for c in range(ncols):
        pr = next((r for r in range(c, nrows) if aug[r][c] != 0), None)
        if pr is None:
            raise NotInImageError("generator expansions are linearly dependent")
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(nrows):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[ncols:] for row in aug[:ncols]], [row[ncols:] for row in aug[ncols:]]
