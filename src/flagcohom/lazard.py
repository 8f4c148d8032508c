"""Integral generator basis a1, a2, ... of the universal coefficient ring.

The universal law lives over QQ[m1, m2, ...], but its coefficients a_ij
generate an integral subring (the image of the integral universal ring).
The first five generators are fixed linear combinations of the a_ij:

    a1 = a11, a2 = a12, a3 = a22 - a13, a4 = a14, a5 = -9 a15 + a24 + 2 a33

From weight 6 on no preferred combination is pinned down, so a_d is chosen
as a generator of (weight-d integral lattice) / (decomposables in a_1..a_{d-1}),
computed by Smith normal form over the m-expansion lattice.  Conversion of
a polynomial in the m's into the a-basis is a per-weight exact linear solve;
the result is required to be integral (IntegralityError otherwise) and to
exist at all (NotInImageError otherwise).
"""

from __future__ import annotations

from fractions import Fraction

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


def _aij_monomials(weight):
    """All multisets of a_ij positions with total weight ``weight``."""
    pairs = []
    for w in range(1, weight + 1):
        pairs.extend((w, p) for p in _aij_pairs(w))
    out = []

    def rec(idx, remaining, chosen):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        if idx == len(pairs):
            return
        w, p = pairs[idx]
        rec(idx + 1, remaining, chosen)
        if w <= remaining:
            rec(idx, remaining - w, chosen + [p])

    rec(0, weight, [])
    return out


class LazardBasis:
    """Integral a-basis attached to a universal formal group law."""

    def __init__(self, law, bound):
        if law.a_table is None:
            raise ValueError("law has no universal coefficient table")
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
        self.expansions = {}  # generator name -> CoeffPoly over m_ring
        self._solvers = {}
        for d in range(1, bound + 1):
            self.expansions[f"a{d}"] = self._build_generator(d)

    # -- construction -----------------------------------------------------

    def _aij(self, i, j):
        p = self.law.a_table.get((i, j))
        return p if p is not None else self.m_ring.zero()

    def _m_coordinates(self, poly, weight):
        monos = weighted_monomials(self.m_ring.weights, weight)
        index = {e: k for k, e in enumerate(monos)}
        vec = [0] * len(monos)
        for k, c in poly.terms.items():
            vec[index[poly.ring.exponents(k)]] = c
        return vec, monos

    def _build_generator(self, d):
        if d in PAPER_COMBOS:
            p = self.m_ring.zero()
            for (i, j), c in PAPER_COMBOS[d]:
                p = p + self._aij(i, j).scale(c)
            return p
        # Lattice of all weight-d products of universal coefficients.
        rows = []
        for mono in _aij_monomials(d):
            p = self.m_ring.one()
            for (i, j) in mono:
                p = p * self._aij(i, j)
            rows.append(self._m_coordinates(p, d)[0])
        basis = _hnf(rows)
        dim = len(weighted_monomials(self.m_ring.weights, d))
        if len(basis) != dim:
            raise NotInImageError(f"weight-{d} coefficient lattice is not full rank")
        # Decomposables: weight-d monomials in the already-built generators.
        lower = [(f"a{k}", k) for k in range(1, d)]
        dec_rows = []
        for exps in weighted_monomials(tuple(w for _, w in lower), d):
            p = self.m_ring.one()
            for (name, _), e in zip(lower, exps):
                for _ in range(e):
                    p = p * self.expansions[name]
            dec_rows.append(_integer_coordinates(self._m_coordinates(p, d)[0], basis))
        gen_coords = _snf_quotient_generator(dec_rows, dim)
        vec = [
            sum(g * b[k] for g, b in zip(gen_coords, basis)) for k in range(dim)
        ]
        monos = weighted_monomials(self.m_ring.weights, d)
        poly = CoeffPoly(self.m_ring, {e: v for e, v in zip(monos, vec)})
        # Deterministic sign: first canonical-order coefficient positive.
        first = poly.sorted_terms()[0][1]
        if first < 0:
            poly = -poly
        return poly

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
            mat.append(self._m_coordinates(p, d)[0])
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


def _integer_coordinates(vec, basis):
    """Coordinates of an integer vector in a row-HNF basis; must be integral."""
    vec = [Fraction(v) for v in vec]
    coords = [Fraction(0)] * len(basis)
    # HNF rows have staircase pivots: eliminate greedily.
    for i, row in enumerate(basis):
        lead = next(k for k, v in enumerate(row) if v != 0)
        if vec[lead] != 0:
            f = vec[lead] / row[lead]
            coords[i] = f
            vec = [a - f * b for a, b in zip(vec, row)]
    if any(v != 0 for v in vec):
        raise NotInImageError("vector outside the integral lattice")
    out = []
    for c in coords:
        if c.denominator != 1:
            raise IntegralityError("non-integral lattice coordinates")
        out.append(int(c))
    return out


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


def _hnf(rows):
    """Staircase basis (integer row echelon) of an integer row span."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    nc = len(mat[0])
    top = 0
    for col in range(nc):
        if top >= len(mat):
            break
        nz = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if nz is None:
            continue
        mat[top], mat[nz] = mat[nz], mat[top]
        for r in range(top + 1, len(mat)):
            # Euclid the pair (mat[top][col], mat[r][col]) down to one value.
            while mat[r][col] != 0:
                if abs(mat[r][col]) < abs(mat[top][col]):
                    mat[top], mat[r] = mat[r], mat[top]
                q = mat[r][col] // mat[top][col]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[top])]
        if mat[top][col] < 0:
            mat[top] = [-v for v in mat[top]]
        top += 1
    basis = [row for row in mat[:top] if any(row)]
    for i in range(len(basis) - 1, -1, -1):
        lead = next(k for k, v in enumerate(basis[i]) if v != 0)
        for j in range(i):
            q = basis[j][lead] // basis[i][lead]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def _snf_quotient_generator(rows, dim):
    """Generator of ZZ^dim / rowspan(rows) when that quotient is ZZ.

    Diagonalizes by unimodular row and column operations, tracking the
    inverse column transform; the generator is its last row.  Raises when
    the quotient has torsion or rank different from one.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), dim
    vinv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def col_swap(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]
        vinv[a], vinv[b] = vinv[b], vinv[a]

    def col_add(dst, src, q):
        # column dst += q * column src; W = V^{-1} gets row src -= q * row dst
        for row in m:
            row[dst] += q * row[src]
        vinv[src] = [a - q * b for a, b in zip(vinv[src], vinv[dst])]

    def col_neg(a):
        for row in m:
            row[a] = -row[a]
        vinv[a] = [-v for v in vinv[a]]

    r = 0
    while r < min(nr, nc):
        best = None
        pr = pc = None
        for i in range(r, nr):
            for j in range(r, nc):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if pr is None:
            break
        m[r], m[pr] = m[pr], m[r]
        if pc != r:
            col_swap(r, pc)
        dirty = False
        for i in range(r + 1, nr):
            q = m[i][r] // m[r][r]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            if m[i][r] != 0:
                dirty = True
        for j in range(r + 1, nc):
            q = m[r][j] // m[r][r]
            if q:
                col_add(j, r, -q)
            if m[r][j] != 0:
                dirty = True
        if dirty:
            continue
        if m[r][r] < 0:
            col_neg(r)
        r += 1
    diag = [m[i][i] for i in range(r)]
    if len(diag) != dim - 1 or any(d != 1 for d in diag):
        raise NotInImageError(
            f"quotient lattice is not free of rank one (diag {diag}, dim {dim})"
        )
    return vinv[dim - 1]
