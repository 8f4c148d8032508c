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
and beyond depend on this one.

So a_d = -g_d m_d + R_d(m_1, ..., m_{d-1}), and up to the bound b the map
m_d -> (R_d(images of m_1, ..., m_{d-1}) - a_d) / g_d, built in weight
order, is the inverse of a_d -> (its m-expansion): the two ring maps
QQ[m_1..m_b] <-> QQ[a_1..a_b] are mutually inverse isomorphisms.  Conversion
of an m-polynomial into the a-basis applies the first; it raises
NotInImageError above weight b and IntegralityError when the result is not
integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .coeffring import CoeffRing, _ext_gcd, assert_integer

PAPER_COMBOS = {
    1: (((1, 1), 1),),
    2: (((1, 2), 1),),
    3: (((2, 2), 1), ((1, 3), -1)),
    4: (((1, 4), 1),),
    5: (((1, 5), -9), ((2, 4), 1), ((3, 3), 2)),
}


def weighted_monomials(weights, target):
    """Exponent tuples e with sum e_i * weights_i == target, in lexicographic order."""
    if not weights or target < 0:
        return [()] if target == 0 else []
    out, last = [], len(weights) - 1

    def rec(idx, remaining, prefix):
        w = weights[idx]
        if idx == last:  # the last exponent is what remains, when w divides it
            if remaining % w == 0:
                out.append(prefix + (remaining // w,))
            return
        for k in range(remaining // w + 1):
            rec(idx + 1, remaining - k * w, prefix + (k,))

    rec(0, target, ())
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
        g, s, t = _ext_gcd(g, comb(d + 1, i))
        lams = [s * lam for lam in lams] + [t]
    return tuple((p, lam) for p, lam in zip(pairs, lams) if lam)


class LazardBasis:
    """Integral a-basis attached to a universal formal group law."""

    def __init__(self, law, bound):
        if bound + 1 > law.trunc:
            raise ValueError(
                f"truncation {law.trunc} too small for a-basis up to weight {bound}"
            )
        self.law = law
        self.m_ring = law.ring
        self.bound = bound
        self.a_ring = CoeffRing(tuple((f"a{d}", d) for d in range(1, bound + 1)))
        # the a_ij of weight <= bound, from x +F y built only to degree bound + 1
        table = law.log_sum(bound + 1).coeffs
        self.expansions = {}  # generator name -> CoeffPoly over m_ring
        m_images = {}  # m_d -> (a_d - R_d) / c_d, as a_d = c_d m_d + R_d(m_<d), c_d = -g_d
        for d in range(1, bound + 1):
            a_d = self.m_ring.zero()
            for (i, j), c in PAPER_COMBOS.get(d) or lazard_combination(d):
                a_d = a_d + table[(i, j)].scale(c)
            self.expansions[f"a{d}"] = a_d
            m_d = self.m_ring.gen(f"m{d}")
            c_d = a_d.terms[next(iter(m_d.terms))]
            rest = self.m_ring.morphism(m_images, self.a_ring)(a_d - m_d.scale(c_d))
            m_images[f"m{d}"] = (self.a_ring.gen(f"a{d}") - rest).scale(Fraction(1, c_d))
        self._to_a = self.m_ring.morphism(m_images, self.a_ring, max_weight=bound)
        self._from_a = self.a_ring.morphism(self.expansions, self.m_ring)

    def to_a_basis(self, poly):
        """Rewrite an m-polynomial integrally in the a-generators.

        Raises NotInImageError above the basis's weight bound and
        IntegralityError when the image is not integral.
        """
        return assert_integer(self._to_a(poly), "a-basis conversion")

    def from_a_basis(self, poly):
        """Substitute the m-expansions back (inverse of to_a_basis)."""
        return self._from_a(poly)
