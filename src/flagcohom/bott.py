"""Tower presentations: the free-module model of a desingularization tower.

For a word I = (i_1..i_l) the cohomology of the associated tower of
P^1-bundles is free on classes xi_K indexed by subsets K of [1, l], subject
to the relations

    xi_j^2 = sum over K in [1, j-1] of  eps Theta_K(x_{-alpha_{i_j}}) xi_K xi_j

where Theta_K composes delta at negative simple roots (positions in K) with
plain reflections (positions outside K).  The same coefficient family
expresses the characteristic map of the tower: c_I(u) = sum eps Theta_K(u) xi_K.

Each eps Theta_K is a linear functional on the Chow model (``flagring``),
where s_i = 1 - M D_i and delta_{-alpha_i} = -(sum_k (-1)^k r_k M^k) D_i
for M = M_{alpha_i}, and eps reads the e_{w0} coordinate.  A one-variable
series g(L_i) has image sum_k g_k M^k e_{w0}, and x_{-alpha} = exp(-L).  s_i
keeps the codimension and delta lowers it by at most one, so along a word
of length m the functionals read a series through degree min(m, N) and r_k
for k <= min(m - 1, N); the push-forward (cc_i along the word) reads r
through min(m, N), each on a model of that degree (``FlagBasis``).  ``BSRing``
and its functionals build no formal group ring (``fgring``), their oracle.

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

the factor of the tangent class at letter j.  As c_{<j} is a ring map and
y_j = c_{<j}(x_{-alpha}), iota(y_j) and k(y_j) are c_{<j} of x_alpha = exp(L)
and -x_alpha/x_{-alpha} = r(-L)/r(L), for alpha = alpha_{i_j}.
"""

from __future__ import annotations

from itertools import product

from .flagring import FlagBasis
from .tseries import TruncatedSeries


def _characteristic(model, word):
    """c_word as image -> {K: eps Theta_K(image)}, Theta_K "Dneg" at K (1-based), "S" elsewhere."""
    model.require_degree(len(word) - 1)
    labels = list(product(("S", "Dneg"), repeat=len(word)))
    table = model._functionals([tuple(zip(ops, word)) for ops in labels])
    subsets = [tuple(j for j, op in enumerate(ops, 1) if op == "Dneg") for ops in labels]
    return lambda image: model._read(table, image, subsets)


def theta_coefficients(datum, law, word, u):
    """{K: eps Theta_K(u)} over all subsets K of [1, len(word)], on a model of the word's degree."""
    model, word = FlagBasis(datum, law, len(word) - 1), tuple(word)
    return _characteristic(model, word)(model._image(u, len(word)))


def bs_pushforward(datum, law, word, u):
    """Push-forward along the tower structure map: eps C_I(u).

    The composite uses the geometric operator C at the positive simple
    roots, in the order C_{i_1} o ... o C_{i_l}.
    """
    model, word = FlagBasis(datum, law, len(word)), tuple(word)
    table = model._functionals([tuple(("C", i) for i in word)])
    return model._read(table, model._image(u, len(word)), [word])[word]


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
        high = _tower_mul(a, d, j - 1, ys)
        if b:
            dy = _tower_mul(d, ys[j - 1], j - 1, ys)
            high = _add(high, _tower_mul(b, _add(c, dy), j - 1, ys))
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

    def __init__(self, datum, law, word):
        self.law = law
        self.word = tuple(word)
        self.coeff_ring = law.ring
        # one model for every reader, as far as the law reaches: c_I reads r_k, k <= l - 1
        self._model = FlagBasis(datum, law, min(len(self.word), law.trunc) - 1)
        self._minus_L = -TruncatedSeries.variable(law.ring, 1, law.trunc, 0)
        x_neg = self._model.exp.substitute([self._minus_L])
        self.relations = tuple(self._prefix_class(j, x_neg) for j in range(1, len(self.word) + 1))
        self._ys = [self.y_element(j).coords for j in range(1, len(self.word) + 1)]

    def _prefix_class(self, j, g):
        """c_{<j}(g(L)) for L = L_{i_j}: {K: eps Theta_K(g(L))}, Theta along word[:j-1]."""
        reader = _characteristic(self._model, self.word[:j - 1])
        return reader(self._model._line_image(g, self.word[j - 1], j - 1))

    def relation(self, j):
        """The coefficients of xi_j^2 over the xi_K xi_j: {K: eps Theta_K(x_{-alpha})}."""
        return self.relations[j - 1]

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
        return self.from_subset_coords(self.relation(j))

    def characteristic_class(self, u):
        """c_I(u) as a ring element (coordinates eps Theta_K(u)), on the tower's model."""
        reader = _characteristic(self._model, self.word)
        return self.from_subset_coords(reader(self._model._image(u, len(self.word))))

    def tangent_chern_class(self):
        """Total Chern class of the tower tangent bundle in the xi basis.

        The product over the letters of (1 + xi_j)(1 + (xi_j -_F y_j)), each
        factor taken as (1 + iota(y_j)) + xi_j (1 + k(y_j)), with iota(y_j) and
        k(y_j) the c_{<j} of exp(L) and r(-L)/r(L) (see the module docstring).
        The partial product lies in H_{j-1}, so both of its products do, and
        multiplying by xi_j only appends j to the subsets.
        """
        r, exp = self._model.r, self._model.exp
        k = r.substitute([self._minus_L]) * r.invert_unit()
        total = self.one()
        for j in range(1, len(self.word) + 1):
            iota_y, k_y = (self.from_subset_coords(self._prefix_class(j, g)) for g in (exp, k))
            shifted = total * (self.one() + k_y)
            total = total * (self.one() + iota_y) + BSRingElement(
                self, {K + (j,): c for K, c in shifted.coords.items()}, _clean=False
            )
        return total
