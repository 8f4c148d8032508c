"""The algebraic model of H*(G/B): bases, products, push-forward, operations.

A :class:`FlagBasis` fixes a root datum, a formal group law and the
canonical reduced words I_w.  Classes are coordinate vectors over the
geometric basis b_{I_w} (push-forwards of desingularized Schubert classes):
t b_w = c(Cs_{I_w^rev}(u0)) for the characteristic map c, the torsion
witness u0 and the push-pull operator Cs at the negative simple roots.

Every table, whatever the law, is computed in the Chow coinvariant model.
Over R (x) Q the torsion index is a unit, so by the paper's main theorem c
identifies H_F with S (x)_{S^W} R, and ker c_F is ker c_chow with the log
coordinates z read as y: the W-invariants are power series in the basic
invariants, which do not depend on the law.  So Phi(u) = sum_e u_e
c_chow(y^e) identifies H_F (x) Q with R (x) CH(G/B)_Q, written in the Chow
b-basis e_w; Phi reads the terms of u of degree <= N.  Elements of the model
("images") are vectors over the e_w.

The Chow side needs no series (Demazure, "Desingularisation des varietes
de Schubert generalisees", 1974).  The Chow core (:class:`_Chow`) is read
off the Bruhat graph: D_i e_w = e_{w s_i} when w s_i is longer (else 0),
multiplication M_lam by a weight is Chevalley's formula over the covers
w -> w s_beta, the class table Phi(y^e) iterates M_{omega_j} from the unit
e_{w0}, one degree at a time, the torsion index t is the gcd of its
[pt]-coefficients at degree N, and each Chow product comes from Leibniz's
rule for D_i, in integers.  The law enters only through r_k, k <= the model's
degree (N for a table), of r = t/exp: Cs_i(u) = d_i(u r(L_i)) (``fgring``), so
Phi(Cs_i(u)) = T_i(Phi(u)) with M = M_{alpha_i}, the class of L_i =
alpha_i.z, and

    T_i = D_i o sum_k r_k M^k,      beta_w = T_{i_l} ... T_{i_1} [pt]

the image of b_w for I_w = (i_1, ..., i_l), as Phi(u0) = t [pt].  beta_w is
e_w plus terms of shorter words, so the b-coordinates of an image are one
back substitution against the beta_w, with no division.  A product b_v b_w
is beta_v * beta_w (the Chow product, extended R-bilinearly) solved, the
unit is e_{w0} solved, and the class of a series u is Phi(u) solved.  Over
the additive law r = 1 and beta_w = e_w.  No series chain runs on the
table route, nor for ``ln_operation``: in log coordinates the twist is a
coefficient map, read once off the twisted law's logarithm
(``FormalGroupLaw.twist``) and applied to the image of a class, which is
solved once and then split by t-monomial.  The formal group ring
(``fgr``) and the witness u0 (``torsion``), the checks' oracle, import
``fgring`` only when built.  The a-coordinates eps Op_{I_w}(u) are the
e_{w0}-coordinates of operator chains on Phi(u) (``eps_vector``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

from .coeffring import CoeffPoly, CoeffRing, _ext_gcd, _fold, _layout, assert_integer, convolve
from .errors import InsufficientPrecisionError, RingMismatchError
from .lazard import weighted_monomials
from .tseries import TruncatedSeries, _degree_monomials

_ONE = ((0, 1),)  # the terms of the scalar 1


def default_truncation(datum):
    """The truncation ``table`` and ``ln`` build their law at: 2N + 1.

    A table reads the law only through r_k with k <= N, so N + 1 suffices
    (``FlagBasis``).  2N + 1 is kept because outputs print it and the
    benchmark's and tests' byte pins include it.
    """
    return 2 * datum.N + 1


class _Chow:
    """The Chow ring of G/B in the Schubert basis e_w, from the Bruhat graph.

    e_{w0} is the unit, e_1 = [pt] (1 the identity of W), and e_w has
    codimension N - l(w).  D_i e_w = e_{w s_i} when w s_i is longer, else 0,
    and multiplication by a weight lam is Chevalley's formula over the
    covers w -> w s_beta, beta > 0 with l(w s_beta) = l(w) - 1:

        M_lam e_w = sum <lam, beta^vee> e_{w s_beta}.

    The class table Phi(y^e) = M_{omega_j} Phi(y^e / y_j), from Phi(1) =
    e_{w0}, is walked one degree at a time (``layers``).  The
    [pt]-coefficients of its degree-N layer are Demazure's values
    eps d_{w0}(y^e) on the degree-N monomials: t is their gcd, and
    ``bezout`` folds the extended gcd over them.  The core keeps these
    values once a walk reaches its end, so each core walks its table once
    for any number of readers of ``top_layer``; only the characteristic map
    (``FlagBasis._image``) keeps the layers it reads.

    A product e_a e_b is built by Leibniz's rule for the divided differences,

        D_i(x y) = D_i x y + x D_i y - M_{alpha_i}(D_i x D_i y),

    as the coefficient of e_w in x y is that of e_{w s_i} in D_i(x y) at an
    ascent i of w: every product is an integer combination of products of
    longer factors, down to e_{w0} e_b = e_b.  Vectors are {index << shift:
    integer}, the index above the m-fields of the basis that reads them.
    """

    def __init__(self, datum, elements, shift):
        self.datum = datum
        self.N = datum.N
        self.shift = shift
        self.top = len(elements) - 1
        self.lengths = [w.length for w in elements]
        index = {w.matrix: x for x, w in enumerate(elements)}
        positive = datum.positive_roots()
        roots, simple = dict(datum.all_roots()), {r: i for i, r in enumerate(datum.simple_roots)}
        n, size = datum.rank, len(elements)
        # up[i][x]: the index of w_x s_i when it is longer, down[i][x] when shorter
        self.up = [[None] * size for _ in range(n)]
        self.down = [[None] * size for _ in range(n)]
        self.covers = []
        for x, w in enumerate(elements):
            covers = []
            for beta in positive:
                image = w.apply(beta)
                if image in positive:
                    continue
                cv = roots[beta]  # w s_beta = w - (w beta) cv
                matrix = tuple(tuple(m - b * c for m, c in zip(row, cv))
                               for row, b in zip(w.matrix, image))
                y = index[matrix]
                if self.lengths[y] == self.lengths[x] - 1:
                    covers.append((y, cv))
                    if beta in simple:
                        self.down[simple[beta]][x], self.up[simple[beta]][y] = y, x
            self.covers.append(covers)
        self.ascent = [next((i for i, u in enumerate(ups) if u is not None), None)
                       for ups in zip(*self.up)]  # the first ascent of each w
        self._multipliers = {}
        self._products = {}
        self._top = self._t = None

    def multiplier(self, lam):
        """M_lam as {index: [(packed index of w s_beta, <lam, beta^vee>)]}, cached."""
        got = self._multipliers.get(lam)
        if got is None:
            got = self._multipliers[lam] = {}
            for x, covers in enumerate(self.covers):
                row = [(y << self.shift, sum(map(mul, cv, lam))) for y, cv in covers]
                row = [(k, c) for k, c in row if c]
                if row:
                    got[x] = row
        return got

    def multiply(self, lam, vector):
        """M_lam of a vector."""
        op, shift, out = self.multiplier(lam), self.shift, {}
        for k, c in vector.items():
            for y, m in op.get(k >> shift, ()):
                out[y] = out.get(y, 0) + m * c
        return {y: c for y, c in out.items() if c}

    def layers(self):
        """Yield the class table degree by degree: {y-key of y^e: Phi(y^e)} for |e| = 0..N.

        Phi(y^e) = M_{omega_j} Phi(y^e / y_j) for the first j with e_j > 0,
        so each layer is read off the one before, and two are alive at once.
        A walk that ends keeps the degree-N layer's values (``top_layer``).
        """
        layout = _layout(0, self.datum.rank)
        omegas = [self.datum.fundamental_weight(j) for j in range(self.datum.rank)]
        layer = {0: {self.top << self.shift: 1}}
        yield layer
        for degree in range(1, self.N + 1):
            below, layer = layer, {}
            for e in _degree_monomials(self.datum.rank, degree):
                j = next(j for j, k in enumerate(e) if k)
                y = layout.pack(e, True)
                image = below.get(y - layout.y_unit[j])
                image = self.multiply(omegas[j], image) if image else None
                if image:
                    layer[y] = image
            yield layer
        self._top = {y: image[0] for y, image in layer.items()}  # [pt] is the key 0

    def top_layer(self):
        """{y-key of y^e: eps d_{w0}(y^e)} over the degree-N monomials with a nonzero value."""
        if self._top is None:
            for _ in self.layers():
                pass
        return self._top

    @property
    def t(self):
        """The torsion index: the gcd of the values eps d_{w0}(y^e) on the degree-N monomials."""
        if self._t is None:
            self._t = gcd(*self.top_layer().values())
        return self._t

    def bezout(self):
        """(t, monomials): t with Bezout coefficients of the values eps d_{w0}(y^e).

        The extended gcd is folded over the degree-N layer's [pt]-coefficients
        in the canonical monomial order, keeping only the nonzero Bezout
        coefficients; monomials is a tuple of (exponent tuple, int) pairs.
        """
        top = self.top_layer()
        key = _layout(0, self.datum.rank).pack
        g, combo = 0, {}  # the nonzero Bezout coefficients, in monomial order
        for mono in sorted(_degree_monomials(self.datum.rank, self.N)):
            v = top.get(key(mono, True), 0)
            if v:  # a zero value leaves the fold as it is: _ext_gcd(g, 0) = (g, 1, 0)
                g, xs, ys = _ext_gcd(g, v)
                combo = {e: c * xs for e, c in combo.items()} if xs else {}
                if ys:
                    combo[mono] = ys
        assert g > 0, "torsion evaluation cannot be identically zero"
        return g, tuple(combo.items())

    def product(self, a, b):
        """e_a e_b as {packed index: integer}, memoized."""
        if a > b:
            a, b = b, a
        got = self._products.get((a, b))
        if got is None:
            got = self._products[a, b] = self._leibniz(a, b)
        return got

    def _leibniz(self, a, b):
        if a == self.top or b == self.top:
            return {(b if a == self.top else a) << self.shift: 1}
        if self.lengths[a] + self.lengths[b] < self.N:
            return {}
        out, shift, ascent = {}, self.shift, self.ascent
        for i, (up, down) in enumerate(zip(self.up, self.down)):
            ua, ub = up[a], up[b]
            if ua is None and ub is None:
                continue
            if ub is None:
                derivative = self.product(ua, b)
            elif ua is None:
                derivative = self.product(a, ub)
            else:
                derivative = dict(self.product(ua, b))
                for k, c in self.product(a, ub).items():
                    derivative[k] = derivative.get(k, 0) + c
                square = self.product(ua, ub)
                for k, c in self.multiply(self.datum.simple_roots[i], square).items():
                    derivative[k] = derivative.get(k, 0) - c
            for k, c in derivative.items():
                x = down[k >> shift]
                if c and ascent[x] == i:
                    out[x << shift] = c
        return out


def torsion_bezout(datum):
    """(t, monomials) of ``_Chow.bezout``: the torsion index with a degree-N Bezout witness."""
    return _Chow(datum, datum.weyl_elements(), 0).bezout()


class FlagBasis:
    """The model of a (root datum, law) pair; it reads r_k for k <= ``degree`` (N) and no more."""

    def __init__(self, datum, law, degree=None):
        self.datum = datum
        self.law = law
        self.N = datum.N
        self.degree = self.N if degree is None else max(min(degree, self.N), 0)
        if law.trunc < self.degree + 1:
            raise InsufficientPrecisionError(f"truncation must be at least {self.degree + 1}")
        self.exp = law.exp.restrict(self.degree + 1)  # r_k reads exp through degree k + 1
        self.r = TruncatedSeries.variable(law.ring, 1, law.trunc, 0).exact_divide(self.exp)
        self.elements = datum.weyl_elements()
        self.by_word = {w.canonical_word: w for w in self.elements}
        self.w0 = datum.longest_element()
        self.ring = law.ring
        self._words = [w.canonical_word for w in self.elements]
        self._lengths = [w.length for w in self.elements]
        self._m_bits = self.ring.layout.m_bits
        self._guard = self.ring.layout.guard
        self._fgr = self._torsion = self._chow = self._phi = self._beta_rows = None
        self._P = self._rows = self._unit = None
        self._ops = {}
        self._memo = {(): {len(self.elements) - 1: _ONE}}  # f_() reads the e_{w0} coordinate
        self._beta = {(): {0: _ONE}}  # the identity, of canonical word (), is element 0

    def require_degree(self, degree):
        """Refuse a reader of r_k, k <= min(degree, N), past the model's degree."""
        if min(degree, self.N) > self.degree:
            raise InsufficientPrecisionError(f"a model of degree {self.degree} cannot read "
                                             f"{degree}: truncation must be at least {degree + 1}")

    @property
    def fgr(self):
        """The formal group ring of the datum and law, built on first use."""
        if self._fgr is None:
            from .fgring import FormalGroupRing

            self._fgr = FormalGroupRing(self.datum, self.law)
        return self._fgr

    @property
    def t(self):
        """The torsion index, read off the Chow core's degree-N layer."""
        return self._core().t

    @property
    def torsion(self):
        """TorsionData: t and the witness u0 in this ring's coordinates."""
        if self._torsion is None:
            from .fgring import TorsionData

            t, monomials = self._core().bezout()
            self._torsion = TorsionData(t, self.fgr.from_monomials(dict(monomials)))
        return self._torsion

    # The basis pipeline runs through the push-pull operator at the
    # NEGATIVE simple roots ("Cs" below): the projective-bundle classes of
    # the desingularization towers restrict to x_{-alpha}, so the chains
    # that realize geometric basis elements are C_{-alpha} compositions.
    # With this orientation eps Cs_I(u0) = t for reduced words of length N,
    # the transition matrix has +t on its pairing diagonal, the unit
    # decomposes with coefficient +1 at the longest word, and the rank-2
    # tables come out with their known signs.  The positive-root operator C
    # (for which eps C_I(u0) = (-1)^N t) is kept for the tower push-forward.

    def cs(self, i, u):
        return self.fgr.cc_neg(i, u)

    # -- the model: images {index of e_x: [(m-key, scalar)]} ---------------------

    def _core(self):
        if self._chow is None:
            self._chow = _Chow(self.datum, self.elements, self._m_bits)
        return self._chow

    def _split(self, packed):
        """Packed terms {index << m_bits | m-key: c} as an image."""
        m_bits, low = self._m_bits, (1 << self._m_bits) - 1
        out = {}
        for k, c in packed.items():
            out.setdefault(k >> m_bits, []).append((k & low, c))
        return out

    def _packed(self, image):
        return [(x << self._m_bits | m, c) for x, terms in image.items() for m, c in terms]

    def _image(self, u, degree=None):
        """Phi(u) up to codimension ``degree`` (N): u's terms of degree <= it, z as y."""
        degree = self.N if degree is None else min(degree, self.N)
        if u.valid_degree < degree:
            raise InsufficientPrecisionError(f"characteristic map needs valid degree {degree}")
        if self._phi is None or self._phi[0] < degree:  # the class table through degree
            # one layer more asked for at N runs the walk to its end, which keeps the top layer
            layers = islice(self._core().layers(), degree + 1 + (degree == self.N))
            self._phi = degree, {y << self._m_bits: list(image.items())  # at y-key << m_bits
                                 for layer in layers for y, image in layer.items()}
        phi = self._phi[1]
        pairs = ((terms, phi[y]) for y, terms in u.grouped(degree).items() if y in phi)
        return self._split(convolve(pairs, self._guard))

    def _line_image(self, g, i, degree):
        """Phi(g(L_i)) = sum_k g_k M_{alpha_i}^k e_{w0} for a one-variable series g, k <= degree."""
        degree = min(degree, self.N)
        if g.valid_degree < degree:
            raise InsufficientPrecisionError(f"a series in L_{i} needs valid degree {degree}")
        series = [g.coefficient((k,)).terms.items() for k in range(degree + 1)]
        return self._split(self._at(self.datum.simple_roots[i - 1], len(self.elements) - 1, series))

    def _star(self, a, b):
        """The Chow product of two images, extended R-bilinearly."""
        core, N, lengths = self._core(), self.N, self._lengths
        pairs = []
        for x, p in a.items():
            inner = [(q, core.product(x, y).items()) for y, q in b.items()
                     if lengths[x] + lengths[y] >= N]
            row = convolve(inner, self._guard)
            if row:
                pairs.append((p, row.items()))
        return self._split(convolve(pairs, self._guard))

    def _operator(self, variant, i):
        """{v: packed image of Op_i e_v}, cached, for M = M_{alpha_i} (Chevalley's formula).

        With R_s = sum_k s^(k+1) r_k M^k, k <= the model's degree:
        Cs_i = D_i o R_1 (T_i), cc_i = D_i o R_-1 ("C"), delta_i = R_1 o D_i
        ("D"), delta_{-alpha_i} = R_-1 o D_i ("Dneg") and s_i = 1 - M o D_i ("S").
        """
        got = self._ops.get((variant, i))
        if got is None:
            shift, low = self._m_bits, (1 << self._m_bits) - 1
            up, alpha = self._core().up[i - 1], self.datum.simple_roots[i - 1]
            if variant == "S":
                series = [(), ((0, -1),)]
            else:
                r, s = self.r, -1 if variant in ("C", "Dneg") else 1
                series = [[(m, s ** (k + 1) * c) for m, c in r.coefficient((k,)).terms.items()]
                          for k in range(self.degree + 1)]
            got = self._ops[variant, i] = {}
            for v in range(len(self.elements)):
                if variant in ("Cs", "C"):  # D_i after the series: e_x -> e_{x s_i}
                    column = {up[k >> shift] << shift | k & low: c for k, c in
                              self._at(alpha, v, series).items() if up[k >> shift] is not None}
                else:
                    column = {} if up[v] is None else self._at(alpha, up[v], series)
                    if variant == "S":  # M e_{v s_i} has e_v-coefficient 2, so this is -1 or 1
                        column[v << shift] = column.get(v << shift, 0) + 1
                if column:
                    got[v] = list(column.items())
        return got

    def _at(self, alpha, source, series):
        """sum_k series[k] M_alpha^k e_source, packed; series[k] is a coefficient's terms."""
        core, power, pairs = self._core(), {source << self._m_bits: 1}, []
        last = max((k for k, terms in enumerate(series) if terms), default=-1)
        for terms in series[:last + 1]:
            if not power:
                break
            pairs.append((terms, power.items()))
            power = core.multiply(alpha, power)
        return convolve(pairs, self._guard)

    def _apply(self, variant, i, image):
        self.require_degree(self.N)  # the table route runs on a model of degree N only
        op = self._operator(variant, i)
        return self._split(convolve(((t, op[v]) for v, t in image.items() if v in op), self._guard))

    def c_of_u0(self, w):
        """beta_w = Phi(Cs_{I_w^rev}(u0)) / t, the image of b_w: T_{i_l} ... T_{i_1} [pt]."""
        return self._chain(w.canonical_word)

    def _chain(self, word):
        """T_{word[-1]} ... T_{word[0]} [pt], shared by prefix."""
        got = self._beta.get(word)
        if got is None:
            got = self._beta[word] = self._apply("Cs", word[-1], self._chain(word[:-1]))
        return got

    def _lift(self, cls):
        """The image sum_w coords_w beta_w of a class."""
        pairs = ((c.terms.items(), self._packed(self.c_of_u0(self.by_word[w])))
                 for w, c in cls.coords.items())
        return self._split(convolve(pairs, self._guard))

    def _substitute(self, rows, x):
        """x_r += sum_c q x_c for each row (r, [(c, q)]) in order, in place: no division."""
        for r, upper in rows:
            pairs = [(q, x[c]) for c, q in upper if c in x]
            if pairs:
                if r in x:
                    pairs.append((x[r], _ONE))
                xr = convolve(pairs, self._guard)
                if xr:
                    x[r] = list(xr.items())
                else:
                    x.pop(r, None)
        return x

    def _solve(self, image):
        """The b-coordinates x with sum_w x_w beta_w = image, as an image.

        beta_w = e_w + (shorter words), so x_r = image_r - sum_w beta_w[r] x_w
        over the longer w, taken longest first: one back substitution.
        """
        if self._beta_rows is None:
            rows = {}
            for c, w in enumerate(self.elements):
                beta = self.c_of_u0(w)
                if list(beta.get(c, ())) != [(0, 1)] or any(
                    self._lengths[r] >= w.length for r in beta if r != c
                ):
                    raise AssertionError(f"beta of {w.canonical_word} is not e_w + shorter words")
                for r, terms in beta.items():
                    if r != c:
                        rows.setdefault(r, []).append((c, [(m, -v) for m, v in terms]))
            self._beta_rows = [(r, rows[r]) for r in sorted(rows, key=lambda r: -self._lengths[r])]
        return self._substitute(self._beta_rows, dict(image))

    def _flag_class(self, parts, factor):
        """FlagClass with coordinate factor * parts[i] at word i.

        Over a law whose coefficients are integral the b-coordinates are
        integral too (the model's intermediate vectors need not be: r has
        Bernoulli numbers), and that is checked.
        """
        coords = {}
        for i in sorted(parts):
            word = self._words[i]
            c = CoeffPoly._wrap(self.ring, {m: _fold(v * factor) for m, v in parts[i]})
            if self.law.integral:
                assert_integer(c, f"b-coordinate at {word}")
            coords[word] = c
        return FlagClass(self, coords)

    # -- the characteristic map ------------------------------------------------

    def _functionals(self, words):
        """eps Op_word for words of (variant, i) letters, as one packed table.

        f_word = f_{word[:-1]} o Op_{word[-1]}, one convolution per prefix over
        the operator's entries, kept for later calls; f_() reads the e_{w0}
        coordinate.  The table is {index of e_x: [(word index << m_bits | m-key, c)]}.
        """
        m_bits, low, memo = self._m_bits, (1 << self._m_bits) - 1, self._memo
        for word in sorted({w[:k] for w in words for k in range(1, len(w) + 1)} - memo.keys(),
                           key=len):
            f = memo[word[:-1]]  # f_word(e_v) = sum_x f(e_x) (Op e_v)_x
            pairs = ((f[k >> m_bits], [(v << m_bits | k & low, c)])
                     for v, column in self._operator(*word[-1]).items()
                     for k, c in column if k >> m_bits in f)
            memo[word] = self._split(convolve(pairs, self._guard))
        table = {}
        for index, word in enumerate(words):
            for x, terms in memo[word].items():
                table.setdefault(x, []).extend((index << m_bits | m, c) for m, c in terms)
        return table

    def _read(self, table, image, keys):
        """{key: f(image)} for the functionals of a ``_functionals`` table, in order."""
        pairs = ((terms, table[x]) for x, terms in image.items() if x in table)
        parts = self._split(convolve(pairs, self._guard))
        wrap = CoeffPoly._wrap
        return {key: wrap(self.ring, dict(parts.get(i, ()))) for i, key in enumerate(keys)}

    def _eps(self, image, variant):
        """{canonical word: eps Op_{I_w}} of an image."""
        self.require_degree(self.N)
        table = self._functionals([tuple((variant, i) for i in w) for w in self._words])
        return self._read(table, image, self._words)

    def eps_vector(self, u, variant="Cs"):
        """(eps Op_{I_w}(u))_w as {canonical word: CoeffPoly}.

        Variants: "Cs" the negative-root push-pull operator (the basis
        pipeline), "C" the positive-root one, "D" the difference operator.
        Each coordinate is a fixed R-linear functional of Phi(u), which reads
        the terms of u of degree <= N; u must be valid to degree N.
        """
        return self._eps(self._image(u), variant)

    def transition_matrix(self):
        """P[v][w] = eps Cs_{I_v}(Cs_{I_w^rev}(u0)) = t eps Cs_{I_v}(b_w), checked triangular."""
        if self._P is None:
            Q = {w.canonical_word: self._eps(self.c_of_u0(w), "Cs") for w in self.elements}
            # Row permutation pairing v_r = w0 * w_r makes P upper triangular
            # (in the column order of self.elements) with t on the diagonal.
            self._rows = []
            for r, w in enumerate(self.elements):
                vr = self.datum.multiply(self.w0, w).canonical_word
                row = [Q[word][vr] for word in self._words]
                if row[r] != self.ring.one() or any(not q.is_zero() for q in row[:r]):
                    raise AssertionError("transition matrix is not triangular with t diagonal")
                upper = [(c, [(m, -v) for m, v in q.terms.items()])
                         for c, q in enumerate(row) if c > r and not q.is_zero()]
                self._rows.append((r, vr, upper))
            self._P = {(v, w): q.scale(self.t) for w, col in Q.items() for v, q in col.items()}
        return self._P

    def class_of(self, avec, k):
        """The class with c(u) = t^k * class, from avec = eps_vector(u).

        P / t is unit triangular in the paired order, so x with (P / t) x =
        avec is one back substitution with no division; c(u) = sum_w x_w b_w,
        so the class is t^(-k) x.
        """
        self.transition_matrix()
        x = {r: list(avec[vr].terms.items())
             for r, vr, _ in self._rows if vr in avec and avec[vr].terms}
        x = self._substitute([(r, upper) for r, _, upper in reversed(self._rows)], x)
        return self._flag_class(x, Fraction(1, self.t**k))

    def class_from(self, u, k):
        """The class with c(u) = t^k * class: Phi(u) solved, divided by t^k."""
        return self._flag_class(self._solve(self._image(u)), Fraction(1, self.t**k))

    # -- distinguished classes -----------------------------------------------

    def basis_class(self, w):
        return FlagClass(self, {w.canonical_word: self.ring.one()})

    def point_class(self):
        return FlagClass(self, {(): self.ring.one()})

    def zero_class(self):
        return FlagClass(self, {})

    def unit_class(self):
        """The ring unit, decomposed over the b-basis; unit coefficient at w0 is 1."""
        if self._unit is None:
            unit = self._flag_class(self._solve({len(self.elements) - 1: _ONE}), 1)
            if unit.coords.get(self.w0.canonical_word) != self.ring.one():
                raise AssertionError("unit class has non-unit top coefficient")
            self._unit = unit
        return self._unit

    def dual_class(self, v):
        """The a-basis element dual to b_v under the push-forward pairing."""
        return self.class_of({v.canonical_word: self.ring.one()}, 0)

    # -- word classes, products and operators ------------------------------------

    def bclass(self, word):
        """Class of the desingularized Schubert cycle attached to any word."""
        image = {0: _ONE}
        for i in word:
            image = self._apply("Cs", i, image)
        return self._flag_class(self._solve(image), 1)

    def basis_product(self, w1, w2):
        """b_{I_w1} * b_{I_w2} as a FlagClass: beta_w1 * beta_w2 (shorter first, faster), solved."""
        if (w1.length, w1.canonical_word) > (w2.length, w2.canonical_word):
            w1, w2 = w2, w1
        return self._flag_class(self._solve(self._star(self.c_of_u0(w1), self.c_of_u0(w2))), 1)

    def pushforward_point(self, cls):
        """pr: linear extension of pr(b_{I_w}) = eps Cs_{I_w}(1); the image of 1 is e_{w0}."""
        vec = self._eps({len(self.elements) - 1: _ONE}, "Cs")
        acc = self.ring.zero()
        for w, c in cls.coords.items():
            f = vec[w]
            if not f.is_zero():
                acc = acc + c * f
        return acc

    def a_operator(self, i, cls):
        """Algebraic p_i^* p_{i*}, sending b_J to the class of the word J + (i): T_i."""
        return self._flag_class(self._solve(self._apply("Cs", i, self._lift(cls))), 1)

    def b_operator(self, i, cls):
        """The delta-variant operator: (sum_k r_k M_{alpha_i}^k) o D_i on the image."""
        return self._flag_class(self._solve(self._apply("D", i, self._lift(cls))), 1)

    # -- Landweber-Novikov ---------------------------------------------------------

    def ln_operation(self, weight_bound):
        """The total twisted-coordinate operation S: FlagClass -> {t-exponent tuple: FlagClass}.

        The twist x -> lam(x) = x + sum_k t_k x^(k+1) carries log_F to log_tw =
        log_F o lam^(-1) (``FormalGroupLaw.twist``), and the coefficient map
        phi: m_i -> [x^(i+1)] log_tw sends log_F to log_tw.  The operation
        maps the coefficients of u(y) = P(log_F y) by phi and substitutes
        y_j -> lam(y_j), which gives phi(P)(log_tw(lam(y))) = phi(P)(log_F y):
        in log coordinates the twist is phi on the coefficients.  Phi is
        linear in the z-coefficients, so S(cls) is phi applied to the image
        of the class, solved once and split by t-monomial: the beta_w carry
        no t, so the back substitution acts on each t-monomial alone.  phi
        depends only on the law and the bound, so it is built once here.

        S(cls) has a key for every index of weight <= ``weight_bound``, zero
        classes included; the empty index recovers the class itself.  Only
        available over the universal law.
        """
        if self.law.tag != "universal":
            raise RingMismatchError("operations need the universal law")
        if weight_bound < 0:
            raise ValueError("weight bound must be >= 0")
        mring, D = self.ring, self.law.trunc
        tgens = tuple((f"t{k}", k) for k in range(1, weight_bound + 1))
        ext = CoeffRing(mring.generators + tgens)
        lam_terms = {(k + 1,): ext.gen(f"t{k}") for k in range(1, min(weight_bound + 1, D))}
        lam = TruncatedSeries.from_terms(ext, 1, D, {(1,): ext.one(), **lam_terms})
        log_tw = self.law.twist(lam).log
        phi = mring.morphism({name: log_tw.coefficient((i + 1,))
                              for i, name in enumerate(mring.names, start=1)}, ext)
        tweights = tuple(range(1, weight_bound + 1))
        tlayout = _layout(weight_bound, 0)
        indices = [(texp, tlayout.pack(texp, False)) for weight in range(weight_bound + 1)
                   for texp in weighted_monomials(tweights, weight)]
        # ext's generators are mring's followed by the t_k: a packed key is
        # its t-part above m_bits and its m-part below, so the beta_w's m-keys
        # add below the t-part and one _solve serves every t-monomial.
        m_bits, low = self._m_bits, (1 << self._m_bits) - 1

        def operation(cls):
            image = {x: list(phi(CoeffPoly._wrap(mring, dict(terms))).terms.items())
                     for x, terms in self._lift(cls).items()}
            pieces = {}
            for x, terms in self._solve(image).items():
                for k, c in terms:
                    pieces.setdefault(k >> m_bits, {}).setdefault(x, []).append((k & low, c))
            return {texp: self._flag_class(pieces.get(key, {}), 1) for texp, key in indices}

        return operation


class FlagClass:
    """Coordinate vector over the b-basis {b_{I_w}} of a FlagBasis.

    Classes are equal when they share the basis and their coordinates agree.
    """

    def __init__(self, basis, coords):
        self.basis = basis
        self.coords = coords

    def __eq__(self, other):
        if not isinstance(other, FlagClass):
            return NotImplemented
        return self.basis is other.basis and self.coords == other.coords

    def _check(self, other):
        if self.basis is not other.basis:
            raise RingMismatchError("classes from different bases")

    def __add__(self, other):
        self._check(other)
        coords = dict(self.coords)
        for w, c in other.coords.items():
            s = coords.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                coords.pop(w, None)
            else:
                coords[w] = s
        return FlagClass(self.basis, coords)

    def __neg__(self):
        return FlagClass(self.basis, {w: -c for w, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not hasattr(c, "ring"):
            c = self.basis.ring.const(c)
        out = {}
        for w, v in self.coords.items():
            p = v * c
            if not p.is_zero():
                out[w] = p
        return FlagClass(self.basis, out)

    def __mul__(self, other):
        """Ring product through the characteristic-map algorithm."""
        self._check(other)
        by_word = self.basis.by_word
        acc = self.basis.zero_class()
        for w1, c1 in self.coords.items():
            for w2, c2 in other.coords.items():
                prod = self.basis.basis_product(by_word[w1], by_word[w2])
                acc = acc + prod.scale(c1 * c2)
        return acc

    def is_zero(self):
        return not self.coords

    def pr(self):
        return self.basis.pushforward_point(self)

    def codim_weights_ok(self, codim):
        """Each coordinate homogeneous of weight codim(w) - codim (or absent)."""
        N = self.basis.N
        for word, c in self.coords.items():
            want = (N - self.basis.by_word[word].length) - codim
            if want < 0 or not c.is_homogeneous(want):
                return False
        return True

    def __repr__(self):
        parts = [f"{c} * b[{''.join(map(str, w)) or 'pt'}]" for w, c in sorted(self.coords.items())]
        return "FlagClass(" + (" + ".join(parts) or "0") + ")"
