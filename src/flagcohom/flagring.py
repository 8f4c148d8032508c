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
("images") are vectors over the e_w.  The Chow side is read once per basis
from the Chow core (:class:`_Chow`, the series pipeline of the additive
law): the Chow product, D_i e_w = e_{w s_i} when w s_i is longer (else 0),
and multiplication by L_i = alpha_i.z.  The law enters only through the
coefficients r_k, k <= N, of r(t) = t/exp(t): Cs_i(u) = d_i(u r(L_i))
(``fgring``), so Phi(Cs_i(u)) = T_i(Phi(u)) with

    T_i = D_i o sum_k r_k L_i^k,      beta_w = T_{i_l} ... T_{i_1} [pt]

the image of b_w for I_w = (i_1, ..., i_l), as Phi(u0) = t [pt].  beta_w is
e_w plus terms of shorter words, so the b-coordinates of an image are one
back substitution against the beta_w, with no division.  A product b_v b_w
is beta_v * beta_w (the Chow product, extended R-bilinearly) solved, the
unit is e_{w0} solved, and the class of a series u is Phi(u) solved.  Over
the additive law r = 1 and beta_w = e_w.  No series chain runs over the
law's ring.  The a-coordinates eps Op_{I_w}(u) are the e_{w0}-coordinates of
operator chains on Phi(u) (``eps_vector``).
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import CoeffPoly, CoeffRing, _fold, _layout, assert_integer, convolve
from .errors import InsufficientPrecisionError, RingMismatchError
from .fgl import FormalGroupLaw, revert
from .fgring import FormalGroupRing, TorsionData, torsion_bezout
from .lazard import weighted_monomials
from .tseries import TruncatedSeries, convolve_graded

_ONE = ((0, 1),)  # the terms of the scalar 1


def default_truncation(datum):
    """Two operator chains of length N plus one constant-term read."""
    return 2 * datum.N + 1


class _Chow:
    """The characteristic map of the additive law, by series chains over QQ.

    chain_w = Cs_{I_w^rev}(u0), with Cs_i = d_i as r = 1, has c(chain_w) = t
    e_w.  The operators are homogeneous of degree -1, so eps Cs_{I_v}(chain_w)
    is t when the word (I_v, I_w^rev) is a reduced word of w0, that is v = w0
    w, and 0 otherwise: the e_w-coordinate of c(u) is eps Cs_{I_{w0 w}}(u), a
    functional of the monomials of degree N - l(w) (``functionals``).  The
    ring has no generators, so a term's key is its y-key.  The class table
    and the products are packed with the element index shifted by ``shift``,
    above the m-fields of the basis that reads them.
    """

    def __init__(self, datum, elements, t, monomials, shift):
        self.N = datum.N
        self.t = t
        self.shift = shift
        self.elements = elements
        self.fgr = FormalGroupRing(datum, FormalGroupLaw.additive(default_truncation(datum)))
        self.guard = _layout(0, datum.rank).guard  # the series' exponent fields
        self._chains = {(): self.fgr.from_monomials(dict(monomials))}
        self._buckets = {}
        self._table = None
        self._products = {}

    def chain(self, index):
        """chain_w for the element of that index."""
        return self._chain(tuple(reversed(self.elements[index].canonical_word)))

    def _chain(self, word):
        """Cs_word(u0) with shared suffix caching (word applied right to left)."""
        got = self._chains.get(word)
        if got is None:
            got = self._chains[word] = self.fgr.cc_neg(word[0], self._chain(word[1:]))
        return got

    def table(self):
        """The class table: entry (w, eps Cs_{I_{w0 w}}(y^e)) at y^e."""
        if self._table is None:
            w0 = self.elements[-1]
            paired = [self.fgr.datum.multiply(w0, w).canonical_word for w in self.elements]
            functionals = self.fgr.functionals(self.fgr.cc_neg, paired)
            table = self._table = {}
            for r, v in enumerate(paired):
                for y, terms in functionals[v].items():
                    table.setdefault(y, []).extend((r << self.shift, c) for _, c in terms)
        return self._table

    def image(self, u):
        """Phi(u) = the e-coordinates of c(u), as {index << shift: scalar}."""
        table = self.table()
        return convolve(((t, table[y]) for y, t in u.grouped(self.N).items() if y in table), 0)

    def product(self, a, b):
        """e_a e_b as [(index << shift, scalar)], memoized; element indices a <= b.

        Below total length N the product vanishes, at N it is the duality
        rule; else c(chain_a chain_b) = t^2 e_a e_b, read to degree N, with
        each chain put in degree order once (``TruncatedSeries.buckets``).
        """
        got = self._products.get((a, b))
        if got is None:
            wa, wb = self.elements[a], self.elements[b]
            total = wa.length + wb.length
            if total < self.N:
                got = ()
            elif total == self.N:
                w0wb = self.fgr.datum.multiply(self.elements[-1], wb)
                got = ((0, 1),) if wa.matrix == w0wb.matrix else ()
            else:
                terms = convolve_graded(self._bucket(a)[0], self._bucket(b)[1], self.N, self.guard)
                table, scale = self.table(), Fraction(1, self.t**2)
                pairs = ((((0, c),), table[y]) for y, c in terms.items() if y in table)
                got = tuple((k, _fold(c * scale)) for k, c in convolve(pairs, 0).items())
            self._products[a, b] = got
        return got

    def _bucket(self, index):
        got = self._buckets.get(index)
        if got is None:
            got = self._buckets[index] = self.chain(index).buckets(self.N)
        return got


class FlagBasis:
    """Basis data for one (root datum, formal group law) pair."""

    def __init__(self, datum, law):
        self.datum = datum
        self.law = law
        self.fgr = FormalGroupRing(datum, law)
        self.N = datum.N
        if law.trunc < self.N + 1:
            raise ValueError(f"truncation must be at least N+1 = {self.N + 1}")
        self.elements = datum.weyl_elements()
        self.by_word = {w.canonical_word: w for w in self.elements}
        self.w0 = datum.longest_element()
        self.t, self._monomials = torsion_bezout(datum)
        self.ring = law.ring
        self._words = [w.canonical_word for w in self.elements]
        self._index = {word: x for x, word in enumerate(self._words)}
        self._lengths = [w.length for w in self.elements]
        self._m_bits = self.ring.layout.m_bits
        self._guard = self.ring.layout.guard
        self._torsion = self._chow = self._phi = self._beta_rows = None
        self._P = self._rows = self._unit = None
        self._succ, self._ops, self._eps_tables, self._products = {}, {}, {}, {}
        self._beta = {(): {0: _ONE}}  # the identity, of canonical word (), is element 0

    @property
    def torsion(self):
        """TorsionData: t and the witness u0 in this ring's coordinates."""
        if self._torsion is None:
            u0 = self.fgr.from_monomials(dict(self._monomials))
            self._torsion = TorsionData(self.t, u0, self._monomials)
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
            self._chow = _Chow(self.datum, self.elements, self.t, self._monomials, self._m_bits)
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

    def _image(self, u):
        """Phi(u): u's terms of degree <= N read against the Chow class table, z as y."""
        if u.valid_degree < self.N:
            raise InsufficientPrecisionError(
                f"characteristic map needs valid degree {self.N}", deficit=self.N - u.valid_degree
            )
        if self._phi is None:
            self._phi = {y << self._m_bits: terms for y, terms in self._core().table().items()}
        pairs = ((terms, self._phi[y]) for y, terms in u.grouped(self.N).items() if y in self._phi)
        return self._split(convolve(pairs, self._guard))

    def _star(self, a, b):
        """The Chow product of two images, extended R-bilinearly."""
        core, N, lengths = self._core(), self.N, self._lengths
        pairs = []
        for x, p in a.items():
            inner = [(q, core.product(*sorted((x, y)))) for y, q in b.items()
                     if lengths[x] + lengths[y] >= N]
            row = convolve(inner, self._guard)
            if row:
                pairs.append((p, row.items()))
        return self._split(convolve(pairs, self._guard))

    def _operator(self, variant, i):
        """{v: packed image of Op_i e_v} for Op = Cs (T_i), C (cc_i) or D (delta_i), cached.

        With R = sum_k r_k M^k and M^k e_v = Phi(L_i^k) * e_v: Cs_i = D_i o R,
        cc_i = -D_i o sum_k (-1)^k r_k M^k and delta_i = R o D_i.
        """
        got = self._ops.get((variant, i))
        if got is None:
            succ, core = self._successors(i), self._core()
            ratio = self.law.log_ratio()
            ratio = [(k, ratio.coefficient((k,)).terms.items()) for k in range(self.N + 1)]
            ratio = [(k, rk) for k, rk in ratio if rk]
            lin = core.fgr.x_lambda_series(self.datum.simple_roots[i - 1]).restrict(self.N)
            powers, power = [], core.fgr.one()  # Phi(L_i^k) up to the last nonzero r_k
            while len(powers) <= ratio[-1][0]:
                powers.append(self._split(core.image(power)))
                power = power * lin
            got = self._ops[variant, i] = {}
            for v in range(len(self.elements)):
                source = succ[v] if variant == "D" else v
                if source is None:
                    continue
                pairs = []
                for k, rk in ratio:
                    image = self._star(powers[k], {source: _ONE}) if k else {source: _ONE}
                    if variant != "D":
                        sign = (-1) ** (k + 1) if variant == "C" else 1
                        image = {succ[x]: [(m, sign * c) for m, c in terms]
                                 for x, terms in image.items() if succ[x] is not None}
                    pairs.append((rk, self._packed(image)))
                column = convolve(pairs, self._guard)
                if column:
                    got[v] = list(column.items())
        return got

    def _successors(self, i):
        """D_i as a map: the index of w s_i when it is longer than w, else None."""
        got = self._succ.get(i)
        if got is None:
            s_i = self.datum.simple_reflection(i)
            got = self._succ[i] = []
            for w in self.elements:
                ws = self.datum.multiply(w, s_i)
                got.append(self._index[ws.canonical_word] if ws.length > w.length else None)
        return got

    def _apply(self, variant, i, image):
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

    def _functionals(self, variant):
        """eps Op_{I_w} on the images, built once, as a packed table.

        f_() reads the e_{w0} coordinate and f_word = f_{word[:-1]} o
        Op_{word[-1]}, one convolution per word against the operator's rows.
        Kept as {index of e_x: [(word index << m_bits | m-key, scalar)]}.
        """
        table = self._eps_tables.get(variant)
        if table is None:
            m_bits, low = self._m_bits, (1 << self._m_bits) - 1
            memo, rows = {(): {len(self.elements) - 1: _ONE}}, {}
            for word in sorted({w[:k] for w in self._words for k in range(1, len(w) + 1)},
                               key=len):
                if word[-1] not in rows:
                    op_rows = rows[word[-1]] = {}
                    for v, column in self._operator(variant, word[-1]).items():
                        for k, c in column:
                            op_rows.setdefault(k >> m_bits, []).append((v << m_bits | k & low, c))
                op_rows = rows[word[-1]]
                pairs = ((t, op_rows[x]) for x, t in memo[word[:-1]].items() if x in op_rows)
                memo[word] = self._split(convolve(pairs, self._guard))
            table = self._eps_tables[variant] = {}
            for index, word in enumerate(self._words):
                for x, terms in memo[word].items():
                    table.setdefault(x, []).extend((index << m_bits | m, c) for m, c in terms)
        return table

    def _eps(self, image, variant):
        """{canonical word: eps Op_{I_w}} of an image."""
        table = self._functionals(variant)
        pairs = ((terms, table[x]) for x, terms in image.items() if x in table)
        parts = self._split(convolve(pairs, self._guard))
        wrap = CoeffPoly._wrap
        return {word: wrap(self.ring, dict(parts.get(i, ()))) for i, word in enumerate(self._words)}

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
        """b_{I_w1} * b_{I_w2} as a FlagClass, memoized: beta_w1 * beta_w2, solved."""
        k1, k2 = w1.canonical_word, w2.canonical_word
        if (len(k1), k1) > (len(k2), k2):
            k1, k2, w1, w2 = k2, k1, w2, w1
        cached = self._products.get((k1, k2))
        if cached is None:
            image = self._star(self.c_of_u0(w1), self.c_of_u0(w2))
            cached = self._products[k1, k2] = self._flag_class(self._solve(image), 1)
        return cached

    def pushforward_point(self, cls):
        """pr: linear extension of pr(b_{I_w}) = eps Cs_{I_w}(1)."""
        vec = self.eps_vector(self.fgr.one())
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

    def ln_operation(self, weight_bound, cls):
        """Coefficient classes of the total twisted-coordinate operation.

        Returns {t-exponent tuple: FlagClass} with a key for every index of
        weight <= ``weight_bound``, zero classes included; the empty index
        recovers the class itself.  Only available over the universal law.
        """
        if self.law.tag != "universal":
            raise RingMismatchError("operations need the universal law")
        if weight_bound < 0:
            raise ValueError("weight bound must be >= 0")
        mring, D = self.ring, self.law.trunc
        tgens = tuple((f"t{k}", k) for k in range(1, weight_bound + 1))
        ext = CoeffRing(mring.generators + tgens, rational_mode=True)
        lam_terms = {(k + 1,): ext.gen(f"t{k}") for k in range(1, min(weight_bound + 1, D))}
        lam = TruncatedSeries.from_terms(ext, 1, D, {(1,): ext.one(), **lam_terms})
        # Coefficient morphism: m_i -> [x^{i+1}] log(lam_inv(x)).
        incl = mring.morphism({name: ext.gen(name) for name in mring.names}, ext)
        log_tw = self.law.log.map_coefficients(incl, ext).substitute([revert(lam)])
        m_images = {name: log_tw.coefficient((i + 1,)) if i + 1 <= D else ext.zero()
                    for i, name in enumerate(mring.names, start=1)}
        # u = sum_x image_x chain_x, with the Chow chains read in z: Phi(u) =
        # t * image, so c(u) = t * cls.  c reads only degrees <= N, and the
        # substitution keeps degree; it acts on y_i, so it runs in y coordinates.
        core, m_bits = self._core(), self._m_bits
        pairs = []
        for x, terms in self._lift(cls).items():
            chain = core.chain(x).grouped(self.N)
            pairs.append((terms, [(y << m_bits, c) for y, ts in chain.items() for _, c in ts]))
        n = self.datum.rank
        u = self.fgr.y_series(TruncatedSeries(mring, n, D, self.N, convolve(pairs, self._guard)))
        u_ext = u.map_coefficients(mring.morphism(m_images, ext), ext)
        img = u_ext.substitute([lam.substitute([TruncatedSeries.variable(ext, n, D, i)])
                                for i in range(n)])
        # Split off the t-monomials; remaining coefficients live over mring.
        nm = mring.ngens
        pieces = {}
        for e, p in img.coeffs.items():
            for k, c in p.terms.items():
                exps = ext.exponents(k)
                pieces.setdefault(exps[nm:], {}).setdefault(e, {})[exps[:nm]] = c
        out = {}
        tweights = tuple(range(1, weight_bound + 1))
        for weight in range(weight_bound + 1):
            for texp in weighted_monomials(tweights, weight):
                terms = {e: CoeffPoly(mring, d) for e, d in pieces.get(texp, {}).items()}
                series = TruncatedSeries.from_terms(mring, n, D, terms, self.N)
                out[texp] = self.class_from(self.fgr.from_y_series(series), 1)
        return out


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

    def display_coords(self):
        """Coordinates over {1} u {b_w : w != w0}, the conventional table basis."""
        top_word = self.basis.w0.canonical_word
        top = self.coords.get(top_word)
        if top is None or top.is_zero():
            return dict(self.coords), self.basis.ring.zero()
        unit = self.basis.unit_class()
        out = {}
        for w, c in self.coords.items():
            if w == top_word:
                continue
            out[w] = c
        for w, u in unit.coords.items():
            if w == top_word:
                continue
            s = out.get(w, self.basis.ring.zero()) - top * u
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return out, top

    def __repr__(self):
        parts = [f"{c} * b[{''.join(map(str, w)) or 'pt'}]" for w, c in sorted(self.coords.items())]
        return "FlagClass(" + (" + ".join(parts) or "0") + ")"
