"""The algebraic model of H*(G/B): bases, products, push-forward, operations.

A :class:`FlagBasis` fixes a root datum, a formal group law, the canonical
reduced words I_w, the torsion witness u0 and the memoized chain elements
Cs_{I_w^rev}(u0), where Cs is the push-pull operator taken at the negative
simple roots.  Classes are coordinate vectors over the geometric basis
b_{I_w} (push-forwards of desingularized Schubert classes).  Products and
arbitrary-word classes are computed through the characteristic map: the
coordinates of c(u) in the dual a-basis are eps Cs_{I_w}(u), each a fixed
R-linear functional of the terms of u of degree <= N that is built once per
basis.  The transition matrix P[v][w] = eps Cs_{I_v}(Cs_{I_w^rev}(u0)) with
t * b_w = sum_v P[v][w] a_v leads back to the b-basis.  Its rows paired by
w -> w0 w make it triangular with the torsion index t on the diagonal, so P
is never inverted: ``class_of`` is one back substitution, dividing only by t.

c is R-linear, so in the b-basis it is one sparse table K: K[e] holds the
b-coordinates of c(t^e) for each monomial t^e of degree <= N that the
functionals read, t the coordinates of the formal group ring (z = log y
when the law has a logarithm, else y).  K and the functionals are packed
column tables (see ``coeffring``'s layout), {y-key of t^e: [(word index <<
m_bits | m-key, scalar)]}, so ``eps_vector`` and ``class_from`` are one
convolution of the terms of u, grouped by y-part, with a table.  K is built
by one back substitution over all monomials at once, the y-key of t^e as
the column index; ``class_of`` (and ``dual_class``, from a-coordinates) is
the same back substitution on one column.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import CoeffPoly, CoeffRing, _fold, assert_integer, convolve
from .errors import InsufficientPrecisionError, RingMismatchError
from .fgl import revert
from .fgring import FormalGroupRing
from .lazard import weighted_monomials
from .tseries import TruncatedSeries


def default_truncation(datum):
    """Two operator chains of length N plus one constant-term read."""
    return 2 * datum.N + 1


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
        self.torsion = self.fgr.torsion_and_u0()
        self.t = self.torsion.t
        self.ring = law.ring
        self._cu0 = {(): self.torsion.u0}
        self._P = None
        self._rows = None
        self._unit = None
        self._products = {}
        self._eps_tables = {}
        self._table = None
        self._words = [w.canonical_word for w in self.elements]

    # -- cached operator chains ------------------------------------------

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

    def c_chain_u0(self, word):
        """Cs_word(u0) with shared suffix caching (word applied right to left)."""
        cached = self._cu0.get(word)
        if cached is None:
            prev = self.c_chain_u0(word[1:])
            cached = self.cs(word[0], prev)
            self._cu0[word] = cached
        return cached

    def c_of_u0(self, w):
        """Cs_{I_w^rev}(u0) for a Weyl element w."""
        return self.c_chain_u0(tuple(reversed(w.canonical_word)))

    def _require_degree_n(self, u):
        if u.valid_degree < self.N:
            raise InsufficientPrecisionError(
                f"characteristic map needs valid degree {self.N}",
                deficit=self.N - u.valid_degree,
            )

    def _functionals(self, variant):
        """eps Op_{I_w} on the monomials t^e, built once, as a packed table.

        {y-key of t^e: [(word index << m_bits | m-key, scalar)]}, in the
        layout of ``coeffring``; t^e is a monomial of the formal group ring's
        coordinates.
        """
        table = self._eps_tables.get(variant)
        if table is None:
            op = {"Cs": self.cs, "C": self.fgr.cc, "D": self.fgr.delta}[variant]
            functionals = self.fgr.functionals(op, self._words)
            m_bits = self.ring.layout.m_bits
            table = self._eps_tables[variant] = {}
            for index, word in enumerate(self._words):
                for y, terms in functionals[word].items():
                    table.setdefault(y, []).extend((index << m_bits | m, c) for m, c in terms)
        return table

    def _read(self, table, u):
        """{word index: {m-key: scalar}} of sum_e u_e table[t^e], one convolution.

        ``table`` is packed as in ``_functionals``; the terms of u of degree
        <= N are grouped by y-part, so u_e meets the row of t^e.  u must be
        valid to degree N.
        """
        self._require_degree_n(u)
        pairs = ((terms, table[y]) for y, terms in u.grouped(self.N).items() if y in table)
        m_bits = self.ring.layout.m_bits
        low = (1 << m_bits) - 1
        out = {}
        for k, c in convolve(pairs, self.ring.layout.guard).items():
            out.setdefault(k >> m_bits, {})[k & low] = c
        return out

    def eps_vector(self, u, variant="Cs"):
        """(eps Op_{I_w}(u))_w as {canonical word: CoeffPoly}.

        Variants: "Cs" the negative-root push-pull operator (the basis
        pipeline), "C" the positive-root one, "D" the difference operator.
        Each coordinate is a fixed R-linear functional of the terms of u of
        degree <= N (see ``FormalGroupRing.functionals``); u must be valid to
        degree N.
        """
        parts = self._read(self._functionals(variant), u)
        wrap = CoeffPoly._wrap
        return {word: wrap(self.ring, parts.get(i, {})) for i, word in enumerate(self._words)}

    # -- transition matrix --------------------------------------------------

    def transition_matrix(self):
        """P with P[v][w] = eps Cs_{I_v}(Cs_{I_w^rev}(u0)), checked triangular."""
        if self._P is not None:
            return self._P
        words = self._words
        P = {}
        for w in self.elements:
            column = self.eps_vector(self.c_of_u0(w))
            for v in words:
                P[(v, w.canonical_word)] = column[v]
        # Row permutation pairing v_r = w0 * w_r makes P upper triangular
        # (in the column order of self.elements) with t on the diagonal.
        rows = []
        for r, w in enumerate(self.elements):
            vr = self.datum.multiply(self.w0, w).canonical_word
            d = P[(vr, words[r])]
            if not (d.is_constant() and d.constant_term() == self.t):
                raise AssertionError("transition matrix diagonal is not t")
            if any(not P[(vr, words[c])].is_zero() for c in range(r)):
                raise AssertionError("transition matrix is not triangular")
            # The upper entries as term lists, kept divided by -t as
            # _back_substitute uses them.
            scale = Fraction(-1, self.t)
            upper = [(c, P[(vr, words[c])].scale(scale)) for c in range(r + 1, len(words))]
            rows.append((vr, [(c, list(q.terms.items())) for c, q in upper if not q.is_zero()]))
        self._P, self._rows = P, rows
        return P

    def _back_substitute(self, rhs):
        """x with P x = rhs, one convolution per paired row.

        ``rhs`` maps a word v to the packed terms of its entry, and x_r =
        (rhs_r - sum_c P_rc x_c) / t over the paired rows, dividing only by
        t.  A key may carry a column index above its m-fields (the layout of
        ``coeffring``): the convolution adds m-keys and leaves that field as
        it is, so many right-hand sides are solved at once.  Returns {r: the
        packed terms of x_r} for the nonzero x_r.
        """
        self.transition_matrix()
        inv_t = [(0, _fold(Fraction(1, self.t)))]
        guard = self.ring.layout.guard
        x = {}
        for r in range(len(self.elements) - 1, -1, -1):
            vr, upper = self._rows[r]
            pairs = [(q, x[c].items()) for c, q in upper if c in x]
            a = rhs.get(vr)
            if a:
                pairs.append((a, inv_t))
            xr = convolve(pairs, guard)
            if xr:
                x[r] = xr
        return x

    def class_of(self, avec, k):
        """The class with c(u) = t^k * class, from avec = eps_vector(u).

        Solves P x = avec by back substitution (``_back_substitute``, one
        column); c(u) = t * sum_w x_w b_w, so the class is t^(1-k) x.  Its
        coordinates must be integral in a rational ring.
        """
        x = self._back_substitute({w: p.terms.items() for w, p in avec.items()})
        return self._flag_class(x, Fraction(self.t) ** (1 - k))

    def _flag_class(self, parts, factor):
        """FlagClass with coordinate factor * parts[i] at word i, integral in a rational ring."""
        coords = {}
        for i in sorted(parts):
            word = self._words[i]
            c = CoeffPoly._wrap(self.ring, {m: _fold(v * factor) for m, v in parts[i].items()})
            if self.ring.rational_mode:
                assert_integer(c, f"b-coordinate at {word}")
            coords[word] = c
        return FlagClass(self, coords)

    def _class_table(self):
        """The characteristic map in the b-basis: the b-coordinates of each c(t^e).

        t^e is a monomial of the ring's coordinates (``functionals``).  The
        right-hand side of row v is the functional eps Cs_{I_v} in series
        layout, [(y-key of t^e | m-key, scalar)], so one back substitution
        solves every monomial at once, the y-part as the column index.  The
        table is packed as the functionals are (``_functionals``).  In log
        coordinates t^e = (log y)^e may have fractional coefficients, so an
        entry need not be integral: only the classes that ``class_from``
        sums from them are checked.
        """
        if self._table is None:
            m_bits = self.ring.layout.m_bits
            low = (1 << m_bits) - 1
            rhs = {}
            for y, terms in self._functionals("Cs").items():
                for k, c in terms:
                    rhs.setdefault(self._words[k >> m_bits], []).append((y | k & low, c))
            table = self._table = {}
            for r, x in self._back_substitute(rhs).items():
                for k, c in x.items():
                    entry = (r << m_bits | k & low, _fold(c * self.t))
                    table.setdefault(k & ~low, []).append(entry)
        return self._table

    def class_from(self, u, k):
        """The class with c(u) = t^k * class; equal to class_of(eps_vector(u), k).

        c is R-linear and reads only the terms of u of degree <= N, so
        c(u) = sum_e u_e c(t^e): one convolution of the terms of u with the
        class table (``_read``), scaled by t^(-k).  u must be valid to
        degree N.
        """
        return self._flag_class(self._read(self._class_table(), u), Fraction(1, self.t**k))

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
            unit = self.class_from(self.fgr.one(), 0)
            if unit.coords.get(self.w0.canonical_word) != self.ring.one():
                raise AssertionError("unit class has non-unit top coefficient")
            self._unit = unit
        return self._unit

    def dual_class(self, v):
        """The a-basis element dual to b_v under the push-forward pairing."""
        return self.class_of({v.canonical_word: self.ring.one()}, 0)

    # -- word classes ------------------------------------------------------------

    def bclass(self, word):
        """Class of the desingularized Schubert cycle attached to any word."""
        word = tuple(word)
        need = self.N + len(word) + 1
        if self.law.trunc < need:
            raise InsufficientPrecisionError(
                f"word of length {len(word)} needs truncation >= {need}",
                deficit=need - self.law.trunc,
            )
        u = self.torsion.u0
        for i in word:
            u = self.cs(i, u)
        return self.class_from(u, 1)

    # -- products -------------------------------------------------------------

    def basis_product(self, w1, w2):
        """b_{I_w1} * b_{I_w2} as a FlagClass, memoized."""
        k1, k2 = w1.canonical_word, w2.canonical_word
        if (len(k1), k1) > (len(k2), k2):
            k1, k2 = k2, k1
            w1, w2 = w2, w1
        key = (k1, k2)
        cached = self._products.get(key)
        if cached is not None:
            return cached
        total = w1.length + w2.length
        if total < self.N:
            result = self.zero_class()
        elif total == self.N:
            w0w2 = self.datum.multiply(self.w0, w2)
            result = self.point_class() if w1.matrix == w0w2.matrix else self.zero_class()
        else:
            # c(Cs_{I_w1^rev}(u0) Cs_{I_w2^rev}(u0)) = t^2 b_w1 b_w2, read to degree N
            u1, u2 = self.c_of_u0(w1), self.c_of_u0(w2)
            valid = min(self.N, u1.valid_degree, u2.valid_degree)
            result = self.class_from(u1.mul_prefixes(u2.prefixes(valid), valid), 2)
        self._products[key] = result
        return result

    # -- push-forward to the point --------------------------------------------

    def pushforward_point(self, cls):
        """pr: linear extension of pr(b_{I_w}) = eps Cs_{I_w}(1)."""
        vec = self.eps_vector(self.fgr.one())
        acc = self.ring.zero()
        for w, c in cls.coords.items():
            f = vec[w]
            if not f.is_zero():
                acc = acc + c * f
        return acc

    # -- push-pull operators ----------------------------------------------------

    def a_operator(self, i, cls):
        """Algebraic p_i^* p_{i*}: sends b_J to the class of the word J + (i).

        By linearity, one Cs_i on the u-representative of cls gives
        sum_J c_J bclass(J + (i,)).
        """
        u = self.cs(i, self._u_representative(cls))
        return self.class_from(u, 1)

    def b_operator(self, i, cls):
        """The delta-variant operator through the u-representative route."""
        u = self.fgr.delta(i, self._u_representative(cls))
        return self.class_from(u, 1)

    def _u_representative(self, cls):
        """u with c(u) = t * cls, namely sum coords_w Cs_{I_w^rev}(u0).

        Cs_{I_w0^rev}(u0) is valid only to degree N, one short of what one
        more operator needs, so the w0 coordinate goes through the unit
        class instead: its representative is the constant t, and
        b_w0 = unit - sum_{w != w0} unit_w b_w.
        """
        coords = dict(cls.coords)
        top = coords.pop(self.w0.canonical_word, None)
        acc = self.fgr.zero()
        if top is not None:
            acc = self.fgr.const(top.scale(self.t))
            for w, c in self.unit_class().coords.items():
                if w != self.w0.canonical_word:
                    coords[w] = coords.get(w, self.ring.zero()) - top * c
        for w in self.elements:
            c = coords.get(w.canonical_word)
            if c is not None and not c.is_zero():
                acc = acc + self.c_of_u0(w) * c
        return acc

    # -- Landweber-Novikov ---------------------------------------------------------

    def ln_operation(self, weight_bound, cls):
        """Coefficient classes of the total twisted-coordinate operation.

        Returns {t-exponent tuple: FlagClass} with a key for every index of
        weight <= ``weight_bound``, zero classes included; the empty index
        recovers the class itself.  Only available over the universal law.
        """
        if self.law.tag != "universal" or self.law.log is None:
            raise RingMismatchError("operations need the universal law")
        if weight_bound < 0:
            raise ValueError("weight bound must be >= 0")
        mring = self.ring
        tgens = tuple((f"t{k}", k) for k in range(1, weight_bound + 1))
        ext = CoeffRing(mring.generators + tgens, rational_mode=True)
        D = self.law.trunc
        lam_terms = {(1,): ext.one()}
        for k in range(1, weight_bound + 1):
            if k + 1 <= D:
                lam_terms[(k + 1,)] = ext.gen(f"t{k}")
        lam = TruncatedSeries.from_terms(ext, 1, D, lam_terms)
        lam_inv = revert(lam)
        # Coefficient morphism: m_i -> [x^{i+1}] log(lam_inv(x)).
        incl = mring.morphism({name: ext.gen(name) for name in mring.names}, ext)
        log_ext = self.law.log.map_coefficients(incl, ext)
        log_tw = log_ext.substitute([lam_inv])
        m_images = {}
        for idx, name in enumerate(mring.names, start=1):
            m_images[name] = (
                log_tw.coefficient((idx + 1,)) if idx + 1 <= D else ext.zero()
            )
        u = self._u_representative(cls)
        if u.valid_degree < self.N:
            raise InsufficientPrecisionError(
                "operation source needs valid degree N",
                deficit=self.N - u.valid_degree,
            )
        # c reads only degrees <= N, and the substitution keeps degree; it
        # acts on y_i, so it runs in y coordinates.
        u = self.fgr.y_series(u.restrict(self.N))
        u_ext = u.map_coefficients(mring.morphism(m_images, ext), ext)
        images = [
            lam.substitute([TruncatedSeries.variable(ext, self.datum.rank, D, i)])
            for i in range(self.datum.rank)
        ]
        img = u_ext.substitute(images)
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
                series = TruncatedSeries.from_terms(mring, self.datum.rank, D, terms, self.N)
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

    def __eq__(self, other):
        if not isinstance(other, FlagClass):
            return NotImplemented
        return self.basis is other.basis and self.coords == other.coords

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
