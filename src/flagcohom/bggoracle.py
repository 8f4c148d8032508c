"""Brute-force classical Schubert calculus on exact polynomials.

This is an independent implementation used to cross-check the additive
(Chow) specialization of the main pipeline: plain divided differences on
untruncated integer polynomials in the fundamental-weight variables, an
extended-gcd torsion witness, and small exact linear algebra.  It shares no
code with the pipeline on purpose: it imports only the standard library, and
reads the Weyl group and the Cartan matrix off the root datum it is given.
Products and the unit come in b-coordinates, as the model solves them.
"""

from __future__ import annotations

from fractions import Fraction


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pscale(a, c):
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend(e + (k,) for e in _monomials(n - 1, d - k))
    return out


class ChowOracle:
    """Classical divided-difference computation of the Chow basis products."""

    def __init__(self, datum):
        self.datum = datum
        self.n = datum.rank
        self.N = datum.N
        self.elements = datum.weyl_elements()
        self.w0 = datum.longest_element()
        self.t, self.u0 = self._torsion()
        self.reps = {
            w.canonical_word: self._delta_word(
                tuple(reversed(w.canonical_word)), self.u0
            )
            for w in self.elements
        }
        self._build_transition()

    # -- divided differences ------------------------------------------------

    def _s_act(self, i, f):
        # y_i -> y_i - sum_k C[k][i] y_k, other variables fixed
        base = {}
        for k in range(self.n):
            e = [0] * self.n
            e[k] = 1
            c = (1 if k == i - 1 else 0) - self.datum.cartan[k][i - 1]
            if c:
                base[tuple(e)] = c
        out = {}
        for e, c in f.items():
            term = {tuple(0 for _ in range(self.n)): c}
            for k, power in enumerate(e):
                if not power:
                    continue
                if k == i - 1:
                    factor = base
                else:
                    ev = [0] * self.n
                    ev[k] = 1
                    factor = {tuple(ev): 1}
                for _ in range(power):
                    term = _pmul(term, factor)
            out = _padd(out, term)
        return out

    def _ddiff(self, i, f):
        """(f - s_i f) / alpha_i by a per-degree pivot sweep."""
        num = _padd(f, _pscale(self._s_act(i, f), -1))
        if not num:
            return {}
        alpha = {k: self.datum.cartan[k][i - 1] for k in range(self.n)
                 if self.datum.cartan[k][i - 1]}
        j = min(alpha)
        cj = Fraction(alpha[j])
        by_deg = {}
        for e, c in num.items():
            by_deg.setdefault(sum(e), {})[e] = Fraction(c)
        out = {}
        for d in sorted(by_deg, reverse=True):
            layer = by_deg[d]
            q = {}
            for e in sorted(_monomials(self.n, d), key=lambda e: -e[j]):
                acc = layer.get(e, Fraction(0))
                for k, ck in alpha.items():
                    if k != j and e[k] >= 1:
                        e2 = list(e)
                        e2[k] -= 1
                        acc -= Fraction(ck) * q.get(tuple(e2), Fraction(0))
                if e[j] >= 1:
                    e2 = list(e)
                    e2[j] -= 1
                    if acc:
                        q[tuple(e2)] = acc / cj
                elif acc:
                    raise ArithmeticError("difference not divisible by the root")
            for e, c in q.items():
                if c:
                    out[e] = out.get(e, 0) + c
        return {e: (int(c) if Fraction(c).denominator == 1 else c)
                for e, c in out.items() if c}

    def _delta_word(self, word, f):
        for i in reversed(word):
            f = self._ddiff(i, f)
        return f

    # -- torsion -----------------------------------------------------------------

    def _torsion(self):
        word = self.w0.canonical_word
        vals = []
        basis = sorted(_monomials(self.n, self.N))
        for mono in basis:
            res = self._delta_word(word, {mono: 1})
            vals.append(int(res.get((0,) * self.n, 0)))
        g, combo = 0, []
        for v in vals:
            g2, x, y = _ext_gcd(g, v)
            combo = [c * x for c in combo] + [y]
            g = g2
        u0 = {}
        for mono, c in zip(basis, combo):
            if c:
                u0[mono] = c
        return g, u0

    # -- transition and products ------------------------------------------------------

    def _eps_vector(self, f):
        out = {}
        for w in self.elements:
            res = self._delta_word(w.canonical_word, f)
            out[w.canonical_word] = res.get((0,) * self.n, 0)
        return out

    def _build_transition(self):
        words = [w.canonical_word for w in self.elements]
        self.words = words
        P = []
        for v in words:
            row = []
            for w in words:
                res = self._delta_word(v, self.reps[w])
                row.append(Fraction(res.get((0,) * self.n, 0)))
            P.append(row)
        self.P = P
        size = len(words)
        aug = [row[:] + [Fraction(int(i == j)) for j in range(size)]
               for i, row in enumerate(P)]
        for c in range(size):
            pr = next(r for r in range(c, size) if aug[r][c] != 0)
            aug[c], aug[pr] = aug[pr], aug[c]
            inv = Fraction(1) / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for r in range(size):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
        self.Pinv = [row[size:] for row in aug]

    def class_of(self, f, divide_by):
        """b-coordinates of the class with polynomial representative f."""
        q = self._eps_vector(f)
        qv = [Fraction(q[w]) for w in self.words]
        size = len(self.words)
        coords = {}
        for r in range(size):
            acc = sum(self.Pinv[r][c] * qv[c] for c in range(size))
            acc = acc * self.t / Fraction(divide_by)
            if acc:
                if acc.denominator != 1:
                    raise ArithmeticError(f"non-integral oracle coordinate {acc}")
                coords[self.words[r]] = int(acc)
        return coords

    def unit_coords(self):
        one = {(0,) * self.n: 1}
        return self.class_of(one, 1)

    def product(self, w1, w2):
        """b_{w1} * b_{w2} in b-coordinates (integer dict)."""
        f = _pmul(self.reps[w1], self.reps[w2])
        return self.class_of(f, self.t * self.t)


def _ext_gcd(a, b):
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
