"""The formal group ring of a weight lattice, with its difference operators.

Elements are plain TruncatedSeries with the law's ring and truncation;
every method takes and returns them.  y_i is the class x_{omega_i} of the
i-th fundamental weight, and x_lambda for lambda = sum c_i omega_i is
c_1 y_1 +F ... +F c_n y_n.  The two first-order operators are

    delta_i(u) = (u - s_i(u)) / x_{alpha_i}
    cc_i(u)    = u * kappa_i - delta_i(u),   kappa_i = g(x_alpha, x_{-alpha})

where g is the law's kappa series.  x_alpha +_F x_{-alpha} = 0 implies the
quotient identity kappa_alpha = 1/x_alpha + 1/x_{-alpha}, by which kappa
is computed, not by substituting into g.

Every law has a logarithm (``fgl``), and a ring holds its elements in log
coordinates z_j = log y_j: the series are in R[[z_1..z_n]], and x_lambda =
exp(lambda.z) for the linear form lambda.z = sum c_j z_j.  The Weyl group
acts linearly, s_i(z_i) = z_i - L_i with L_i = alpha_i.z, as in Demazure's
additive case, so

    u - s_i(u) = L_i * d_i(u),   delta_{+-alpha_i}(u) = +-d_i(u) * r(+-L_i),

with d_i the classical divided difference, exact over the integers, and
r(t) = t/exp(t) one fixed series, so 1/x_{+-alpha_i} = r(+-L_i)/(+-L_i) and,
as s_i(L_i) = -L_i, the quotient identity reads

    cc_{+-alpha_i}(u) = -+d_i(u * r(-+L_i)),   kappa_alpha = k(L), k(t) = (r(t) - r(-t))/t.

For the additive law z = y and r = 1, and no product with r is made.

``variable(i)`` is y_i = exp(z_i), ``from_monomials`` takes y-monomials and
``x_lambda_series`` is x_lambda, so ``==``, the augmentation (the constant
term) and valid degrees mean what they mean in y (y = exp(z) keeps the
degree filtration).

The simple operators s_i, delta_i, delta_{-alpha_i}, cc_i and cc_{-alpha_i}
never substitute or divide per call.  s_i(omega_j) = omega_j for j != i, so
s_i fixes every series free of z_i and all five are linear over such
series: writing u = sum_k u_k z_i^k, op_i(u) = sum_k u_k op_i(z_i^k), one
convolution against a table of the integer polynomials s_i(z_i^k) =
(z_i - L_i)^k and +-d_i(z_i^k) = +-sum_j z_i^j (z_i - L_i)^(k-1-j), exact
at every degree, built once per letter and kept as term lists ordered by
degree, so that a product reads a prefix.  delta then makes one product
with r(+-L_i) after the convolution, and cc one with r(-+L_i) before it.
The output keeps the valid degree of the defining formula.  The operators
at an arbitrary root (``reflection_act``, ``delta_root``, ``cc_root``)
substitute and divide and serve as their oracle.  Apart from these tables,
x_lambda values and kappa elements (cached) every operation is pure, so
shared instances are safe under concurrent reads; cache insertions are
idempotent.

The torsion index and its witness u0 come from the additive model: the
operators induce the classical divided differences on the associated
graded ring, so the Bezout combination of degree-N monomials realizing
gcd(eps delta_{I0}(monomial)) lifts verbatim to any law.  The values
eps delta_{I0}(y^e) are Demazure's divided differences, which the Chow
class table of ``flagring`` holds as the [pt]-coefficients of its degree-N
layer; ``flagring.torsion_bezout`` reads them there, one layer at a time,
and runs no series.  No command builds this ring: ``flagring`` imports it
only in ``FlagBasis.fgr`` and ``torsion``, the checks' oracle.
"""

from __future__ import annotations

from .errors import InsufficientPrecisionError
from .flagring import torsion_bezout
from .tseries import TruncatedSeries

# op_i(u) = (+-d_i)(u) r(+-L_i) for delta, (+-d_i)(u r(+-L_i)) for cc;
# op -> (column of the table (s_i, d_i, -d_i) it convolves with, sign in r(+-L_i)).
_OPS = {"s": (0, 0), "delta": (1, 1), "delta_neg": (2, -1), "cc": (2, -1), "cc_neg": (1, 1)}


class TorsionData:
    """Torsion index t with a degree-N witness u0 (eps delta_{I0}(u0) = t)."""

    def __init__(self, t, u0):
        self.t = t
        self.u0 = u0


class FormalGroupRing:
    """R[[M]]_F for a fixed root datum, in log coordinates."""

    def __init__(self, datum, law):
        self.datum = datum
        self.law = law
        self.ring = law.ring
        self.trunc = law.trunc
        self.n = datum.rank
        # y_j = exp(z_j); None where z = y (the additive law, where also r = 1)
        self._exp = law.exp
        if law.exp == TruncatedSeries.variable(law.ring, 1, law.trunc, 0):
            self._exp = None
        self._variables = None
        self._x_lambda = {}
        self._kappa = {}
        self._tables = {}  # per-letter operator tables and fixed factors

    # -- element constructors ---------------------------------------------

    def zero(self):
        return TruncatedSeries.zero(self.ring, self.n, self.trunc)

    def one(self):
        return self.const(1)

    def const(self, c):
        return TruncatedSeries.const(self.ring, self.n, self.trunc, c)

    def variable(self, i):
        """y_i = x_{omega_i}."""
        return self._y_variables()[i]

    def from_monomials(self, monomials):
        """Element sum c y^e from {y-exponent tuple e: coefficient c}, exact to truncation."""
        s = TruncatedSeries.from_terms(self.ring, self.n, self.trunc, monomials)
        return s if self._exp is None else s.substitute(self._y_variables())

    def _coordinate(self, j):
        return TruncatedSeries.variable(self.ring, self.n, self.trunc, j)

    def _y_variables(self):
        """[y_1, ..., y_n]: exp(z_j) in log coordinates."""
        if self._variables is None:
            ys = [self._coordinate(j) for j in range(self.n)]
            if self._exp is not None:
                ys = [self._exp.substitute([z]) for z in ys]
            self._variables = ys
        return self._variables

    def _linear(self, lam):
        """The linear form lam.z = sum c_j z_j of a weight."""
        terms = {tuple(int(j == k) for k in range(self.n)): c for j, c in enumerate(lam) if c}
        return TruncatedSeries.from_terms(self.ring, self.n, self.trunc, terms)

    # -- x_lambda and the Weyl action ----------------------------------------

    def x_lambda_series(self, lam):
        """x_lambda for a weight lam in fundamental-weight coordinates, cached."""
        lam = tuple(int(c) for c in lam)
        got = self._x_lambda.get(lam)
        if got is None:
            got = self._linear(lam)
            if self._exp is not None:
                got = self._exp.substitute([got])
            self._x_lambda[lam] = got
        return got

    def s_act(self, i, u):
        """Action of the simple reflection s_i (1-based index).

        s_i fixes every coordinate but the i-th, which goes to z_i - L_i.
        """
        return self._apply("s", i, u, u.valid_degree)

    def weyl_act(self, w, u):
        """Action of a Weyl element (or an explicit word) on u."""
        word = w if isinstance(w, tuple) else w.canonical_word
        for i in reversed(word):
            u = self.s_act(i, u)
        return u

    def reflection_act(self, root, coroot, u):
        """Action of the reflection at an arbitrary root (weight coords), by substitution.

        The j-th coordinate goes to that of s(omega_j) = omega_j - coroot[j] root.
        """
        images = []
        for j in range(self.n):
            om = self.datum.fundamental_weight(j)
            lam = tuple(om[k] - coroot[j] * root[k] for k in range(self.n))
            images.append(self._linear(lam))
        return u.substitute(images)

    # -- operators ------------------------------------------------------------

    def require_valid(self, u, need, what):
        if u.valid_degree < need:
            raise InsufficientPrecisionError(
                f"{what} needs valid degree {need}, element has {u.valid_degree}"
            )

    def delta(self, i, u):
        """delta_i(u) = (u - s_i(u)) / x_{alpha_i}; drops one valid degree."""
        self.require_valid(u, 1, "delta")
        return self._apply("delta", i, u, u.valid_degree - 1)

    def delta_neg(self, i, u):
        """delta at the negative simple root: (u - s_i(u)) / x_{-alpha_i}."""
        self.require_valid(u, 1, "delta")
        return self._apply("delta_neg", i, u, u.valid_degree - 1)

    def delta_root(self, root, coroot, u):
        """delta at an arbitrary root given with its coroot pairing row."""
        self.require_valid(u, 1, "delta")
        num = u - self.reflection_act(root, coroot, u)
        return num.exact_divide(self.x_lambda_series(root))

    def kappa_element(self, i):
        """kappa_alpha = g(x_alpha, x_{-alpha}) for the i-th simple root."""
        cached = self._kappa.get(i)
        if cached is None:
            root = self.datum.simple_roots[i - 1]
            cached = self._kappa_for_root(root)
            self._kappa[i] = cached
        return cached

    def _kappa_for_root(self, root):
        # x_{+-alpha} = exp(+-L) for L = alpha.z
        return self.law.log_kappa().substitute([self._linear(root)])

    def cc(self, i, u):
        """cc_i(u) = u * kappa_i - delta_i(u) = -d_i(u r(-L_i))."""
        return self._apply("cc", i, u, self._cc_valid(u))

    def cc_neg(self, i, u):
        """u * kappa_i - delta_{-alpha_i}(u) = d_i(u r(L_i))."""
        return self._apply("cc_neg", i, u, self._cc_valid(u))

    def _cc_valid(self, u):
        """min(u's valid degree - 1, kappa_i's), which is d_i(u r)'s.

        kappa = (r(t) - r(-t))/t, so r's valid degree counts also where r = 1.
        """
        self.require_valid(u, 1, "cc")
        return min(u.valid_degree, self.law.log_ratio().valid_degree) - 1

    def cc_root(self, root, coroot, u):
        self.require_valid(u, 1, "cc")
        return u * self._kappa_for_root(root) - self.delta_root(root, coroot, u)

    # -- the simple operators as tables of their values on t^k ----------------

    def _apply(self, op, i, u, valid):
        """op_i(u) = sum_k u_k op_i(z_i^k) for u = sum_k u_k z_i^k.

        s_i fixes the u_k, so all five simple operators are linear over them.
        """
        column, sign = _OPS[op]
        if op.startswith("cc") and self._exp is not None:
            u = u.mul_prefixes(self._ratio(i, sign), valid + 1)
        out = u.convolve_split(i - 1, lambda k: self._log_entry(i, k)[2][column], valid)
        if op.startswith("delta") and self._exp is not None:
            out = out.mul_prefixes(self._ratio(i, sign), valid)
        return out

    def _log_entry(self, i, k):
        """(s, d, ``prefixes`` of s, d and -d) for s = (z_i - L_i)^k, d = d_i(z_i^k).

        Exact at every degree.  d_i(z_i^k) = sum_j z_i^j (z_i - L_i)^(k-1-j),
        so that z_i^k - (z_i - L_i)^k = L_i d_i(z_i^k); by the recursion
        d_i(z_i^k) = z_i d_i(z_i^(k-1)) + (z_i - L_i)^(k-1).
        """
        key = ("log", i, k)
        got = self._tables.get(key)
        if got is None:
            if k:
                s, d = self._log_entry(i, k - 1)[:2]
                image = self.datum.reflect(i - 1, self.datum.fundamental_weight(i - 1))
                s, d = s * self._linear(image), self._coordinate(i - 1) * d + s
            else:
                s, d = self.one(), self.zero()
            prefixes = tuple(v.prefixes(self.trunc) for v in (s, d, -d))
            got = self._tables[key] = (s, d, prefixes)
        return got

    def _ratio(self, i, sign):
        """``prefixes`` of r(+-L_i) = +-L_i / x_{+-alpha_i}, for sign +-1.

        Built on first use and kept in degree order, since every call
        multiplies by the same series.
        """
        key = ("r", i, sign)
        got = self._tables.get(key)
        if got is None:
            lin = self._linear(tuple(sign * c for c in self.datum.simple_roots[i - 1]))
            value = self.law.log_ratio().substitute([lin])
            got = self._tables[key] = value.prefixes(value.valid_degree)
        return got

    def delta_word(self, word, u):
        """Composite delta along a word, leftmost operator applied last."""
        self.require_valid(u, len(word), "delta_word")
        for i in reversed(word):
            u = self.delta(i, u)
        return u

    def c_word(self, word, u):
        self.require_valid(u, len(word), "c_word")
        for i in reversed(word):
            u = self.cc(i, u)
        return u

    def theta(self, word, u):
        """Yield (K, Theta_K(u)) for every set K of positions (1-based) in ``word``.

        Position j contributes delta at -alpha_{i_j} when j is in K and the
        plain reflection s_{i_j} otherwise; factors compose like delta_word.
        Splitting on the last letter i, the sets without position l continue
        on s_i(u) and those with it on delta_{-alpha_i}(u), so a length-l
        word costs 2^l - 1 calls to each of ``s_act`` and ``delta_neg``.
        """
        self.require_valid(u, len(word), "theta")

        def split(l, v):
            if not l:
                yield (), v
                return
            i = word[l - 1]
            yield from split(l - 1, self.s_act(i, v))
            for K, t in split(l - 1, self.delta_neg(i, v)):
                yield K + (l,), t

        return split(len(word), u)

    # -- torsion index ---------------------------------------------------------

    def torsion_and_u0(self):
        """Torsion index and an integral degree-N witness, lifted to this ring."""
        t, monomials = torsion_bezout(self.datum)
        u0 = self.from_monomials(dict(monomials))
        return TorsionData(t, u0)

    # -- module decomposition ----------------------------------------------------

    def decompose_over_invariants(self, x, torsion):
        """Coefficients r_w with delta_{I_v}(x) = sum_w r_w delta_{I_v}delta_{I_w}(u0).

        The elimination inverts the torsion index, as every coefficient ring
        is a Q-algebra.  Returns {canonical word: TruncatedSeries}.
        """
        elements = self.datum.weyl_elements()
        w0 = self.datum.longest_element()
        u0 = torsion.u0
        # Cache delta_{I_w}(u0) by shared suffix of the canonical words.
        du0 = {(): u0}

        def chain(word, cache):
            if word in cache:
                return cache[word]
            prev = chain(word[1:], cache)
            val = self.delta(word[0], prev)
            cache[word] = val
            return val

        rows = sorted(elements, key=lambda w: (w.length, w.canonical_word))
        cols = [self.datum.multiply(self.datum.inverse(v), w0) for v in rows]
        dx = {}
        for v in rows:
            dx[v.canonical_word] = self.delta_word(v.canonical_word, x)
        mat = []
        for v in rows:
            row = []
            for w in cols:
                inner = chain(w.canonical_word, du0) if w.length else u0
                row.append(self.delta_word(v.canonical_word, inner))
            mat.append(row)
        rhs = [dx[v.canonical_word] for v in rows]
        size = len(rows)
        # Gaussian elimination with unit pivots: diagonal entries have
        # constant term t, off-diagonal entries below are in the augmentation
        # ideal, so pivoting on the diagonal always succeeds.
        mat = [row[:] for row in mat]
        for k in range(size):
            pivot_inv = mat[k][k].invert_unit()
            for r in range(size):
                if r == k:
                    continue
                f = mat[r][k]
                if f.is_zero():
                    continue
                factor = f * pivot_inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[k])]
                rhs[r] = rhs[r] - factor * rhs[k]
        out = {}
        for k, w in enumerate(cols):
            out[w.canonical_word] = rhs[k] * mat[k][k].invert_unit()
        return out

