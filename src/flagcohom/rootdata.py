"""Root systems, weight lattices and Weyl groups.

Everything is expressed in fundamental-weight coordinates: the weight
lattice is ZZ^n with basis the fundamental weights w_1..w_n, and the simple
root alpha_j is the j-th column of the Cartan matrix, so that
<alpha_i^vee, w_j> = delta_ij.  Weyl group elements carry their action as an
integer matrix on weight coordinates together with one canonical reduced
word (the lexicographically smallest one).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def cartan_matrix(kind, rank):
    """Cartan matrix of a named finite type, Bourbaki numbering."""
    kind = kind.upper()
    n = rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2

    def chain(i, j):
        m[i][j] = m[j][i] = -1

    if kind == "A":
        if n < 1:
            raise ValueError("A_n needs rank >= 1")
        for i in range(n - 1):
            chain(i, i + 1)
    elif kind == "B":
        if n < 2:
            raise ValueError("B_n needs rank >= 2")
        for i in range(n - 2):
            chain(i, i + 1)
        m[n - 2][n - 1] = -1
        m[n - 1][n - 2] = -2
    elif kind == "C":
        if n < 2:
            raise ValueError("C_n needs rank >= 2")
        for i in range(n - 2):
            chain(i, i + 1)
        m[n - 2][n - 1] = -2
        m[n - 1][n - 2] = -1
    elif kind == "D":
        if n < 3:
            raise ValueError("D_n needs rank >= 3")
        for i in range(n - 3):
            chain(i, i + 1)
        chain(n - 3, n - 2)
        chain(n - 3, n - 1)
    elif kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E_n needs rank 6, 7 or 8")
        # Bourbaki: node 2 attaches to node 4 of the A-chain 1-3-4-5-...
        chain(0, 2)
        chain(1, 3)
        chain(2, 3)
        for i in range(3, n - 1):
            chain(i, i + 1)
    elif kind == "F":
        if n != 4:
            raise ValueError("F_4 needs rank 4")
        chain(0, 1)
        m[1][2] = -2
        m[2][1] = -1
        chain(2, 3)
    elif kind == "G":
        if n != 2:
            raise ValueError("G_2 needs rank 2")
        # alpha_1 short, alpha_2 long: the labeling under which the known
        # rank-2 multiplication tables come out with index 1 first.
        m[0][1] = -3
        m[1][0] = -1
    else:
        raise ValueError(f"unknown type {kind!r}")
    return tuple(tuple(row) for row in m)


def _integer_matrix(cartan):
    """The matrix as a tuple of int rows; anything else is a ValueError."""
    if not isinstance(cartan, (list, tuple)) or not cartan:
        raise ValueError("Cartan matrix must be a nonempty list of rows")
    rows = []
    for row in cartan:
        if not isinstance(row, (list, tuple)) or len(row) != len(cartan):
            raise ValueError("Cartan matrix must be square")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"Cartan entry {v!r} is not an integer")
        rows.append(tuple(row))
    return tuple(rows)


def _validate_cartan(cartan):
    n = len(cartan)
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise ValueError("Cartan matrix must have 2 on the diagonal")
        for j, v in enumerate(row):
            if i != j:
                if v > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (v == 0) != (cartan[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
    # Symmetrize: find d_i > 0 with d_i c_ij = d_j c_ji, then require the
    # symmetric matrix to be positive definite (finite type).
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0:
                    dj = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    if d[j] is None:
                        d[j] = dj
                        stack.append(j)
                    elif d[j] != dj:
                        raise ValueError("Cartan matrix is not symmetrizable")
    sym = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    # Leading principal minors via fraction-free-ish elimination.
    work = [row[:] for row in sym]
    for k in range(n):
        if work[k][k] <= 0:
            raise ValueError("Cartan matrix is not of finite type")
        for r in range(k + 1, n):
            f = work[r][k] / work[k][k]
            work[r] = [a - f * b for a, b in zip(work[r], work[k])]


def _matmul(a, b):
    """The product of two square integer matrices, as a tuple of rows."""
    columns = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


class WeylElement:
    """One Weyl group element with its canonical reduced word.

    ``matrix`` acts on weight coordinates: (w @ lam)_i = sum_j matrix[i][j] lam_j.
    Elements are equal when their words and matrices are.
    """

    __slots__ = ("canonical_word", "matrix")

    def __init__(self, canonical_word, matrix):
        self.canonical_word = canonical_word
        self.matrix = matrix

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.canonical_word, self.matrix) == (other.canonical_word, other.matrix)

    def __hash__(self):
        return hash((self.canonical_word, self.matrix))

    @property
    def length(self):
        return len(self.canonical_word)

    def apply(self, lam):
        return tuple(
            sum(row[j] * lam[j] for j in range(len(lam))) for row in self.matrix
        )

    def __str__(self):
        return "".join(str(i) for i in self.canonical_word) or "e"


class RootDatum:
    """Simply connected root datum of finite type."""

    def __init__(self, cartan, label=None):
        cartan = _integer_matrix(cartan)
        _validate_cartan(cartan)
        self.cartan = cartan
        self.rank = len(cartan)
        self.label = label
        # alpha_j in weight coordinates is the j-th column of the Cartan matrix
        self.simple_roots = tuple(
            tuple(cartan[i][j] for i in range(self.rank)) for j in range(self.rank)
        )
        self._reflection_matrices = tuple(
            self._simple_reflection_matrix(i) for i in range(self.rank)
        )
        self._elements = None
        self._by_matrix = None
        self._reduced_words = {}
        self._roots = self._coordinates = None

    @staticmethod
    def build(name):
        """Build from a named type like "B3"."""
        kind, rank = name[0], int(name[1:])
        return RootDatum(cartan_matrix(kind, rank), label=f"{kind.upper()}{rank}")

    @staticmethod
    def from_cartan(cartan, label=None):
        return RootDatum(cartan, label=label)

    def _simple_reflection_matrix(self, i):
        n = self.rank
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        # s_i(lam) = lam - lam_i * alpha_i
        for k in range(n):
            m[k][i] -= self.cartan[k][i]
        return tuple(tuple(row) for row in m)

    def reflect(self, i, lam):
        """s_{alpha_i}(lam) = lam - <alpha_i^vee, lam> alpha_i."""
        c = lam[i]
        return tuple(lam[k] - c * self.cartan[k][i] for k in range(self.rank))

    def fundamental_weight(self, i):
        return tuple(int(k == i) for k in range(self.rank))

    # -- Weyl group ---------------------------------------------------------

    def _generate(self):
        if self._elements is not None:
            return
        n = self.rank
        identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        seen = {identity: ()}
        frontier = [identity]
        elements = [WeylElement((), identity)]
        while frontier:
            nxt = []
            # Prepending ascending generator indices to lex-sorted shorter
            # words yields the lex-smallest reduced word per element.
            frontier.sort(key=lambda m: seen[m])
            for i in range(n):
                # s_i m = m - C[:, i] m[i]: only the rows r with C[r][i] != 0 change
                column = [(r, self.cartan[r][i]) for r in range(n) if self.cartan[r][i]]
                for m in frontier:
                    new = list(m)
                    for r, c in column:
                        new[r] = tuple(a - c * b for a, b in zip(m[r], m[i]))
                    new = tuple(new)
                    if new not in seen:
                        word = (i + 1,) + seen[m]
                        seen[new] = word
                        elements.append(WeylElement(word, new))
                        nxt.append(new)
            frontier = nxt
        elements.sort(key=lambda w: (w.length, w.canonical_word))
        self._elements = tuple(elements)
        self._by_matrix = {w.matrix: w for w in elements}

    def weyl_elements(self):
        """All of W, sorted by (length, canonical word)."""
        self._generate()
        return self._elements

    @property
    def order(self):
        """|W| from the roots alone, without enumerating W.

        |W| = prod over the positive roots alpha of (ht alpha + 1) / ht alpha,
        with ht alpha the sum of alpha's coordinates in the simple roots: by
        Kostant's theorem the heights determine the exponents m_i, and
        |W| = prod (m_i + 1).
        """
        order = Fraction(1)
        for root, _ in self.all_roots():
            height = sum(self._coordinates[root])
            if height > 0:
                order *= Fraction(height + 1, height)
        assert order.denominator == 1, "root heights must give an integral |W|"
        return int(order)

    def longest_element(self):
        return self.weyl_elements()[-1]

    @property
    def N(self):
        """Number of positive roots = length of the longest element."""
        return len(self.all_roots()) // 2

    def element_of_matrix(self, matrix):
        self._generate()
        return self._by_matrix[matrix]

    def element_of_word(self, word):
        """The Weyl element equal to the (not necessarily reduced) word."""
        n = self.rank
        m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        for i in word:
            m = _matmul(m, self._reflection_matrices[i - 1])
        return self.element_of_matrix(m)

    def multiply(self, w1, w2):
        return self.element_of_matrix(_matmul(w1.matrix, w2.matrix))

    def inverse(self, w):
        return self.element_of_word(tuple(reversed(w.canonical_word)))

    def simple_reflection(self, i):
        return self.element_of_matrix(self._reflection_matrices[i - 1])

    def reduced_words(self, w):
        """All reduced words of ``w``, lexicographically sorted."""
        self._generate()
        key = w.matrix
        cached = self._reduced_words.get(key)
        if cached is not None:
            return cached
        if w.length == 0:
            result = ((),)
        else:
            words = []
            for i in range(1, self.rank + 1):
                shorter = self.multiply(self.simple_reflection(i), w)
                if shorter.length == w.length - 1:
                    words.extend((i,) + rest for rest in self.reduced_words(shorter))
            result = tuple(sorted(words))
        self._reduced_words[key] = result
        return result

    # -- roots ---------------------------------------------------------------

    def all_roots(self):
        """All roots as (root in weight coords, coroot pairing row) pairs.

        The pairing row ``cv`` represents beta^vee: beta^vee(lam) = cv . lam.
        Each root's coordinates in the simple roots are tracked as it is
        reflected: s_i(beta) = beta - beta_i alpha_i, with beta_i its i-th
        weight coordinate, lowers the i-th simple-root coordinate by beta_i.
        """
        if self._roots is not None:
            return self._roots
        n = self.rank
        found = {}
        coordinates = {}
        frontier = []
        for i in range(n):
            root = self.simple_roots[i]
            found[root] = coordinates[root] = tuple(int(k == i) for k in range(n))
            frontier.append(root)
        while frontier:
            nxt = []
            for root in frontier:
                cv, co = found[root], coordinates[root]
                for i in range(n):
                    new_root = self.reflect(i, root)
                    if new_root in found:
                        continue
                    # beta' = s_i(beta) has beta'^vee = beta^vee o s_i
                    s = self._reflection_matrices[i]
                    new_cv = tuple(
                        sum(cv[k] * s[k][c] for k in range(n)) for c in range(n)
                    )
                    found[new_root] = new_cv
                    coordinates[new_root] = co[:i] + (co[i] - root[i],) + co[i + 1:]
                    nxt.append(new_root)
            frontier = nxt
        self._roots = tuple(sorted(found.items()))
        self._coordinates = coordinates
        return self._roots

    def positive_roots(self):
        """Positive roots in weight coordinates: the nonnegative combinations of simple roots."""
        roots = self.all_roots()
        out = tuple(root for root, _ in roots if min(self._coordinates[root]) >= 0)
        assert 2 * len(out) == len(roots)
        return out

    def __repr__(self):
        return f"RootDatum({self.label or self.cartan})"
