"""The Weyl group of a symmetric generalized Cartan matrix.

Simple reflections act on the root lattice Z^n by
sigma_i(e_j) = e_j - a_ij e_i.  Words follow the convention that the
first letter acts first, matching the reading order of admissible
sequences.  All matrix entries are Python ints, so nothing overflows for
infinite types.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import AdmseqError, NotCompleteError, NotPrincipalError


def _int_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _int_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def _int_matvec(a, v):
    n = len(a)
    return tuple(sum(a[i][t] * v[t] for t in range(n)) for i in range(n))


def simple_reflection_matrix(cartan, i):
    """Matrix of sigma_i: identity except row i - 1, which is
    delta_ij - a_ij."""
    n = len(cartan)
    return tuple(
        tuple(
            int(r == j) - cartan[i - 1][j] if r == i - 1 else int(r == j)
            for j in range(n)
        )
        for r in range(n)
    )


class WeylElement:
    """An element of the Weyl group as an integer matrix on Z^n."""

    __slots__ = ("cartan", "matrix")

    def __init__(self, cartan, matrix):
        self.cartan = tuple(tuple(row) for row in cartan)
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def identity(cls, cartan):
        return cls(cartan, _int_identity(len(cartan)))

    def apply(self, v):
        if len(v) != len(self.matrix):
            raise AdmseqError("vector length does not match rank")
        return _int_matvec(self.matrix, tuple(v))

    def __mul__(self, other):
        if self.cartan != other.cartan:
            raise AdmseqError("elements of different Weyl groups")
        return WeylElement(self.cartan, _int_matmul(self.matrix, other.matrix))

    def inverse(self):
        n = len(self.matrix)
        frac = linalg.invert([list(map(Fraction, row)) for row in self.matrix], n)
        inv = tuple(tuple(int(x) for x in row) for row in frac)
        return WeylElement(self.cartan, inv)

    def is_identity(self):
        return self.matrix == _int_identity(len(self.matrix))

    def preserves_form(self):
        """Whether m^T A m = A, A the Cartan matrix."""
        mt = tuple(zip(*self.matrix))
        return _int_matmul(_int_matmul(mt, self.cartan), self.matrix) == self.cartan

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.cartan == other.cartan
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.cartan, self.matrix))

    def __repr__(self):
        return f"WeylElement({self.matrix})"


class WeylWord:
    """A generator word x_1,...,x_s denoting sigma_{x_s} ... sigma_{x_1}
    (the first letter acts first)."""

    __slots__ = ("cartan", "letters")

    def __init__(self, cartan, letters):
        self.cartan = tuple(tuple(row) for row in cartan)
        self.letters = tuple(int(x) for x in letters)
        n = len(self.cartan)
        if any(not 1 <= x <= n for x in self.letters):
            raise AdmseqError("word letter out of range")

    def __len__(self):
        return len(self.letters)

    def evaluate(self):
        m = _int_identity(len(self.cartan))
        for x in self.letters:
            m = _int_matmul(simple_reflection_matrix(self.cartan, x), m)
        return WeylElement(self.cartan, m)

    def __repr__(self):
        return f"WeylWord({','.join(map(str, self.letters))})"


def simple_reflection(cartan, i):
    return WeylElement(cartan, simple_reflection_matrix(cartan, i))


def word_of(seq):
    """The Weyl word of an admissible sequence (letters copied as is)."""
    return WeylWord(seq.quiver.graph.cartan(), seq.letters)


def _has_right_descent(matrix, v):
    """Whether l(w sigma_v) < l(w), w the element with this matrix: w
    sends the simple root e_v to a negative root."""
    return any(row[v - 1] < 0 for row in matrix)


def _peel(w, scan):
    """Peel right descents off w in passes over the letters of scan.

    Each peel w -> w sigma_v drops the length by one; returns one block
    of peeled letters per pass, and stops as soon as w is the identity.
    """
    blocks = []
    while not w.is_identity():
        block = []
        for v in scan:
            if _has_right_descent(w.matrix, v):
                w = w * simple_reflection(w.cartan, v)
                block.append(v)
                if w.is_identity():
                    break
        if not block:
            raise AdmseqError("stuck peel: element is not in the Weyl group span")
        blocks.append(block)
    return blocks


def is_reduced(word):
    """Incremental reducedness test.

    Appending a letter x to a word with element u increases length
    exactly when x is not a right descent of u^{-1}; the inverse is
    tracked as a running product, so no group tables are needed.
    """
    n = len(word.cartan)
    inv = _int_identity(n)
    for x in word.letters:
        if _has_right_descent(inv, x):
            return False
        inv = _int_matmul(inv, simple_reflection_matrix(word.cartan, x))
    return True


def length_of_word(word):
    """Length of the element the word evaluates to: the number of right
    descents peeled off before reaching the identity."""
    blocks = _peel(word.evaluate(), range(1, len(word.cartan) + 1))
    return sum(len(b) for b in blocks)


def principal_reduced_criterion(seq):
    """Positivity test for principal sequences: all partial right
    products applied to the last simple root stay positive.

    Agrees with is_reduced(word_of(seq)) on principal sequences.
    """
    from .sequences import is_principal

    if is_principal(seq) is None:
        raise NotPrincipalError("criterion applies to principal sequences only")
    cartan = seq.quiver.graph.cartan()
    letters = seq.letters
    s = len(letters)
    n = len(cartan)
    v = tuple(int(j == letters[-1] - 1) for j in range(n))
    for i in range(s - 2, -1, -1):
        v = _int_matvec(simple_reflection_matrix(cartan, letters[i]), v)
        if any(c < 0 for c in v):
            return False
    return True


def coxeter_element(seq):
    """The Coxeter word of a complete admissible sequence."""
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    return word_of(seq)


def weyl_is_finite(graph):
    """ADE recognizer: the Weyl group is finite exactly for simply laced
    Dynkin diagrams A_n, D_n, E6, E7, E8."""
    n = graph.n
    if any(graph.edge_mult(u, v) > 1 for u, v in set(graph.edges)):
        return False
    if len(graph.edges) != n - 1:
        return False  # connected with n-1 edges means tree; more means a cycle
    deg = {v: len([e for e in graph.edges if v in e]) for v in range(1, n + 1)}
    if any(d > 3 for d in deg.values()):
        return False
    branch = [v for v, d in deg.items() if d == 3]
    if not branch:
        return True  # path: type A
    if len(branch) > 1:
        return False
    b = branch[0]
    arms = []
    for start in graph.neighbors(b):
        length = 1
        prev, cur = b, start
        while deg[cur] == 2:
            nxt = (graph.neighbors(cur) - {prev}).pop()
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    a, c, d = arms
    if a == 1 and c == 1:
        return True  # type D
    return (a, c, d) in {(1, 2, 2), (1, 2, 3), (1, 2, 4)}  # E6, E7, E8


def coxeter_powers_reduced(seq, m_max):
    """For each power of the Coxeter word of a complete sequence, report
    (m, reduced?, word length m * n)."""
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    cartan = seq.quiver.graph.cartan()
    out = []
    for m in range(1, m_max + 1):
        word = WeylWord(cartan, seq.letters * m)
        out.append((m, is_reduced(word), len(word)))
    return out


class SortingWord:
    """The c-sorting word of an element: letters in scan order through
    the repeated Coxeter word, grouped into divider blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(tuple(b) for b in blocks)

    @property
    def letters(self):
        return tuple(x for b in self.blocks for x in b)

    def block_sets(self):
        return [frozenset(b) for b in self.blocks]

    def is_sortable(self):
        sets = self.block_sets()
        return all(b <= a for a, b in zip(sets, sets[1:]))

    def render(self):
        return " | ".join(",".join(map(str, b)) for b in self.blocks)

    def __repr__(self):
        return f"SortingWord({self.render()})"


def c_sorting_word(c_word, target):
    """Greedy left-descent peel realizing the lexicographically first
    reduced subsequence of the repeated Coxeter word.

    Scans the Coxeter word letters cyclically in acting order (last
    letter of the word first); a letter v is taken whenever sigma_v
    shortens the current remainder.  Left descents of the target are the
    right descents of its inverse, so the inverse is peeled.
    """
    if c_word.cartan != target.cartan:
        raise AdmseqError("word and element over different Cartan matrices")
    return SortingWord(_peel(target.inverse(), list(reversed(c_word.letters))))


def is_c_sortable(c_word, target):
    """Whether the divider blocks of the c-sorting word are weakly
    decreasing under inclusion."""
    if target.is_identity():
        return True
    return c_sorting_word(c_word, target).is_sortable()
