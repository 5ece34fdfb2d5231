"""The Weyl group of a symmetric generalized Cartan matrix.

Simple reflections act on the root lattice Z^n by
sigma_i(e_j) = e_j - a_ij e_i.  Words follow the convention that the
first letter acts first, matching the reading order of admissible
sequences.  All matrix entries are Python ints, so nothing overflows for
infinite types.

Walking a word keeps a product P as a list of columns and steps by
P -> P sigma_x (``_right_reflect``): column j of P sigma_x is
column j - a_xj column x, so one letter updates only column x and the
columns of its neighbours, O(n deg x) integer operations.  Reducedness,
Coxeter powers, finiteness of W, word evaluation and the descent peels
are all such walks; full matrix products serve only
``WeylElement.__mul__`` and ``preserves_form``.

``WeylElement.inverse`` hands the integer matrix straight to
``linalg.invert``.  An element of W has determinant +-1, so its inverse
is an integer matrix, which the fraction-free elimination finds without
building a Fraction; a singular matrix, or one whose inverse has a
non-integral entry, is not in W and raises AdmseqError.  Letters and
matrix entries are read with ``operator.index``, so a float or a
Fraction raises AdmseqError instead of being truncated.
"""

from __future__ import annotations

from . import linalg
from .errors import AdmseqError, NotCompleteError, NotPrincipalError, _int, _int_tuple
from .graphs import _cartan_rows
from .sequences import is_principal


def _int_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _right_reflect(cartan, cols, x):
    """Turn the columns of P into those of P sigma_x, in place: column j
    loses a_xj times column x, and column x changes sign."""
    i = x - 1
    cx = cols[i]
    for j, f in enumerate(cartan[i]):
        if f and j != i:
            cols[j] = [p - f * q for p, q in zip(cols[j], cx)]
    cols[i] = [-q for q in cx]


class WeylElement:
    """An element of the Weyl group as an integer matrix on Z^n."""

    __slots__ = ("cartan", "matrix")

    def __init__(self, cartan, matrix):
        self.cartan = _cartan_rows(cartan)
        self.matrix = tuple(_int_tuple(row, "Weyl element entries") for row in matrix)
        n = len(self.cartan)
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise AdmseqError(f"Weyl element matrix must be {n} x {n}")

    @classmethod
    def _trusted(cls, cartan, matrix):
        """The checked Cartan rows and n x n integer rows, unvalidated."""
        w = object.__new__(cls)
        w.cartan, w.matrix = cartan, matrix
        return w

    @classmethod
    def identity(cls, cartan):
        cartan = _cartan_rows(cartan)
        return cls._trusted(cartan, tuple(map(tuple, _int_identity(len(cartan)))))

    def apply(self, v):
        if len(v) != len(self.matrix):
            raise AdmseqError("vector length does not match rank")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.matrix)

    def __mul__(self, other):
        if self.cartan != other.cartan:
            raise AdmseqError("elements of different Weyl groups")
        return WeylElement._trusted(self.cartan, _int_matmul(self.matrix, other.matrix))

    def inverse(self):
        """The inverse matrix; raises AdmseqError when the matrix is
        singular or its inverse is not integral, so not in W."""
        inv = linalg.invert(self.matrix, len(self.matrix))
        if any(type(x) is not int for row in inv for x in row):
            raise AdmseqError("inverse is not an integer matrix: element is not in the Weyl group")
        return WeylElement._trusted(self.cartan, tuple(map(tuple, inv)))

    def is_identity(self):
        return list(map(list, self.matrix)) == _int_identity(len(self.matrix))

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
        self.cartan = _cartan_rows(cartan)
        self.letters = _int_tuple(letters, "word letters")
        n = len(self.cartan)
        if any(not 1 <= x <= n for x in self.letters):
            raise AdmseqError("word letter out of range")

    @classmethod
    def _trusted(cls, cartan, letters):
        """The checked Cartan rows and a tuple of letters 1..n, unvalidated."""
        w = object.__new__(cls)
        w.cartan, w.letters = cartan, letters
        return w

    def __len__(self):
        return len(self.letters)

    def evaluate(self):
        cols = _int_identity(len(self.cartan))
        for x in reversed(self.letters):
            _right_reflect(self.cartan, cols, x)
        return WeylElement._trusted(self.cartan, tuple(zip(*cols)))

    def __repr__(self):
        return f"WeylWord({','.join(map(str, self.letters))})"


def simple_reflection(cartan, i):
    return WeylWord(cartan, (i,)).evaluate()


def word_of(seq):
    """The Weyl word of an admissible sequence (letters copied as is)."""
    return WeylWord._trusted(seq.quiver.graph.cartan(), seq.letters)


def _peel(w, scan):
    """Peel right descents off w in passes over the letters of scan.

    v is a right descent of w when w sends the simple root e_v to a
    negative root, that is when column v of w has a negative entry.
    Each peel w -> w sigma_v drops the length by one; returns one block
    of peeled letters per pass, and stops as soon as w is the identity.
    """
    cartan = w.cartan
    cols = [list(c) for c in zip(*w.matrix)]
    ident = _int_identity(len(cols))
    blocks = []
    while cols != ident:
        block = []
        for v in scan:
            if any(c < 0 for c in cols[v - 1]):
                _right_reflect(cartan, cols, v)
                block.append(v)
                if cols == ident:
                    break
        if not block:
            raise AdmseqError("stuck peel: element is not in the Weyl group span")
        blocks.append(block)
    return blocks


def _first_non_reduced(cartan, letters, cap=None):
    """1-based position of the first letter x_k whose root
    sigma_{x_1} ... sigma_{x_{k-1}}(e_{x_k}) has a negative entry, or
    None when every such root is positive.  The prefix product is kept
    by columns, so the root is column x_k and one letter costs one
    column update.  Given a cap, the walk also ends with None at the
    first root with an entry above it (see ``weyl_is_finite``)."""
    cols = _int_identity(len(cartan))
    for k, x in enumerate(letters, start=1):
        root = cols[x - 1]
        if min(root) < 0:
            return k
        if cap is not None and max(root) > cap:
            return None
        _right_reflect(cartan, cols, x)
    return None


def is_reduced(word):
    """Incremental reducedness test.

    Appending a letter x to a word with element u increases length
    exactly when x is not a right descent of u^{-1}, that is when
    u^{-1}(e_x) = sigma_{x_1} ... sigma_{x_{k-1}}(e_x) is a positive
    root.  u^{-1} is kept as a list of columns and updated by one
    column step per letter, so no matrix product or group table is
    needed.
    """
    return _first_non_reduced(word.cartan, word.letters) is None


def length_of_word(word):
    """Length of the element the word evaluates to: the number of right
    descents peeled off before reaching the identity."""
    blocks = _peel(word.evaluate(), range(1, len(word.cartan) + 1))
    return sum(len(b) for b in blocks)


def principal_root(seq):
    """The root sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s}) of a principal
    sequence, or None as soon as an entry turns negative (the word is
    then not reduced).  For a reduced principal sequence this root is
    dim M(S) (Bernstein-Gelfand-Ponomarev).  Raises NotPrincipalError
    for a sequence that is not principal.
    """
    if is_principal(seq) is None:
        raise NotPrincipalError("criterion applies to principal sequences only")
    cartan = seq.quiver.graph.cartan()
    letters = seq.letters
    v = [int(j == letters[-1] - 1) for j in range(len(cartan))]
    for x in reversed(letters[:-1]):
        # sigma_x(v) = v - <row x of A, v> e_x changes entry x only, and
        # every other entry is already known to be non-negative
        i = x - 1
        v[i] -= sum(a * c for a, c in zip(cartan[i], v))
        if v[i] < 0:
            return None
    return tuple(v)


def principal_reduced_criterion(seq):
    """Positivity test for principal sequences: all partial right
    products applied to the last simple root stay positive.

    Agrees with is_reduced(word_of(seq)) on principal sequences.
    """
    return principal_root(seq) is not None


def coxeter_element(seq):
    """The Coxeter word of a complete admissible sequence."""
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    return word_of(seq)


def weyl_is_finite(graph):
    """Whether the Weyl group is finite, by the Coxeter-power theorem: W
    is infinite exactly when every power of a Coxeter element c is
    reduced.  A finite W has Coxeter number h <= max(2n - 2, 30) and a
    longest element of length nh/2, so c^m is not reduced once m > h/2;
    one walk over c^m, c = 1, 2, ..., n and m = max(n, 15) + 1, looks
    for its first non-reduced letter.  The roots of a finite simply
    laced type have entries at most 6 (the highest root of E8), so a
    larger entry proves W infinite and ends the walk early."""
    n = graph.n
    letters = tuple(range(1, n + 1)) * (max(n, 15) + 1)
    return _first_non_reduced(graph.cartan(), letters, cap=6) is not None


def coxeter_powers_reduced(seq, m_max):
    """For each power c^m, m = 1..m_max, of the Coxeter word of a
    complete sequence, report (m, reduced?, word length m * n).

    One column-update pass over the letters of c^{m_max} finds the first
    letter that breaks reducedness.  A word with a non-reduced prefix is
    not reduced, so c^m is reduced exactly when that letter lies beyond
    its m n letters: the cost is O(m_max n) letters, not O(m_max^2 n).
    """
    m_max = _int(m_max, "power bound")
    if m_max < 1:
        raise AdmseqError(f"power bound must be at least 1, got {m_max}")
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    n = len(seq.letters)
    bad = _first_non_reduced(seq.quiver.graph.cartan(), seq.letters * m_max)
    return [(m, bad is None or bad > m * n, m * n) for m in range(1, m_max + 1)]


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
    return c_sorting_word(c_word, target).is_sortable()
