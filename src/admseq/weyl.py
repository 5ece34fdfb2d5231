"""The Weyl group of a symmetric generalized Cartan matrix.

Simple reflections act on the root lattice Z^n by
sigma_i(e_j) = e_j - a_ij e_i.  Words follow the convention that the
first letter acts first, matching the reading order of admissible
sequences.  All matrix entries are Python ints, so nothing overflows for
infinite types.  Words and elements keep the Cartan matrix as the sparse
rows of ``graphs._cartan_rows``, one tuple per Weyl group, read from a
Graph or checked once from a matrix.

Reducedness, word length, Coxeter powers, finiteness of W and the
c-sorting word walk on heights.  A real root is positive or negative
(Kac, Infinite-dimensional Lie algebras, 1.3 and 5.1), so the sign of
its height, the sum of its entries, decides it.  For the product
P = sigma_{x_1} ... sigma_{x_{k-1}}, u = P^T (1, ..., 1) holds the
height of each root P(e_j); column j of P sigma_x is column j - a_xj
column x, so every walk steps by one rule, u_j -= a_xj u_x
(``_heights``), at O(deg x) integer operations a letter.  Walking the
letters L from any covector b gives (sigma_{L_1} ... sigma_{L_k})^T b,
so word evaluation is the same walk: row i of the value of a word is
the walk of e_i through its letters in reverse.  The dense Cartan matrix
and full matrix products serve only ``cartan``, ``WeylElement.__mul__``
and ``preserves_form``.

``WeylElement.inverse`` hands the integer matrix straight to
``linalg.invert``.  An element of W has determinant +-1, so its inverse
is an integer matrix, which the fraction-free elimination finds without
building a Fraction; a singular matrix, or one whose inverse has a
non-integral entry, is not in W and raises AdmseqError.  No library
function inverts: the c-sorting word reads the heights of w^-1 off a
walk of a word for w, the target word or a descent walk of an element.
Letters and matrix entries are read with ``operator.index``, so a float
or a Fraction raises AdmseqError instead of being truncated.
"""

from __future__ import annotations

from . import linalg
from .errors import AdmseqError, NotCompleteError, NotPrincipalError, _int, _int_tuple, _ordered
from .graphs import _cartan_rows, _matrix_of, graph_from_cartan
from .sequences import is_principal


def _int_matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


class WeylElement:
    """An element of the Weyl group of a Cartan matrix or a Graph, as an integer matrix on Z^n."""

    __slots__ = ("_rows", "matrix")

    def __init__(self, cartan, matrix):
        self._rows = _cartan_rows(cartan)
        n = len(self._rows)
        shape = f"Weyl element matrix must be {n} x {n}"
        self.matrix = tuple(_int_tuple(row, "Weyl element entries") for row in _ordered(matrix, shape))
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise AdmseqError(shape)

    @classmethod
    def _trusted(cls, rows, matrix):
        """The Cartan rows of ``_cartan_rows`` and n x n integer rows, unvalidated."""
        w = object.__new__(cls)
        w._rows, w.matrix = rows, matrix
        return w

    @property
    def cartan(self):
        """The Cartan matrix, built from the rows."""
        return _matrix_of(self._rows)

    @classmethod
    def identity(cls, cartan):
        return WeylWord._trusted(_cartan_rows(cartan), ()).evaluate()

    def apply(self, v):
        v = _int_tuple(v, "vector entries")
        if len(v) != len(self.matrix):
            raise AdmseqError("vector length does not match rank")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.matrix)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            raise AdmseqError(f"a factor must be a WeylElement, not {type(other).__name__}")
        if self._rows != other._rows:
            raise AdmseqError("elements of different Weyl groups")
        return WeylElement._trusted(self._rows, _int_matmul(self.matrix, other.matrix))

    def inverse(self):
        """The inverse matrix; raises AdmseqError when the matrix is
        singular or its inverse is not integral, so not in W."""
        inv = linalg.invert(self.matrix, len(self.matrix))
        if any(type(x) is not int for row in inv for x in row):
            raise AdmseqError("inverse is not an integer matrix: element is not in the Weyl group")
        return WeylElement._trusted(self._rows, tuple(map(tuple, inv)))

    def is_identity(self):
        return all(x == (i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row))

    def preserves_form(self):
        """Whether m^T A m = A, A the Cartan matrix."""
        mt, cartan = tuple(zip(*self.matrix)), self.cartan
        return _int_matmul(_int_matmul(mt, cartan), self.matrix) == cartan

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self._rows == other._rows
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self._rows, self.matrix))

    def __repr__(self):
        return f"WeylElement({self.matrix})"


class WeylWord:
    """A generator word x_1,...,x_s denoting sigma_{x_s} ... sigma_{x_1}
    (the first letter acts first), over a Cartan matrix or a Graph's."""

    __slots__ = ("_rows", "letters")

    def __init__(self, cartan, letters):
        self._rows = _cartan_rows(cartan)
        self.letters = _int_tuple(letters, "word letters")
        n = len(self._rows)
        if any(not 1 <= x <= n for x in self.letters):
            raise AdmseqError("word letter out of range")

    @classmethod
    def _trusted(cls, rows, letters):
        """The Cartan rows of ``_cartan_rows`` and a tuple of letters 1..n, unvalidated."""
        w = object.__new__(cls)
        w._rows, w.letters = rows, letters
        return w

    cartan = WeylElement.cartan

    def __len__(self):
        return len(self.letters)

    def evaluate(self):
        """The matrix sigma_{x_s} ... sigma_{x_1}: row i is the walk of
        e_i through the letters in reverse."""
        rows, n, back = self._rows, len(self._rows), self.letters[::-1]
        return WeylElement._trusted(rows, tuple(
            tuple(_walk(rows, [int(i == j) for j in range(n)], back)) for i in range(n)))

    def __repr__(self):
        return f"WeylWord({','.join(map(str, self.letters))})"


def simple_reflection(cartan, i):
    return WeylWord(cartan, (i,)).evaluate()


def word_of(seq):
    """The Weyl word of an admissible sequence (letters copied as is)."""
    return WeylWord._trusted(seq.quiver.graph._rows(), seq.letters)


def _heights(rows, u, letters):
    """Yield, for each letter x_k, the height u_x of the real root
    P(e_x), P = sigma_{x_1} ... sigma_{x_{k-1}}, then step u in place to
    the heights of P sigma_x."""
    for x in letters:
        i = x - 1
        h = u[i]
        yield h
        for j, a in rows[i]:
            u[j] -= a * h


def _walk(rows, u, letters):
    """Step u in place through the letters, as ``_heights`` does; returns u."""
    for _ in _heights(rows, u, letters):
        pass
    return u


def _first_non_reduced(rows, letters, cap=None):
    """1-based position of the first letter x_k whose root
    sigma_{x_1} ... sigma_{x_{k-1}}(e_{x_k}) is negative, or None.
    Given a cap, the walk also ends with None at the first root of
    height above it (see ``weyl_is_finite``).  The walk is ``_heights``
    written out, which spares a generator step per letter."""
    u = [1] * len(rows)
    for k, x in enumerate(letters, start=1):
        i = x - 1
        h = u[i]
        if h < 0:
            return k
        if cap is not None and h > cap:
            return None
        for j, a in rows[i]:
            u[j] -= a * h
    return None


def is_reduced(word):
    """Incremental reducedness test: appending x to a word with element
    u adds one to the length exactly when the real root
    u^{-1}(e_x) = sigma_{x_1} ... sigma_{x_{k-1}}(e_x) is positive, that
    is when its height is.  No matrix is built."""
    return _first_non_reduced(word._rows, word.letters) is None


def length_of_word(word):
    """Length of the element the word evaluates to, which is that of its
    inverse P = sigma_{x_1} ... sigma_{x_s}: l(P sigma_x) = l(P) + 1 when
    the root P(e_x) is positive and l(P) - 1 when it is negative."""
    rows = word._rows
    return sum(1 if h > 0 else -1 for h in _heights(rows, [1] * len(rows), word.letters))


def principal_root(seq):
    """The root sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s}) of a principal
    sequence, or None as soon as an entry turns negative (the word is
    then not reduced).  For a reduced principal sequence this root is
    dim M(S) (Bernstein-Gelfand-Ponomarev).  Raises NotPrincipalError
    for a sequence that is not principal.
    """
    if is_principal(seq) is None:
        raise NotPrincipalError("criterion applies to principal sequences only")
    rows, letters = seq.quiver.graph._rows(), seq.letters
    v = [int(j == letters[-1] - 1) for j in range(len(rows))]
    for x in reversed(letters[:-1]):
        # sigma_x(v) = v - <row x of A, v> e_x changes entry x only, and
        # every other entry is already known to be non-negative
        i = x - 1
        v[i] -= sum(a * v[j] for j, a in rows[i])
        if v[i] < 0:
            return None
    return tuple(v)


def principal_reduced_criterion(seq):
    """Positivity test for principal sequences: all partial right products
    applied to the last simple root stay positive, exactly when
    is_reduced(word_of(seq))."""
    return principal_root(seq) is not None


def coxeter_element(seq):
    """The Coxeter word of a complete admissible sequence."""
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    return word_of(seq)


def weyl_is_finite(cartan):
    """Whether the Weyl group of a Cartan matrix or Graph, read by
    ``graph_from_cartan`` (so indecomposable), is finite: W is infinite
    exactly when every power of a Coxeter element c is reduced.  A finite W
    has Coxeter number h <= max(2n - 2, 30) and a longest element of length
    nh/2, so c^m is not reduced once m > h/2; one height walk over c^m, its
    letters generated one at a time, c = 1, ..., n and m = max(n, 15) + 1,
    looks for its first non-reduced letter.  It ends early at a root of height
    above max(2n - 3, 29) >= h - 1, that of the highest root: W is infinite."""
    graph = graph_from_cartan(cartan)
    n = graph.n
    letters = (x for _ in range(max(n, 15) + 1) for x in range(1, n + 1))
    return _first_non_reduced(graph._rows(), letters, cap=max(2 * n - 3, 29)) is not None


def coxeter_powers_reduced(seq, m_max):
    """For each power c^m, m = 1..m_max, of the Coxeter word of a
    complete sequence, report (m, reduced?, word length m * n).

    One height walk over the letters of c^{m_max} finds the first letter
    that breaks reducedness.  A word with a non-reduced prefix is
    not reduced, so c^m is reduced exactly when that letter lies beyond
    its m n letters: the cost is O(m_max n) letters, not O(m_max^2 n).
    """
    m_max = _int(m_max, "power bound")
    if m_max < 1:
        raise AdmseqError(f"power bound must be at least 1, got {m_max}")
    if not seq.is_complete():
        raise NotCompleteError("sequence is not complete")
    n = len(seq.letters)
    bad = _first_non_reduced(seq.quiver.graph._rows(), seq.letters * m_max)
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


_STUCK = "stuck peel: element is not in the Weyl group span"


def _det(m):
    """Determinant of the integer rows m by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): every division is exact."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p], sign = a[p], a[k], -sign
        rk, p = a[k], a[k][k]
        for ri in a[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    return sign * a[-1][-1]


def _fire_descents(rows, u, scan):
    """Fire right descents in passes over the letters of scan: with u the
    heights of the columns of P, a letter v with u_v < 0 (the root P(e_v)
    is negative) steps u to the heights of P sigma_v.  Returns one block
    of fired letters per pass, and stops at the first pass that fires
    nothing."""
    blocks = []
    while True:
        block = []
        for v in scan:
            i = v - 1
            h = u[i]
            if h < 0:
                for j, a in rows[i]:
                    u[j] -= a * h
                block.append(v)
        if not block:
            return blocks
        blocks.append(block)


def _peel(target):
    """Letters r_1, ..., r_k of a word whose value is the WeylElement
    target w, or AdmseqError.

    - The gate: w has determinant +-1 and every column the norm
      c^T A c = 2 of a real root, as in W; a singular matrix, or one with
      no integral inverse, raises the error ``WeylElement.inverse``
      raises.  Outside W the walk may run for ever; the gate stops many
      such matrices, but not -I.
    - The walk fires right descents of w, from the heights of its
      columns, in passes over 1..n, and ends at the heights of
      w sigma_{r_1} ... sigma_{r_k}.
    - The check that Q = sigma_{r_k} ... sigma_{r_1}, in W, is w: the
      final heights must all be 1, so Q^T 1 = w^T 1, and each |Q_ij| is
      at most H, the largest absolute height of w, as a real root's
      entries share the sign of its height.  The walk of the letters in
      reverse from b = (1, B, ..., B^(n-1)), B = 2^s above H + max |w_ij|,
      gives Q^T b and must give w^T b, w's columns packed: then every
      |Q_ij - w_ij| < B, so Q = w.  Else w is not in W ("stuck peel").
    """
    m, rows, n = target.matrix, target._rows, len(target.matrix)
    det = _det(m)
    if not det:
        raise AdmseqError("matrix is singular")
    if det * det != 1:
        raise AdmseqError("inverse is not an integer matrix: element is not in the Weyl group")
    cols = list(zip(*m))
    for c in cols:  # c^T A c, from the rows at the nonzero entries of c
        if sum(x * a * c[j] for x, row in zip(c, rows) if x for j, a in row) != 2:
            raise AdmseqError(_STUCK)
    u = [sum(c) for c in cols]  # the heights of w
    s = (max(map(abs, u)) + max(abs(x) for row in m for x in row)).bit_length()
    letters = [x for block in _fire_descents(rows, u, range(1, n + 1)) for x in block]
    if u != [1] * n or (_walk(rows, [1 << s * i for i in range(n)], letters[::-1])
                        != [sum(x << s * i for i, x in enumerate(c)) for c in cols]):
        raise AdmseqError(_STUCK)
    return letters


def c_sorting_word(c_word, target):
    """Greedy left-descent peel realizing the lexicographically first
    reduced subsequence of the repeated Coxeter word (Reading, Trans.
    AMS 359, 2007).

    Scans the Coxeter word letters cyclically in acting order (last
    letter of the word first); a letter v is taken whenever sigma_v
    shortens the current remainder.  Left descents of the target w are
    the right descents of w^-1, so the sort fires right descents on the
    heights of the columns of w^-1, found without inverting w:

    - the Coxeter word must hold each vertex 1..n exactly once, or
      AdmseqError names it;
    - the target is a WeylWord, or a WeylElement that ``_peel`` gates,
      peels into a word and checks: a word x_1, ..., x_s whose value w
      is in W.  Walking its letters from the heights 1 of the identity
      gives those of w^-1 = sigma_{x_1} ... sigma_{x_s};
    - the sort fires on them in passes over the scan, one divider block
      per pass.  Inside W heights decide descents: the sort needs no check.

    Each walk costs O(deg x) operations a letter; a word target builds
    no n x n matrix.
    """
    if not (isinstance(c_word, WeylWord) and isinstance(target, (WeylWord, WeylElement))):
        raise AdmseqError(f"a sort takes a WeylWord and a WeylElement, not "
                          f"{type(c_word).__name__} and {type(target).__name__}")
    rows, n = c_word._rows, len(c_word._rows)
    if target._rows != rows:
        raise AdmseqError("word and element over different Cartan matrices")
    if sorted(c_word.letters) != list(range(1, n + 1)):
        raise AdmseqError(
            f"{c_word!r} is not a Coxeter word: it must hold each vertex 1..{n} exactly once")
    letters = target.letters if isinstance(target, WeylWord) else _peel(target)
    u = _walk(rows, [1] * n, letters)
    return SortingWord(_fire_descents(rows, u, c_word.letters[::-1]))


def is_c_sortable(c_word, target):
    """Whether the divider blocks of the c-sorting word of the target, a
    WeylWord or a WeylElement, are weakly decreasing under inclusion."""
    return c_sorting_word(c_word, target).is_sortable()
