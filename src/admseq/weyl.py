"""The Weyl group of a symmetric generalized Cartan matrix.

Simple reflections act on the root lattice Z^n by
sigma_i(e_j) = e_j - a_ij e_i.  Words follow the convention that the
first letter acts first, matching the reading order of admissible
sequences.  All matrix entries are Python ints, so nothing overflows for
infinite types.

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
the walk of e_i through its letters in reverse.  Full matrix products
serve only ``WeylElement.__mul__`` and ``preserves_form``.

``WeylElement.inverse`` hands the integer matrix straight to
``linalg.invert``.  An element of W has determinant +-1, so its inverse
is an integer matrix, which the fraction-free elimination finds without
building a Fraction; a singular matrix, or one whose inverse has a
non-integral entry, is not in W and raises AdmseqError.  No library
function inverts: the c-sorting word reads the heights of w^-1 off a
descent walk of w.  Letters and matrix entries are read with
``operator.index``, so a float or a Fraction raises AdmseqError instead
of being truncated.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .errors import AdmseqError, NotCompleteError, NotPrincipalError, _int, _int_tuple, _ordered
from .graphs import _cartan_rows
from .sequences import is_principal


def _int_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


class WeylElement:
    """An element of the Weyl group as an integer matrix on Z^n."""

    __slots__ = ("cartan", "matrix")

    def __init__(self, cartan, matrix):
        self.cartan = _cartan_rows(cartan)
        n = len(self.cartan)
        shape = f"Weyl element matrix must be {n} x {n}"
        self.matrix = tuple(_int_tuple(row, "Weyl element entries") for row in _ordered(matrix, shape))
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise AdmseqError(shape)

    @classmethod
    def _trusted(cls, cartan, matrix):
        """The checked Cartan rows and n x n integer rows, unvalidated."""
        w = object.__new__(cls)
        w.cartan, w.matrix = cartan, matrix
        return w

    @classmethod
    def identity(cls, cartan):
        return WeylWord._trusted(_cartan_rows(cartan), ()).evaluate()

    def apply(self, v):
        v = _int_tuple(v, "vector entries")
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
        return all(x == (i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row))

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
        """The matrix sigma_{x_s} ... sigma_{x_1}: row i is the walk of
        e_i through the letters in reverse."""
        rows, n, back = _sparse_rows(self.cartan), len(self.cartan), self.letters[::-1]
        return WeylElement._trusted(self.cartan, tuple(
            tuple(_walk(rows, [int(i == j) for j in range(n)], back)) for i in range(n)))

    def __repr__(self):
        return f"WeylWord({','.join(map(str, self.letters))})"


def simple_reflection(cartan, i):
    return WeylWord(cartan, (i,)).evaluate()


def word_of(seq):
    """The Weyl word of an admissible sequence (letters copied as is)."""
    return WeylWord._trusted(seq.quiver.graph.cartan(), seq.letters)


@lru_cache(maxsize=64)
def _sparse_rows(cartan):
    """Row x of A as its (j, a_xj) pairs with a_xj != 0, for each x."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in cartan)


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


def _first_non_reduced(cartan, letters, cap=None):
    """1-based position of the first letter x_k whose root
    sigma_{x_1} ... sigma_{x_{k-1}}(e_{x_k}) is negative, or None.
    Given a cap, the walk also ends with None at the first root of
    height above it (see ``weyl_is_finite``).  The walk is ``_heights``
    written out, which spares a generator step per letter."""
    rows = _sparse_rows(cartan)
    u = [1] * len(cartan)
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
    return _first_non_reduced(word.cartan, word.letters) is None


def length_of_word(word):
    """Length of the element the word evaluates to, which is that of its
    inverse P = sigma_{x_1} ... sigma_{x_s}: l(P sigma_x) = l(P) + 1 when
    the root P(e_x) is positive and l(P) - 1 when it is negative."""
    rows = _sparse_rows(word.cartan)
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
    cartan = seq.quiver.graph.cartan()
    rows = _sparse_rows(cartan)
    letters = seq.letters
    v = [int(j == letters[-1] - 1) for j in range(len(cartan))]
    for x in reversed(letters[:-1]):
        # sigma_x(v) = v - <row x of A, v> e_x changes entry x only, and
        # every other entry is already known to be non-negative
        i = x - 1
        v[i] -= sum(a * v[j] for j, a in rows[i])
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
    one height walk over c^m, c = 1, 2, ..., n and m = max(n, 15) + 1,
    looks for its first non-reduced letter.  The highest root of A_n, D_n
    or E_6-8 has height h - 1 <= max(2n - 3, 29), so a positive root
    above that height proves W infinite and ends the walk early."""
    n = graph.n
    letters = tuple(range(1, n + 1)) * (max(n, 15) + 1)
    return _first_non_reduced(graph.cartan(), letters, cap=max(2 * n - 3, 29)) is not None


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


def _probe(rows, cols, letters, s):
    """Whether Q^T b = w^T b for the covector b = (1, 2^s, ..., 2^(s(n-1))),
    Q the product sigma_{x_1} ... sigma_{x_k} of the letters and w the
    matrix with columns ``cols``: Q^T b is the walk of b through the
    letters, and (w^T b)_j packs column j of w into one integer."""
    b = [1 << s * i for i in range(len(cols))]
    return _walk(rows, b, letters) == [sum(x << s * i for i, x in enumerate(c)) for c in cols]


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
    - the gate: w has determinant +-1 and every column c the norm
      c^T A c = 2 of a real root, as in W.  A singular matrix, or one
      whose inverse is not integral, raises the error
      ``WeylElement.inverse`` raises.  Outside W the first walk may run
      for ever; the gate stops many such matrices, but not -I;
    - the first walk fires right descents of w, from the heights of its
      columns, in passes over 1..n.  Its letters r_1, ..., r_k give
      w sigma_{r_1} ... sigma_{r_k} = 1, so walking them from the
      heights 1 of the identity gives those of
      w^-1 = sigma_{r_1} ... sigma_{r_k};
    - the sort fires on those heights in passes over the scan, one
      divider block per pass.

    Heights decide descents only inside W, so one product check ends
    the sort.  The product Q of the blocks is in W, and each of its
    columns is a real root, whose entries share the sign of its height.
    A walk of the blocks from 1 gives the heights of Q's columns; they
    must be those of w, which bounds every |Q_ij| by H, the largest of
    their absolute values.  A walk from b = (1, B, ..., B^(n-1)), with B = 2^s above
    H + max |w_ij|, gives Q^T b, which must be w^T b: then
    sum_i (Q_ij - w_ij) B^i = 0 with every |Q_ij - w_ij| < B, so Q = w.
    Each walk costs O(deg x) operations a letter, not O(n deg x).  A
    failed check means w is not in W, and raises AdmseqError ("stuck
    peel").
    """
    if c_word.cartan != target.cartan:
        raise AdmseqError("word and element over different Cartan matrices")
    m, n = target.matrix, len(target.matrix)
    if sorted(c_word.letters) != list(range(1, n + 1)):
        raise AdmseqError(
            f"{c_word!r} is not a Coxeter word: it must hold each vertex 1..{n} exactly once")
    det = _det(m)
    if not det:
        raise AdmseqError("matrix is singular")
    if det * det != 1:
        raise AdmseqError("inverse is not an integer matrix: element is not in the Weyl group")
    rows = _sparse_rows(target.cartan)
    cols = list(zip(*m))
    for c in cols:
        norm = 0
        for x, row in zip(c, rows):
            if x:
                for j, a in row:
                    norm += x * a * c[j]
        if norm != 2:
            raise AdmseqError(_STUCK)
    heights = [sum(c) for c in cols]
    fired = _fire_descents(rows, list(heights), range(1, n + 1))
    u = _walk(rows, [1] * n, [x for block in fired for x in block])
    blocks = _fire_descents(rows, u, tuple(reversed(c_word.letters)))
    letters = [x for block in blocks for x in block]
    bound = max(map(abs, heights)) + max(abs(x) for row in m for x in row)
    if not (_probe(rows, cols, letters, 0) and _probe(rows, cols, letters, bound.bit_length())):
        raise AdmseqError(_STUCK)
    return SortingWord(blocks)


def is_c_sortable(c_word, target):
    """Whether the divider blocks of the c-sorting word are weakly
    decreasing under inclusion."""
    return c_sorting_word(c_word, target).is_sortable()
