"""Exact rational linear algebra: one elimination and its two readers.

Matrices are sequences of rows with int or Fraction entries; all
shapes are passed explicitly so that zero-dimensional matrices behave.
``rref`` is the only elimination.  It is fraction-free inside: while
every pivot is +-1, rows are updated in place and keep their integral
entries as ``int``; at the first other pivot every row is scaled once to
integers, and the elimination goes on by cross-multiplication, each
updated row divided by the gcd of its entries (a fraction-free
elimination, as in Bareiss, Math. Comp. 22, 1968, which divides by the
previous pivot instead).  Each pivot row is divided by its
pivot only at the end, so a Fraction is built only for an entry of the
result that is not integral: the inverse of a Weyl group element, which
has determinant +-1, builds none.  Pivoting is
deterministic (leftmost column, smallest row), and the reduced form is
unique, so kernel bases are reproducible across runs.  ``nullspace``
reads a kernel basis off the echelon form, and ``invert`` reads the
right half of the echelon form of [m | I]; it serves only
``weyl.WeylElement.inverse``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import AdmseqError


def transpose(m, rows, cols):
    return [list(col) for col in zip(*m)] if rows else [[] for _ in range(cols)]


def _integer_rows(m):
    """Each row times the lcm of its denominators: rows of ints with the
    same spans."""
    out = []
    for row in m:
        d = lcm(*[x.denominator for x in row if type(x) is not int])
        out.append(row if d == 1 else
                   [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row])
    return out


def _cross_eliminate(m, r, c, rows, support):
    """Clear column c outside row r of an int matrix, in place: a row
    with entry f there becomes (p/g) row - (f/g) m[r], p = m[r][c] > 0
    and g = gcd(p, f), divided by the gcd of its entries.  When p/g is 1
    only the columns in ``support``, where m[r] is nonzero, change."""
    row = m[r]
    p = row[c]
    for i in range(rows):
        target = m[i]
        f = target[c]
        if i != r and f:
            g = gcd(p, f)
            a, b = p // g, f // g
            if a == 1:
                for j in support:
                    target[j] -= b * row[j]
            else:
                target = [a * x - b * y for x, y in zip(target, row)]
            g = gcd(*target)
            m[i] = [x // g for x in target] if g > 1 else target


def _divide_pivot_rows(m, pivots, cols):
    """Divide each row of an int matrix by its pivot, in place: an entry
    is an int where the division is exact and a Fraction otherwise.  A
    pivot row is zero in every other pivot column, so only its pivot and
    the free columns are divided."""
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    for i, c in enumerate(pivots):
        row = m[i]
        p = row[c]
        if p != 1:
            row[c] = 1
            for j in free:
                x = row[j]
                if x:
                    row[j] = x // p if not x % p else Fraction(x, p)


def rref(m, rows, cols):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Entries of the result are ``int`` where integral and ``Fraction``
    otherwise.  The RREF of a matrix is unique, so the values do not
    depend on how entries are held or which nonzero multiple of a row is
    kept along the way.  A pivot row is first negated if its pivot is
    negative.  A pivot of 1 clears its column by updating the other rows
    only in the columns where the pivot row is nonzero.  At the first
    other pivot every row is scaled once to integers, and from there on
    such a pivot clears its column by cross-multiplication
    (``_cross_eliminate``).  The pivot rows are divided by their pivots
    only at the end, so a Fraction is built only for an entry of the
    result that is not integral.
    """
    m = [[x if type(x) is int else x.numerator if x.denominator == 1 else x for x in row]
         for row in m]
    integral = False
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        # Entries left of c are zero in every row from r on.
        support = [j for j in range(c, cols) if row[j]]
        p = row[c]
        if p < 0:
            for j in support:
                row[j] = -row[j]
            p = -p
        if p == 1:
            for i in range(rows):
                target = m[i]
                f = target[c]
                if i != r and f:
                    for j in support:
                        x = target[j] - f * row[j]
                        target[j] = x if type(x) is int else x.numerator if x.denominator == 1 else x
        else:
            if not integral:
                m = _integer_rows(m)
                integral = True
            _cross_eliminate(m, r, c, rows, support)
        pivots.append(c)
        r += 1
    if integral:
        _divide_pivot_rows(m, pivots, cols)
    return m, pivots


def nullspace(m, rows, cols):
    """Basis of the kernel, as columns of a cols x k matrix.

    Basis vectors are ordered by free column index and have a 1 in
    their own free coordinate.
    """
    r, pivots = rref(m, rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return transpose(basis, len(basis), cols)


def invert(m, n):
    """Inverse of a nonsingular n x n matrix: the right half of the rref
    of [m | I].  Raises AdmseqError when m is singular."""
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug, n, 2 * n)
    if pivots[:n] != list(range(n)):
        raise AdmseqError("matrix is singular")
    return [row[n:] for row in red]
