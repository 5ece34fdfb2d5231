"""Exact rational linear algebra: one elimination and its two readers.

Matrices are sequences of rows with int or Fraction entries; all
shapes are passed explicitly so that zero-dimensional matrices behave.
``rref`` is the only elimination.  It is integer-first: an integral
entry is held as an ``int`` and only a non-integral one as a
``Fraction``, so matrices of small integers, the common case for quiver
representations and Weyl group elements, are reduced without building a
single Fraction.  Pivoting is deterministic (leftmost column, smallest
row), so kernel bases are reproducible across runs.  ``nullspace``
reads a kernel basis off the echelon form, and ``invert`` reads the
right half of the echelon form of [m | I]; it serves only
``weyl.WeylElement.inverse``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AdmseqError


def transpose(m, rows, cols):
    return [list(col) for col in zip(*m)] if rows else [[] for _ in range(cols)]


def rref(m, rows, cols):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Entries of the result are ``int`` where integral and ``Fraction``
    otherwise.  The RREF of a matrix is unique, so the values do not
    depend on how entries are held.  A pivot row is scaled only when its
    pivot is not +-1, and other rows are updated only in the columns
    where the pivot row is nonzero.
    """
    m = [[x if type(x) is int else x.numerator if x.denominator == 1 else x for x in row]
         for row in m]
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
        if p == -1:
            for j in support:
                row[j] = -row[j]
        elif p != 1:
            inv = 1 / Fraction(p)
            for j in support:
                x = row[j] * inv
                row[j] = x.numerator if x.denominator == 1 else x
        for i in range(rows):
            target = m[i]
            f = target[c]
            if i != r and f:
                for j in support:
                    x = target[j] - f * row[j]
                    target[j] = x if type(x) is int else x.numerator if x.denominator == 1 else x
        pivots.append(c)
        r += 1
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
