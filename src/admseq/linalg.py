"""Exact rational linear algebra: echelon forms and kernels.

Matrices are sequences of rows with int or Fraction entries; all
shapes are passed explicitly so that zero-dimensional matrices behave.
Elimination is integer-first: an integral entry is held as an ``int``
and only a non-integral one as a ``Fraction``, so matrices of small
integers, the common case for quiver representations, are reduced
without building a single Fraction.  Pivoting is deterministic
(leftmost column, smallest row), so kernel bases are reproducible
across runs.  A cokernel is the transposed kernel of the transpose;
``invert`` serves only ``weyl.WeylElement.inverse``.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def copy(m):
    return [[Fraction(x) for x in row] for row in m]


def transpose(m, rows, cols):
    return [list(col) for col in zip(*m)] if rows else [[] for _ in range(cols)]


def matmul(a, b, n, k, m):
    """Product of an n x k and a k x m matrix."""
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


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


def rank(m, rows, cols):
    return len(rref(m, rows, cols)[1])


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
    """Inverse of a nonsingular n x n matrix by Gauss-Jordan."""
    aug = [list(row) + ident_row for row, ident_row in zip(copy(m), identity(n))]
    red, pivots = rref(aug, n, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def cokernel_projection(m, rows, cols):
    """Projection onto a complement of the column space.

    Returns a (rows - rank) x rows matrix C with C @ m = 0: the transpose
    of the kernel basis of m^T, so each row has a 1 at its own non-pivot
    position of the column space and the result is deterministic.
    """
    kernel = nullspace(transpose(m, rows, cols), cols, rows)  # rows x k
    return transpose(kernel, rows, len(kernel[0]) if rows else 0)


def is_zero(m):
    return all(x == 0 for row in m for x in row)
