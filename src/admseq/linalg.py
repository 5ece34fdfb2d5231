"""Exact rational linear algebra: echelon forms and kernels.

Matrices are lists of row lists with Fraction (or int) entries; all
shapes are passed explicitly so that zero-dimensional matrices behave.
Pivoting is deterministic (leftmost column, smallest row), so kernel
bases are reproducible across runs.  A cokernel is the transposed kernel
of the transpose; ``invert`` serves only ``weyl.WeylElement.inverse``.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def copy(m):
    return [[Fraction(x) for x in row] for row in m]


def transpose(m, rows, cols):
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def matmul(a, b, n, k, m):
    """Product of an n x k and a k x m matrix."""
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def rref(m, rows, cols):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = copy(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return [[basis[j][i] for j in range(len(basis))] for i in range(cols)]


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
