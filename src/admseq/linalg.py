"""Exact rational linear algebra: one elimination and its two readers.

A matrix is a sequence of sparse rows, each a dict from column index to
its nonzero int or Fraction entries, with the shape passed explicitly
so that zero-dimensional matrices behave.  ``rref`` is the only
elimination.  It takes the rows one at a time and touches only nonzero
entries: a row is cleared at the pivot columns it holds, and a new pivot
is cleared from the pivot rows nonzero in its column, which a column
index names.  So an elimination costs in the nonzeros it reads and
makes, not in rows x columns; the maps of a module stay sparse as its
dims grow.  It is fraction-free inside: every row is first scaled to
integers by the lcm of its denominators, and a pivot p clears the entry
f of another row by cross-multiplication, the row becoming (p/g) row -
(f/g) pivot row with g = gcd(p, f) and then divided by the gcd of its
entries (a fraction-free elimination, as in Bareiss, Math. Comp. 22,
1968, which divides by the previous pivot instead).  When p divides f
this only subtracts, in the columns of the pivot row.  Each pivot row is
divided by its pivot only at the end, so a Fraction is built only for an
entry of the result that is not integral: the inverse of a Weyl group
element, which has determinant +-1, builds none.  The reduced form is
unique, so kernel bases are reproducible across runs.  ``kernel`` reads
the inclusion of the kernel off the echelon form, one sparse row per
column of the matrix, and ``invert`` reads the right half of the echelon
form of [m | I]; it serves only ``weyl.WeylElement.inverse``.  ``rref``
copies each row it reads, so a functor step hands it a module's own map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import AdmseqError


def _integer_row(row):
    """A sparse row times the lcm of its denominators: a new dict of
    ints with the same span."""
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return dict(row)
    d = lcm(*[x.denominator for x in row.values() if type(x) is not int])
    return {c: x * d if type(x) is int else x.numerator * (d // x.denominator)
            for c, x in row.items()}


def _clear(target, c, row, holders=None, key=None):
    """Clear column c of the int row ``target`` with the int row ``row``,
    whose entry p there is positive, in place: with f the entry of
    target there and g = gcd(p, f), target becomes (p/g) target - (f/g)
    row, divided by the gcd of its entries; when p/g is 1 only the
    columns of ``row`` change.  ``holders[j]``, when given, holds
    ``key`` exactly while target is nonzero at column j."""
    p = row[c]
    f = target.pop(c)
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for j in target:
            target[j] *= a
    for j, y in row.items():
        if j != c:
            x = target.get(j, 0) - b * y
            if x:
                if holders is not None and j not in target:
                    if j in holders:
                        holders[j].add(key)
                    else:  # a set only for a column's first holder
                        holders[j] = {key}
                target[j] = x
            elif j in target:
                del target[j]
                if holders is not None:
                    holders[j].discard(key)
    if a != 1:
        g = gcd(*target.values())
        if g > 1:
            for j in target:
                target[j] //= g


def rref(m, rows, cols):
    """Reduced row echelon form of the sparse rows ``m``, a rows x cols
    matrix; returns (sparse rows, pivot column list).

    The rows are taken in order.  Each is cleared at the pivot columns
    of the rows before it, and its leftmost remaining column becomes a
    new pivot, which is then cleared from the earlier pivot rows that
    are nonzero there, found through a column index.  So every pivot row
    stays zero in every other pivot column and starts at its own, and
    the pivot rows, in pivot order and each divided by its pivot, are
    the RREF, which is unique.  Kept reduced as the rows come in, a pivot
    row brings no other pivot column into the row it clears, so a new row
    is cleared at each of its pivot columns once and in any order; a
    forward pass with back substitution at the end must clear the earliest
    first, and took 1.8 times as long on a dependent 60 x 60 integer
    matrix of rank 40 (Python 3.11), and longer than three minutes, its
    entries swelling, with the latest cleared first.  The result has
    ``rows`` rows: the pivot rows, then empty rows, all new dicts.  Its
    entries are ``int`` where integral and ``Fraction`` otherwise.  ``m``
    is not changed.
    """
    echelon = {}  # pivot column -> its row
    holders = {}  # other column -> the pivot columns of the rows nonzero there
    last = len(m) - 1
    for i, row in enumerate(m):
        row = _integer_row(row)
        if echelon:
            for c in [c for c in row if c in echelon]:
                _clear(row, c, echelon[c])
        if not row:
            continue
        c = min(row)
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        for q in holders.pop(c, ()):
            _clear(echelon[q], c, row, holders, q)
        if i < last:  # the last row is cleared from no later one
            for j in row:
                if j != c:
                    if j in holders:
                        holders[j].add(c)
                    else:
                        holders[j] = {c}
        echelon[c] = row
    pivots = sorted(echelon)
    out = []
    for c in pivots:
        row = echelon[c]
        p = row[c]
        if p != 1:
            for j, x in row.items():
                row[j] = x // p if not x % p else Fraction(x, p)
        out.append(row)
    for _ in range(rows - len(pivots)):
        out.append({})
    return out, pivots


def kernel(m, rows, cols):
    """The kernel of the sparse rows ``m``, a rows x cols matrix, as its
    inclusion: (k, the cols sparse rows of a cols x k matrix whose
    columns are a kernel basis).  ``m`` is not changed.

    Basis vectors are ordered by free column index and have a 1 in
    their own free coordinate, so the row of a free column is that 1 and
    the row of a pivot column is minus the free part of its pivot row.
    """
    red, pivots = rref(m, rows, cols)
    index = [0] * cols  # free column -> its basis vector; pivot column -> None
    for c in pivots:
        index[c] = None
    out, k = [], 0
    for c, i in enumerate(index):
        if i is None:
            out.append(None)
        else:
            index[c] = k
            out.append({k: 1})
            k += 1
    for row, c in zip(red, pivots):
        del row[c]  # its 1: rref's rows are its own
        # a loop, not a comprehension, which is a call before Python 3.12
        out[c] = inc = {}
        for j, x in row.items():
            inc[index[j]] = -x
    return k, out


def invert(m, n):
    """Inverse of a nonsingular n x n matrix, given and returned as dense
    rows: the right half of the rref of [m | I].  Raises AdmseqError
    when m is singular."""
    aug = [{j: x for j, x in enumerate(row) if x} | {n + i: 1} for i, row in enumerate(m)]
    red, pivots = rref(aug, n, 2 * n)
    if pivots[:n] != list(range(n)):
        raise AdmseqError("matrix is singular")
    return [[row.get(j, 0) for j in range(n, 2 * n)] for row in red]
