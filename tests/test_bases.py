"""Pinned kernel and cokernel bases.

Literal matrices recorded while F^- still took cokernels by inverting a
basis-change matrix.  Kernel and cokernel bases are part of the
package's contract (deterministic pivoting makes them bit-reproducible),
so any change to the elimination or to the functor block layout must
reproduce these exactly.  Both modules are built by F^- steps whose
assembled maps have rank up to 4, so the cokernel bases are
non-trivial.  Each map is written one string per matrix row, entries
separated by spaces.

KRONECKER_NONUNIT starts from maps holding 2, -3 and 1/3, so the
eliminations behind its F^+ images meet pivots other than +-1 and the
bases have non-integral entries.  Its literals were recorded with the
plain Fraction Gauss-Jordan elimination.
"""

from fractions import Fraction

from admseq.graphs import quiver_from_arrows
from admseq.reps import Representation, build_module, coxeter_plus, reflect_plus
from admseq.sequences import principal

KRONECKER_R3 = (
    (5, 6),
    [
        [
            '0 1 0 0 0', '0 0 0 0 0', '0 0 0 1 0', '-1 0 0 0 0', '0 0 0 0 1',
            '0 0 -1 0 0',
        ],
        [
            '0 0 0 0 0', '1 0 0 0 0', '0 1 0 0 0', '0 0 1 0 0', '0 0 0 1 0',
            '0 0 0 0 1',
        ],
    ],
)

KRONECKER_R3_COXETER = (
    (3, 4),
    [
        [
            '0 1 0', '0 0 0', '0 0 1', '-1 0 0',
        ],
        [
            '0 0 0', '1 0 0', '0 1 0', '0 0 1',
        ],
    ],
)

WILD_R2 = (
    (6, 13, 16),
    [
        [
            '0 1 0 0 0 0', '0 0 0 1 0 0', '0 0 0 0 1 0', '0 0 -1 0 0 1', '0 0 0 0 0 0',
            '0 0 1 0 0 0', '-1 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0',
            '0 0 1 0 0 0', '-1 0 0 0 0 0', '0 0 0 0 0 0',
        ],
        [
            '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '1 0 0 0 0 0',
            '0 1 0 0 0 0', '0 0 1 0 0 0', '0 0 0 1 0 0', '0 0 0 0 1 0', '0 0 0 0 0 1',
            '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0',
        ],
        [
            '1 0 0 0 0 0 0 0 0 0 0 0 0', '0 1 0 0 0 0 0 0 0 0 0 0 0',
            '0 0 1 0 0 0 0 0 0 0 0 0 0', '0 0 0 1 0 0 0 0 0 0 0 0 0',
            '0 0 0 0 1 0 0 0 0 0 0 0 0', '0 0 0 0 0 1 0 0 0 0 0 0 0',
            '0 0 0 0 0 0 1 0 0 0 0 0 0', '0 0 0 0 0 0 0 1 0 0 0 0 0',
            '0 0 0 0 0 0 0 0 1 0 0 0 0', '0 0 0 0 0 0 0 0 0 1 0 0 0',
            '0 0 0 0 0 0 0 0 0 0 0 0 0', '0 0 0 0 0 0 0 0 0 0 0 0 0',
            '0 0 0 0 0 0 0 0 0 0 0 0 0', '0 0 0 0 0 0 0 0 0 0 -1 0 0',
            '0 0 0 0 0 0 0 0 0 0 0 -1 0', '0 0 0 0 0 0 0 0 0 0 0 0 -1',
        ],
        [
            '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0',
            '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0', '0 0 0 0 0 0',
            '1 0 0 0 0 0', '0 1 0 0 0 0', '0 0 1 0 0 0', '0 0 0 1 0 0', '0 0 0 0 1 0',
            '0 0 0 0 0 1',
        ],
    ],
)

KRONECKER_NONUNIT_MAPS = (
    [[2, 0, 1], [0, -3, 0]],
    [[Fraction(1, 3), 1, 0], [0, 2, -3]],
)

KRONECKER_NONUNIT_PLUS = (
    (3, 4),
    [
        ['-1/2 -1/6 -1/2 0', '0 0 2/3 -1', '1 0 0 0'],
        ['0 1 0 0', '0 0 1 0', '0 0 0 1'],
    ],
)

KRONECKER_NONUNIT_COXETER = (
    (5, 4),
    [
        ['0 0 0 0 -1', '-9/2 0 6 9/2 3', '3/2 0 0 -3/2 0', '1 0 0 0 0'],
        ['0 1 0 0 0', '0 0 1 0 0', '0 0 0 1 0', '0 0 0 0 1'],
    ],
)


def _maps(rows_per_arrow):
    return tuple(
        tuple(tuple(Fraction(tok) for tok in row.split()) for row in rows)
        for rows in rows_per_arrow
    )


def _check(rep, expected):
    dims, maps = expected
    assert rep.dims == dims
    assert rep.maps == _maps(maps)


def test_kronecker_principal_r3():
    qk = quiver_from_arrows(2, [(1, 2), (1, 2)])
    m = build_module(principal(qk, 3, 1))
    _check(m, KRONECKER_R3)
    _check(coxeter_plus(m), KRONECKER_R3_COXETER)


def test_wild_principal_r2():
    wild = quiver_from_arrows(3, [(1, 2), (1, 2), (2, 3), (1, 3)])
    _check(build_module(principal(wild, 2, 1)), WILD_R2)


def test_kronecker_non_unit_pivots():
    qk = quiver_from_arrows(2, [(1, 2), (1, 2)])
    m = Representation(qk, (3, 2), KRONECKER_NONUNIT_MAPS)
    _check(reflect_plus(m, 2), KRONECKER_NONUNIT_PLUS)
    _check(coxeter_plus(m), KRONECKER_NONUNIT_COXETER)
