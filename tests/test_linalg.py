import random
from fractions import Fraction

import pytest

from admseq import linalg
from admseq.errors import AdmseqError
from admseq.graphs import Graph
from admseq.weyl import WeylWord
from oracles import fraction_rref, matmul


def random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_shapes_and_pivots():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    r, pivots = linalg.rref(m, 2, 2)
    assert pivots == [0]
    assert r[0] == [Fraction(1), Fraction(2)]
    assert all(x == 0 for x in r[1])


def test_nullspace_and_rank_randomized():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = random_matrix(rng, rows, cols)
        rank = len(fraction_rref(m, rows, cols)[1])
        ns = linalg.nullspace(m, rows, cols)  # one basis vector per row
        assert rank + len(ns) == cols
        for v in ns:
            assert len(v) == cols
            assert all(
                sum(m[r][c] * v[c] for c in range(cols)) == 0 for r in range(rows)
            )


def test_invert_round_trip():
    rng = random.Random(3)
    count = 0
    while count < 20:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if len(fraction_rref(m, n, n)[1]) != n:
            with pytest.raises(AdmseqError):
                linalg.invert(m, n)
            continue
        count += 1
        inv = linalg.invert(m, n)
        assert matmul(m, inv) == matmul(inv, m) == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n)
        )


def test_invert_keeps_integer_entries():
    # det -1: the inverse is integral and comes back as ints
    m = [[2, 1], [1, 0]]
    inv = linalg.invert(m, 2)
    assert inv == [[0, 1], [1, -2]]
    assert all(type(x) is int for row in inv for x in row)
    assert linalg.invert([[2]], 1) == [[Fraction(1, 2)]]


def test_invert_rejects_singular():
    with pytest.raises(AdmseqError, match="singular"):
        linalg.invert([[1, 2], [2, 4]], 2)


@pytest.fixture
def no_fraction():
    """Every Fraction construction fails while the test runs: through the
    constructor and, on Python 3.12 and later, through the private
    constructor that Fraction arithmetic builds its results with."""
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} built")

    names = [n for n in ("__new__", "_from_coprime_ints") if n in vars(Fraction)]
    originals = {n: vars(Fraction)[n] for n in names}
    Fraction.__new__ = staticmethod(refuse)
    if "_from_coprime_ints" in originals:
        Fraction._from_coprime_ints = classmethod(refuse)
    try:
        yield
    finally:
        for n, f in originals.items():
            setattr(Fraction, n, f)


def test_integral_results_build_no_fraction(no_fraction):
    # pivots 2 and 3 below, yet every result is integral: the elimination
    # runs on integer rows and divides exactly, so no Fraction is built
    assert linalg.invert([[2, 1], [1, 1]], 2) == [[1, -1], [-1, 2]]
    assert linalg.rref([[2, 4], [1, 3]], 2, 2) == ([[1, 0], [0, 1]], [0, 1])
    # a wild Cartan matrix (double edge 1-2): a word of W is unimodular
    cartan = Graph(3, [(1, 2), (1, 2), (2, 3), (1, 3)]).cartan()
    letters = (1, 2, 3, 2, 1, 3) * 5
    w = WeylWord(cartan, letters).evaluate().matrix
    expected = WeylWord(cartan, reversed(letters)).evaluate().matrix
    assert tuple(map(tuple, linalg.invert(w, 3))) == expected
