"""Property-based checks over random connected acyclic quivers (n <= 5).

A quiver is drawn as a random spanning tree plus a few extra edges (so
it is connected, and multiple edges give wild types), oriented along a
random vertex ranking (so it is acyclic).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admseq.graphs import quiver_from_arrows
from admseq.reps import build_module, reflect_minus, reflect_plus, simple
from admseq.sequences import principal
from admseq.weyl import is_reduced, simple_reflection, word_of

# Larger modules cost seconds each in exact arithmetic; the identities are
# checked on modules up to this total dimension.
MAX_TOTAL_DIM = 40


@st.composite
def quivers(draw):
    n = draw(st.integers(2, 5))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    rank = draw(st.permutations(range(1, n + 1)))
    arrows = [(u, v) if rank[u - 1] < rank[v - 1] else (v, u) for u, v in edges]
    return quiver_from_arrows(n, arrows)


@st.composite
def principal_modules(draw):
    """(sequence, M(S)) for a principal sequence S with reduced word."""
    q = draw(quivers())
    s = principal(q, draw(st.integers(1, 3)), draw(st.integers(1, q.n)))
    assume(is_reduced(word_of(s)))
    cartan = q.graph.cartan()
    root = tuple(int(v == s.letters[-1]) for v in q.vertices())
    for x in reversed(s.letters[:-1]):
        root = simple_reflection(cartan, x).apply(root)
    assume(sum(root) <= MAX_TOTAL_DIM)
    return s, root


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@PROPERTY_SETTINGS
@given(principal_modules())
def test_module_dims_equal_weyl_root(case):
    # dim M(S) = sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s})
    s, root = case
    assert build_module(s).dims == root


@PROPERTY_SETTINGS
@given(principal_modules())
def test_reflect_plus_undoes_reflect_minus(case):
    s, _ = case
    m = build_module(s)
    q = m.quiver
    for x in sorted(q.sources()):
        if m == simple(q, x):
            continue
        assert reflect_plus(reflect_minus(m, x), x).dims == m.dims
