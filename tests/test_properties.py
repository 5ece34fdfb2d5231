"""Property-based checks over random connected acyclic quivers (n <= 5).

A quiver is drawn as a random spanning tree plus a few extra edges (so
it is connected, and multiple edges give wild types), oriented along a
random vertex ranking (so it is acyclic).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admseq.graphs import Quiver, quiver_from_arrows
from admseq.reps import build_module, reflect_minus, reflect_plus, simple
from admseq.sequences import principal
from admseq.weyl import is_reduced, simple_reflection, word_of
from oracles import raw_reachable, raw_reflect, raw_topological_order

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


@PROPERTY_SETTINGS
@given(quivers())
def test_trusted_reflection_matches_validated(q):
    # reflect at a sink or a source skips validation and rebuilds the arrow
    # index only at x and its neighbours; it must agree with a fully
    # validated construction and with plain scans of the reflected arrows
    for x in sorted(q.sinks() | q.sources()):
        r = q.reflect(x)
        arrows = raw_reflect(q.arrows, x)
        assert r == Quiver(q.graph, arrows)
        for v in r.vertices():
            assert r.arrows_out(v) == tuple(i for i, (s, _) in enumerate(arrows) if s == v)
            assert r.arrows_in(v) == tuple(i for i, (_, e) in enumerate(arrows) if e == v)
            assert r.is_sink(v) == all(s != v for s, _ in arrows)
            assert r.is_source(v) == all(e != v for _, e in arrows)
            assert r.reachable(v) == raw_reachable(arrows, v)
        assert r.topological_order() == raw_topological_order(r.n, arrows)
        assert r.reflect(x) == q
