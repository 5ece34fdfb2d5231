import tracemalloc

import pytest

from admseq.errors import (
    AcyclicityError,
    AdmseqError,
    FilterViolationError,
    IndecomposabilityError,
    InvalidCartanError,
)
from admseq.graphs import (
    Graph,
    Quiver,
    graph_from_cartan,
    quiver_from_arrows,
    quiver_from_dict,
)
from admseq.sequences import AdmissibleSeq

from oracles import raw_filters, raw_graph


A3_CARTAN = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


class TestGraphFromCartan:
    def test_a3_path(self):
        g = graph_from_cartan(A3_CARTAN)
        assert g.n == 3
        assert g.edges == ((1, 2), (2, 3))

    def test_double_edge(self):
        g = graph_from_cartan([[2, -2], [-2, 2]])
        assert g.edge_mult(1, 2) == 2

    def test_block_diagonal_rejected(self):
        with pytest.raises(IndecomposabilityError):
            graph_from_cartan([[2, 0], [0, 2]])

    @pytest.mark.parametrize(
        "bad",
        [
            [[2, -1], [-2, 2]],  # not symmetric
            [[1, -1], [-1, 2]],  # wrong diagonal
            [[2, 1], [1, 2]],  # positive off-diagonal
            [[2, -1], [-1]],  # ragged
            [[2, -1], []],  # empty row
            [[2, -1.5], [-1.5, 2]],  # not integer
            [[2, True], [True, 2]],  # not integer
            5,  # not a list of rows
            [2, -1],  # rows are not lists
        ],
    )
    def test_invalid_cartan(self, bad):
        with pytest.raises(InvalidCartanError):
            graph_from_cartan(bad)

    def test_round_trip_small(self):
        mats = [
            A3_CARTAN,
            [[2, -2], [-2, 2]],
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
            [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
            [[2, -3], [-3, 2]],
        ]
        for a in mats:
            g = graph_from_cartan(a)
            assert list(map(list, g.cartan())) == a


class TestQuiver:
    def test_fixtures(self, q3, qk):
        assert q3.arrows == ((1, 2), (2, 3))
        assert qk.arrows == ((1, 2), (1, 2))

    def test_non_integer_vertex_count_rejected(self):
        for n in (3.0, "3"):
            with pytest.raises(AdmseqError, match="vertex count must be an integer"):
                Graph(n, [(1, 2), (2, 3)])
        with pytest.raises(IndecomposabilityError):
            Graph(True, [])

    def test_non_integer_edge_rejected(self):
        with pytest.raises(AdmseqError, match="edge ends must be integers"):
            Graph(2, [(1.0, 2)])

    def test_non_integer_arrow_rejected(self, q3):
        # int() would truncate the first arrow to (1, 2)
        with pytest.raises(AdmseqError, match="arrow ends must be integers"):
            Quiver(q3.graph, [(1.9, 2.2), (2, 3)])

    def test_non_integer_arrow_list_rejected(self):
        with pytest.raises(AdmseqError, match="must be integers"):
            quiver_from_arrows(3, [(1.9, 2.2), (2, 3)])

    def test_too_few_edges_are_disconnected_before_any_matrix(self):
        # a connected graph on n vertices has at least n - 1 edges, so one
        # edge on 3000 vertices is refused without the 3000 x 3000 Cartan
        # matrix; a bad edge is still named first
        tracemalloc.start()
        try:
            for build in (lambda: Graph(3000, [(1, 2)]), lambda: quiver_from_arrows(3000, [(1, 2)])):
                with pytest.raises(IndecomposabilityError, match="graph is disconnected"):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(InvalidCartanError, match=r"edge \(1,3001\) out of vertex range"):
            Graph(3000, [(1, 3001)])
        with pytest.raises(AdmseqError, match="edge ends must be 2 integers, got 3"):
            Graph(3000, [(1, 2, 3)])

    def test_a_long_path_builds_no_square_matrix(self):
        # a graph keeps its edges and one neighbour mask per vertex, so the
        # path on 3000 vertices peaks far below the 72 MB that the pointers
        # of a 3000 x 3000 matrix alone would take; the Cartan matrix is
        # still built when asked for (here on a 300-vertex path)
        n = 3000
        arrows = [(v, v + 1) for v in range(1, n)]
        tracemalloc.start()
        try:
            g = Graph(n, arrows)
            q = quiver_from_arrows(n, arrows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert q.graph == g and q.arrows == tuple(arrows) and q.sinks() == {n}
        assert g.neighbors(1) == {2} and g.neighbors(n // 2) == {n // 2 - 1, n // 2 + 1}
        short = Graph(300, arrows[:299])
        assert short.cartan() == raw_graph(300, arrows[:299])[1]

    def test_two_cycle_rejected(self):
        with pytest.raises(AcyclicityError):
            quiver_from_arrows(2, [(1, 2), (2, 1)])

    def test_arrow_iterator_builds_its_quiver(self):
        # the arrows are read once, so an iterator builds the quiver of its list
        arrows = [(1, 2), (1, 2), (3, 2)]
        q = quiver_from_arrows(3, iter(arrows))
        assert q == quiver_from_arrows(3, arrows) == Quiver(Graph(3, arrows), arrows)
        assert q.arrows == ((1, 2), (1, 2), (3, 2))

    def test_topological_order_computed_once(self, monkeypatch):
        # the order the acyclicity check finds also builds the vertex
        # masks, so a validated quiver asked sink questions sorts once; a
        # quiver installed without validation still sorts on first use
        calls = []
        order = Quiver._topological_order

        def counted(self):
            calls.append(self)
            return order(self)

        monkeypatch.setattr(Quiver, "_topological_order", counted)
        q = Quiver(Graph(3, [(1, 2), (2, 3)]), [(1, 2), (2, 3)])
        assert q._sink_after(0, 3)
        assert AdmissibleSeq(q, (3, 2, 1)).letters == (3, 2, 1)
        assert len(calls) == 1
        r = q.reflect(3)
        assert len(calls) == 1
        assert r._sink_after(0, 2) and r.leq(3, 2)
        assert calls == [q, r]

    def test_arrow_multiplicity_must_match_graph(self):
        g = graph_from_cartan([[2, -2], [-2, 2]])
        with pytest.raises(InvalidCartanError):
            Quiver(g, [(1, 2)])

    def test_sinks(self, q3, qk):
        assert q3.sinks() == {3}
        assert qk.sinks() == {2}
        assert q3.reflect(3).sinks() == {2}

    def test_reflect(self, q3, qk):
        assert q3.reflect(3).arrows == ((1, 2), (3, 2))
        assert q3.reflect(3).reflect(2).arrows == ((2, 1), (2, 3))
        assert qk.reflect(2).arrows == ((2, 1), (2, 1))

    def test_reflect_involutive(self, q3, qk):
        for q in (q3, qk):
            for x in q.vertices():
                try:
                    assert q.reflect(x).reflect(x) == q
                except AcyclicityError:
                    pass

    def test_equality_compares_arrow_order(self):
        a = quiver_from_arrows(3, [(1, 2), (2, 3)])
        b = quiver_from_arrows(3, [(2, 3), (1, 2)])
        assert a.graph == b.graph and a != b

    def test_reflect_interior_cycle(self):
        # reflecting at the middle of 1 -> 2 -> 3 with a chord 1 -> 3
        q = quiver_from_arrows(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(AcyclicityError):
            q.reflect(2)

    def test_poset(self, q3):
        assert q3.leq(1, 3)
        assert not q3.leq(3, 1)
        assert q3.leq(2, 2)

    def test_is_filter(self, q3):
        assert q3.is_filter({2, 3})
        assert not q3.is_filter({2})
        assert q3.is_filter(set())

    def test_principal_filter(self, q3, qk):
        assert q3.principal_filter(3) == {3}
        assert q3.principal_filter(1) == {1, 2, 3}
        assert qk.principal_filter(1) == {1, 2}

    def test_hull(self, q3):
        assert q3.hull({3}) == {2, 3}
        assert q3.hull({2, 3}) == {1, 2, 3}
        assert q3.hull(set()) == set()

    def test_hull_rejects_non_filter(self, q3):
        with pytest.raises(FilterViolationError):
            q3.hull({1})

    def test_quiver_from_dict_cartan_consistency(self):
        q = quiver_from_dict({"cartan": [[2, -2], [-2, 2]], "arrows": [[1, 2], [1, 2]]})
        assert q.arrows == ((1, 2), (1, 2))
        with pytest.raises(InvalidCartanError):
            quiver_from_dict({"cartan": [[2, -2], [-2, 2]], "arrows": [[1, 2]]})


class TestSmallExhaustive:
    def test_orientation_oracle_counts(self, a4_orientations, triangle_orientations):
        # a forest on k edges has 2^k acyclic orientations, and a triangle
        # loses the two cyclic ones of its 8
        assert (len(a4_orientations), len(triangle_orientations)) == (8, 6)
        assert a4_orientations[0].arrows == ((1, 2), (2, 3), (3, 4))
        assert a4_orientations[1].arrows == ((1, 2), (2, 3), (4, 3))

    def test_filter_oracle(self, q3, qk):
        assert raw_filters(q3.n, q3.arrows) == [set(), {3}, {2, 3}, {1, 2, 3}]
        assert raw_filters(qk.n, qk.arrows) == [set(), {2}, {1, 2}]

    def test_sinks_are_maximal_elements(self, a4_orientations, triangle_orientations, q3, qk):
        for q in [*a4_orientations, *triangle_orientations, q3, qk]:
            maximal = {
                v
                for v in q.vertices()
                if all(u == v or not q.leq(v, u) for u in q.vertices())
            }
            assert q.sinks() == maximal

    def test_reflect_at_sink_only_touches_incident_arrows(self, a4_orientations):
        for q in a4_orientations:
            for x in q.sinks():
                r = q.reflect(x)
                assert r.is_source(x)
                for a, b in zip(q.arrows, r.arrows):
                    if x in a:
                        assert b == (a[1], a[0])
                    else:
                        assert b == a

    def test_hull_properties(self, q3, qk):
        for q in (q3, qk):
            filters = raw_filters(q.n, q.arrows)
            for f in filters:
                h = q.hull(f)
                assert f <= h
                assert q.is_filter(h)
                assert q.hull(h) >= h
            for f1 in filters:
                for f2 in filters:
                    assert q.hull(f1 | f2) == q.hull(f1) | q.hull(f2)
                    assert q.hull(f1 & f2) <= q.hull(f1) & q.hull(f2)

    def test_hull_monotone(self, q3):
        filters = raw_filters(q3.n, q3.arrows)
        for f1 in filters:
            for f2 in filters:
                if f1 <= f2:
                    assert q3.hull(f1) <= q3.hull(f2)
