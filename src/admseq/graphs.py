"""Graphs, Cartan matrices, acyclic orientations, and the vertex poset.

Vertices are contiguous ids 1..n.  Multiple edges are kept as individual
arrow instances so that parallel arrows stay distinguishable by index.
All objects are immutable after construction.

A vertex set is also an ``int`` mask, bit v for vertex v.  Each quiver
builds, once and on first use, three masks per vertex: its in-neighbours,
its out-neighbours and the vertices it reaches; the path order, filters
and hulls are mask operations on these.  A walk of reflections at sinks
or sources reverses the edge u-v exactly when u and v were reflected,
together, an odd number of times, so the orientation after any prefix
of a walk is this quiver plus one parity mask of the vertices reflected
an odd number of times.  Sink and source tests after a walk read that
mask, and the quiver it stands for is built only when asked for.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache

from .errors import (
    AcyclicityError,
    AdmseqError,
    FilterViolationError,
    IndecomposabilityError,
    InvalidCartanError,
)


class Graph:
    """Connected loop-free multigraph on vertices 1..n, with n >= 2.

    ``edges`` is a tuple of unordered pairs (u, v) with u < v; repeated
    pairs encode edge multiplicity.
    """

    __slots__ = ("n", "edges", "_mult", "_adj", "_cartan")

    def __init__(self, n, edges):
        if n < 2:
            raise IndecomposabilityError("graph must have more than one vertex")
        norm = []
        mult = {}
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidCartanError(f"edge ({u},{v}) out of vertex range 1..{n}")
            if u == v:
                raise InvalidCartanError(f"loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            norm.append((a, b))
            mult[(a, b)] = mult.get((a, b), 0) + 1
        adj = [[] for _ in range(n + 1)]
        for a, b in mult:
            adj[a].append(b)
            adj[b].append(a)
        self.n = n
        self.edges = tuple(sorted(norm))
        self._mult = mult
        self._adj = tuple(map(tuple, adj))  # neighbours by vertex; slot 0 unused
        if not self._is_connected():
            raise IndecomposabilityError("graph is disconnected")
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (a, b), k in mult.items():
            cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -k
        self._cartan = tuple(map(tuple, cartan))

    def _is_connected(self):
        seen = {1}
        queue = deque([1])
        while queue:
            for z in self._adj[queue.popleft()]:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        return len(seen) == self.n

    def edge_mult(self, u, v):
        if u == v:
            return 0
        a, b = (u, v) if u < v else (v, u)
        return self._mult.get((a, b), 0)

    def neighbors(self, u):
        """The vertices joined to u by an edge; empty for an id outside 1..n."""
        return set(self._adj[u]) if 0 < u <= self.n else set()

    def cartan(self):
        """The symmetric generalized Cartan matrix: 2 on the diagonal,
        minus the edge multiplicity off it."""
        return self._cartan

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _int_rows(value, width=None):
    """Whether value is a list of integer rows of the given width (by
    default as many as there are rows)."""
    if not isinstance(value, (list, tuple)):
        return False
    width = len(value) if width is None else width
    return all(
        isinstance(row, (list, tuple)) and len(row) == width
        and all(type(a) is int for a in row)  # not isinstance: bool is an int
        for row in value
    )


def graph_from_cartan(A):
    """Build the graph whose Cartan matrix is ``A``.

    Raises InvalidCartanError for anything but a square list of integer
    rows that form a symmetric generalized Cartan matrix,
    IndecomposabilityError when it splits into blocks.
    """
    if not _int_rows(A):
        raise InvalidCartanError("matrix is not a square list of integer rows")
    n = len(A)
    for i in range(n):
        if A[i][i] != 2:
            raise InvalidCartanError(f"diagonal entry a_{i + 1}{i + 1} != 2")
        for j in range(n):
            if A[i][j] != A[j][i]:
                raise InvalidCartanError("matrix is not symmetric")
            if i != j and A[i][j] > 0:
                raise InvalidCartanError("positive off-diagonal entry")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.extend([(i + 1, j + 1)] * (-A[i][j]))
    return Graph(n, edges)


def _arrow_index(n, arrows):
    """Positions in ``arrows`` of the arrows out of and into each vertex,
    as two tuples indexed by vertex (slot 0 unused)."""
    out = [[] for _ in range(n + 1)]
    into = [[] for _ in range(n + 1)]
    for i, (s, e) in enumerate(arrows):
        out[s].append(i)
        into[e].append(i)
    return tuple(map(tuple, out)), tuple(map(tuple, into))


def _members(mask):
    """The set of vertices whose bits are set in ``mask``."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


class Quiver:
    """A graph together with an acyclic orientation.

    ``arrows`` is a tuple of ordered pairs (source, target), one entry
    per edge instance.  Each quiver indexes, once, the positions in
    ``arrows`` of the arrows out of and into every vertex; sink, source
    and topological-order queries read that index.  Reachability,
    filters and hulls read the per-vertex masks (see the module
    docstring), built the first time one of them is asked.

    ``reflect(x)`` at a sink or a source is trusted: reversing the
    arrows there keeps the multiplicities and cannot close a cycle
    (Bernstein-Gelfand-Ponomarev), so the result is built without
    validation.  At any other vertex the result is fully validated and
    may raise AcyclicityError.

    Equality compares the graph and the arrow tuple in order: the same
    orientation with its arrows listed in another order is a different
    quiver, because representations attach one matrix per arrow position.

    Queries about an id outside 1..n answer as for a vertex with no
    arrows: it is a sink and a source and reaches only itself.
    """

    __slots__ = ("graph", "arrows", "_out", "_in", "_masks")

    def __init__(self, graph, arrows):
        arrows = tuple((int(s), int(e)) for s, e in arrows)
        counts = {}
        for s, e in arrows:
            if s == e:
                raise InvalidCartanError(f"loop arrow at vertex {s}")
            key = (s, e) if s < e else (e, s)
            counts[key] = counts.get(key, 0) + 1
        for u, v in set(graph.edges):
            if counts.get((u, v), 0) != graph.edge_mult(u, v):
                raise InvalidCartanError(
                    f"arrow multiplicity on edge {u}-{v} does not match the graph"
                )
        if counts.keys() - {tuple(sorted(e)) for e in graph.edges}:
            raise InvalidCartanError("arrow on a non-edge")
        self.graph = graph
        self.arrows = arrows
        self._out, self._in = _arrow_index(graph.n, arrows)
        self._masks = None
        if self._topological_order() is None:
            raise AcyclicityError("orientation has an oriented cycle")

    @classmethod
    def _trusted(cls, graph, arrows, out, into):
        """The quiver of arrows already known to orient ``graph``
        acyclically, with their index: installed without validation."""
        q = object.__new__(cls)
        q.graph, q.arrows, q._out, q._in = graph, arrows, out, into
        q._masks = None
        return q

    def _vertex_masks(self):
        """(into, out, reach): per vertex, the mask of the vertices with an
        arrow into it, of those with an arrow out of it, and of those it
        reaches, itself included; slot 0 unused.  Built on first use, the
        reach masks in reverse topological order, each from its
        out-neighbours' masks."""
        if self._masks is not None:
            return self._masks
        into = [0] * (self.n + 1)
        out = [0] * (self.n + 1)
        for s, e in self.arrows:
            out[s] |= 1 << e
            into[e] |= 1 << s
        reach = [0] * (self.n + 1)
        for v in reversed(self._topological_order()):
            r = 1 << v
            for w in _members(out[v]):
                r |= reach[w]
            reach[v] = r
        self._masks = tuple(into), tuple(out), tuple(reach)
        return self._masks

    def _sink_after(self, flips, x):
        """Whether x is a sink of this quiver reflected at the vertices
        whose bits are set in the parity mask ``flips``.  An arrow u -> v
        is reversed there exactly when bits u and v differ."""
        into, out, _ = self._vertex_masks()
        if not 0 < x < len(out):
            return True
        a, b = (into[x], out[x]) if flips >> x & 1 else (out[x], into[x])
        return not (a & ~flips or b & flips)

    def _source_after(self, flips, x):
        """Whether x is a source of this quiver reflected at the vertices
        whose bits are set in ``flips``: a sink once reflected at x too."""
        return not 0 < x <= self.n or self._sink_after(flips ^ 1 << x, x)

    def _flipped(self, flips):
        """The quiver reflected at the vertices whose bits are set in
        ``flips``, which must be the parity mask of a walk of sinks or
        sources from this quiver: the arrow at each position is reversed
        exactly when its two ends' bits differ, and is installed without
        validation."""
        arrows = tuple(
            (e, s) if (flips >> s ^ flips >> e) & 1 else (s, e) for s, e in self.arrows
        )
        return Quiver._trusted(self.graph, arrows, *_arrow_index(self.n, arrows))

    def _mask(self, X):
        """(mask of the vertices of X, set of the ids of X outside 1..n)."""
        n, mask, extra = self.n, 0, set()
        for x in X:
            if 0 < x <= n:
                mask |= 1 << x
            else:
                extra.add(x)
        return mask, extra

    def _up(self, mask):
        """The mask of everything reached from a vertex of ``mask``."""
        reach = self._vertex_masks()[2]
        up = 0
        for v in _members(mask):
            up |= reach[v]
        return up

    def _hull(self, mask):
        """The mask of the upward closure of a filter mask and its
        neighbours."""
        into, out, _ = self._vertex_masks()
        grown = mask
        for v in _members(mask):
            grown |= into[v] | out[v]
        return self._up(grown)

    @property
    def n(self):
        return self.graph.n

    def vertices(self):
        return range(1, self.n + 1)

    def arrows_out(self, x):
        """Positions in ``arrows`` of the arrows out of x, in order."""
        return self._out[x] if 0 < x < len(self._out) else ()

    def arrows_in(self, x):
        """Positions in ``arrows`` of the arrows into x, in order."""
        return self._in[x] if 0 < x < len(self._in) else ()

    def _topological_order(self):
        arrows, out = self.arrows, self._out
        indeg = [len(into) for into in self._in]
        queue = deque(v for v in self.vertices() if indeg[v] == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for i in out[u]:
                e = arrows[i][1]
                indeg[e] -= 1
                if indeg[e] == 0:
                    queue.append(e)
        return order if len(order) == self.n else None

    def topological_order(self):
        order = self._topological_order()
        assert order is not None
        return order

    def sinks(self):
        """Vertices with no outgoing arrow."""
        out = self._out
        return {v for v in self.vertices() if not out[v]}

    def sources(self):
        into = self._in
        return {v for v in self.vertices() if not into[v]}

    def is_sink(self, x):
        return not (0 < x < len(self._out) and self._out[x])

    def is_source(self, x):
        return not (0 < x < len(self._in) and self._in[x])

    def reflect(self, x):
        """The quiver with every arrow incident to ``x`` reversed.

        Involutive.  Trusted at a sink or a source; elsewhere validated,
        raising AcyclicityError when the result has an oriented cycle.
        """
        if not 0 < x < len(self._out):
            return self  # no arrow is incident to x
        into, out = self._in[x], self._out[x]
        if not (into and out):
            return self._flipped(1 << x)
        arrows = list(self.arrows)
        for i in into + out:
            s, e = arrows[i]
            arrows[i] = (e, s)
        return Quiver(self.graph, arrows)

    def leq(self, u, v):
        """Path order: u <= v iff there is a (possibly empty) path u -> v."""
        if not 0 < u <= self.n:
            return u == v
        reach = self._vertex_masks()[2]
        return 0 < v <= self.n and reach[u] >> v & 1 == 1

    def reachable(self, u):
        if not 0 < u <= self.n:
            return {u}
        return _members(self._vertex_masks()[2][u])

    def is_filter(self, X):
        """True iff X is upward closed in the path order."""
        mask = self._mask(X)[0]
        return self._up(mask) == mask

    def principal_filter(self, x):
        """<x> = all vertices reachable from x."""
        return frozenset(self.reachable(x))

    def upward_closure(self, X):
        mask, extra = self._mask(X)
        return frozenset(_members(self._up(mask)) | extra)

    def hull(self, F):
        """Smallest filter containing F and every neighbor of F."""
        mask, extra = self._mask(F)
        if self._up(mask) != mask:
            raise FilterViolationError(f"{sorted(_members(mask) | extra)} is not a filter")
        return frozenset(_members(self._hull(mask)) | extra)

    def all_filters(self):
        """Every filter of the vertex poset, as frozensets."""
        from itertools import combinations

        out = []
        verts = list(self.vertices())
        for k in range(self.n + 1):
            for sub in combinations(verts, k):
                if self.is_filter(sub):
                    out.append(frozenset(sub))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.graph == other.graph
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.graph, self.arrows))

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={list(self.arrows)})"


def quiver_from_arrows(n, arrows):
    """Quiver whose underlying graph is read off from the arrow list."""
    edges = [tuple(sorted(a)) for a in arrows]
    return Quiver(Graph(n, edges), arrows)


def quiver_from_dict(data):
    """Parse the JSON quiver format.

    Either {"n": int, "arrows": [[s, e], ...]} or
    {"cartan": [[...]], "arrows": [[s, e], ...]}; in the latter case the
    arrow multiplicities must agree with the Cartan matrix.  Raises
    AdmseqError for any other shape.
    """
    if not (isinstance(data, dict) and _int_rows(data.get("arrows"), 2)
            and ("cartan" in data or type(data.get("n")) is int)):
        raise AdmseqError('a quiver is {"n": int or "cartan": [[...]], "arrows": [[s, e]]}')
    arrows = [tuple(a) for a in data["arrows"]]
    if "cartan" in data:
        return Quiver(graph_from_cartan(data["cartan"]), arrows)
    return quiver_from_arrows(data["n"], arrows)


def load_quiver(path):
    with open(path) as fh:
        return quiver_from_dict(json.load(fh))


def quiver_to_dict(q):
    return {"n": q.n, "arrows": [list(a) for a in q.arrows]}


@lru_cache(maxsize=None)
def _acyclic_orientation_cache(graph):
    edge_list = list(graph.edges)
    top = len(edge_list) - 1
    out = []
    # bit top - i of flips reverses edge i, so the first edge flips slowest
    for flips in range(1 << len(edge_list)):
        arrows = [
            (v, u) if flips >> (top - i) & 1 else (u, v)
            for i, (u, v) in enumerate(edge_list)
        ]
        try:
            out.append(Quiver(graph, tuple(arrows)))
        except AcyclicityError:
            continue
    return tuple(out)


def acyclic_orientations(graph):
    """All acyclic orientations of a graph, as quivers."""
    return _acyclic_orientation_cache(graph)
