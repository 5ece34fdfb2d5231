"""Graphs, Cartan matrices, quivers, and the vertex poset.

Vertices are contiguous ids 1..n.  A graph is held as its sorted edge
tuple alone.  Its Cartan matrix is kept once, as sparse rows built from
the edges and cached per edge tuple (``_rows_of``), which Weyl words and
elements share and ``neighbors`` reads; only ``cartan()`` builds the
dense n x n matrix, so none lies on the path from an arrow list to a
quiver or a Weyl walk.  Edges and arrows are read once, by one
pair reader, and a Cartan matrix and an orientation are each checked by
one comparison with a matrix or an edge tuple.  Multiple edges are kept
as individual arrow instances so that parallel arrows stay
distinguishable by index.  All objects are immutable after construction.

A vertex set is also an ``int`` mask, bit v for vertex v.  Each quiver
builds, once, three masks per vertex: its in-neighbours, its
out-neighbours and the vertices it reaches.  These masks are the
quiver's store for the path order: sink and source tests, filters and
hulls are mask operations on them.  The functors read the arrows at each
vertex with their other ends, listed on first use (``_incidence_of``);
the list holds no orientation, so reflected quivers share it.  A walk of
reflections at sinks or sources reverses the edge u-v exactly when u
and v were reflected, together, an odd number of times, so the
orientation after any prefix of a walk is this quiver plus one parity
mask of the vertices reflected an odd number of times.  Sink and source
tests after a walk read that mask, and the quiver it stands for is built
only when asked for.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import (
    AcyclicityError,
    AdmseqError,
    FilterViolationError,
    IndecomposabilityError,
    InvalidCartanError,
    _int,
    _int_tuple,
    _list,
    _ordered,
    _vertex,
)


class Graph:
    """Connected loop-free multigraph on vertices 1..n, with n >= 2.

    ``edges`` holds its edges: the pairs (u, v) with u < v, in order,
    each repeated as often as the edge multiplicity; ``neighbors`` reads
    the off-diagonal entries of the cached Cartan rows (``_rows_of``).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self._read(n, edges)

    def _read(self, n, edges):
        """Read the vertex count and the edge list into this graph, or
        raise; returns the edges as read, (u, v) pairs in the order given."""
        n = _int(n, "vertex count")
        if n < 2:
            raise IndecomposabilityError("graph must have more than one vertex")
        pairs = [_ends(n, e, "edge") for e in _list(edges, "edges must be a list of pairs")]
        if len(pairs) < n - 1:  # too few to connect n vertices: no per-vertex list is built
            raise IndecomposabilityError("graph is disconnected")
        nbrs = [0] * (n + 1)  # per vertex, its neighbours as a mask, for this search only
        for u, v in pairs:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        seen = rest = 2  # breadth first from vertex 1
        while rest:
            grown = 0
            while rest:
                low = rest & -rest
                grown |= nbrs[low.bit_length() - 1]
                rest ^= low
            rest = grown & ~seen
            seen |= rest
        if seen != (1 << n + 1) - 2:
            raise IndecomposabilityError("graph is disconnected")
        edges = sorted((u, v) if u < v else (v, u) for u, v in pairs)
        self.n, self.edges = n, tuple(edges)
        return pairs

    def edge_mult(self, u, v):
        u, v = _vertex(self.n, u), _vertex(self.n, v)
        return self.edges.count((u, v) if u < v else (v, u))

    def neighbors(self, u):
        """The vertices joined to the vertex u by an edge."""
        return {j + 1 for j, a in self._rows()[_vertex(self.n, u) - 1] if a < 0}

    def _rows(self):
        return _rows_of(self.n, self.edges)

    def cartan(self):
        """The symmetric generalized Cartan matrix: 2 on the diagonal,
        minus the edge multiplicity off it; built anew on each call."""
        return _matrix_of(self._rows())

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _ends(n, pair, what):
    """The edge or arrow ``pair`` as (u, v): two distinct integer ids in
    1..n, or an AdmseqError naming it ``what``."""
    u, v = ends = _int_tuple(pair, f"{what} ends", 2)
    if not (0 < u <= n and 0 < v <= n):
        raise InvalidCartanError(f"{what} ({u},{v}) out of vertex range 1..{n}")
    if u == v:
        raise InvalidCartanError(f"loop {what} at vertex {u}")
    return ends


@lru_cache(maxsize=64)
def _rows_of(n, edges):
    """Row x of the Cartan matrix of the multigraph on 1..n with one edge
    per pair (u, v) in ``edges``, as its (j, a_xj) pairs with a_xj != 0,
    0-based, for each x.  Cached: one Weyl group, one tuple of rows."""
    rows = [{i: 2} for i in range(n)]
    for u, v in edges:
        rows[u - 1][v - 1] = rows[u - 1].get(v - 1, 0) - 1
        rows[v - 1][u - 1] = rows[v - 1].get(u - 1, 0) - 1
    return tuple(tuple(row.items()) for row in rows)


def _matrix_of(rows):
    """The dense matrix, as a tuple of rows, of the sparse rows."""
    matrix = [[0] * len(rows) for _ in rows]
    for dense, row in zip(matrix, rows):
        for j, a in row:
            dense[j] = a
    return tuple(map(tuple, matrix))


def _upper_edges(A):
    """The pairs (i, j), i < j, in order, each repeated -a_ij times (never if a_ij >= 0)."""
    return tuple(e for i, row in enumerate(A, 1) for j, a in enumerate(row[i:], i + 1)
                 if a for e in [(i, j)] * -a)


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


def _cartan_rows(A):
    """The rows (``_rows_of``) of a Graph, unchecked, or of A.  Raises
    InvalidCartanError for anything but a square list of integer rows that
    form a symmetric generalized Cartan matrix: A is one exactly when it is
    the matrix of the edges read off its upper triangle, connected or not."""
    if isinstance(A, Graph):
        return A._rows()
    if not _int_rows(A):
        raise InvalidCartanError("matrix is not a square list of integer rows")
    rows = _rows_of(len(A), _upper_edges(A))
    if _matrix_of(rows) != tuple(map(tuple, A)):
        raise InvalidCartanError("matrix is not symmetric with 2 on the diagonal and <= 0 off it")
    return rows


def graph_from_cartan(A):
    """The graph whose Cartan matrix is ``A``, A itself if a Graph; raises
    as ``_cartan_rows`` does, and IndecomposabilityError when A splits."""
    return A if isinstance(A, Graph) else Graph(len(_cartan_rows(A)), _upper_edges(A))


@lru_cache(maxsize=64)
def _incidence_of(n, arrows):
    """Per vertex, the (position, other end) of each arrow at it, in
    arrow order; slot 0 unused.  Cached, so that quivers on the same
    arrows, built apart, share one."""
    at = [[] for _ in range(n + 1)]
    for i, (s, e) in enumerate(arrows):
        at[s].append((i, e))
        at[e].append((i, s))
    return tuple(map(tuple, at))


def _members(mask):
    """The set of vertices whose bits are set in ``mask``."""
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


_ARROWS = "arrows must be a list of pairs"


class Quiver:
    """A graph together with an acyclic orientation.

    ``arrows`` is a tuple of ordered pairs (source, target), one entry
    per edge instance.  The per-vertex masks (see the module docstring),
    built by the acyclicity check or on first use, serve sink and source
    tests, reachability, filters and hulls, ``_incidence`` the functors,
    and ``arrows_in`` and ``arrows_out`` scan the arrow tuple.

    ``reflect(x)`` at a sink or a source is trusted: reversing the
    arrows there keeps the multiplicities and cannot close a cycle
    (Bernstein-Gelfand-Ponomarev), so the result is built without
    validation.  At any other vertex the result is fully validated and
    may raise AcyclicityError.

    Equality compares the graph and the arrow tuple in order: the same
    orientation with its arrows listed in another order is a different
    quiver, because representations attach one matrix per arrow position.

    Every query reads its vertex ids with ``errors._vertex``: an id that
    is not a vertex 1..n is an AdmseqError.
    """

    __slots__ = ("graph", "arrows", "_masks", "_at")

    def __init__(self, graph, arrows):
        arrows = tuple(_ends(graph.n, a, "arrow") for a in _ordered(arrows, _ARROWS))
        # they orient the graph exactly when, unoriented and sorted, they are its edges
        if sorted((s, e) if s < e else (e, s) for s, e in arrows) != list(graph.edges):
            raise InvalidCartanError("arrows do not orient the edges of the graph")
        self.graph, self.arrows, self._masks, self._at = graph, arrows, None, None
        self._vertex_masks()  # the acyclicity check

    @classmethod
    def _trusted(cls, graph, arrows, at=None):
        """The quiver of arrows already known to orient ``graph``
        acyclically: installed without validation, sharing ``at``."""
        q = object.__new__(cls)
        q.graph, q.arrows, q._masks, q._at = graph, arrows, None, at
        return q

    def _incidence(self):
        """``_incidence_of`` this quiver, read once: it holds the ends of
        the arrows, not their orientation."""
        if self._at is None:
            self._at = _incidence_of(self.n, self.arrows)
        return self._at

    def _vertex_masks(self):
        """(into, out, reach): per vertex, the mask of the vertices with an
        arrow into it, of those with an arrow out of it, and of those it
        reaches, itself included; slot 0 unused.  Built once, the reach
        masks in reverse topological order, each from its out-neighbours'
        masks; raises AcyclicityError when there is no such order."""
        if self._masks is not None:
            return self._masks
        order = self._topological_order()
        if order is None:
            raise AcyclicityError("orientation has an oriented cycle")
        into, out, reach = ([0] * (self.n + 1) for _ in range(3))
        for s, e in self.arrows:
            out[s] |= 1 << e
            into[e] |= 1 << s
        for v in reversed(order):
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
        a, b = (into[x], out[x]) if flips >> x & 1 else (out[x], into[x])
        return not (a & ~flips or b & flips)

    def _source_after(self, flips, x):
        """Whether x is a source of this quiver reflected at the vertices
        whose bits are set in ``flips``: a sink once reflected at x too."""
        return self._sink_after(flips ^ 1 << x, x)

    def _flipped(self, flips):
        """The quiver reflected at the vertices whose bits are set in
        ``flips``, which must be the parity mask of a walk of sinks or
        sources from this quiver: the arrow at each position is reversed
        exactly when its two ends' bits differ, and is installed without
        validation, sharing this quiver's incidence."""
        arrows = tuple(
            (e, s) if (flips >> s ^ flips >> e) & 1 else (s, e) for s, e in self.arrows
        )
        return Quiver._trusted(self.graph, arrows, self._at)

    def _mask(self, X):
        """The mask of the vertices of X, each read with ``_vertex``."""
        mask = 0
        for x in _list(X, "a vertex set must be a list of vertices"):
            mask |= 1 << _vertex(self.n, x)
        return mask

    def _up(self, mask):
        """The mask of everything reached from a vertex of ``mask``.  A
        vertex already reached is skipped: it reaches nothing new."""
        reach = self._vertex_masks()[2]
        up = 0
        while mask:
            up |= reach[(mask & -mask).bit_length() - 1]
            mask &= ~up
        return up

    def _hull(self, mask):
        """The mask of the upward closure of a filter mask and its
        neighbours."""
        into, out, _ = self._vertex_masks()
        grown = rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            grown |= into[v] | out[v]
            rest ^= low
        return self._up(grown)

    @property
    def n(self):
        return self.graph.n

    def vertices(self):
        return range(1, self.n + 1)

    def arrows_out(self, x):
        """Positions in ``arrows`` of the arrows out of x, in order."""
        x = _vertex(self.n, x)
        return tuple(i for i, (s, _) in enumerate(self.arrows) if s == x)

    def arrows_in(self, x):
        """Positions in ``arrows`` of the arrows into x, in order."""
        x = _vertex(self.n, x)
        return tuple(i for i, (_, e) in enumerate(self.arrows) if e == x)

    def _topological_order(self):
        """Kahn's order: the sources in increasing id, then each vertex's
        targets released in arrow order; None on an oriented cycle."""
        n = self.n
        targets, indeg = [[] for _ in range(n + 1)], [0] * (n + 1)
        for s, e in self.arrows:
            targets[s].append(e)
            indeg[e] += 1
        order = [v for v in range(1, n + 1) if not indeg[v]]
        for u in order:  # the list is the queue: it grows as it is read
            for e in targets[u]:
                indeg[e] -= 1
                if not indeg[e]:
                    order.append(e)
        return order if len(order) == n else None

    def topological_order(self):
        order = self._topological_order()
        assert order is not None
        return order

    def sinks(self):
        """Vertices with no outgoing arrow."""
        return {v for v in self.vertices() if self._sink_after(0, v)}

    def sources(self):
        return {v for v in self.vertices() if self._source_after(0, v)}

    def is_sink(self, x):
        return self._sink_after(0, _vertex(self.n, x))

    def is_source(self, x):
        return self._source_after(0, _vertex(self.n, x))

    def reflect(self, x):
        """The quiver with every arrow incident to ``x`` reversed.

        Involutive.  Trusted at a sink or a source; elsewhere validated,
        raising AcyclicityError when the result has an oriented cycle.
        """
        x = _vertex(self.n, x)
        if self._sink_after(0, x) or self._source_after(0, x):
            return self._flipped(1 << x)
        return Quiver(self.graph, [(e, s) if x in (s, e) else (s, e) for s, e in self.arrows])

    def leq(self, u, v):
        """Path order: u <= v iff there is a (possibly empty) path u -> v."""
        reach = self._vertex_masks()[2]
        return reach[_vertex(self.n, u)] >> _vertex(self.n, v) & 1 == 1

    def reachable(self, u):
        return _members(self._vertex_masks()[2][_vertex(self.n, u)])

    def is_filter(self, X):
        """True iff X is upward closed in the path order."""
        mask = self._mask(X)
        return self._up(mask) == mask

    def principal_filter(self, x):
        """<x> = all vertices reachable from x."""
        return frozenset(self.reachable(x))

    def upward_closure(self, X):
        return frozenset(_members(self._up(self._mask(X))))

    def hull(self, F):
        """Smallest filter containing F and every neighbor of F."""
        mask = self._mask(F)
        if self._up(mask) != mask:
            raise FilterViolationError(f"{sorted(_members(mask))} is not a filter")
        return frozenset(_members(self._hull(mask)))

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
    """Quiver whose underlying graph is read off from the arrow list.

    The arrows are read once, as the edges of that graph and as the
    arrow tuple, so they orient it by construction and only the
    acyclicity check is left; an iterator of arrows is read like a list.
    """
    graph = object.__new__(Graph)
    q = Quiver._trusted(graph, tuple(graph._read(n, _ordered(arrows, _ARROWS))))
    q._vertex_masks()  # the acyclicity check
    return q


def quiver_from_dict(data):
    """Parse the JSON quiver format.

    Either {"n": int, "arrows": [[s, e], ...]} or
    {"cartan": [[...]], "arrows": [[s, e], ...]}, whose arrow multiplicities
    must agree with the Cartan matrix.  Raises AdmseqError for any other
    shape, both keys included.
    """
    if not (isinstance(data, dict) and _int_rows(data.get("arrows"), 2)
            and ("cartan" in data) != ("n" in data) and type(data.get("n", 0)) is int):
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

