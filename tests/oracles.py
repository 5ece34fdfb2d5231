"""Independent brute-force oracles used by the test suite.

Everything here works on raw vertex/arrow tuples, not on the library
types, so that the oracles stay independent of the code paths they
check.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations


# ---------------------------------------------------------------- quivers


def raw_graph(n, edges):
    """(sorted edges, Cartan matrix, neighbour sets, connected) of the
    multigraph on 1..n with one edge per pair (u, v), either way round:
    the edges as (min, max) pairs, the matrix as a tuple of rows, the
    neighbour sets as a dict by vertex."""
    pairs = sorted((min(e), max(e)) for e in edges)
    cartan = [[0] * n for _ in range(n)]
    neighbours = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        cartan[u - 1][v - 1] -= 1
        cartan[v - 1][u - 1] -= 1
        neighbours[u].add(v)
        neighbours[v].add(u)
    for i in range(n):
        cartan[i][i] = 2
    seen = {1}
    grew = True
    while grew:
        grew = False
        for u, v in pairs:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                grew = True
    return tuple(pairs), tuple(map(tuple, cartan)), neighbours, len(seen) == n


def raw_sinks(n, arrows):
    starts = {s for s, _ in arrows}
    return [v for v in range(1, n + 1) if v not in starts]


def raw_reflect(arrows, x):
    return tuple((e, s) if x in (s, e) else (s, e) for s, e in arrows)


def raw_reachable(arrows, u):
    seen = {u}
    grew = True
    while grew:
        grew = False
        for s, e in arrows:
            if s in seen and e not in seen:
                seen.add(e)
                grew = True
    return seen


def raw_nq_reachable(arrows, a, b):
    """Whether node a reaches node b of the translation quiver, by a
    breadth-first search that scans the arrow list at every node: each
    arrow u -> v gives (l, v) -> (l, u) and (l, u) -> (l + 1, v).  No
    node above b's level is visited, since no arrow lowers the level."""
    seen, queue = {a}, [a]
    for level, w in queue:
        steps = [(level, s) for s, e in arrows if e == w]
        steps += [(level + 1, e) for s, e in arrows if s == w]
        for node in steps:
            if node[0] <= b[0] and node not in seen:
                seen.add(node)
                queue.append(node)
    return b in seen


def raw_topological_order(n, arrows):
    """Kahn's algorithm by whole-list scans: a queue seeded with the
    in-degree-0 vertices in increasing order, each vertex releasing its
    targets in arrow order."""
    indeg = {v: 0 for v in range(1, n + 1)}
    for _, e in arrows:
        indeg[e] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    for u in queue:
        for s, e in arrows:
            if s == u:
                indeg[e] -= 1
                if indeg[e] == 0:
                    queue.append(e)
    return queue


def raw_acyclic_orientations(n, edges):
    """Every acyclic orientation of the edge list, as arrow tuples: bit
    top - i of a counter reverses edge i, so the first edge flips
    slowest, and an orientation is kept when Kahn's order reaches every
    vertex."""
    top = len(edges) - 1
    out = []
    for flips in range(1 << len(edges)):
        arrows = tuple((v, u) if flips >> (top - i) & 1 else (u, v)
                       for i, (u, v) in enumerate(edges))
        if len(raw_topological_order(n, arrows)) == n:
            out.append(arrows)
    return out


def raw_filters(n, arrows):
    """Every filter of the path order, as frozensets, by size: the vertex
    sets that hold everything each member reaches."""
    return [frozenset(sub) for k in range(n + 1) for sub in combinations(range(1, n + 1), k)
            if all(raw_reachable(arrows, v) <= set(sub) for v in sub)]


def raw_enumerate(n, arrows, max_len):
    """All admissible letter tuples of length <= max_len, with the final
    orientation of each, breadth first: by length, and the extensions of
    each tuple in increasing order of the new letter."""
    out = {(): arrows}
    frontier = [((), arrows)]
    for _ in range(max_len):
        nxt = []
        for letters, arr in frontier:
            for x in raw_sinks(n, arr):
                item = (letters + (x,), raw_reflect(arr, x))
                nxt.append(item)
                out[item[0]] = item[1]
        frontier = nxt
    return out


def raw_mult(n, letters):
    m = [0] * n
    for x in letters:
        m[x - 1] += 1
    return tuple(m)


def raw_projective_dims(n, arrows):
    """Dimension vectors of the indecomposable projectives: entry v of
    the x-th counts the paths from x to v, summed over the arrows into v
    in a topological order."""
    out = []
    for x in range(1, n + 1):
        paths = {v: int(v == x) for v in range(1, n + 1)}
        for v in raw_topological_order(n, arrows):
            paths[v] += sum(paths[s] for s, e in arrows if e == v)
        out.append(tuple(paths[v] for v in range(1, n + 1)))
    return out


# ---------------------------------------------------------- linear algebra


def sparse(m):
    """The rows of a dense matrix as dicts of their nonzero entries, the
    form ``linalg`` reads."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense(rows, cols):
    """Sparse rows as dense lists, an absent entry read as 0."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def fraction_rref(m, rows, cols):
    """Plain Gauss-Jordan over Fraction: every entry is converted, every
    pivot row is scaled and every other row is updated in full.  Returns
    (matrix, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in m]
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


def fraction_nullspace(m, rows, cols):
    """Kernel basis as the rows of a k x cols matrix, one vector per free
    column with a 1 in its own free coordinate."""
    r, pivots = fraction_rref(m, rows, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


# ------------------------------------------------ shortest annihilators


def raw_reflect_plus(arrows, dims, maps, x):
    """F_x^+ at a sink x on raw arrows, dims and Fraction matrices: the
    space at x becomes the kernel of the incoming maps side by side, and
    each reversed arrow carries its block of the kernel inclusion."""
    incoming = [i for i, (_, e) in enumerate(arrows) if e == x]
    widths = [dims[arrows[i][0] - 1] for i in incoming]
    stacked = [[a for i in incoming for a in maps[i][r]] for r in range(dims[x - 1])]
    basis = fraction_nullspace(stacked, dims[x - 1], sum(widths))
    maps, offset = list(maps), 0
    for i, w in zip(incoming, widths):
        maps[i] = [[v[j] for v in basis] for j in range(offset, offset + w)]
        offset += w
    return raw_reflect(arrows, x), dims[:x - 1] + (len(basis),) + dims[x:], maps


def raw_reflect_minus(arrows, dims, maps, x):
    """F_x^- at a source x on raw arrows, dims and Fraction matrices: the
    space at x becomes the cokernel of the outgoing maps stacked, the
    quotient of their targets by the image, whose quotient map has as
    its rows a basis of the vectors y with y A = 0 (A^T y = 0, A the
    stacked matrix); each reversed arrow carries its block of columns of
    the quotient map."""
    outgoing = [i for i, (s, _) in enumerate(arrows) if s == x]
    widths = [dims[arrows[i][1] - 1] for i in outgoing]
    stacked = [row for i in outgoing for row in maps[i]]  # sum(widths) x dims(x)
    transposed = [[row[c] for row in stacked] for c in range(dims[x - 1])]
    basis = fraction_nullspace(transposed, dims[x - 1], sum(widths))
    maps, offset = list(maps), 0
    for i, w in zip(outgoing, widths):
        maps[i] = [v[offset:offset + w] for v in basis]
        offset += w
    return raw_reflect(arrows, x), dims[:x - 1] + (len(basis),) + dims[x:], maps


def exhaustive_annihilator(rep, bound):
    """The least multiplicity vector of an admissible sequence that kills
    rep, among all those coordinatewise <= bound.  Every sink walk within
    the bound is followed, one raw F^+ step per multiplicity vector it
    reaches; the minimum of the killing vectors is asserted unique."""
    n = rep.quiver.n
    seen = {(0,) * n: (rep.quiver.arrows, rep.dims, rep.maps)}
    frontier = list(seen)
    for m in frontier:
        arrows, dims, maps = seen[m]
        for x in raw_sinks(n, arrows):
            up = m[:x - 1] + (m[x - 1] + 1,) + m[x:]
            if up[x - 1] <= bound[x - 1] and up not in seen:
                seen[up] = raw_reflect_plus(arrows, dims, maps, x)
                frontier.append(up)
    killing = [m for m, (_, dims, _) in seen.items() if not any(dims)]
    minima = [m for m in killing
              if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in killing)]
    assert len(minima) == 1, f"killing vectors have minima {minima}"
    return minima[0]


def budget_orbit_power(rep, max_iter):
    """(p, dims of the last nonzero image) for the least p <= max_iter with
    (Phi^+)^p rep = 0, or None when the orbit is still nonzero after
    max_iter passes.  Each pass reflects every vertex once by raw F^+
    steps, always at the smallest sink not yet reflected in the pass;
    nothing is compared between passes, so only the budget ends an orbit
    that never reaches zero."""
    n = rep.quiver.n
    arrows, dims, maps = rep.quiver.arrows, rep.dims, rep.maps
    p, last = 0, None
    while any(dims):
        if p == max_iter:
            return None
        p, last, done = p + 1, dims, set()
        for _ in range(n):
            x = min(set(raw_sinks(n, arrows)) - done)
            done.add(x)
            arrows, dims, maps = raw_reflect_plus(arrows, dims, maps, x)
    return p, last


# ------------------------------------------------------------ direct sums


def fraction_direct_sum(arrows, parts):
    """The maps of the direct sum of (dims, Fraction maps) parts: per
    arrow, the parts' matrices down the diagonal of a Fraction zero
    matrix."""
    maps = []
    for i, (s, e) in enumerate(arrows):
        cols = sum(dims[s - 1] for dims, _ in parts)
        block, co = [], 0
        for dims, m in parts:
            for row in m[i]:
                line = [Fraction(0)] * cols
                line[co:co + dims[s - 1]] = row
                block.append(tuple(line))
            co += dims[s - 1]
        maps.append(tuple(block))
    return tuple(maps)


# ---------------------------------------------------- swap-closure classes


def swap_closure_classes(n, arrows, seqs):
    """Partition of the given admissible sequences into swap-equivalence
    classes: the reflexive-transitive closure of exchanging adjacent
    letters not joined by an edge."""
    edges = {frozenset(a) for a in arrows}
    index = {s: i for i, s in enumerate(seqs)}
    parent = list(range(len(seqs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for s, i in index.items():
        for k in range(len(s) - 1):
            if s[k] != s[k + 1] and frozenset((s[k], s[k + 1])) not in edges:
                t = s[:k] + (s[k + 1], s[k]) + s[k + 2 :]
                if t in index:
                    union(i, index[t])
    classes = {}
    for s, i in index.items():
        classes.setdefault(find(i), []).append(s)
    return list(classes.values())


# ----------------------------------------------------------- Weyl oracles


def reflection_matrix(cartan, i):
    n = len(cartan)
    return tuple(
        tuple(
            int(r == j) - cartan[i - 1][j] if r == i - 1 else int(r == j)
            for j in range(n)
        )
        for r in range(n)
    )


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def word_matrix(cartan, letters):
    """Product with the first letter acting first."""
    n = len(cartan)
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for x in letters:
        m = matmul(reflection_matrix(cartan, x), m)
    return m


def matrix_first_non_reduced(cartan, letters):
    """1-based position of the first letter x_k whose root
    sigma_{x_1} ... sigma_{x_{k-1}}(e_{x_k}) has a negative entry, or
    None.  Each prefix product is formed afresh as a full matrix product
    (the reversed prefix, since the first letter of a word acts first)."""
    for k, x in enumerate(letters, start=1):
        prefix = word_matrix(cartan, tuple(reversed(letters[: k - 1])))
        if any(row[x - 1] < 0 for row in prefix):
            return k
    return None


def matrix_length(cartan, letters):
    """Length of the element a word evaluates to, on any Weyl group:
    right descents (a column with a negative entry) are peeled off the
    full word_matrix product, one matrix product per peel, until the
    identity is left.  Each peel drops the length by one."""
    n = len(cartan)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    m, length = word_matrix(cartan, letters), 0
    while m != ident:
        v = next(v for v in range(n) if any(row[v] < 0 for row in m))
        m = matmul(m, reflection_matrix(cartan, v + 1))
        length += 1
    return length


@lru_cache(maxsize=None)
def bfs_lengths(cartan):
    """Word length of every element of a finite Weyl group, by
    breadth-first search from the identity over the generators."""
    n = len(cartan)
    gens = [reflection_matrix(cartan, i) for i in range(1, n + 1)]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = matmul(g, m)
                if prod not in lengths:
                    lengths[prod] = lengths[m] + 1
                    nxt.append(prod)
        frontier = nxt
        if len(lengths) > 100000:
            raise RuntimeError("group is too large for the BFS oracle")
    return lengths


def ade_is_finite(n, edges):
    """ADE classification of a connected multigraph on 1..n given by its
    edge pairs: the Weyl group is finite exactly for the simply laced
    Dynkin diagrams A_n, D_n, E6, E7, E8."""
    pairs = [tuple(sorted(e)) for e in edges]
    if len(set(pairs)) != len(pairs) or len(pairs) != n - 1:
        return False  # a multiple edge, or a cycle in a connected graph
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    if any(len(nb) > 3 for nb in adj.values()):
        return False
    branch = [v for v, nb in adj.items() if len(nb) == 3]
    if not branch:
        return True  # path: type A
    if len(branch) > 1:
        return False
    arms = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(adj[cur]) == 2:
            prev, cur = cur, (adj[cur] - {prev}).pop()
            length += 1
        arms.append(length)
    a, c, d = sorted(arms)
    if a == 1 and c == 1:
        return True  # type D
    return (a, c, d) in {(1, 2, 2), (1, 2, 3), (1, 2, 4)}  # E6, E7, E8


def lex_first_sorting_word(cartan, scan, target):
    """Exhaustive lexicographically-first subsequence search.

    ``scan`` is one period of the repeated Coxeter word in acting order.
    Returns the chosen indices into the repeated scan; the product of
    the selected reflections, first index leftmost, equals the target.
    Only valid for finite groups (uses the BFS length table).
    """
    lengths = bfs_lengths(cartan)
    total = lengths[target]
    if total == 0:
        return []
    positions = list(scan) * total
    gens = {v: reflection_matrix(cartan, v) for v in set(scan)}
    n = len(cartan)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    best = None

    def search(start, prefix, prefix_inv, count, chosen):
        nonlocal best
        if best is not None:
            return
        if count == total:
            if prefix == target:
                best = list(chosen)
            return
        remaining = total - count
        for idx in range(start, len(positions) - remaining + 1):
            v = positions[idx]
            new_prefix = matmul(prefix, gens[v])
            if lengths[new_prefix] != count + 1:
                continue
            rest = matmul(matmul(gens[v], prefix_inv), target)
            if lengths[rest] != remaining - 1:
                continue
            chosen.append(idx)
            search(idx + 1, new_prefix, matmul(gens[v], prefix_inv), count + 1, chosen)
            chosen.pop()
            if best is not None:
                return

    search(0, ident, ident, 0, [])
    return best


def matrix_sorting_blocks(cartan, c_letters, matrix):
    """Divider blocks of the c-sorting word of ``matrix`` by the column
    peel of its inverse: the inverse is the right half of the Fraction
    Gauss-Jordan form of [w | I]; then, in passes over the reversed
    Coxeter word, every letter v whose column of the remainder has a
    negative entry is peeled by a full matrix product.  Returns None when
    a pass peels nothing and the remainder is not the identity (a stuck
    peel); on an element outside W whose peel never ends, neither does
    this."""
    n = len(cartan)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    aug = [list(row) + list(e) for row, e in zip(matrix, ident)]
    red, pivots = fraction_rref(aug, n, 2 * n)
    if pivots[:n] != list(range(n)) or any(x.denominator != 1 for row in red for x in row):
        raise ValueError("not an integer matrix with an integer inverse")
    m = tuple(tuple(int(x) for x in row[n:]) for row in red)
    blocks = []
    while True:
        block = []
        for v in reversed(c_letters):
            if any(row[v - 1] < 0 for row in m):
                m = matmul(m, reflection_matrix(cartan, v))
                block.append(v)
        if not block:
            break
        blocks.append(tuple(block))
    return tuple(blocks) if m == ident else None


def sorting_blocks_from_indices(indices, scan_letters, period):
    """Divider blocks of a sorting word given flat indices into the
    repeated scan."""
    blocks = []
    if not indices:
        return blocks
    nblocks = indices[-1] // period + 1
    for b in range(nblocks):
        blocks.append(
            tuple(scan_letters[i % period] for i in indices if i // period == b)
        )
    return blocks


def all_coxeter_words(n):
    """Every permutation of 1..n, read as the letters of a Coxeter word
    with the first letter acting first."""
    return list(permutations(range(1, n + 1)))
