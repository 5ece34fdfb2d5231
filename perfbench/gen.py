"""Seeded benchmark inputs and independent integer oracles.

Everything here works on raw ``(n, arrows)`` pairs and integer tuples and
never imports the library, so that the inputs a seed produces do not
change when the library changes, and the oracles stay independent of the
code paths they check.  Vertices are 1..n and an arrow is ``(source,
target)``, one entry per edge instance, as in the library's JSON format.
"""

from __future__ import annotations

from collections import deque

# The four quivers every workload draws on.
A8 = (8, tuple((i, i + 1) for i in range(1, 8)))
KRONECKER = (2, ((1, 2), (1, 2)))
AFFINE_A7 = (8, tuple((i, i + 1) for i in range(1, 8)) + ((1, 8),))
WILD3 = (3, ((1, 2), (1, 2), (2, 3), (1, 3)))
A3 = (3, ((1, 2), (2, 3)))
FIXED = {"A8": A8, "kronecker": KRONECKER, "affine_A7": AFFINE_A7, "wild3": WILD3}

# Seeded random quivers: (n, extra edges beyond a spanning tree, doubled
# edge).  The shapes are fixed so that the work a seed implies stays
# comparable from seed to seed; the seed picks the graph and orientation.
RANDOM_SLOTS = ((4, 1, False), (5, 0, True), (6, 1, True), (7, 1, False), (8, 0, True), (8, 2, False))


def orient(rng, n, edges):
    """Acyclic orientation of an edge list: arrows go up a random order."""
    rank = list(range(n))
    rng.shuffle(rank)
    return tuple((u, v) if rank[u - 1] < rank[v - 1] else (v, u) for u, v in edges)


def random_quiver(rng, n, extra, doubled):
    """Connected acyclic quiver: a random spanning tree plus ``extra``
    new edges, with one tree edge doubled when ``doubled``."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    while extra:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
            extra -= 1
    if doubled:
        edges.append(edges[rng.randrange(len(edges))])
    return n, orient(rng, n, edges)


def random_family(rng):
    return [random_quiver(rng, n, extra, doubled) for n, extra, doubled in RANDOM_SLOTS]


def dynkin_edges(kind, n):
    """Edges of the Dynkin diagram A_n, D_n or E_n (n = 6, 7, 8)."""
    path = [(i, i + 1) for i in range(1, n)]
    if kind == "A":
        return path
    if kind == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]


# ------------------------------------------------------------- orientations


def is_sink(arrows, x):
    return all(s != x for s, _ in arrows)


def sinks(n, arrows):
    starts = {s for s, _ in arrows}
    return [v for v in range(1, n + 1) if v not in starts]


def reflect(arrows, x):
    return tuple((e, s) if x in (s, e) else (s, e) for s, e in arrows)


def reflect_all(arrows, letters):
    for x in letters:
        arrows = reflect(arrows, x)
    return arrows


def sink_walk(rng, n, arrows, length):
    """Random admissible sequence: each letter is a random current sink."""
    letters = []
    for _ in range(length):
        x = rng.choice(sinks(n, arrows))
        letters.append(x)
        arrows = reflect(arrows, x)
    return tuple(letters)


def first_non_sink(arrows, letters):
    """1-based position of the first letter that is not a sink of the
    running orientation, or None for an admissible sequence."""
    for i, x in enumerate(letters, start=1):
        if not is_sink(arrows, x):
            return i
        arrows = reflect(arrows, x)
    return None


def mult(n, letters):
    m = [0] * n
    for x in letters:
        m[x - 1] += 1
    return tuple(m)


def complete_sequence(rng, n, arrows):
    """A complete admissible sequence (each vertex once)."""
    letters = []
    for _ in range(n):
        x = rng.choice([v for v in sinks(n, arrows) if v not in letters])
        letters.append(x)
        arrows = reflect(arrows, x)
    return tuple(letters)


# ------------------------------------------------------ principal sequences


def reachable(arrows, x):
    seen = {x}
    queue = deque([x])
    while queue:
        w = queue.popleft()
        for s, e in arrows:
            if s == w and e not in seen:
                seen.add(e)
                queue.append(e)
    return frozenset(seen)


def _hull(arrows, level):
    grown = set(level)
    for s, e in arrows:
        if s in level or e in level:
            grown.update((s, e))
    out = set()
    for v in grown:
        out |= reachable(arrows, v)
    return frozenset(out)


def principal_levels(arrows, r, x):
    """Level sets of S_{r,x}, first segment first: the last is the
    principal filter of x, each earlier one the hull of the next."""
    levels = [reachable(arrows, x)]
    for _ in range(r - 1):
        levels.append(_hull(arrows, levels[-1]))
    levels.reverse()
    return levels


def principal_mult(n, arrows, r, x):
    levels = principal_levels(arrows, r, x)
    return tuple(sum(v in f for f in levels) for v in range(1, n + 1))


def principal_letters(rng, arrows, r, x):
    """A sequence equivalent to S_{r,x}: each level set emitted in a
    random sink order of the running orientation."""
    letters = []
    for level in principal_levels(arrows, r, x):
        pool = set(level)
        while pool:
            x_next = rng.choice(sorted(v for v in pool if is_sink(arrows, v)))
            letters.append(x_next)
            pool.remove(x_next)
            arrows = reflect(arrows, x_next)
    return tuple(letters)


def nq_reachable(arrows, a, b):
    """Path from node a to node b of the translation quiver, whose
    arrows are (k, v) -> (k, u) and (k, u) -> (k + 1, v) for each arrow
    u -> v, searched up to the level of b."""
    seen = {a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            return True
        level, w = node
        for u, v in arrows:
            for nxt in ((level, u) if v == w else None, (level + 1, v) if u == w else None):
                if nxt and nxt[0] <= b[0] and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


# --------------------------------------------------------------- Weyl group


def cartan(n, arrows):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, e in arrows:
        a[s - 1][e - 1] -= 1
        a[e - 1][s - 1] -= 1
    return tuple(tuple(row) for row in a)


def sigma(a, x, v):
    """sigma_x(v) = v - <row x of A, v> e_x."""
    i = x - 1
    c = sum(a[i][j] * v[j] for j in range(len(v)))
    return tuple(vj - c if j == i else vj for j, vj in enumerate(v))


def root(a, letters):
    """sigma_{x_1} ... sigma_{x_{s-1}} (e_{x_s}), the dimension vector of
    M(S) by Bernstein-Gelfand-Ponomarev."""
    v = tuple(int(j == letters[-1] - 1) for j in range(len(a)))
    for x in reversed(letters[:-1]):
        v = sigma(a, x, v)
    return v


def _identity_cols(n):
    return [[int(i == j) for i in range(n)] for j in range(n)]


def _right_mul(a, cols, x):
    """Replace the column list of P by that of P sigma_x: column j gains
    -a_xj times column x, and column x changes sign."""
    cx = cols[x - 1]
    for j, f in enumerate(a[x - 1]):
        if f and j != x - 1:
            cols[j] = [p - f * q for p, q in zip(cols[j], cx)]
    cols[x - 1] = [-c for c in cx]


def first_non_reduced(a, letters):
    """1-based position of the first letter whose root
    sigma_{x_1} ... sigma_{x_{k-1}}(e_{x_k}) is negative, or None when
    the word is reduced.  Keeps the prefix product by columns, so one
    letter costs one column update instead of a matrix product."""
    cols = _identity_cols(len(a))
    for k, x in enumerate(letters, start=1):
        if any(c < 0 for c in cols[x - 1]):
            return k
        _right_mul(a, cols, x)
    return None


def is_reduced(a, letters):
    return first_non_reduced(a, letters) is None


def random_reduced_word(rng, a, length):
    """A reduced word built letter by letter from random candidates; it
    stops short of ``length`` when no letter extends it (finite type)."""
    n = len(a)
    cols = _identity_cols(n)
    letters = []
    while len(letters) < length:
        ok = [x for x in range(1, n + 1) if all(c >= 0 for c in cols[x - 1])]
        if not ok:
            break
        x = rng.choice(ok)
        letters.append(x)
        _right_mul(a, cols, x)
    return tuple(letters)


def product(a, letters):
    """sigma_{x_1} sigma_{x_2} ... sigma_{x_s} as a tuple of rows."""
    n = len(a)
    cols = _identity_cols(n)
    for x in letters:
        _right_mul(a, cols, x)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def coxeter_dims(n, arrows, dims):
    """Dimension vector after the Coxeter functor on an indecomposable:
    sigma at each vertex of a complete sequence, or zero once the module
    is the simple at the sink being reflected."""
    a = cartan(n, arrows)
    v = tuple(dims)
    used = set()
    while len(used) < n:
        x = min(s for s in sinks(n, arrows) if s not in used)
        if v == tuple(int(j == x - 1) for j in range(n)):
            return (0,) * n
        v = sigma(a, x, v)
        used.add(x)
        arrows = reflect(arrows, x)
    return v
