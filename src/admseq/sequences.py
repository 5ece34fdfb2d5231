"""(+)-admissible sequences: equivalence, the preorder, canonical forms,
the meet/join lattice, and principal sequences.

A sequence is stored together with its base quiver; two sequences can be
compared only when their base quivers coincide.  The multiplicity vector
classifies a sequence up to the swap equivalence, and all lattice
operations are computed on multiplicity vectors and then materialized
back into honest sequences.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    AdmseqError,
    BaseQuiverMismatchError,
    EmptySequenceError,
    InvalidMultiplicityError,
    NotAdmissibleError,
    NotPrincipalError,
)


class AdmissibleSeq:
    """A (+)-admissible vertex sequence on a fixed base quiver.

    Validates the vertex range and the sink condition letter by letter at
    construction; this is the one place where letters are range-checked.
    The final orientation is available as ``final_quiver``.
    """

    __slots__ = ("quiver", "letters", "final_quiver")

    def __init__(self, quiver, letters):
        letters = tuple(int(x) for x in letters)
        n = quiver.n
        running = quiver
        for i, x in enumerate(letters, start=1):
            if not 1 <= x <= n:
                raise AdmseqError(f"letter {x} at position {i} is not a vertex 1..{n}")
            if not running.is_sink(x):
                raise NotAdmissibleError(i, x)
            running = running.reflect(x)
        self.quiver = quiver
        self.letters = letters
        self.final_quiver = running

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, AdmissibleSeq)
            and self.quiver == other.quiver
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.quiver, self.letters))

    def __repr__(self):
        return f"AdmissibleSeq({','.join(map(str, self.letters))})"

    def multiplicities(self):
        """Occurrence count of each vertex, as a tuple indexed by vertex - 1."""
        m = [0] * self.quiver.n
        for x in self.letters:
            m[x - 1] += 1
        return tuple(m)

    def support(self):
        return frozenset(self.letters)

    def is_complete(self):
        return self.multiplicities() == (1,) * self.quiver.n


class CanonicalForm:
    """Segment decomposition S ~ S_1 ... S_r with nested supports."""

    __slots__ = ("quiver", "segments")

    def __init__(self, quiver, segments):
        self.quiver = quiver
        self.segments = tuple(tuple(seg) for seg in segments)

    def supports(self):
        return [frozenset(seg) for seg in self.segments]

    def sequence(self):
        letters = [x for seg in self.segments for x in seg]
        return AdmissibleSeq(self.quiver, letters)

    def render(self):
        return " | ".join(",".join(map(str, seg)) for seg in self.segments)

    def __repr__(self):
        return f"CanonicalForm({self.render()})"


def check_admissible(quiver, letters):
    """Validate a letter list; returns (sequence, final orientation)."""
    seq = AdmissibleSeq(quiver, letters)
    return seq, seq.final_quiver


def _require_same_base(s, t):
    if s.quiver != t.quiver:
        raise BaseQuiverMismatchError("sequences live on different base quivers")


def equivalent(s, t):
    """Swap equivalence: equal multiplicity vectors."""
    _require_same_base(s, t)
    return s.multiplicities() == t.multiplicities()


def precedes(s, t):
    """s precedes t iff t ~ s followed by some admissible tail; equivalently
    the multiplicity vectors compare coordinatewise."""
    _require_same_base(s, t)
    return all(a <= b for a, b in zip(s.multiplicities(), t.multiplicities()))


def _emit_segment(quiver, support):
    """Admissible ordering of a support set: repeatedly take the
    smallest-id vertex of the pool that is a sink of the running quiver.

    Returns ((quiver before the letter, letter) pairs, quiver after
    reflecting them all).  Raises when no pool vertex is a sink, which
    cannot happen for valid level sets.
    """
    pool = set(support)
    steps = []
    running = quiver
    while pool:
        for x in sorted(pool):
            if running.is_sink(x):
                break
        else:
            raise InvalidMultiplicityError(0, f"no sink available in pool {sorted(pool)}")
        steps.append((running, x))
        pool.remove(x)
        running = running.reflect(x)
    return steps, running


def _emit_levels(quiver, filters):
    """Segments emitted level set by level set, each on the quiver left
    by the ones before it."""
    segments = []
    running = quiver
    for f in filters:
        steps, running = _emit_segment(running, f)
        segments.append([x for _, x in steps])
    return segments


def level_sets(m):
    """Level sets F_i = {v : m(v) >= i}, i = 1..max(m)."""
    r = max(m, default=0)
    return [frozenset(v + 1 for v, c in enumerate(m) if c >= i) for i in range(1, r + 1)]


def seq_from_multiplicities(quiver, m):
    """The unique-up-to-equivalence sequence with multiplicity vector m.

    The level sets must all be filters of the base quiver and each must
    contain the hull of the next; otherwise InvalidMultiplicityError
    names the failing level.
    """
    m = tuple(int(c) for c in m)
    if len(m) != quiver.n or any(c < 0 for c in m):
        raise InvalidMultiplicityError(0, "vector has wrong length or negative entries")
    filters = level_sets(m)
    for i, f in enumerate(filters, start=1):
        if not quiver.is_filter(f):
            raise InvalidMultiplicityError(i, f"{sorted(f)} is not a filter")
    for i in range(len(filters) - 1):
        if not quiver.hull(filters[i + 1]) <= filters[i]:
            raise InvalidMultiplicityError(
                i + 2, "hull of level set is not contained in the previous one"
            )
    return CanonicalForm(quiver, _emit_levels(quiver, filters)).sequence()


def canonical_form(s):
    """Deterministic canonical form of a nonempty sequence.

    Segment supports are the level sets of the multiplicity vector; the
    internal order of each segment is the smallest-sink-first emission.
    """
    if len(s) == 0:
        raise EmptySequenceError("empty sequence has no canonical form")
    segments = _emit_levels(s.quiver, level_sets(s.multiplicities()))
    return CanonicalForm(s.quiver, segments)


def canonical_rep(s):
    """Canonical representative of the equivalence class of s."""
    if len(s) == 0:
        return s
    return canonical_form(s).sequence()


def meet(s, t):
    """Greatest lower bound: coordinatewise minimum of multiplicities."""
    _require_same_base(s, t)
    m = tuple(min(a, b) for a, b in zip(s.multiplicities(), t.multiplicities()))
    return seq_from_multiplicities(s.quiver, m)


def join(s, t):
    """Least upper bound: coordinatewise maximum of multiplicities."""
    _require_same_base(s, t)
    m = tuple(max(a, b) for a, b in zip(s.multiplicities(), t.multiplicities()))
    return seq_from_multiplicities(s.quiver, m)


def complement_pair(s, t):
    """The meet together with the residual tails U, V on its final quiver.

    S ~ (S^T)U and T ~ (S^T)V with disjoint supports; (S^T)UV is
    equivalent to the join.
    """
    _require_same_base(s, t)
    w = meet(s, t)
    base = w.final_quiver
    mw = w.multiplicities()
    mu = tuple(a - b for a, b in zip(s.multiplicities(), mw))
    mv = tuple(a - b for a, b in zip(t.multiplicities(), mw))
    u = seq_from_multiplicities(base, mu)
    v = seq_from_multiplicities(base, mv)
    return w, u, v


def principal(quiver, r, x):
    """The principal sequence of size r generated at x.

    Level sets: the top one is the principal filter of x, each earlier
    one the hull of the next.
    """
    if r < 1:
        raise AdmseqError("size must be positive")
    filters = [quiver.principal_filter(x)]
    for _ in range(r - 1):
        filters.append(quiver.hull(filters[-1]))
    filters.reverse()
    return CanonicalForm(quiver, _emit_levels(quiver, filters)).sequence()


def is_principal(s):
    """(r, x) when s is equivalent to the principal sequence S_{r,x};
    None otherwise."""
    if len(s) == 0:
        return None
    supports = level_sets(s.multiplicities())
    r = len(supports)
    top = supports[-1]
    gens = [x for x in top if s.quiver.principal_filter(x) == top]
    if not gens:
        return None
    x = gens[0]
    for i in range(r - 1):
        if supports[i] != s.quiver.hull(supports[i + 1]):
            return None
    return r, x


def principal_precedes(pair, s):
    """Whether the principal sequence S_{q,y} precedes s, decided on the
    level sets of s alone: q <= r and y in the q-th level set."""
    q, y = pair
    if len(s) == 0:
        return False
    supports = level_sets(s.multiplicities())
    return q <= len(supports) and y in supports[q - 1]


def principal_decomposition(s):
    """Minimal decomposition of s as a join of principal sequences.

    Returns pairs (h, v): for each level h, v runs over the minimal
    elements of the h-th support with the hull of the next support
    removed.
    """
    if len(s) == 0:
        raise EmptySequenceError("empty sequence has no principal decomposition")
    q = s.quiver
    supports = level_sets(s.multiplicities())
    supports.append(frozenset())
    out = []
    for h in range(1, len(supports)):
        hull_next = q.hull(supports[h]) if supports[h] else frozenset()
        rest = supports[h - 1] - hull_next
        minimal = [
            v for v in rest if not any(u != v and q.leq(u, v) for u in rest)
        ]
        out.extend((h, v) for v in sorted(minimal))
    return out


def principal_tail(s):
    """Drop the first letter of a principal sequence.

    For s ~ S_{r,x} with length > 1, the tail T = x2,...,xs is principal
    on the reflected quiver; its size is r - 1 when x1 = x and r
    otherwise, with the same generator vertex x.

    Returns (reflected quiver, T, (q, x)).
    """
    info = is_principal(s)
    if info is None:
        raise NotPrincipalError(f"{s!r} is not principal")
    if len(s) < 2:
        raise AdmseqError("tail requires length > 1")
    r, x = info
    x1 = s.letters[0]
    new_quiver = s.quiver.reflect(x1)
    tail = AdmissibleSeq(new_quiver, s.letters[1:])
    q = r - 1 if x1 == x else r
    return new_quiver, tail, (q, x)


def psi(pair):
    """Coordinates of a principal sequence in the translation quiver:
    (r, x) -> (r - 1, x)."""
    r, x = pair
    return r - 1, x


def nq_arrows_from(quiver, node):
    """Outgoing arrows of a node of the translation quiver of the
    opposite orientation: each arrow u -> v of the quiver contributes
    (n, v) -> (n, u) and (n, u) -> (n + 1, v)."""
    level, w = node
    arrows = quiver.arrows
    out = [(level, arrows[i][0]) for i in quiver.arrows_in(w)]
    out.extend((level + 1, arrows[i][1]) for i in quiver.arrows_out(w))
    return out


def nq_reachable(quiver, a, b):
    """Path existence between two nodes of the translation quiver."""
    if a == b:
        return True
    target_level = b[0]
    seen = {a}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for nxt in nq_arrows_from(quiver, node):
            if nxt[0] > target_level or nxt in seen:
                continue
            if nxt == b:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False


def enumerate_admissible(quiver, max_len):
    """All admissible letter tuples of length <= max_len (including the
    empty one), by breadth-first extension."""
    out = [()]
    frontier = [((), quiver)]
    for _ in range(max_len):
        nxt = []
        for letters, running in frontier:
            for x in sorted(running.sinks()):
                nxt.append((letters + (x,), running.reflect(x)))
        out.extend(letters for letters, _ in nxt)
        frontier = nxt
    return out


def parse_letters(text):
    """Parse a comma-separated vertex list such as "3,2,3"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))
