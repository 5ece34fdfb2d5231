"""(+)-admissible sequences: equivalence, the preorder, canonical forms,
the meet/join lattice, and principal sequences.

A sequence is stored together with its base quiver; two sequences can be
compared only when their base quivers coincide.  The multiplicity vector
classifies a sequence up to the swap equivalence, and all lattice
operations are computed on multiplicity vectors and then materialized
back into honest sequences.

A walk of sinks runs on one base quiver and a parity mask of the
vertices reflected an odd number of times (see ``graphs``): every sink
test reads the mask, and the quiver at the end of a sequence is built
on first read of ``final_quiver``.  Level sets are vertex masks here,
checked as filters and hulls, and searched for minimal elements and
principal generators, against the base quiver's per-vertex reach masks.
A sequence is emitted from its level masks one sink at a time, so it is
admissible by construction and installed without a second sink pass.
"""

from __future__ import annotations

from itertools import chain

from .errors import (
    AdmseqError,
    BaseQuiverMismatchError,
    EmptySequenceError,
    InvalidMultiplicityError,
    NotAdmissibleError,
    NotPrincipalError,
    _int_tuple,
)
from .graphs import _members


class AdmissibleSeq:
    """A (+)-admissible vertex sequence on a fixed base quiver.

    Validates the vertex range and the sink condition letter by letter at
    construction; this is the one place where letters given from outside
    are range-checked.  Sequences that the lattice operations emit from
    level sets are admissible by construction and are installed without
    this pass.  The parity mask of the walk is kept, and the final
    orientation ``final_quiver`` is built from it on first read.
    """

    __slots__ = ("quiver", "letters", "_flips", "_final")

    def __init__(self, quiver, letters):
        letters = _int_tuple(letters, "letters")
        n = quiver.n
        into, out, _ = quiver._vertex_masks()
        flips = 0
        for i, x in enumerate(letters, start=1):
            if not 1 <= x <= n:
                raise AdmseqError(f"letter {x} at position {i} is not a vertex 1..{n}")
            a, b = (into[x], out[x]) if flips >> x & 1 else (out[x], into[x])
            if a & ~flips or b & flips:
                raise NotAdmissibleError(i, x)
            flips ^= 1 << x
        self.quiver = quiver
        self.letters = letters
        self._flips = flips
        self._final = None

    @classmethod
    def _trusted(cls, quiver, letters, flips):
        """The sequence of ``letters``, a tuple of vertices already known to
        be a walk of sinks of ``quiver`` with parity mask ``flips``:
        installed without validation."""
        s = object.__new__(cls)
        s.quiver, s.letters, s._flips, s._final = quiver, letters, flips, None
        return s

    @property
    def final_quiver(self):
        """The orientation at the end of the walk."""
        if self._final is None:
            self._final = self.quiver._flipped(self._flips)
        return self._final

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


def _emit_segment(quiver, pool, flips):
    """Admissible ordering of a level set, given as the vertex mask
    ``pool``: repeatedly take the smallest-id vertex of the pool that is
    a sink of the running orientation, ``quiver`` reflected at the bits
    of ``flips``.

    Reflecting at x changes the sink test only at x and its neighbours,
    so a pool vertex seen not to be a sink is tested again only once a
    neighbour of it is emitted: ``rest`` is the pool less those vertices.

    Returns (the letters, flips after them all).  Raises when no pool
    vertex is a sink, which cannot happen for valid level sets.
    """
    into, out, _ = quiver._vertex_masks()
    letters = []
    rest = pool
    while pool:
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            a, b = (into[x], out[x]) if flips & low else (out[x], into[x])
            if not (a & ~flips or b & flips):
                break
            rest ^= low
        else:
            raise InvalidMultiplicityError(
                0, f"no sink available in pool {sorted(_members(pool))}"
            )
        letters.append(x)
        pool ^= low
        flips ^= low
        rest = (rest ^ low) | (into[x] | out[x]) & pool
    return letters, flips


def _emit_levels(quiver, levels):
    """Segments emitted from level masks one by one, each from the parity
    mask left by the ones before it; returns (segments, final flips)."""
    segments = []
    flips = 0
    for level in levels:
        letters, flips = _emit_segment(quiver, level, flips)
        segments.append(letters)
    return segments, flips


def _from_levels(quiver, levels):
    """The sequence emitted from level masks, admissible by construction."""
    segments, flips = _emit_levels(quiver, levels)
    return AdmissibleSeq._trusted(quiver, tuple(chain.from_iterable(segments)), flips)


def _level_masks(m):
    """The level sets of m as vertex masks.  Level i holds the vertices
    of count i and every level above it, so the masks are built from the
    top level down."""
    top = max(m, default=0)
    by_count = [0] * (top + 1)
    for v, c in enumerate(m, start=1):
        if c > 0:
            by_count[c] |= 1 << v
    levels = [0] * top
    acc = 0
    for i in range(top, 0, -1):
        acc |= by_count[i]
        levels[i - 1] = acc
    return levels


def level_sets(m):
    """Level sets F_i = {v : m(v) >= i}, i = 1..max(m)."""
    return [frozenset(_members(f)) for f in _level_masks(m)]


def seq_from_multiplicities(quiver, m):
    """The unique-up-to-equivalence sequence with multiplicity vector m.

    The level sets must all be filters of the base quiver and each must
    contain the hull of the next; otherwise InvalidMultiplicityError
    names the failing level.
    """
    m = _int_tuple(m, "multiplicities")
    if len(m) != quiver.n or any(c < 0 for c in m):
        raise InvalidMultiplicityError(0, "vector has wrong length or negative entries")
    filters = _level_masks(m)
    for i, f in enumerate(filters, start=1):
        if quiver._up(f) != f:
            raise InvalidMultiplicityError(i, f"{sorted(_members(f))} is not a filter")
    for i in range(len(filters) - 1):
        if quiver._hull(filters[i + 1]) & ~filters[i]:
            raise InvalidMultiplicityError(
                i + 2, "hull of level set is not contained in the previous one"
            )
    return _from_levels(quiver, filters)


def canonical_form(s):
    """Deterministic canonical form of a nonempty sequence.

    Segment supports are the level sets of the multiplicity vector; the
    internal order of each segment is the smallest-sink-first emission.
    """
    if len(s) == 0:
        raise EmptySequenceError("empty sequence has no canonical form")
    segments, _ = _emit_levels(s.quiver, _level_masks(s.multiplicities()))
    return CanonicalForm(s.quiver, segments)


def canonical_rep(s):
    """Canonical representative of the equivalence class of s."""
    if len(s) == 0:
        return s
    return _from_levels(s.quiver, _level_masks(s.multiplicities()))


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


def _int_pair(pair, what, wrong):
    """The pair as two ints, or AdmseqError ``wrong`` when there are not two."""
    pair = _int_tuple(pair, what)
    if len(pair) != 2:
        raise AdmseqError(wrong)
    return pair


def _size_and_vertex(n, pair):
    """The pair (r, x) as ints, for a size r >= 1 and a vertex x in 1..n."""
    r, x = _int_pair(pair, "size and vertex",
                     "a principal sequence is named by a size and a vertex")
    if r < 1:
        raise AdmseqError("size must be positive")
    if not 1 <= x <= n:
        raise AdmseqError(f"letter {x} at position 1 is not a vertex 1..{n}")
    return r, x


def principal(quiver, r, x):
    """The principal sequence of size r generated at x.

    Level sets: the top one is the principal filter of x, each earlier
    one the hull of the next.  Raises AdmseqError unless r >= 1 and x is
    a vertex 1..n.
    """
    r, x = _size_and_vertex(quiver.n, (r, x))
    level = quiver._vertex_masks()[2][x]
    filters = [level]
    for _ in range(r - 1):
        level = quiver._hull(level)
        filters.append(level)
    filters.reverse()
    return _from_levels(quiver, filters)


def is_principal(s):
    """(r, x) when s is equivalent to the principal sequence S_{r,x};
    None otherwise."""
    if len(s) == 0:
        return None
    q = s.quiver
    supports = _level_masks(s.multiplicities())
    top = supports[-1]
    reach = q._vertex_masks()[2]
    # Acyclicity makes the generator of a principal filter unique.
    gens = [x for x in _members(top) if reach[x] == top]
    if not gens:
        return None
    for i in range(len(supports) - 1):
        if supports[i] != q._hull(supports[i + 1]):
            return None
    return len(supports), gens[0]


def principal_precedes(pair, s):
    """Whether the principal sequence S_{q,y} precedes s, decided on the
    level sets of s alone: q <= r and y in the q-th level set.  Raises
    AdmseqError, as ``principal`` does, unless q >= 1 and y is a vertex."""
    q, y = _size_and_vertex(s.quiver.n, pair)
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
    reach = q._vertex_masks()[2]
    supports = _level_masks(s.multiplicities()) + [0]
    out = []
    for h in range(1, len(supports)):
        rest = supports[h - 1] & ~q._hull(supports[h])
        above = 0  # every vertex strictly above a member of rest
        for v in _members(rest):
            above |= reach[v] & ~(1 << v)
        out.extend((h, v) for v in sorted(_members(rest & ~above)))
    return out


def principal_tail(s):
    """Drop the first letter of a principal sequence.

    For s ~ S_{r,x} with length > 1, the tail T = x2,...,xs is principal
    on the reflected quiver; its size is r - 1 when x1 = x and r
    otherwise, with the same generator vertex x.  T is a walk of sinks
    of the reflected quiver, so it is installed without validation.

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
    tail = AdmissibleSeq._trusted(new_quiver, s.letters[1:], s._flips ^ 1 << x1)
    q = r - 1 if x1 == x else r
    return new_quiver, tail, (q, x)


def psi(pair):
    """Coordinates of a principal sequence in the translation quiver:
    (r, x) -> (r - 1, x)."""
    r, x = pair
    return r - 1, x


def nq_reachable(quiver, a, b):
    """Path existence between two nodes (level, vertex) of the translation
    quiver of the opposite orientation, whose arrows are (l, v) -> (l, u)
    and (l, u) -> (l + 1, v) for each arrow u -> v.  On a connected
    quiver the vertices whose nodes at level l - 1 reach a filter F at
    level l form the hull of F, so (l, u) reaches (l + k, v) exactly when
    u lies in the k-th hull of the principal filter of v; hulls only grow."""
    (la, u), (lb, v) = (_int_pair(node, "node", "a node is a (level, vertex) pair")
                        for node in (a, b))
    if not (0 < u <= quiver.n and 0 < v <= quiver.n) or lb < la:
        return (la, u) == (lb, v)
    level, k = quiver._vertex_masks()[2][v], lb - la
    while k and not level >> u & 1:
        level, k = quiver._hull(level), k - 1
    return level >> u & 1 == 1


def enumerate_admissible(quiver, max_len):
    """All admissible letter tuples of length <= max_len (including the
    empty one), by breadth-first extension."""
    out = [()]
    frontier = [((), 0)]
    for _ in range(max_len):
        nxt = []
        for letters, flips in frontier:
            for x in quiver.vertices():
                if quiver._sink_after(flips, x):
                    nxt.append((letters + (x,), flips ^ 1 << x))
        out.extend(letters for letters, _ in nxt)
        frontier = nxt
    return out


def parse_letters(text):
    """Parse a comma-separated vertex list such as "3,2,3"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))
