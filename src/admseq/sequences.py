"""(+)-admissible sequences: equivalence, the preorder, canonical forms,
the meet/join lattice, principal sequences, and reachability in the
translation quiver.

A sequence is stored together with its base quiver; two sequences can be
compared only when their base quivers coincide.  The multiplicity vector
classifies a sequence up to the swap equivalence, and all lattice
operations are computed on multiplicity vectors and then materialized
back into honest sequences.

A walk of sinks runs on one base quiver and a parity mask of the
vertices reflected an odd number of times (see ``graphs``): every sink
test reads the mask, and the quiver at the end of a sequence is built
on first read of ``final_quiver``.  Level sets are vertex masks here,
checked as filters and hulls against the base quiver's per-vertex reach
masks, and searched for minimal elements by ``principal_decomposition``,
which also decides whether a sequence is principal.
A sequence is emitted from its level masks one sink at a time, so it is
admissible by construction and installed without a second sink pass.
A level of every vertex reflects each vertex once, a complete sequence,
and gives back the quiver it starts from (Bernstein-Gelfand-Ponomarev):
full levels repeat.  The emitter reuses the letters of a full level for
each full level after it, ``principal`` takes no hull of a full level,
and ``principal_decomposition`` passes over a level equal to the next.
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
    _vertex,
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
            # inline: a Quiver._sink_after call cuts perfbench lattice ops_per_s by 13 %
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
            # inline: a Quiver._sink_after call cuts perfbench lattice ops_per_s by 13 %
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
    mask left by the ones before it; returns (segments, final flips).

    A full level reflects every vertex once, so it leaves ``flips ^
    full``, at which every sink test reads as at ``flips``: a full level
    that follows a full level repeats its letters."""
    full = (1 << quiver.n + 1) - 2
    segments = []
    flips = 0
    prev = None
    for level in levels:
        if level == prev == full:
            flips ^= full
        else:
            letters, flips = _emit_segment(quiver, level, flips)
            prev = level
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


def _multiplicities(m, n):
    """m read with ``_int_tuple``; InvalidMultiplicityError on a negative
    entry, or unless it has n entries when n is given."""
    m = _int_tuple(m, "multiplicities")
    if n is not None and len(m) != n or any(c < 0 for c in m):
        raise InvalidMultiplicityError(0, "vector has wrong length or negative entries")
    return m


def level_sets(m):
    """Level sets F_i = {v : m(v) >= i}, i = 1..max(m)."""
    return [frozenset(_members(f)) for f in _level_masks(_multiplicities(m, None))]


def seq_from_multiplicities(quiver, m):
    """The unique-up-to-equivalence sequence with multiplicity vector m.

    The level sets must all be filters of the base quiver and each must
    contain the hull of the next; otherwise InvalidMultiplicityError
    names the failing level.
    """
    filters = _level_masks(_multiplicities(m, quiver.n))
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


def _principal_pair(pair):
    """The pair (r, x) naming a principal sequence, as ints, for a size
    r >= 1; a caller with a quiver reads x with ``_vertex``."""
    r, x = _int_tuple(pair, "size and vertex", 2)
    if r < 1:
        raise AdmseqError("size must be positive")
    return r, x


def principal(quiver, r, x):
    """The principal sequence of size r generated at x.

    Level sets: the top one is the principal filter of x, each earlier
    one the hull of the next.  Raises AdmseqError unless r >= 1 and x is
    a vertex 1..n.
    """
    r, x = _principal_pair((r, x))
    full = (1 << quiver.n + 1) - 2
    level = quiver._vertex_masks()[2][_vertex(quiver.n, x)]
    filters = [level]
    while len(filters) < r and level != full:
        level = quiver._hull(level)
        filters.append(level)
    filters += [full] * (r - len(filters))  # the hull of every vertex is every vertex
    filters.reverse()
    return _from_levels(quiver, filters)


def is_principal(s):
    """(r, x) when s is equivalent to the principal sequence S_{r,x},
    that is when ``principal_decomposition`` gives the one pair (r, x);
    None otherwise, and for the empty sequence."""
    if len(s) == 0:
        return None
    pairs = principal_decomposition(s)
    return pairs[0] if len(pairs) == 1 else None


def principal_precedes(pair, s):
    """Whether the principal sequence S_{q,y} precedes s, decided on the
    level sets of s alone: q <= r and y in the q-th level set.  Raises
    AdmseqError, as ``principal`` does, unless q >= 1 and y is a vertex."""
    q, y = _principal_pair(pair)
    y = _vertex(s.quiver.n, y)
    levels = _level_masks(s.multiplicities())
    return q <= len(levels) and levels[q - 1] >> y & 1 == 1


def principal_decomposition(s):
    """Minimal decomposition of s as a join of principal sequences.

    Returns pairs (h, v): for each level h, v runs over the minimal
    elements of the h-th support with the hull of the next support
    removed.  The top level always gives a pair, so s is principal
    exactly when it gives the only one: the top support is then the
    principal filter of v, and each lower support the hull of the next.
    """
    if len(s) == 0:
        raise EmptySequenceError("empty sequence has no principal decomposition")
    q = s.quiver
    reach = q._vertex_masks()[2]
    supports = _level_masks(s.multiplicities()) + [0]
    out = []
    for h in range(1, len(supports)):
        if supports[h - 1] == supports[h]:
            continue  # a filter lies in its own hull: nothing is left
        rest = supports[h - 1] & ~q._hull(supports[h])
        if not rest:
            continue
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
    (r, x) -> (r - 1, x).  Raises AdmseqError unless r >= 1, as
    ``principal`` does; with no quiver at hand, x is read as an integer
    but not checked as a vertex."""
    r, x = _principal_pair(pair)
    return r - 1, x


def nq_reachable(quiver, a, b):
    """Path existence between two nodes (level, vertex) of the translation
    quiver of the opposite orientation, whose arrows are (l, v) -> (l, u)
    and (l, u) -> (l + 1, v) for each arrow u -> v.  On a connected
    quiver the vertices whose nodes at level l - 1 reach a filter F at
    level l form the hull of F, so (l, u) reaches (l + k, v) exactly when
    u lies in the k-th hull of the principal filter of v; hulls only grow,
    and no arrow lowers the level."""
    (la, u), (lb, v) = (_int_tuple(node, "node", 2) for node in (a, b))
    u, v = _vertex(quiver.n, u), _vertex(quiver.n, v)
    if lb < la:
        return False
    level, k = quiver._vertex_masks()[2][v], lb - la
    while k and not level >> u & 1:
        level, k = quiver._hull(level), k - 1
    return level >> u & 1 == 1


def parse_letters(text):
    """Parse a comma-separated vertex list such as "3,2,3"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))
