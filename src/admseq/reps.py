"""Quiver representations over the rationals and reflection functors.

A representation stores one matrix per arrow instance, shaped
dims(target) x dims(source), once: as sparse integer-first rows, each a
dict from column to its nonzero entries, an ``int`` wherever it is
integral and a Fraction otherwise.  The maps of wild quivers stay sparse
as their dims grow, so every step below costs in nonzeros, not in
products of dims.  The public ``maps`` is a dense Fraction view of those
rows, built on first read.  The positive reflection functor replaces the
space at a sink by the kernel of the assembled incoming map, whose
inclusion ``linalg.kernel`` returns as the rows of the new maps, and the
negative one, F_x^- = D F_x^+ D with D the transpose of every map, is
the same kernel step on dual rows, transposed once as a fold begins and
once as it ends.  Every walk of
functors, from a single reflection to a Coxeter orbit, is one fold of
that step, so a chain of reflections stays in integers.  A fold walks
one base quiver and a parity mask of the vertices it has reflected an
odd number of times (see ``graphs``): each step tests its sink or
source on the mask, and a caller that needs the quiver the result lives
on builds it once, from the final mask.  The Coxeter functor returns to
its quiver, so its letters are found once per call as a cycle; the
Coxeter orbit loop folds pass after pass of it, builds no quiver, and
stops at zero, at its budget or at its first repeated state.  The
shortest annihilating sequence of a preprojective module is the join of
the principal sequences S_{j,x} of the summands M(S_{j,x}) that the
step at x of pass j kills, read off the dims of that orbit; only the
reference search from a known annihilator descends in the lattice, one
functor fold per step tried.  Bases come from deterministic echelon
forms, so results are bit-reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .errors import (
    AdmseqError,
    InvalidMultiplicityError,
    NotReducedError,
    NotSinkError,
    NotSourceError,
    UndecidedError,
    _int,
    _int_tuple,
    _vertex,
)
from .graphs import quiver_from_dict, quiver_to_dict
from .sequences import AdmissibleSeq, seq_from_multiplicities
from . import sequences as seqmod
from . import weyl as weylmod


def _int_first(x):
    """The value of Fraction(x), as an ``int`` when it is integral."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _zero_rows(quiver, dims):
    """The zero matrix dims(target) x dims(source) of every arrow, as
    empty sparse rows."""
    return tuple(tuple({} for _ in range(dims[e - 1])) for _, e in quiver.arrows)


def _checked_dims(quiver, dims):
    dims = _int_tuple(dims, "dimensions")
    if len(dims) != quiver.n or any(d < 0 for d in dims):
        raise AdmseqError("dimension vector does not fit the quiver")
    return dims


def _sparse_matrix(m, dims, arrow):
    """The sparse integer-first rows of the dense matrix ``m`` of an
    arrow (s, e); raises AdmseqError unless it is dims(e) x dims(s)."""
    (s, e), m = arrow, [[_int_first(x) for x in row] for row in m]
    r, c = dims[e - 1], dims[s - 1]
    if len(m) != r or any(len(row) != c for row in m):
        raise AdmseqError(f"matrix for arrow {s}->{e} must be {r} x {c}")
    return tuple({j: x for j, x in enumerate(row) if x} for row in m)


def _dense(rep, entry):
    """Each matrix of rep as a list of dense rows, an entry x read as
    entry(x) and an absent one as entry(0)."""
    zero = entry(0)
    for (s, _), m in zip(rep.quiver.arrows, rep._rows):
        dense, width = [], rep.dims[s - 1]
        for row in m:
            out = [zero] * width
            for j, x in row.items():
                out[j] = entry(x)
            dense.append(out)
        yield dense


class Representation:
    """Spaces and maps over a fixed quiver; immutable.

    ``_rows`` holds the matrices as tuples of sparse rows, each a dict
    from column to nonzero entry, integral entries as ``int`` and the
    others as Fractions, and no zero stored, so that equal matrices have
    equal rows; the functors read and build these, and never change them
    in place.  ``maps`` reads the same matrices as dense tuples of
    Fractions, built from the rows on first read and kept.
    """

    __slots__ = ("quiver", "dims", "_rows", "_maps")

    def __init__(self, quiver, dims, maps):
        dims, maps = _checked_dims(quiver, dims), tuple(maps)
        if len(maps) != len(quiver.arrows):
            raise AdmseqError("one matrix per arrow instance is required")
        rows = tuple(_sparse_matrix(m, dims, a) for a, m in zip(quiver.arrows, maps))
        self.quiver, self.dims, self._rows, self._maps = quiver, dims, rows, None

    @classmethod
    def _trusted(cls, quiver, dims, rows):
        """The representation of sparse integer-first rows already known
        to fit the quiver, such as a functor fold produces: installed without
        validation."""
        rep = object.__new__(cls)
        rep.quiver, rep.dims, rep._rows, rep._maps = quiver, dims, rows, None
        return rep

    @property
    def maps(self):
        """The matrices as tuples of tuples of Fractions."""
        if self._maps is None:
            self._maps = tuple(tuple(map(tuple, m)) for m in _dense(self, Fraction))
        return self._maps

    def dim(self, x):
        return self.dims[_vertex(self.quiver.n, x) - 1]

    def support(self):
        return frozenset(x for x in self.quiver.vertices() if self.dim(x) > 0)

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.dims == other.dims
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def zero_rep(quiver):
    return Representation(quiver, (0,) * quiver.n, [()] * len(quiver.arrows))


def simple(quiver, x):
    """The simple representation concentrated at x."""
    x = _vertex(quiver.n, x)
    dims = tuple(int(v == x) for v in quiver.vertices())
    return Representation._trusted(quiver, dims, _zero_rows(quiver, dims))


def _step(quiver, flips, dims, rows, x, plus):
    """F_x^+ at a sink x when ``plus``, else F_x^- at a source x, on raw
    rows over ``quiver`` reflected at the bits of ``flips``; returns
    (dims, rows), which live on that orientation reflected at x too.  An
    F^- fold runs on dual rows (F_x^- = D F_x^+ D, see ``_dual``), so
    both put the maps at x side by side as rows of x, in increasing
    position, and slice the rows of the kernel inclusion into the new
    maps.  A zero space at x keeps all of its neighbours' spaces, and no
    neighbour space leaves nothing, so neither needs an elimination.
    Every caller has read x as a vertex."""
    if plus:
        if not quiver._sink_after(flips, x):
            raise NotSinkError(f"{x} is not a sink")
    elif not quiver._source_after(flips, x):
        raise NotSourceError(f"{x} is not a source")
    blocks, total = [], 0  # (arrow, first column, end column) of each map at x
    for i, (s, e) in enumerate(quiver.arrows):
        if s == x or e == x:
            start, total = total, total + dims[s + e - x - 1]  # s + e - x: the other end
            blocks.append((i, start, total))
    dx = dims[x - 1]
    if dx and total:
        h = []
        for r in range(dx):
            row = {}
            for i, start, _ in blocks:
                for j, a in rows[i][r].items():
                    row[j + start] = a
            h.append(row)
        k, inclusion = linalg.kernel(h, dx, total)
    else:
        k, inclusion = total, [{j: 1} for j in range(total)]
    new_rows = list(rows)
    for i, start, end in blocks:
        new_rows[i] = tuple(inclusion[start:end])
    return dims[:x - 1] + (k,) + dims[x:], tuple(new_rows)


def _dual(quiver, dims, rows, mask=-1):
    """D on the maps of the arrows with an end in the vertex mask ``mask``,
    every arrow by default: each transposed in one pass over its
    nonzeros, the others passed through.  A map has one row per dimension
    of its target, whichever way its arrow points, so its transpose has
    dims(s) + dims(e) - len(m) rows."""
    out = []
    for (s, e), m in zip(quiver.arrows, rows):
        if (mask >> s | mask >> e) & 1:
            t = [{} for _ in range(dims[s - 1] + dims[e - 1] - len(m))]
            for i, row in enumerate(m):
                for j, a in row.items():
                    t[j][i] = a
            m = tuple(t)
        out.append(m)
    return tuple(out)


def _fold(quiver, flips, dims, rows, letters, plus):
    """(flips, dims, rows) after one functor step per letter, in order,
    from ``quiver`` reflected at the bits of ``flips``: the result lives
    on ``quiver`` reflected at the bits of the returned mask."""
    for x in letters:
        dims, rows = _step(quiver, flips, dims, rows, x, plus)
        flips ^= 1 << x
    return flips, dims, rows


def _functor(rep, letters, plus):
    """The fold of one functor over the letters, as a Representation.  An
    F^- fold runs on the dual rows of the maps at its letters, the only
    ones a step reads or changes."""
    q, mask = rep.quiver, 0
    for x in letters:
        mask |= 1 << x
    rows = rep._rows if plus else _dual(q, rep.dims, rep._rows, mask)
    flips, dims, rows = _fold(q, 0, rep.dims, rows, letters, plus)
    return Representation._trusted(q._flipped(flips), dims,
                                   rows if plus else _dual(q, dims, rows, mask))


def reflect_plus(rep, x):
    """Positive reflection functor at a sink x.

    The space at x becomes the kernel of the map assembled from all
    arrows into x; the new maps out of x are the block components of the
    kernel inclusion.
    """
    return _functor(rep, (_vertex(rep.quiver.n, x),), True)


def reflect_minus(rep, x):
    """Negative reflection functor at a source x.

    The space at x becomes the cokernel of the map assembled from all
    arrows out of x; the new maps into x are inclusion followed by the
    quotient projection.  Computed as F_x^- = D F_x^+ D.
    """
    return _functor(rep, (_vertex(rep.quiver.n, x),), False)


def apply_sequence(rep, seq):
    """Left-to-right fold of the positive reflection functor."""
    if seq.quiver != rep.quiver:
        raise AdmseqError("sequence and representation live on different quivers")
    return _functor(rep, seq.letters, True)


def _coxeter_cycle(quiver):
    """The letters of the canonical complete sequence, taking the
    smallest-id current sink at every step.  It reflects every vertex
    once, which reverses no arrow, so one cycle serves a whole Coxeter
    orbit."""
    return seqmod._emit_segment(quiver, (1 << quiver.n + 1) - 2, 0)[0]


def canonical_complete_sequence(quiver):
    """Complete admissible sequence taking the smallest-id current sink
    at every step."""
    return AdmissibleSeq(quiver, _coxeter_cycle(quiver))


def coxeter_plus(rep):
    """The positive Coxeter functor: one pass along the canonical complete
    sequence, whose letters every step checks as sinks.  Lands back on
    the same quiver."""
    q = rep.quiver
    _, dims, rows = _fold(q, 0, rep.dims, rep._rows, _coxeter_cycle(q), True)
    return Representation._trusted(q, dims, rows)


def build_module(seq):
    """The indecomposable representation M(S) of a sequence with reduced
    word: start from the simple at the last letter on the orientation
    sigma_{x_{s-1}} ... sigma_{x_1} Lambda, whose parity mask is that of
    x_1 ... x_{s-1}, and fold negative reflection functors back.  The
    fold runs on dual rows, and every map of the dual simple is empty.
    """
    if len(seq) == 0:
        raise AdmseqError("sequence must be nonempty")
    if not weylmod.is_reduced(weylmod.word_of(seq)):
        raise NotReducedError("word of the sequence is not reduced")
    letters, q = seq.letters, seq.quiver
    x = letters[-1]
    dims = tuple(int(v == x) for v in q.vertices())
    flips, dims, rows = _fold(q, seq._flips ^ 1 << x, dims, ((),) * len(q.arrows),
                              reversed(letters[:-1]), False)
    assert flips == 0
    return Representation._trusted(q, dims, _dual(q, dims, rows))


class Preprojective:
    """Least power of the Coxeter functor that kills the module."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __eq__(self, other):
        return isinstance(other, Preprojective) and self.m == other.m

    def __repr__(self):
        return f"Preprojective({self.m})"


class Undecided:
    def __eq__(self, other):
        return isinstance(other, Undecided)

    def __repr__(self):
        return "Undecided()"


def _annihilating_power(rep, max_iter):
    """The dims of (Phi^+)^j rep for j = 0..p, p the least power with
    (Phi^+)^p rep = 0, from at most max_iter raw passes over one cycle.
    Raises UndecidedError when the orbit is still nonzero then or repeats
    a state, seen at one checkpoint moved when p is 0 or a power of two
    (Brent): a pass is a function of (dims, rows)."""
    q, max_iter = rep.quiver, _int(max_iter, "Coxeter budget")
    if max_iter < 0:
        raise AdmseqError("Coxeter budget must not be negative")
    cycle = _coxeter_cycle(q)
    orbit, state, saved = [rep.dims], (rep.dims, rep._rows), None
    while any(state[0]):
        p = len(orbit) - 1
        if p >= max_iter or state == saved:
            raise UndecidedError(f"not annihilated within {max_iter} Coxeter steps")
        if not p & (p - 1):
            saved = state
        state = _fold(q, 0, *state, cycle, True)[1:]
        orbit.append(state[0])
    return orbit


def is_preprojective(rep, max_iter=64):
    """The least annihilating power of the Coxeter functor, applied at
    most max_iter times, or Undecided."""
    try:
        return Preprojective(len(_annihilating_power(rep, max_iter)) - 1)
    except UndecidedError:
        return Undecided()


def shortest_annihilator_indec(rep, max_iter=64):
    """Shortest annihilating sequence of a preprojective representation.

    Iterates the Coxeter functor until zero, at most max_iter times.  A
    summand M(S_{j,x}) = tau^{-(j-1)} P_x is the simple at the sink x when
    pass j reaches x, and F_x^+ kills it; that step kills d_x + d'_x - t
    simples, d_x and d'_x the dims at x before and after it and t the sum
    of the dims at the other ends of x's arrows then, all read off the
    orbit.  The answer is the join of those S_{j,x}.
    """
    orbit = _annihilating_power(rep, max_iter)
    q, seqs = rep.quiver, []
    if len(orbit) == 1:
        return AdmissibleSeq(q, ())
    # each letter x with the other end y of each arrow at x, and whether
    # the pass reflects y before x, so that the step reads its new dim
    cycle = _coxeter_cycle(q)
    steps = [(x, [(s + e - x - 1, s + e - x in cycle[:i]) for s, e in q.arrows if x in (s, e)])
             for i, x in enumerate(cycle)]
    for j in range(1, len(orbit)):
        dims = orbit[j - 1], orbit[j]
        for x, ends in steps:
            if dims[0][x - 1] + dims[1][x - 1] > sum(dims[b][y] for y, b in ends):
                seqs.append(seqmod.principal(q, j, x))
    return join_annihilators(seqs)


def shortest_annihilator_bruteforce(rep, annihilator):
    """Shortest annihilating sequence of rep, by descent from the
    multiplicity vector m of a known annihilator, which must kill rep:
    step down to a valid m - e_i whose sequence still kills rep, until
    none does.

    Annihilators form an up-set of the lattice (F^+ of zero is zero)
    with a unique minimum S.  An annihilator T above S is S U for a
    nonempty U, and T without its last letter is a valid m - e_i that
    still lies above S; so a vector none of whose valid m - e_i kills
    rep is S itself.
    """
    if not apply_sequence(rep, annihilator).is_zero():
        raise AdmseqError("given sequence does not annihilate the module")
    q, m = rep.quiver, list(annihilator.multiplicities())
    best, stepped = seq_from_multiplicities(q, m), True
    while stepped:
        stepped = False
        for i in range(q.n):
            m[i] -= 1
            try:  # a negative entry is invalid too
                s = seq_from_multiplicities(q, m)
            except InvalidMultiplicityError:
                s = None
            if s is not None and not any(_fold(q, 0, rep.dims, rep._rows, s.letters, True)[1]):
                best, stepped = s, True
            else:
                m[i] += 1
    return best


def join_annihilators(seqs):
    """Lattice join of annihilating sequences: the shortest annihilator
    of a direct sum, given the summand answers."""
    if not seqs:
        raise AdmseqError("need at least one sequence")
    out = seqs[0]
    for s in seqs[1:]:
        out = seqmod.join(out, s)
    return out


def direct_sum(reps):
    """Blockwise direct sum of representations on the same quiver."""
    if not reps:
        raise AdmseqError("need at least one representation")
    q = reps[0].quiver
    if any(r.quiver != q for r in reps):
        raise AdmseqError("representations live on different quivers")
    dims = tuple(sum(r.dims[i] for r in reps) for i in range(q.n))
    rows = []
    for i, (s, _) in enumerate(q.arrows):
        block, co = [], 0
        for r in reps:
            block += ({j + co: a for j, a in row.items()} for row in r._rows[i])
            co += r.dims[s - 1]
        rows.append(tuple(block))
    return Representation._trusted(q, dims, tuple(rows))


def rep_to_dict(rep):
    return {
        "quiver": quiver_to_dict(rep.quiver),
        "dims": list(rep.dims),
        "maps": [{"arrow": i, "matrix": m} for i, m in enumerate(_dense(rep, str))],
    }


def rep_from_dict(data):
    """Parse the JSON module format; raises AdmseqError for any other
    shape."""
    if not isinstance(data, dict):
        raise AdmseqError('a module is {"quiver": ..., "dims": [...], "maps": [...]}')
    q = quiver_from_dict(data.get("quiver"))
    dims = data.get("dims")
    lists = (list, tuple)
    if not (isinstance(dims, lists) and len(dims) == q.n
            and all(type(d) is int for d in dims)):
        raise AdmseqError(f"dims must be a list of {q.n} integers")
    dims = _checked_dims(q, dims)
    rows = list(_zero_rows(q, dims))
    entries = data.get("maps", [])
    if not isinstance(entries, lists) or not all(
        isinstance(e, dict) and isinstance(e.get("matrix"), lists)
        and all(isinstance(row, lists) for row in e["matrix"]) for e in entries
    ):
        raise AdmseqError('maps must be a list of {"arrow": i, "matrix": [[...]]}')
    for entry in entries:
        i = entry.get("arrow")
        if type(i) is not int or not 0 <= i < len(rows):
            raise AdmseqError(f"arrow {i!r} is not an arrow index 0..{len(rows) - 1}")
        matrix = entry["matrix"]
        # Fraction("1e10000000") builds the whole power of ten
        if any(isinstance(x, str) and ("e" in x or "E" in x) for row in matrix for x in row):
            raise AdmseqError(f"matrix of arrow {i} has an entry with an exponent")
        try:
            matrix = [[Fraction(str(x)) for x in row] for row in matrix]
        except ZeroDivisionError:
            raise AdmseqError(f"matrix of arrow {i} has a zero denominator") from None
        rows[i] = _sparse_matrix(matrix, dims, q.arrows[i])
    return Representation._trusted(q, dims, tuple(rows))


def load_rep(path):
    with open(path) as fh:
        return rep_from_dict(json.load(fh))
