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
once as it ends.  Every walk of functors, from a single reflection to a
Coxeter orbit, is that step letter by letter, so a chain of reflections
stays in integers.  A step changes one dims list and one rows list in
place and reads only the arrows at its letter, so it costs deg x and the
nonzeros it reads, not n.  It reads the ends of arrows, not their
orientation: a letter is checked once, where its walk is formed
(``AdmissibleSeq``, the level-set emitter, or the one vertex of
``reflect_plus`` and ``reflect_minus``), and never in a fold.  The
Coxeter functor returns to its quiver, so its letters are found once per
call as a cycle; the one Coxeter orbit loop steps it pass after pass,
builds no quiver, and stops at zero, at its budget or at its first
repeated state.  The shortest annihilating sequence of a preprojective
module is the join of the principal sequences S_{j,x} of the summands
M(S_{j,x}) that the step at x of pass j kills, which that loop records
as the step runs; only the reference search from a known annihilator
descends in the lattice, one functor fold per step tried.  Bases come
from deterministic echelon forms, so results are bit-reproducible.
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
    _list,
    _ordered,
    _vertex,
)
from .graphs import quiver_from_dict, quiver_to_dict
from .sequences import AdmissibleSeq, seq_from_multiplicities
from . import sequences as seqmod
from . import weyl as weylmod


def _has_exponent(x):
    """A string with an exponent: Fraction("1e10000000") builds it in full."""
    return isinstance(x, str) and ("e" in x or "E" in x)


def _int_first(x):
    """The value of Fraction(x), as an ``int`` when it is integral; raises
    AdmseqError for a value that Fraction refuses or ``_has_exponent``."""
    if _has_exponent(x):
        raise AdmseqError(f"map entry {x!r} has an exponent")
    try:
        x = Fraction(x)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise AdmseqError(f"map entry {x!r} is not a rational number") from None
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
    s, e = arrow
    r, c = dims[e - 1], dims[s - 1]
    shape = f"matrix for arrow {s}->{e} must be {r} x {c}"
    m = [[_int_first(x) for x in _ordered(row, shape)] for row in _ordered(m, shape)]
    if len(m) != r or any(len(row) != c for row in m):
        raise AdmseqError(shape)
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


_ONE_MATRIX = "one matrix per arrow instance is required"


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
        dims, maps = _checked_dims(quiver, dims), _ordered(maps, _ONE_MATRIX)
        if len(maps) != len(quiver.arrows):
            raise AdmseqError(_ONE_MATRIX)
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


def _step(at_x, dims, rows, x):
    """F_x^+ at a sink x on raw rows, or F_x^- at a source x on dual rows
    (F_x^- = D F_x^+ D, see ``_dual``), in place on the lists ``dims``
    and ``rows``, reading the arrows ``at_x`` at x (``Quiver._incidence``):
    their maps go side by side as rows of x, and the rows of the kernel
    inclusion are sliced into the new maps.  A zero space at x keeps all
    of its neighbours' spaces, and no neighbour space leaves nothing, so
    neither needs an elimination.  Every caller has read x as a vertex
    and checked it as a sink (or source)."""
    blocks, total = [], 0  # (arrow, first column, end column) of each map at x
    for i, y in at_x:
        start, total = total, total + dims[y - 1]
        blocks.append((i, start, total))
    dx = dims[x - 1]
    if not (dx and total):
        dims[x - 1] = total
        for i, start, end in blocks:
            rows[i] = tuple([{j: 1} for j in range(start, end)])
        return
    if len(blocks) == 1:
        h = rows[blocks[0][0]]
    else:  # loops, not comprehensions, which are calls before Python 3.12
        h = []
        for r in range(dx):
            row = {}
            for i, start, _ in blocks:
                for j, a in rows[i][r].items():
                    row[j + start] = a
            h.append(row)
    dims[x - 1], inclusion = linalg.kernel(h, dx, total)
    for i, start, end in blocks:
        rows[i] = tuple(inclusion[start:end])


def _dual(dims, rows, arrows):
    """D on the maps ``rows[i]`` of the (i, (s, e)) in ``arrows``, each
    transposed in one pass over its nonzeros; returns the rows tuple.  A
    map has one row per dimension of its target, whichever way its arrow
    points, so its transpose has dims(s) + dims(e) - len(m) rows."""
    rows = list(rows)
    for i, (s, e) in arrows:
        m = rows[i]
        t = [{} for _ in range(dims[s - 1] + dims[e - 1] - len(m))]
        for r, row in enumerate(m):
            for j, a in row.items():
                t[j][r] = a
        rows[i] = tuple(t)
    return tuple(rows)


def _fold(quiver, dims, rows, letters):
    """(dims, rows) after one functor step per letter, in order, on
    letters checked where their walk was formed: one dims list and one
    rows list stepped in place, made tuples at the end."""
    at, dims, rows = quiver._incidence(), list(dims), list(rows)
    for x in letters:
        _step(at[x], dims, rows, x)
    return tuple(dims), tuple(rows)


def reflect_plus(rep, x):
    """Positive reflection functor at a sink x.

    The space at x becomes the kernel of the map assembled from all
    arrows into x; the new maps out of x are the block components of the
    kernel inclusion.
    """
    q = rep.quiver
    x = _vertex(q.n, x)
    if not q._sink_after(0, x):
        raise NotSinkError(f"{x} is not a sink")
    dims, rows = _fold(q, rep.dims, rep._rows, (x,))
    return Representation._trusted(q._flipped(1 << x), dims, rows)


def reflect_minus(rep, x):
    """Negative reflection functor at a source x.

    The space at x becomes the cokernel of the map assembled from all
    arrows out of x; the new maps into x are inclusion followed by the
    quotient projection.  Computed as F_x^- = D F_x^+ D on the maps at x,
    the only ones the step reads or changes.
    """
    q = rep.quiver
    x = _vertex(q.n, x)
    if not q._source_after(0, x):
        raise NotSourceError(f"{x} is not a source")
    maps = [(i, (x, y)) for i, y in q._incidence()[x]]
    dims, rows = _fold(q, rep.dims, _dual(rep.dims, rep._rows, maps), (x,))
    return Representation._trusted(q._flipped(1 << x), dims, _dual(dims, rows, maps))


def apply_sequence(rep, seq):
    """Left-to-right fold of the positive reflection functor."""
    if seq.quiver != rep.quiver:
        raise AdmseqError("sequence and representation live on different quivers")
    dims, rows = _fold(rep.quiver, rep.dims, rep._rows, seq.letters)
    return Representation._trusted(seq.final_quiver, dims, rows)


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
    sequence, whose letters the level-set emitter finds as sinks.  Lands
    back on the same quiver."""
    q = rep.quiver
    return Representation._trusted(q, *_fold(q, rep.dims, rep._rows, _coxeter_cycle(q)))


def build_module(seq):
    """The indecomposable representation M(S) of a sequence with reduced
    word: start from the simple at the last letter on the orientation
    sigma_{x_{s-1}} ... sigma_{x_1} Lambda, and fold negative reflection
    functors back over the letters ``seq`` checked as sinks.  The fold
    runs on dual rows, and every map of the dual simple is empty.
    """
    if len(seq) == 0:
        raise AdmseqError("sequence must be nonempty")
    if not weylmod.is_reduced(weylmod.word_of(seq)):
        raise NotReducedError("word of the sequence is not reduced")
    letters, q = seq.letters, seq.quiver
    x = letters[-1]
    dims = tuple(int(v == x) for v in q.vertices())
    dims, rows = _fold(q, dims, ((),) * len(q.arrows), reversed(letters[:-1]))
    return Representation._trusted(q, dims, _dual(dims, rows, enumerate(q.arrows)))


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
    """(p, kills): p the least power with (Phi^+)^p rep = 0, from at most
    max_iter raw passes over one cycle, and the (j, x), in order, of the
    steps at x of pass j that kill d_x + d'_x - t > 0 simples: d_x and d'_x
    the dims at x before and after and t, summed only when d_x + d'_x > 0,
    those at the other ends of x's arrows as the step leaves them.  Raises
    UndecidedError when the orbit is still nonzero then or repeats a state,
    seen at one checkpoint moved when p is 0 or a power of two (Brent): a
    pass is a function of (dims, rows)."""
    q, max_iter = rep.quiver, _int(max_iter, "Coxeter budget")
    if max_iter < 0:
        raise AdmseqError("Coxeter budget must not be negative")
    cycle, at = _coxeter_cycle(q), q._incidence()
    dims, rows, saved, p, kills = list(rep.dims), list(rep._rows), None, 0, []
    while any(dims):
        if p >= max_iter or (dims, rows) == saved:
            raise UndecidedError(f"not annihilated within {max_iter} Coxeter steps")
        if not p & (p - 1):
            saved = dims.copy(), rows.copy()  # a step replaces rows, never changes one
        p += 1
        for x in cycle:
            at_x, d = at[x], dims[x - 1]
            _step(at_x, dims, rows, x)
            d += dims[x - 1]
            if d and d > sum(dims[y - 1] for _, y in at_x):
                kills.append((p, x))
    return p, kills


def is_preprojective(rep, max_iter=64):
    """The least annihilating power of the Coxeter functor, applied at
    most max_iter times, or Undecided."""
    try:
        return Preprojective(_annihilating_power(rep, max_iter)[0])
    except UndecidedError:
        return Undecided()


def shortest_annihilator_indec(rep, max_iter=64):
    """Shortest annihilating sequence of a preprojective representation.

    Iterates the Coxeter functor until zero, at most max_iter times.  A
    summand M(S_{j,x}) = tau^{-(j-1)} P_x is the simple at the sink x when
    pass j reaches x, and F_x^+ kills it; the orbit loop records the steps
    that kill one as they run.  The answer is the join of those S_{j,x}.
    """
    q, kills = rep.quiver, _annihilating_power(rep, max_iter)[1]
    if not kills:
        return AdmissibleSeq(q, ())
    return join_annihilators([seqmod.principal(q, j, x) for j, x in kills])


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
            if s is not None and not any(_fold(q, rep.dims, rep._rows, s.letters)[0]):
                best, stepped = s, True
            else:
                m[i] += 1
    return best


def join_annihilators(seqs):
    """Lattice join of annihilating sequences: the shortest annihilator
    of a direct sum, given the summand answers."""
    seqs = _list(seqs, "need at least one sequence", 1)
    out = seqs[0]
    for s in seqs[1:]:
        out = seqmod.join(out, s)
    return out


def direct_sum(reps):
    """Blockwise direct sum of representations on the same quiver."""
    reps = _list(reps, "need at least one representation", 1)
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
        if any(_has_exponent(x) for row in matrix for x in row):
            raise AdmseqError(f"matrix of arrow {i} has an entry with an exponent")
        try:
            matrix = [[Fraction(str(x)) for x in row] for row in matrix]
        except ZeroDivisionError:
            raise AdmseqError(f"matrix of arrow {i} has a zero denominator") from None
        except (ValueError, TypeError):
            raise AdmseqError(f"matrix of arrow {i} has an entry that is not a number") from None
        rows[i] = _sparse_matrix(matrix, dims, q.arrows[i])
    return Representation._trusted(q, dims, tuple(rows))


def load_rep(path):
    with open(path) as fh:
        return rep_from_dict(json.load(fh))
