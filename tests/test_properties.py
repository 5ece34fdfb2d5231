"""Property-based checks over random connected acyclic quivers (n <= 5),
and of exact elimination against a plain Fraction Gauss-Jordan.

A quiver is drawn as a random spanning tree plus a few extra edges (so
it is connected, and multiple edges give wild types), oriented along a
random vertex ranking (so it is acyclic).  Finiteness of the Weyl group
is checked on graphs drawn the same way with up to 10 vertices.
"""

import json
from fractions import Fraction
from functools import reduce
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from admseq import linalg, reps
from admseq.cli import main
from admseq.errors import (
    AcyclicityError,
    AdmseqError,
    FilterViolationError,
    IndecomposabilityError,
    InvalidCartanError,
    InvalidMultiplicityError,
    NotAdmissibleError,
    UndecidedError,
)
from admseq.graphs import Graph, Quiver, graph_from_cartan, quiver_from_arrows
from admseq.reps import (
    Preprojective,
    Representation,
    Undecided,
    apply_sequence,
    build_module,
    canonical_complete_sequence,
    coxeter_plus,
    direct_sum,
    is_preprojective,
    join_annihilators,
    reflect_minus,
    reflect_plus,
    rep_from_dict,
    rep_to_dict,
    shortest_annihilator_bruteforce,
    shortest_annihilator_indec,
    simple,
)
from admseq.sequences import (
    AdmissibleSeq,
    canonical_form,
    canonical_rep,
    complement_pair,
    is_principal,
    join,
    meet,
    nq_reachable,
    principal,
    principal_decomposition,
    principal_precedes,
    psi,
    seq_from_multiplicities,
)
from admseq.weyl import (
    WeylElement,
    WeylWord,
    c_sorting_word,
    coxeter_powers_reduced,
    is_c_sortable,
    is_reduced,
    length_of_word,
    simple_reflection,
    weyl_is_finite,
    word_of,
)
from oracles import (
    ade_is_finite,
    bfs_lengths,
    budget_orbit_power,
    dense,
    exhaustive_annihilator,
    fraction_direct_sum,
    fraction_nullspace,
    fraction_rref,
    matmul,
    matrix_first_non_reduced,
    matrix_length,
    matrix_sorting_blocks,
    orbit_kills,
    raw_graph,
    raw_nq_reachable,
    raw_projective_dims,
    raw_reachable,
    raw_reflect,
    raw_reflect_minus,
    raw_reflect_plus,
    raw_sinks,
    raw_topological_order,
    sparse,
    word_matrix,
)

# Larger modules cost seconds each in exact arithmetic; the identities are
# checked on modules up to this total dimension.
MAX_TOTAL_DIM = 40


@st.composite
def graph_edges(draw, max_n):
    """(n, edges): a random tree on 1..n plus at most two extra edges."""
    n = draw(st.integers(2, max_n))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    return n, edges


@st.composite
def quivers(draw):
    n, edges = draw(graph_edges(5))
    rank = draw(st.permutations(range(1, n + 1)))
    arrows = [(u, v) if rank[u - 1] < rank[v - 1] else (v, u) for u, v in edges]
    return quiver_from_arrows(n, arrows)


@st.composite
def sink_walks(draw):
    """(quiver, letters, orientations): a walk of at most 12 sinks, each
    drawn from the raw sinks of the raw arrows reflected so far, with the
    raw arrows before each letter and after the last."""
    q = draw(quivers())
    arrows, letters, orientations = q.arrows, [], [q.arrows]
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.sampled_from(raw_sinks(q.n, arrows)))
        arrows = raw_reflect(arrows, x)
        letters.append(x)
        orientations.append(arrows)
    return q, letters, orientations


@st.composite
def words(draw):
    """(quiver, word) with a random word of at most 30 letters."""
    q = draw(quivers())
    letters = draw(st.lists(st.integers(1, q.n), max_size=30))
    return q, WeylWord(q.graph.cartan(), letters)


@st.composite
def complete_sequences(draw):
    """A complete admissible sequence: a sink of each successive
    reflection, drawn at random."""
    q = draw(quivers())
    letters, cur = [], q
    for _ in range(q.n):
        x = draw(st.sampled_from(sorted(cur.sinks() - set(letters))))
        letters.append(x)
        cur = cur.reflect(x)
    return AdmissibleSeq(q, letters)


@st.composite
def principal_modules(draw):
    """(S, dim M(S), r) for a principal sequence S = S_{r,x} with reduced
    word."""
    q = draw(quivers())
    r = draw(st.integers(1, 3))
    s = principal(q, r, draw(st.integers(1, q.n)))
    assume(is_reduced(word_of(s)))
    root = _root(s)
    assume(sum(root) <= MAX_TOTAL_DIM)
    return s, root, r


def _root(s):
    """sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s}), from simple reflections."""
    cartan = s.quiver.graph.cartan()
    root = tuple(int(v == s.letters[-1]) for v in s.quiver.vertices())
    for x in reversed(s.letters[:-1]):
        root = simple_reflection(cartan, x).apply(root)
    return root


@st.composite
def walk_modules(draw, q):
    """M(S) for a walk S of one to six sinks of q with reduced word, of
    total dimension at most MAX_TOTAL_DIM."""
    arrows, letters = q.arrows, []
    for _ in range(draw(st.integers(1, 6))):
        letters.append(draw(st.sampled_from(raw_sinks(q.n, arrows))))
        arrows = raw_reflect(arrows, letters[-1])
    s = AdmissibleSeq(q, letters)
    assume(is_reduced(word_of(s)) and sum(_root(s)) <= MAX_TOTAL_DIM)
    return build_module(s)


@st.composite
def module_sums(draw):
    """(module, summands): the direct sum of two or three modules M(S) on
    one quiver, each S a walk of at most six sinks with reduced word,
    of total dimension at most MAX_TOTAL_DIM."""
    q = draw(quivers())
    summands = [draw(walk_modules(q)) for _ in range(draw(st.integers(2, 3)))]
    assume(sum(sum(m.dims) for m in summands) <= MAX_TOTAL_DIM)
    return direct_sum(summands), summands


@st.composite
def scaled_summands(draw):
    """The summands of module_sums, with the maps of one that has a
    nonzero entry scaled by a non-integral rational."""
    _, summands = draw(module_sums())
    nonzero = [i for i, m in enumerate(summands) if any(x for a in m.maps for r in a for x in r)]
    assume(nonzero)
    i = draw(st.sampled_from(nonzero))
    c = draw(st.integers(-3, 3)) + Fraction(1, draw(st.integers(2, 7)))
    m = summands[i]
    summands[i] = Representation(m.quiver, m.dims, [[[c * x for x in r] for r in a] for a in m.maps])
    return summands


@st.composite
def regular_kronecker(draw, q):
    """A regular module of the Kronecker quiver q: dims (k, k), k <= 3,
    and maps P and P J_k(lambda) for an invertible P, so the module is
    the one of maps I and J_k(lambda) in another basis."""
    k, lam = draw(st.integers(1, 3)), draw(st.integers(-3, 3))
    p = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(k)]
    assume(len(fraction_rref(p, k, k)[1]) == k)
    jordan = [[lam if r == c else int(c == r + 1) for c in range(k)] for r in range(k)]
    return Representation(q, (k, k), [p, matmul(p, jordan)])


@st.composite
def orbit_modules(draw):
    """A module M(S) on a random quiver, a regular Kronecker module, or
    the direct sum of a Kronecker M(S) and a regular one."""
    kind = draw(st.sampled_from(["built", "regular", "sum"]))
    if kind == "built":
        return draw(walk_modules(draw(quivers())))
    q = quiver_from_arrows(2, [draw(st.sampled_from([(1, 2), (2, 1)]))] * 2)
    regular = draw(regular_kronecker(q))
    if kind == "regular":
        return regular
    return direct_sum(draw(st.permutations([draw(walk_modules(q)), regular])))


@st.composite
def quiver_reps(draw):
    """A representation of a random quiver, with dims 0..3 and maps of
    small rationals, zero often, so that ranks drop."""
    q = draw(quivers())
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=q.n, max_size=q.n)))
    entries = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    return Representation(q, dims, [
        [[draw(entries) for _ in range(dims[s - 1])] for _ in range(dims[e - 1])]
        for s, e in q.arrows])


# two modules of the fork 1 -> 2, 1 -> 3 with empty maps: one from a
# nonzero space at 1 into 0 at 2, and one into a nonzero space at 3 from 0
# at 1, after which F_1^- gives the new map from 2 two empty rows
FORK = quiver_from_arrows(3, [(1, 2), (1, 3)])
EMPTY_MAPS = (Representation(FORK, (2, 0, 1), [[], [[1, 2]]]),
              Representation(FORK, (0, 0, 2), [[], [[], []]]))


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


def _stored_canonically(rep):
    """Each map of rep is stored as one sparse row per dimension of its
    target, holding only nonzero integer-first entries inside the width
    of its source, so that == and the orbit checkpoint compare canonical
    rows."""
    return all(
        len(m) == rep.dims[e - 1] and _integer_first(m)
        and all(0 <= j < rep.dims[s - 1] for row in m for j in row)
        for (s, e), m in zip(rep.quiver.arrows, rep._rows))


def coxeter_dims(rep, budget):
    """The dims of rep, Phi^+ rep, ... from a plain loop of the public
    Coxeter functor, up to the first zero image or budget passes."""
    orbit, cur = [rep.dims], rep
    while not cur.is_zero() and len(orbit) <= budget:
        cur = coxeter_plus(cur)
        orbit.append(cur.dims)
    return orbit


@PROPERTY_SETTINGS
@given(principal_modules())
def test_module_dims_equal_weyl_root(case):
    # dim M(S) = sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s})
    s, root, _ = case
    assert build_module(s).dims == root


@PROPERTY_SETTINGS
@given(quiver_reps())
@example(EMPTY_MAPS[0])
@example(EMPTY_MAPS[1])
def test_functors_match_raw_oracles(rep):
    # F^+ at every sink and F^- at every source, against a Fraction kernel
    # and a Fraction cokernel on raw arrows: the arrows, dims and maps
    q = rep.quiver
    cases = [(x, reflect_plus, raw_reflect_plus) for x in sorted(q.sinks())]
    cases += [(x, reflect_minus, raw_reflect_minus) for x in sorted(q.sources())]
    for x, functor, oracle in cases:
        out = functor(rep, x)
        arrows, dims, maps = oracle(q.arrows, rep.dims, rep.maps, x)
        assert (out.quiver.arrows, out.dims) == (arrows, dims)
        assert _stored_canonically(out)
        assert [list(map(list, m)) for m in out.maps] == [list(map(list, m)) for m in maps]


@PROPERTY_SETTINGS
@given(principal_modules())
def test_reflect_plus_undoes_reflect_minus(case):
    s, _, _ = case
    m = build_module(s)
    q = m.quiver
    for x in sorted(q.sources()):
        if m == simple(q, x):
            continue
        assert reflect_plus(reflect_minus(m, x), x).dims == m.dims


@PROPERTY_SETTINGS
@given(principal_modules())
def test_principal_module_annihilated_by_its_sequence(case):
    # M(S_{r,x}) with reduced word is preprojective of power r, and S_{r,x}
    # is its shortest annihilator; p agrees with a plain loop of the public
    # Coxeter functor, and the one kill recorded, the step at x of pass r,
    # with the kills read off that loop's dims
    s, _, r = case
    m = build_module(s)
    assert is_preprojective(m) == Preprojective(r)
    assert shortest_annihilator_indec(m).multiplicities() == s.multiplicities()
    orbit = coxeter_dims(m, 64)
    kills = [(r, s.letters[-1])]
    assert reps._annihilating_power(m, 64) == (len(orbit) - 1, kills)
    assert orbit_kills(m.quiver.n, m.quiver.arrows, orbit) == kills
    assert len(orbit) - 1 == r and orbit[-2] in raw_projective_dims(m.quiver.n, m.quiver.arrows)


@PROPERTY_SETTINGS
@given(orbit_modules(), st.integers(0, 12))
def test_orbit_power_matches_budget_only_oracle(m, budget):
    # the orbit stops at its first repeated state; a walk of plain F^+
    # steps that only the budget ends gives the same p and last dims, or
    # is still nonzero at the budget too
    expected = budget_orbit_power(m, budget)
    if expected is None:
        assert is_preprojective(m, budget) == Undecided()
        with pytest.raises(UndecidedError,
                           match=f"^not annihilated within {budget} Coxeter steps$"):
            reps._annihilating_power(m, budget)
    else:
        assert is_preprojective(m, budget) == Preprojective(expected[0])
        orbit = coxeter_dims(m, budget)
        assert (len(orbit) - 1, orbit[-2] if len(orbit) > 1 else None) == expected
        p, kills = reps._annihilating_power(m, budget)
        assert p == expected[0] and kills == orbit_kills(m.quiver.n, m.quiver.arrows, orbit)


@st.composite
def unimodular(draw, d):
    """(P, P^-1): a d x d integer matrix of determinant +-1, a product of
    elementary row operations (add k times a row to another, negate a
    row), with its inverse carried along as the inverse column operations."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 3 * d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        if i == j:
            p[j] = [-x for x in p[j]]
            for row in inv:
                row[j] = -row[j]
        else:
            p[j] = [a + k * b for a, b in zip(p[j], p[i])]
            for row in inv:
                row[i] -= k * row[j]
    return p, inv


def _product(a, b, cols):
    """The product of an r x t and a t x cols matrix, for any of them 0."""
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(cols)] for row in a]


@st.composite
def rebased(draw, m):
    """m in another basis: each vertex space v conjugated by a random
    unimodular P_v, so the map M of an arrow s -> e becomes P_e M P_s^-1."""
    bases = [draw(unimodular(d)) for d in m.dims]
    for (p, inv), d in zip(bases, m.dims):
        assert _product(p, inv, d) == [[int(i == j) for j in range(d)] for i in range(d)]
    return Representation(m.quiver, m.dims, [
        _product(bases[e - 1][0], _product(a, bases[s - 1][1], m.dims[s - 1]), m.dims[s - 1])
        for (s, e), a in zip(m.quiver.arrows, m.maps)])


@PROPERTY_SETTINGS
@given(st.one_of(module_sums().map(lambda case: case[0]), quivers().flatmap(walk_modules)),
       st.data())
def test_a_change_of_basis_keeps_the_orbit(m, data):
    # the orbit's power and kills, the shortest annihilator and the
    # Coxeter image's dims are invariants of the isomorphism class, not
    # of the basis the library chose for a direct sum of M(S)
    other = data.draw(rebased(m))
    assert reps._annihilating_power(other, 64) == reps._annihilating_power(m, 64)
    assert shortest_annihilator_indec(other).letters == shortest_annihilator_indec(m).letters
    assert coxeter_plus(other).dims == coxeter_plus(m).dims


KRONECKER = quiver_from_arrows(2, [(1, 2), (1, 2)])


@PROPERTY_SETTINGS
@given(st.one_of(regular_kronecker(KRONECKER), st.sampled_from([
    Representation(KRONECKER, (2, 2), [[[1, 0], [0, 1]], [[2, 1], [0, 2]]]),
    Representation(KRONECKER, (1, 1), [[[1]], [[3]]]),
])), st.data())
def test_a_change_of_basis_keeps_a_regular_module_undecided(m, data):
    # a regular Kronecker module in any basis is still caught by the
    # orbit's repeated state, long before a budget of 1000 passes runs out
    other = data.draw(rebased(m))
    with mock.patch.object(reps, "_step", wraps=reps._step) as step:
        assert is_preprojective(other, 1000) == Undecided()
    assert step.call_count < 2 * 64


@PROPERTY_SETTINGS
@given(module_sums())
def test_shortest_annihilator_of_a_direct_sum(case):
    # the answer kills the sum, no valid m - e_i does, and it is the join
    # of the summand answers and the exhaustive minimum below k^p
    m, summands = case
    q = m.quiver
    found = shortest_annihilator_indec(m)
    assert apply_sequence(m, found).is_zero()
    mult = found.multiplicities()
    for i in range(q.n):
        if mult[i]:
            try:
                cover = seq_from_multiplicities(q, mult[:i] + (mult[i] - 1,) + mult[i + 1:])
            except InvalidMultiplicityError:
                continue
            assert not apply_sequence(m, cover).is_zero()
    joined = join_annihilators([shortest_annihilator_indec(s) for s in summands])
    assert mult == joined.multiplicities()
    p = is_preprojective(m).m
    k = AdmissibleSeq(q, canonical_complete_sequence(q).letters * p)
    assert shortest_annihilator_bruteforce(m, k).letters == found.letters
    assert mult == exhaustive_annihilator(m, (p,) * q.n)


@PROPERTY_SETTINGS
@given(module_sums())
def test_annihilator_of_a_sum_joins_its_summands_principal_sequences(case):
    # each summand M(S) is indecomposable, so its shortest annihilator is
    # a principal sequence; the answer for the sum is their join, so every
    # principal sequence of its minimal decomposition is one of them
    m, summands = case
    found = shortest_annihilator_indec(m)
    own = {is_principal(shortest_annihilator_indec(n)) for n in summands}
    assert None not in own
    assert set(principal_decomposition(found)) <= own


@PROPERTY_SETTINGS
@given(scaled_summands())
def test_row_readers_match_fraction_maps(summands):
    # a representation stores sparse integer-first rows only: direct_sum,
    # ==, the JSON round trip and the Fraction view of maps all read them
    total = direct_sum(summands)
    parts = [(m.dims, m.maps) for m in summands]
    assert total.maps == fraction_direct_sum(total.quiver.arrows, parts)
    assert any(x.denominator != 1 for a in total.maps for r in a for x in r)
    for m in summands + [total]:
        assert _stored_canonically(m)
        assert Representation(m.quiver, m.dims, m.maps) == m
        assert _stored_canonically(rep_from_dict(rep_to_dict(m)))
        assert rep_from_dict(rep_to_dict(m)) == m
        assert all(type(x) is Fraction for a in m.maps for r in a for x in r)
    for a in summands:
        for b in summands:
            assert (a == b) == (a.dims == b.dims and a.maps == b.maps)


@PROPERTY_SETTINGS
@given(principal_modules())
def test_functor_folds_match_single_steps(case):
    # build_module and coxeter_plus step on a parity mask over one base
    # quiver; single public functor steps, each on the quiver the previous
    # one returned, must give the same bases, all stored canonically
    s, _, _ = case
    arrows = s.quiver.arrows
    for x in s.letters[:-1]:
        arrows = raw_reflect(arrows, x)
    m = simple(Quiver(s.quiver.graph, arrows), s.letters[-1])
    for x in reversed(s.letters[:-1]):
        m = reflect_minus(m, x)
        assert _stored_canonically(m)
    assert m == build_module(s)
    assert _stored_canonically(build_module(s))
    image = m
    for x in canonical_complete_sequence(m.quiver).letters:
        image = reflect_plus(image, x)
        assert _stored_canonically(image)
    assert image == coxeter_plus(m)
    assert _stored_canonically(coxeter_plus(m))


@PROPERTY_SETTINGS
@given(quivers())
def test_incidence_lists_the_arrows_at_each_vertex(q):
    # per vertex, the positions of arrows_in and arrows_out in arrow
    # order, each with its other end; a reflected quiver keeps the arrow
    # ends, so it reads the same pairs, shared or built afresh
    at = q._incidence()
    for x in q.vertices():
        positions = sorted(q.arrows_in(x) + q.arrows_out(x))
        assert at[x] == tuple((i, sum(q.arrows[i]) - x) for i in positions)
    for x in sorted(q.sinks() | q.sources()):
        r = q.reflect(x)
        assert r._incidence() == at
        assert Quiver(q.graph, r.arrows)._incidence() == at


@PROPERTY_SETTINGS
@given(quivers())
def test_trusted_reflection_matches_validated(q):
    # reflect at a sink or a source skips validation; it must agree with a
    # fully validated construction and with plain scans of the reflected
    # arrows
    for x in sorted(q.sinks() | q.sources()):
        r = q.reflect(x)
        arrows = raw_reflect(q.arrows, x)
        assert r == Quiver(q.graph, arrows)
        for v in r.vertices():
            assert r.arrows_out(v) == tuple(i for i, (s, _) in enumerate(arrows) if s == v)
            assert r.arrows_in(v) == tuple(i for i, (_, e) in enumerate(arrows) if e == v)
            assert r.is_sink(v) == all(s != v for s, _ in arrows)
            assert r.is_source(v) == all(e != v for _, e in arrows)
            assert r.reachable(v) == raw_reachable(arrows, v)
        assert r.topological_order() == raw_topological_order(r.n, arrows)
        assert r.reflect(x) == q


@PROPERTY_SETTINGS
@given(sink_walks())
def test_parity_walk_matches_raw_reflections(case):
    # after every prefix of a walk, the sink and source tests on the parity
    # mask agree with scans of the raw reflected arrows, and the final
    # quiver, installed without validation, has the raw arrows in their
    # order and answers every query on its own masks as the raw arrows do
    q, letters, orientations = case
    flips = 0
    for i, arrows in enumerate(orientations):
        sinks = raw_sinks(q.n, arrows)
        sources = raw_sinks(q.n, [(e, s) for s, e in arrows])
        for v in q.vertices():
            assert q._sink_after(flips, v) == (v in sinks)
            assert q._source_after(flips, v) == (v in sources)
        if i < len(letters):
            flips ^= 1 << letters[i]
    r = AdmissibleSeq(q, letters).final_quiver
    assert r.arrows == arrows
    assert r.sinks() == set(sinks) and r.sources() == set(sources)
    for v in r.vertices():
        assert r.is_sink(v) == all(s != v for s, _ in arrows)
        assert r.is_source(v) == all(e != v for _, e in arrows)
        assert r.arrows_out(v) == tuple(i for i, (s, _) in enumerate(arrows) if s == v)
        assert r.arrows_in(v) == tuple(i for i, (_, e) in enumerate(arrows) if e == v)
        assert r.reachable(v) == raw_reachable(arrows, v)
    for v in (0, q.n + 1):
        for query in (r.is_sink, r.is_source, r.arrows_out, r.arrows_in, r.reachable):
            with pytest.raises(AdmseqError):
                query(v)
    assert r.topological_order() == raw_topological_order(q.n, arrows)


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_nq_reachable_matches_raw_search(q, data):
    # the hull walk against a breadth-first search of the translation
    # quiver, from a drawn node to every node at vertices 1..n and levels
    # -3..8, the drawn node included; a node at an id outside 1..n is an
    # input error at either end
    a = data.draw(st.tuples(st.integers(-3, 8), st.integers(1, q.n)))
    for b in product(range(-3, 9), q.vertices()):
        assert nq_reachable(q, a, b) == raw_nq_reachable(q.arrows, a, b)
    for x in (0, q.n + 1):
        for pair in ((a, (a[0], x)), ((a[0], x), a)):
            with pytest.raises(AdmseqError):
                nq_reachable(q, *pair)


@PROPERTY_SETTINGS
@given(sink_walks(), st.data())
def test_corrupted_letter_raises_at_its_position(case, data):
    # a walk whose i-th letter is replaced by a vertex that is not a raw
    # sink there fails at position i
    q, letters, orientations = case
    assume(letters)
    i = data.draw(st.integers(0, len(letters) - 1))
    sinks = raw_sinks(q.n, orientations[i])
    x = data.draw(st.sampled_from([v for v in q.vertices() if v not in sinks]))
    with pytest.raises(NotAdmissibleError) as exc:
        AdmissibleSeq(q, letters[:i] + [x] + letters[i + 1:])
    assert (exc.value.index, exc.value.letter) == (i + 1, x)


@PROPERTY_SETTINGS
@given(sink_walks(), st.data())
def test_poset_queries_match_raw_reachability(case, data):
    # on the quiver at the end of a walk, the mask-based path order,
    # filters, closures and hulls against raw reachability and sets
    q, letters, orientations = case
    r, arrows = AdmissibleSeq(q, letters).final_quiver, orientations[-1]
    up = {v: raw_reachable(arrows, v) for v in r.vertices()}
    for u in r.vertices():
        assert r.reachable(u) == up[u]
        assert r.principal_filter(u) == up[u]
        for v in r.vertices():
            assert r.leq(u, v) == (v in up[u])
    X = data.draw(st.sets(st.integers(1, r.n)))
    closure = set().union(*(up[x] for x in X))
    assert r.upward_closure(X) == closure
    assert r.is_filter(X) == (closure == X)
    if closure == X:
        grown = X | {s for s, e in arrows if e in X} | {e for s, e in arrows if s in X}
        assert r.hull(X) == set().union(*(up[v] for v in grown))
    else:
        with pytest.raises(FilterViolationError):
            r.hull(X)


def _walk(data, q):
    """A random walk of at most 12 sinks on q."""
    letters, cur = [], q
    for _ in range(data.draw(st.integers(0, 12))):
        x = data.draw(st.sampled_from(sorted(cur.sinks())))
        letters.append(x)
        cur = cur.reflect(x)
    return AdmissibleSeq(q, letters)


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_emitted_sequences_are_admissible(q, data):
    # the lattice operations install the sequences they emit from level
    # sets without a sink pass: each must pass a fresh validation, and its
    # final quiver must be the fold of reflect over its letters
    s, t = _walk(data, q), _walk(data, q)
    # sizes up to 2n + 2 reach full levels that repeat the one before
    r, x = data.draw(st.integers(1, 2 * q.n + 2)), data.draw(st.integers(1, q.n))
    emitted = [
        principal(q, r, x),
        seq_from_multiplicities(q, s.multiplicities()),
        meet(s, t),
        join(s, t),
        *complement_pair(s, t),
        canonical_rep(s),
    ]
    for e in emitted:
        assert e == AdmissibleSeq(e.quiver, e.letters)
        assert e.final_quiver == reduce(Quiver.reflect, e.letters, e.quiver)


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_a_full_level_is_the_canonical_complete_sequence(q, data):
    # for r >= n the two lowest level sets of S_{r+1,x} are every vertex
    # (a hull takes in the neighbours of its level, and every vertex is
    # fewer than n edges from x), so its first segment is the canonical
    # complete sequence k, which gives back q, and the rest is S_{r,x}
    r, x = data.draw(st.integers(q.n, 3 * q.n)), data.draw(st.integers(1, q.n))
    k, s = canonical_complete_sequence(q), principal(q, r, x)
    longer = principal(q, r + 1, x)
    assert longer.letters == k.letters + s.letters
    assert longer._flips == s._flips ^ k._flips
    assert longer == AdmissibleSeq(q, longer.letters)


def _principal_join(data, q, sizes):
    """The join of one to three principal sequences of q at distinct
    vertices, each of a size drawn from ``sizes``."""
    pairs = data.draw(st.lists(st.tuples(sizes, st.integers(1, q.n)), min_size=1, max_size=3,
                               unique_by=lambda pair: pair[1]))
    return reduce(join, [principal(q, r, x) for r, x in pairs])


@settings(max_examples=400, deadline=None)
@given(quivers(), st.data())
def test_is_principal_matches_a_search_over_generators(q, data):
    # a principal sequence is found with its own pair; a join of one to
    # three of them is principal exactly when, for r' its largest
    # multiplicity, some S_{r',x'} has its multiplicities, and then by
    # that pair, which is the only one.  On small quivers two vertices
    # are mostly comparable, so fewer than one join in ten is not
    # principal: hence the 400 examples
    r, x = data.draw(st.integers(1, 4)), data.draw(st.integers(1, q.n))
    assert is_principal(principal(q, r, x)) == (r, x)
    s = _principal_join(data, q, st.integers(1, 4))
    m = s.multiplicities()
    found = [(max(m), v) for v in q.vertices() if principal(q, max(m), v).multiplicities() == m]
    assert len(found) <= 1
    assert is_principal(s) == (found[0] if found else None)


def test_ids_outside_the_quiver(q3, tmp_path, capsys):
    # an id outside 1..n is an input error, not a vertex with no arrows;
    # principal checks its generator before emitting a sequence
    with pytest.raises(AdmseqError, match="0 is not a vertex 1..3"):
        q3.reachable(0)
    with pytest.raises(AdmseqError, match="4 is not a vertex 1..3"):
        q3.is_sink(q3.n + 1)
    path = tmp_path / "q3.json"
    path.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [2, 3]]}))
    assert main(["principal", "-q", str(path), "-r", "2", "-x", "0"]) == 2
    assert "0 is not a vertex 1..3" in capsys.readouterr().err


# every public query that takes a single vertex id, called on the A3
# quiver 1 -> 2 -> 3 with the id x in one place and vertices elsewhere
VERTEX_QUERIES = {
    "edge_mult-first": lambda q, x: q.graph.edge_mult(x, 1),
    "edge_mult-second": lambda q, x: q.graph.edge_mult(1, x),
    "neighbors": lambda q, x: q.graph.neighbors(x),
    "is_sink": lambda q, x: q.is_sink(x),
    "is_source": lambda q, x: q.is_source(x),
    "arrows_out": lambda q, x: q.arrows_out(x),
    "arrows_in": lambda q, x: q.arrows_in(x),
    "reflect": lambda q, x: q.reflect(x),
    "leq-first": lambda q, x: q.leq(x, 3),
    "leq-second": lambda q, x: q.leq(1, x),
    "reachable": lambda q, x: q.reachable(x),
    "principal_filter": lambda q, x: q.principal_filter(x),
    "is_filter": lambda q, x: q.is_filter({3, x}),
    "upward_closure": lambda q, x: q.upward_closure({3, x}),
    "hull": lambda q, x: q.hull({3, x}),
    "principal": lambda q, x: principal(q, 2, x),
    "principal_precedes": lambda q, x: principal_precedes((2, x), AdmissibleSeq(q, (3,))),
    "nq_reachable-from": lambda q, x: nq_reachable(q, (0, x), (1, 3)),
    "nq_reachable-to": lambda q, x: nq_reachable(q, (0, 3), (1, x)),
    "simple": lambda q, x: simple(q, x),
    "dim": lambda q, x: simple(q, 1).dim(x),
    "reflect_plus": lambda q, x: reflect_plus(simple(q, 3), x),
    "reflect_minus": lambda q, x: reflect_minus(simple(q, 1), x),
}


@pytest.mark.parametrize("x", [0, 4, -1, 2.0, "1"], ids=["0", "n+1", "-1", "float", "str"])
@pytest.mark.parametrize("query", VERTEX_QUERIES.values(), ids=VERTEX_QUERIES)
def test_every_vertex_id_is_read_by_one_reader(q3, query, x):
    # an id that is not a vertex 1..n is an input error everywhere, and an
    # integer one is named by the same message
    with pytest.raises(AdmseqError) as exc:
        query(q3, x)
    if type(x) is int:
        assert str(exc.value) == f"{x} is not a vertex 1..3"


A2 = ((2, -1), (-1, 2))

# every reader of a positional argument whose order matters, handed text,
# bytes, a mapping or a set, on the A3 quiver 1 -> 2 -> 3: each iterates
# its characters, its keys or its members in hash order, never the items
# in a given order, so each is refused with the reader's own message; and a
# Weyl operand of the wrong type, refused with the type it should have
UNORDERED_ARGUMENTS = {
    "weyl-element-rows": (lambda q: WeylElement(A2, [{0: "a", 1: "b"}, {1: 0, 0: 0}]),
                          "Weyl element entries must be integers"),
    "weyl-apply": (lambda q: WeylElement(A2, ((1, 0), (0, 1))).apply({0: 1, 1: 0}),
                   "vector entries must be integers"),
    "weyl-word": (lambda q: WeylWord(A2, {2: 0, 1: 0}), "word letters must be integers"),
    "weyl-product-int": (lambda q: WeylElement.identity(A2) * 3,
                         "a factor must be a WeylElement, not int"),
    "weyl-product-word": (lambda q: WeylElement.identity(A2) * WeylWord(A2, (1,)),
                          "a factor must be a WeylElement, not WeylWord"),
    "c-sorting-swapped": (
        lambda q: c_sorting_word(WeylElement.identity(A2), WeylWord(A2, (1, 2))),
        "a sort takes a WeylWord and a WeylElement, not WeylElement and WeylWord"),
    "admissible-letters": (lambda q: AdmissibleSeq(q, {3: 0, 2: 0}), "letters must be integers"),
    "multiplicities": (lambda q: seq_from_multiplicities(q, {0: 1, 1: 1, 2: 2}),
                       "multiplicities must be integers"),
    "representation-dims": (lambda q: Representation(q, {1: 0, 0: 0, 2: 0}, [[], [[], []]]),
                            "dimensions must be integers"),
    "edge-set": (lambda q: Graph(3, [{1, 2}, (2, 3)]), "edge ends must be integers"),
    "arrow-set": (lambda q: quiver_from_arrows(2, [{2, 1}]), "edge ends must be integers"),
    "arrow-bytes": (lambda q: quiver_from_arrows(2, [b"\x02\x01"]), "edge ends must be integers"),
    "arrow-dict": (lambda q: Quiver(q.graph, [{1: 0, 2: 0}, (2, 3)]), "arrow ends must be integers"),
    "arrows-set": (lambda q: quiver_from_arrows(3, {(1, 2), (2, 3)}),
                   "arrows must be a list of pairs"),
    "quiver-arrows-set": (lambda q: Quiver(q.graph, {(1, 2), (2, 3)}),
                          "arrows must be a list of pairs"),
    "psi": (lambda q: psi({3: 0, 1: 0}), "size and vertex must be integers"),
    "principal_precedes": (lambda q: principal_precedes({1: 0, 3: 0}, AdmissibleSeq(q, (3,))),
                           "size and vertex must be integers"),
    "nq_reachable": (lambda q: nq_reachable(q, {0: 0, 1: 0}, (1, 1)), "node must be integers"),
}


@pytest.mark.parametrize("call,message", UNORDERED_ARGUMENTS.values(), ids=UNORDERED_ARGUMENTS)
def test_ordered_arguments_refuse_text_mappings_and_sets(q3, call, message):
    with pytest.raises(AdmseqError, match=f"^{message}$"):
        call(q3)


def test_pairs_name_their_count(q3):
    # a pair of integers with another count is named by the one reader
    with pytest.raises(AdmseqError, match="^size and vertex must be 2 integers, got 3$"):
        psi((1, 2, 3))
    with pytest.raises(AdmseqError, match="^node must be 2 integers, got 1$"):
        nq_reachable(q3, (0, 1), (1,))
    with pytest.raises(AdmseqError, match="^arrow ends must be 2 integers, got 3$"):
        Quiver(q3.graph, [(1, 2, 3), (2, 3)])


def test_sets_are_read_where_order_means_nothing(q3):
    # a vertex set, the edges of a graph and the sequences of a join have
    # no order to lose, and a set of them is read like a list
    assert q3.is_filter({2, 3}) and q3.is_filter(frozenset({3}))
    assert q3.upward_closure({2}) == {2, 3} == q3.upward_closure({2: 0}.keys())
    assert q3.hull(frozenset({3})) == {2, 3}
    assert Graph(3, {(2, 3), (1, 2)}) == Graph(3, [(1, 2), (2, 3)])
    parts = {principal(q3, 1, 2), principal(q3, 2, 3)}
    assert join_annihilators(parts) == join_annihilators(sorted(parts, key=lambda s: s.letters))


@PROPERTY_SETTINGS
@given(words())
def test_is_reduced_matches_matrix_oracle(case):
    # the height walk against full prefix products
    _, word = case
    expected = matrix_first_non_reduced(word.cartan, word.letters) is None
    assert is_reduced(word) == expected


@st.composite
def graph_words(draw):
    """(cartan, letters): a random graph on at most 8 vertices, wild ones
    included, and a word of at most 40 letters."""
    n, edges = draw(graph_edges(8))
    return Graph(n, edges).cartan(), draw(st.lists(st.integers(1, n), max_size=40))


@PROPERTY_SETTINGS
@given(st.one_of(words().map(lambda case: (case[1].cartan, case[1].letters)), graph_words()))
def test_evaluate_matches_matrix_product(case):
    # quiver words, and words on graphs of up to 8 vertices, wild ones
    # included, where the sparse Cartan rows that evaluation steps on
    # leave out most of each dense row
    cartan, letters = case
    assert WeylWord(cartan, letters).evaluate().matrix == word_matrix(cartan, letters)


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_words_on_a_graph_and_on_its_matrix_agree(q, data):
    # a word or element built on a Graph holds the rows its Cartan matrix
    # gives: values, hashes, reducedness, lengths and the read-only matrix
    # agree, a sort mixes the two, and the word of a sequence agrees too
    cartan = q.graph.cartan()
    letters = data.draw(st.lists(st.integers(1, q.n), max_size=20))
    on_graph, on_matrix = WeylWord(q.graph, letters), WeylWord(cartan, letters)
    value = on_graph.evaluate()
    assert value == on_matrix.evaluate() and hash(value) == hash(on_matrix.evaluate())
    assert is_reduced(on_graph) == is_reduced(on_matrix)
    assert length_of_word(on_graph) == length_of_word(on_matrix)
    assert on_graph.cartan == on_matrix.cartan == value.cartan == cartan
    c_letters = data.draw(st.permutations(range(1, q.n + 1)))
    c_on_graph, c_on_matrix = WeylWord(q.graph, c_letters), WeylWord(cartan, c_letters)
    blocks = c_sorting_word(c_on_matrix, WeylElement(cartan, value.matrix)).blocks
    assert c_sorting_word(c_on_graph, value).blocks == blocks
    assert c_sorting_word(c_on_matrix, WeylElement(q.graph, value.matrix)).blocks == blocks
    s = principal(q, data.draw(st.integers(1, 3)), data.draw(st.integers(1, q.n)))
    assert word_of(s).evaluate() == WeylWord(cartan, s.letters).evaluate()


@PROPERTY_SETTINGS
@given(graph_words())
def test_inverse_is_reversed_word(case):
    # (x_1 ... x_s)^-1 is the reversed word, and its entries stay ints
    cartan, letters = case
    inverse = WeylWord(cartan, letters).evaluate().inverse()
    assert inverse == WeylWord(cartan, reversed(letters)).evaluate()
    assert all(type(x) is int for row in inverse.matrix for x in row)


@PROPERTY_SETTINGS
@given(complete_sequences(), st.integers(1, 6))
def test_coxeter_powers_match_separate_checks(seq, m_max):
    # one pass over c^{m_max} must agree with checking every c^m on its own
    cartan = seq.quiver.graph.cartan()
    expected = [
        (m, is_reduced(WeylWord(cartan, seq.letters * m)), m * seq.quiver.n)
        for m in range(1, m_max + 1)
    ]
    assert coxeter_powers_reduced(seq, m_max) == expected


@PROPERTY_SETTINGS
@given(words())
def test_length_of_word_matches_bfs(case):
    q, word = case
    assume(weyl_is_finite(q.graph))
    lengths = bfs_lengths(word.cartan)
    assert length_of_word(word) == lengths[word_matrix(word.cartan, word.letters)]


@PROPERTY_SETTINGS
@given(graph_words())
def test_length_of_word_matches_matrix_peel(case):
    # the height walk against descents peeled off the full product, on
    # infinite Weyl groups too; a word is reduced exactly when its
    # element is as long as the word
    cartan, letters = case
    word = WeylWord(cartan, letters)
    length = length_of_word(word)
    assert length == matrix_length(cartan, letters)
    assert is_reduced(word) == (length == len(letters))


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_word_value_of_a_concatenation_is_the_product(q, data):
    # the first letter acts first: the word a + b acts as a, then as b,
    # on finite, affine and wild quivers alike
    cartan = q.graph.cartan()
    a, b = (tuple(data.draw(st.lists(st.integers(1, q.n), max_size=12))) for _ in "ab")
    value = WeylWord(cartan, a + b).evaluate()
    assert value == WeylWord(cartan, b).evaluate() * WeylWord(cartan, a).evaluate()


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_sorting_word_matches_column_peel_of_inverse(q, data):
    # the two height walks and the product check against the peel of
    # whole columns of the inverse, on finite, affine and wild quivers;
    # the target is a bare matrix built from a random word, so it carries
    # no word of its own
    cartan = q.graph.cartan()
    c_letters = data.draw(st.permutations(range(1, q.n + 1)))
    letters = data.draw(st.lists(st.integers(1, q.n), max_size=20))
    matrix = word_matrix(cartan, letters)
    c_word, target = WeylWord(cartan, c_letters), WeylElement(cartan, matrix)
    blocks = matrix_sorting_blocks(cartan, c_letters, matrix)
    assert c_sorting_word(c_word, target).blocks == blocks
    sets = [set(b) for b in blocks]
    assert is_c_sortable(c_word, target) == all(b <= a for a, b in zip(sets, sets[1:]))


@PROPERTY_SETTINGS
@given(quivers(), st.data())
def test_sorting_word_of_an_admissible_sequence_is_its_canonical_form(q, data):
    """For S = x_1, ..., x_s a join of principal sequences with reduced
    word, and c the canonical complete sequence, the c-sorting word of
    w_S = sigma_{x_1} ... sigma_{x_s} has the segments of the canonical
    form of S as its blocks.  A WeylWord acts first letter first, so w_S
    is the element of the reversed letters of S, and the Coxeter word is
    the reversed letters of c, whose sort scans c in its own order."""
    cartan = q.graph.cartan()
    s = _principal_join(data, q, st.integers(1, 3))
    assume(is_reduced(word_of(s)))
    c = canonical_complete_sequence(q)
    c_word = WeylWord(cartan, reversed(c.letters))
    w_s = WeylWord(cartan, reversed(s.letters)).evaluate()
    assert c_sorting_word(c_word, w_s).blocks == canonical_form(s).segments


@PROPERTY_SETTINGS
@given(complete_sequences())
def test_coxeter_powers_reduced_exactly_for_infinite_w(seq):
    # the paper's application: W is infinite exactly when every power of a
    # Coxeter element is reduced.  With n <= 5, a finite W has Coxeter
    # number h <= 8, so c^m stops being reduced by m = h/2 + 1 < 16
    q = seq.quiver
    infinite = not ade_is_finite(q.n, q.graph.edges)
    assert all(ok for _, ok, _ in coxeter_powers_reduced(seq, 16)) == infinite


@settings(max_examples=400, deadline=None)
@given(graph_edges(10))
def test_weyl_is_finite_matches_ade_classification(case):
    # the Coxeter-power criterion against the Dynkin diagram classifier
    n, edges = case
    assert weyl_is_finite(Graph(n, edges)) == ade_is_finite(n, edges)


@PROPERTY_SETTINGS
@given(quivers())
def test_weyl_is_finite_reads_a_matrix_or_a_graph(q):
    # graph_from_cartan hands a Graph back as it is and reads a matrix
    # into the same graph, so both walk one group
    assert graph_from_cartan(q.graph) is q.graph
    assert weyl_is_finite(q.graph) == weyl_is_finite(q.graph.cartan())


# what weyl_is_finite refuses, with the class and message of the refusal:
# the Coxeter-power theorem holds only for an indecomposable Cartan matrix
@pytest.mark.parametrize("call,error,message", [
    (lambda q: weyl_is_finite([[2, 0], [0, 2]]), IndecomposabilityError, "graph is disconnected"),
    (lambda q: weyl_is_finite(q), InvalidCartanError, "matrix is not a square list of integer rows"),
], ids=["split-matrix", "quiver"])
def test_weyl_is_finite_refuses_all_but_one_indecomposable_group(q3, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(q3)


@st.composite
def multigraphs(draw):
    """(n, edges) on 1..n, n <= 8: at most 12 pairs, each drawn either way
    round and possibly repeated, over a random spanning tree or not, so
    that some graphs are connected and some are not."""
    n = draw(st.integers(2, 8))
    edges = []
    if draw(st.booleans()):
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=12))
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_graph_is_its_cartan_matrix(case, data):
    # Graph, graph_from_cartan and Quiver against plain loops over the
    # pairs, and each check against inputs broken in one place
    n, edges = case
    pairs, cartan, neighbours, connected = raw_graph(n, edges)
    if not connected:
        with pytest.raises(IndecomposabilityError):
            Graph(n, edges)
        return
    g = Graph(n, edges)
    assert (g.edges, g.cartan()) == (pairs, cartan)
    assert [g.neighbors(v) for v in range(1, n + 1)] == list(neighbours.values())
    assert all(g.edge_mult(u, v) == pairs.count((min(u, v), max(u, v)))
               for u in range(1, n + 1) for v in range(1, n + 1))
    for x in (0, n + 1):
        for query in (g.neighbors, lambda u: g.edge_mult(u, 1), lambda u: g.edge_mult(1, u)):
            with pytest.raises(AdmseqError):
                query(x)
    assert graph_from_cartan(g.cartan()) == g

    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bad = [list(row) for row in cartan]
    if i == j:
        bad[i][i] = data.draw(st.sampled_from([-2, 0, 1, 3]))
    elif data.draw(st.booleans()):
        bad[i][j] -= 1  # not symmetric
    else:
        bad[i][j] = bad[j][i] = data.draw(st.integers(1, 3))
    with pytest.raises(InvalidCartanError):
        graph_from_cartan(bad)

    # every orientation, with the arrows in any order
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arrows = data.draw(st.permutations([e[::-1] if f else e for e, f in zip(pairs, flips)]))
    if len(raw_topological_order(n, arrows)) == n:
        assert Quiver(g, arrows).arrows == tuple(arrows)
    else:
        with pytest.raises(AcyclicityError):
            Quiver(g, arrows)

    k = data.draw(st.integers(0, len(arrows) - 1))
    u, v = arrows[k]

    def replaced(items, item):
        return items[:k] + [item] + items[k + 1:]

    for wrong in (arrows[:k] + arrows[k + 1:], arrows + [(u, v)], replaced(arrows, (u, u)),
                  replaced(arrows, (u, n + 1)), replaced(arrows, (0, v))):
        with pytest.raises(InvalidCartanError):
            Quiver(g, wrong)
    for not_pair in ((), (u,), (u, v, u)):
        for build in (lambda: Graph(n, replaced(list(pairs), not_pair)),
                      lambda: Quiver(g, replaced(arrows, not_pair)),
                      lambda: quiver_from_arrows(n, replaced(arrows, not_pair))):
            with pytest.raises(AdmseqError):
                build()
    # quiver_from_arrows reads the arrows as the edges of their graph, so a
    # broken arrow list fails there exactly as the same list fails in Graph
    missing = arrows[:k] + arrows[k + 1:]  # broken only when it disconnects
    for wrong in [missing, *(replaced(arrows, pair)
                             for pair in ((u, u), (u, n + 1), (0, v), (), (u,), (u, v, u)))]:
        expected = _outcome(lambda: Graph(n, wrong))
        if wrong is missing and isinstance(expected, Graph):
            continue
        assert _outcome(lambda: quiver_from_arrows(n, wrong)) == expected


def _outcome(build):
    """What build() returns, or the type and message of the AdmseqError it raises."""
    try:
        return build()
    except AdmseqError as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(multigraphs(), st.data())
def test_quiver_from_arrows_reads_its_arrows_once(case, data):
    # the arrows read once, as the edges of their graph, against the graph
    # and the quiver each reading them, also when one arrow is broken
    n, arrows = case
    arrows = list(arrows)
    if arrows and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(arrows) - 1))
        u, v = arrows[k]
        arrows[k] = data.draw(st.sampled_from(
            [(v, u), (u, u), (u, n + 1), (0, v), (u,), (u, v, u), (u + 0.5, v), 7]))
    assert _outcome(lambda: quiver_from_arrows(n, arrows)) == _outcome(
        lambda: Quiver(Graph(n, arrows), list(arrows)))


# Entries that make pivots other than +-1, given as int or as Fraction
# (integral ones too), mostly zero as in the maps of a module.
NON_UNIT = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(5, 3), Fraction(-3), Fraction(1)]
)


@st.composite
def matrices(draw):
    """(m, rows, cols) with rows <= 6 and cols <= 8, 0 included."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entry = draw(st.sampled_from([NON_UNIT, st.integers(-4, 4)]))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)], rows, cols


@st.composite
def dependent_matrices(draw):
    """(m, rows, cols) with rows <= 8 and cols <= 16: integer entries up
    to 10^3 in absolute value, each row held as ints or as Fractions, and
    some rows rational multiples of earlier ones, so that pivots other
    than +-1 meet rank deficiency and non-integral rows."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 16))
    entry = st.one_of(st.just(0), st.integers(-1000, 1000))
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            q = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
            row = [x * q for x in draw(st.sampled_from(m))]
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
        m.append(draw(st.sampled_from([list, lambda r: list(map(Fraction, r))]))(row))
    return m, rows, cols


@st.composite
def sparse_matrices(draw):
    """(m, rows, cols) with rows and cols <= 14, nine entries in ten zero,
    the others of NON_UNIT or up to 10^3 in absolute value, as in the
    maps of a module, so that eliminations fill in columns."""
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    entry = st.one_of(NON_UNIT, st.integers(-1000, 1000))
    return [[draw(entry) if draw(st.integers(0, 9)) == 0 else 0 for _ in range(cols)]
            for _ in range(rows)], rows, cols


def _integer_first(rows):
    """Sparse rows in the library's one form: nonzero entries only, an
    int where integral and a Fraction otherwise."""
    return all(
        type(row) is dict and all(
            type(x) is int and x or type(x) is Fraction and x.denominator != 1
            for x in row.values())
        for row in rows
    )


@settings(max_examples=600, deadline=None)
@given(st.one_of(matrices(), dependent_matrices(), sparse_matrices()))
@example(([], 0, 5))
@example(([[], [], []], 3, 0))
def test_rref_and_nullspace_match_fraction_elimination(case):
    m, rows, cols = case
    rows_in = sparse(m)
    before = [dict(row) for row in rows_in]
    red, pivots = linalg.rref(rows_in, rows, cols)
    expected, expected_pivots = fraction_rref(m, rows, cols)
    assert pivots == expected_pivots
    assert dense(red, cols) == expected
    assert _integer_first(red)
    k, inclusion = linalg.kernel(rows_in, rows, cols)
    assert len(inclusion) == cols
    assert [[row.get(t, 0) for row in inclusion] for t in range(k)] == fraction_nullspace(
        m, rows, cols)
    assert _integer_first(inclusion)
    assert rows_in == before


# Nonzero entries: Fractions, integral ones included, and some ints, so
# that some rows are all ints and take the elimination's int path.
ENTRIES = st.sampled_from(
    [Fraction(1, 2), Fraction(-5, 3), Fraction(7, 6), Fraction(-3, 4), Fraction(2), -1, 3]
)


@st.composite
def shared_pivot_matrices(draw):
    """(m, rows, cols): Fraction and int entries, about one in three
    nonzero, and every row nonzero in one of the first three columns, so
    that rows share pivot columns and each is cleared by the rows before
    it."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(3, 10))
    entry = st.one_of(st.just(0), st.just(0), ENTRIES)
    m = []
    for _ in range(rows):
        row = draw(st.lists(entry, min_size=cols, max_size=cols))
        row[draw(st.integers(0, 2))] = draw(ENTRIES)
        m.append(row)
    return m, rows, cols


@PROPERTY_SETTINGS
@given(shared_pivot_matrices())
def test_rref_and_kernel_leave_their_input_rows_alone(case):
    # a functor step hands a module's own rows to kernel: neither reader
    # may change them, and neither may return one of them
    m, rows, cols = case
    rows_in = tuple(sparse(m))
    before = [dict(row) for row in rows_in]
    red, pivots = linalg.rref(rows_in, rows, cols)
    assert (dense(red, cols), pivots) == fraction_rref(m, rows, cols)
    k, inclusion = linalg.kernel(rows_in, rows, cols)
    assert [[row.get(t, 0) for row in inclusion] for t in range(k)] == fraction_nullspace(
        m, rows, cols)
    assert list(rows_in) == before
    assert not any(out is row for out in red + inclusion for row in rows_in)
