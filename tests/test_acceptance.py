"""Acceptance suite.

Each test covers one acceptance criterion end to end against the
independent oracles and prints a single pass/fail line.  A failed
assertion anywhere in a test marks that criterion as failed.
"""

import pytest

from admseq.errors import NotReducedError
from admseq.reps import (
    apply_sequence,
    build_module,
    canonical_complete_sequence,
    direct_sum,
    reflect_minus,
    reflect_plus,
    shortest_annihilator_bruteforce,
    shortest_annihilator_indec,
    simple,
)
from admseq.sequences import (
    AdmissibleSeq,
    canonical_form,
    complement_pair,
    equivalent,
    join,
    level_sets,
    meet,
    nq_reachable,
    precedes,
    principal,
    principal_decomposition,
    principal_precedes,
    principal_tail,
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
    principal_reduced_criterion,
    word_of,
)

from oracles import (
    bfs_lengths,
    exhaustive_annihilator,
    lex_first_sorting_word,
    raw_enumerate,
    sorting_blocks_from_indices,
    swap_closure_classes,
    word_matrix,
)

A2 = ((2, -1), (-1, 2))
A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))

MAX_LEN = 8


def report(number, name):
    print(f"criterion {number} ({name}): PASS")


def mult_of(letters, n):
    m = [0] * n
    for x in letters:
        m[x - 1] += 1
    return tuple(m)


def lattice_quivers(q3, qk, a4_orientations, triangle_orientations):
    return [q3, qk, *a4_orientations, *triangle_orientations]


def complete_sequences(quiver):
    target = (1,) * quiver.n
    return [
        AdmissibleSeq(quiver, s)
        for s in raw_enumerate(quiver.n, quiver.arrows, quiver.n)
        if mult_of(s, quiver.n) == target
    ]


def all_words(n, max_len):
    stack = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            for x in range(1, n + 1):
                stack.append(w + (x,))


def reduced_family(quiver):
    """Every enumerated admissible sequence whose word is reduced."""
    out = []
    for letters in raw_enumerate(quiver.n, quiver.arrows, MAX_LEN):
        s = AdmissibleSeq(quiver, letters)
        if is_reduced(word_of(s)):
            out.append(s)
    return out


def test_criterion_1_lattice_suite(q3, qk, a4_orientations, triangle_orientations):
    for q in lattice_quivers(q3, qk, a4_orientations, triangle_orientations):
        n = q.n
        raw = raw_enumerate(q.n, q.arrows, MAX_LEN)
        seqs = {letters: AdmissibleSeq(q, letters) for letters in raw}
        mults = {letters: mult_of(letters, n) for letters in raw}

        # equivalence is the swap closure
        oracle_classes = swap_closure_classes(n, q.arrows, raw)
        by_mult = {}
        for letters in raw:
            by_mult.setdefault(mults[letters], []).append(letters)
        assert {frozenset(c) for c in oracle_classes} == {
            frozenset(c) for c in by_mult.values()
        }
        reps = sorted(min(c) for c in by_mult.values())
        for a in reps:
            for b in reps:
                assert equivalent(seqs[a], seqs[b]) == (mults[a] == mults[b])

        # the preorder is continuation existence, and is the coordinate
        # order on multiplicity vectors
        prefix_mults = {}
        for letters in raw:
            for p in range(len(letters) + 1):
                prefix_mults.setdefault(letters[:p], set()).add(mults[letters])
        for a in reps:
            for b in reps:
                lib = precedes(seqs[a], seqs[b])
                answers = {
                    mults[b] in prefix_mults[member] for member in by_mult[mults[a]]
                }
                assert answers == {lib}
                coord = all(x <= y for x, y in zip(mults[a], mults[b]))
                assert lib == coord

        # left cancellation
        for a in [r for r in reps if len(r) <= 3]:
            base = seqs[a].final_quiver
            exts = raw_enumerate(base.n, base.arrows, 3)
            for u in exts:
                for v in exts:
                    su = AdmissibleSeq(q, a + u)
                    sv = AdmissibleSeq(q, a + v)
                    bu = AdmissibleSeq(base, u)
                    bv = AdmissibleSeq(base, v)
                    assert equivalent(su, sv) == equivalent(bu, bv)
                    assert precedes(su, sv) == precedes(bu, bv)

        # lattice laws: meet and join are admissible with coordinatewise
        # min/max multiplicities, which makes them the bounds under the
        # verified coordinate order
        for a in reps:
            for b in reps:
                w = meet(seqs[a], seqs[b])
                j = join(seqs[a], seqs[b])
                assert w.multiplicities() == tuple(
                    min(x, y) for x, y in zip(mults[a], mults[b])
                )
                assert j.multiplicities() == tuple(
                    max(x, y) for x, y in zip(mults[a], mults[b])
                )
                assert w.multiplicities() in prefix_mults[()]
                assert j.multiplicities() in prefix_mults[()] or len(j) > MAX_LEN

        # complements
        for a in reps:
            for b in reps:
                if not a or not b:
                    continue
                w, u, v = complement_pair(seqs[a], seqs[b])
                base = w.final_quiver
                mw = w.multiplicities()
                mu = mult_of(u.letters, n)
                mv = mult_of(v.letters, n)
                assert tuple(x + y for x, y in zip(mw, mu)) == mults[a]
                assert tuple(x + y for x, y in zip(mw, mv)) == mults[b]
                assert u.support() & v.support() == frozenset()
                uv = AdmissibleSeq(base, u.letters + v.letters)
                vu = AdmissibleSeq(base, v.letters + u.letters)
                assert equivalent(uv, vu)
                mj = join(seqs[a], seqs[b]).multiplicities()
                assert tuple(
                    x + y + z for x, y, z in zip(mw, mu, mv)
                ) == mj
                sv = AdmissibleSeq(q, a + v.letters)
                tu = AdmissibleSeq(q, b + u.letters)
                assert sv.multiplicities() == mj
                assert tu.multiplicities() == mj
    report(1, "lattice suite")


def test_criterion_2_canonical_round_trip(
    q3, qk, a4_orientations, triangle_orientations
):
    for q in lattice_quivers(q3, qk, a4_orientations, triangle_orientations):
        for letters in raw_enumerate(q.n, q.arrows, MAX_LEN):
            s = AdmissibleSeq(q, letters)
            m = s.multiplicities()
            back = seq_from_multiplicities(q, m)
            assert equivalent(back, s)
            if letters:
                form = canonical_form(s)
                filters = [frozenset(seg) for seg in form.segments]
                for f in filters:
                    assert q.is_filter(set(f))
                for upper, lower in zip(filters[1:], filters):
                    assert upper <= lower
                    assert q.hull(upper) <= lower
                assert filters == [frozenset(f) for f in level_sets(m)]
    report(2, "canonical round trip")


def test_criterion_3_principal_suite(q3, qk, a4_orientations, triangle_orientations):
    for q in lattice_quivers(q3, qk, a4_orientations, triangle_orientations):
        # decomposition joins back
        for letters in raw_enumerate(q.n, q.arrows, MAX_LEN):
            if not letters:
                continue
            s = AdmissibleSeq(q, letters)
            parts = [principal(q, h, v) for h, v in principal_decomposition(s)]
            joined = parts[0]
            for p in parts[1:]:
                joined = join(joined, p)
            assert equivalent(joined, s)

        # the membership test for principal sequences below a sequence
        # agrees with the materialized preorder
        for letters in raw_enumerate(q.n, q.arrows, 6):
            if not letters:
                continue
            s = AdmissibleSeq(q, letters)
            for r in range(1, 6):
                for x in q.vertices():
                    assert principal_precedes((r, x), s) == precedes(
                        principal(q, r, x), s
                    )

        # dropping the first letter keeps principality on the reflected
        # orientation, with the stated size
        for r in range(1, 5):
            for x in q.vertices():
                s = principal(q, r, x)
                if len(s) < 2:
                    continue
                new_q, tail, (size, gen) = principal_tail(s)
                assert gen == x
                assert size == (r - 1 if s.letters[0] == x else r)
                assert equivalent(tail, principal(new_q, size, gen))

        # order isomorphism with the translation quiver
        for r in range(1, 5):
            for x in q.vertices():
                for t in range(1, 5):
                    for y in q.vertices():
                        lhs = precedes(principal(q, t, y), principal(q, r, x))
                        rhs = nq_reachable(q, psi((t, y)), psi((r, x)))
                        assert lhs == rhs
    report(3, "principal suite")


def test_criterion_4_word_suite(q3, qk, a4_orientations, triangle_orientations):
    # reducedness against the breadth-first length table
    for cartan in (A2, A3):
        lengths = bfs_lengths(cartan)
        for letters in all_words(len(cartan), 7):
            expected = lengths[word_matrix(cartan, letters)] == len(letters)
            assert is_reduced(WeylWord(cartan, letters)) == expected

    # positivity criterion for principal sequences
    for q in lattice_quivers(q3, qk, a4_orientations, triangle_orientations):
        for r in range(1, 4):
            for x in q.vertices():
                s = principal(q, r, x)
                assert principal_reduced_criterion(s) == is_reduced(word_of(s))

    # a reduced word that no admissible sequence realizes
    probe = WeylWord(A4, (2, 3, 2))
    assert is_reduced(probe)
    target = probe.evaluate()
    for q in a4_orientations:
        for letters in raw_enumerate(q.n, q.arrows, 3):
            if len(letters) != 3:
                continue
            assert word_of(AdmissibleSeq(q, letters)).evaluate() != target
    report(4, "word suite")


def test_criterion_5_coxeter_powers(q3, qk, triangle_orientations):
    for q in [qk, *triangle_orientations]:
        for k in complete_sequences(q):
            rows = coxeter_powers_reduced(k, 10)
            assert all(ok for _, ok, _ in rows)
            assert [length for _, _, length in rows] == [
                m * q.n for m in range(1, 11)
            ]
    for k in complete_sequences(q3):
        rows = coxeter_powers_reduced(k, 4)
        assert not all(ok for _, ok, _ in rows)
    report(5, "coxeter powers")


def test_criterion_6_functor_suite(q3, qk):
    # annihilation trace of the simple at the source
    expected = [
        (1, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
        (0, 0, 0),
    ]
    cur = simple(q3, 1)
    trace = [cur.dims]
    for x in (3, 2, 1, 3, 2, 3):
        cur = reflect_plus(cur, x)
        trace.append(cur.dims)
    assert trace == expected

    for q in (q3, qk):
        family = [build_module(s) for s in reduced_family(q) if len(s) > 0]
        cartan = q.graph.cartan()
        from admseq.weyl import simple_reflection

        for m in family:
            for x in m.quiver.sinks():
                out = reflect_plus(m, x)
                if out.is_zero():
                    continue
                assert out.dims == simple_reflection(cartan, x).apply(m.dims)
                assert reflect_minus(out, x).dims == m.dims

        # the Coxeter functor does not depend on the complete sequence
        completes = complete_sequences(q)
        for m in family:
            dims = {
                apply_sequence(m, k).dims for k in completes if k.quiver == m.quiver
            }
            assert len(dims) <= 1

        # the two shortest-annihilator algorithms agree
        k = canonical_complete_sequence(q)
        for r in range(1, 4):
            for x in q.vertices():
                s = principal(q, r, x)
                if not is_reduced(word_of(s)):
                    continue
                m = build_module(s)
                t = AdmissibleSeq(q, k.letters * (r + 1))
                assert equivalent(
                    shortest_annihilator_indec(m),
                    shortest_annihilator_bruteforce(m, t),
                )
    report(6, "functor suite")


def test_criterion_7_annihilation(q3, qk):
    for q in (q3, qk):
        for s in reduced_family(q):
            if len(s) == 0:
                continue
            m = direct_sum(
                [
                    build_module(principal(q, h, v))
                    for h, v in principal_decomposition(s)
                ]
            )
            assert apply_sequence(m, s).is_zero()
            bound = s.multiplicities()
            assert exhaustive_annihilator(m, bound) == bound

    # non-reduced principal words are rejected by the module constructor
    found = 0
    for r in range(3, 6):
        for x in q3.vertices():
            s = principal(q3, r, x)
            if is_reduced(word_of(s)):
                continue
            found += 1
            with pytest.raises(NotReducedError):
                build_module(s)
    assert found > 0
    report(7, "annihilation suite")


def test_criterion_8_sorting_suite(q3, qk):
    # greedy peel equals the exhaustive lexicographically-first search
    from itertools import permutations

    for cartan in (A2, A3):
        lengths = bfs_lengths(cartan)
        n = len(cartan)
        for perm in permutations(range(1, n + 1)):
            c_word = WeylWord(cartan, perm)
            scan = list(reversed(perm))
            for target in lengths:
                elem = WeylElement(cartan, target)
                if elem.is_identity():
                    continue
                sw = c_sorting_word(c_word, elem)
                indices = lex_first_sorting_word(cartan, scan, target)
                expected = sorting_blocks_from_indices(indices, scan, n)
                assert list(sw.blocks) == [tuple(b) for b in expected if b]

    # inverses of words of shortest annihilating sequences are sortable.
    # The repeated Coxeter word must be scanned in the acting order of
    # the complete sequence (first letter first); scanning the display
    # order fails already for the complete sequence itself, whose
    # inverse has a unique reduced word with singleton blocks.
    for q in (q3, qk):
        cartan = q.graph.cartan()
        for k in complete_sequences(q):
            scan_word = WeylWord(cartan, tuple(reversed(k.letters)))
            for r in range(1, 4):
                for x in q.vertices():
                    s = principal(q, r, x)
                    if not is_reduced(word_of(s)):
                        continue
                    target = word_of(s).evaluate().inverse()
                    assert is_c_sortable(scan_word, target)
    report(8, "sorting suite")
