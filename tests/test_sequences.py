import pytest

from admseq.errors import (
    AdmseqError,
    BaseQuiverMismatchError,
    EmptySequenceError,
    InvalidMultiplicityError,
    NotAdmissibleError,
    NotPrincipalError,
)
from admseq.sequences import (
    AdmissibleSeq,
    canonical_form,
    canonical_rep,
    check_admissible,
    complement_pair,
    enumerate_admissible,
    equivalent,
    is_principal,
    join,
    meet,
    nq_reachable,
    parse_letters,
    precedes,
    principal,
    principal_decomposition,
    principal_precedes,
    principal_tail,
    psi,
    seq_from_multiplicities,
)

from oracles import raw_enumerate, raw_mult, swap_closure_classes


class TestCheckAdmissible:
    def test_single_sink(self, q3):
        seq, final = check_admissible(q3, [3])
        assert final.arrows == ((1, 2), (3, 2))

    def test_non_sink_start(self, q3):
        with pytest.raises(NotAdmissibleError) as exc:
            check_admissible(q3, [2])
        assert exc.value.index == 1

    def test_longer(self, q3):
        seq, final = check_admissible(q3, [3, 2, 3])
        assert final.arrows == ((2, 1), (3, 2))

    def test_offending_index_reported(self, q3):
        with pytest.raises(NotAdmissibleError) as exc:
            check_admissible(q3, [3, 2, 2])
        assert exc.value.index == 3

    def test_letter_out_of_vertex_range(self, q3):
        # vertex 0 used to be accepted and counted as vertex n
        with pytest.raises(AdmseqError, match="letter 0 at position 1"):
            AdmissibleSeq(q3, [0, 3])
        with pytest.raises(AdmseqError, match="letter 4 at position 2"):
            AdmissibleSeq(q3, [3, 4])

    def test_non_integer_letter_rejected(self, q3):
        # int() would truncate this to the sequence 3,2
        with pytest.raises(AdmseqError, match="letters must be integers"):
            AdmissibleSeq(q3, [3.5, 2])


class TestMultiplicities:
    def test_count(self, q3):
        assert AdmissibleSeq(q3, (3, 2, 3)).multiplicities() == (0, 1, 2)
        assert AdmissibleSeq(q3, (3, 2, 1, 3)).multiplicities() == (1, 1, 2)

    def test_empty(self, q3):
        assert AdmissibleSeq(q3, ()).multiplicities() == (0, 0, 0)


class TestEquivalencePreorder:
    def test_equivalent_swap(self, q3):
        assert equivalent(AdmissibleSeq(q3, (3, 2, 1, 3)), AdmissibleSeq(q3, (3, 2, 3, 1)))

    def test_not_equivalent(self, q3):
        assert not equivalent(AdmissibleSeq(q3, (3,)), AdmissibleSeq(q3, (3, 2, 3)))

    def test_reflexive(self, q3):
        s = AdmissibleSeq(q3, (3, 2, 3))
        assert equivalent(s, s)
        assert precedes(s, s)

    def test_precedes(self, q3):
        assert precedes(AdmissibleSeq(q3, (3,)), AdmissibleSeq(q3, (3, 2, 3)))
        assert not precedes(AdmissibleSeq(q3, (3, 2, 3)), AdmissibleSeq(q3, (3, 2, 1)))

    def test_base_mismatch(self, q3, qk):
        with pytest.raises(BaseQuiverMismatchError):
            equivalent(AdmissibleSeq(q3, (3,)), AdmissibleSeq(qk, (2,)))


class TestCanonicalForm:
    def test_examples(self, q3):
        assert canonical_form(AdmissibleSeq(q3, (3, 2, 1, 3))).segments == ((3, 2, 1), (3,))
        assert canonical_form(AdmissibleSeq(q3, (3,))).segments == ((3,),)
        assert canonical_form(AdmissibleSeq(q3, (3, 2, 3))).segments == ((3, 2), (3,))

    def test_render(self, q3):
        assert canonical_form(AdmissibleSeq(q3, (3, 2, 1, 3))).render() == "3,2,1 | 3"

    def test_empty_rejected(self, q3):
        with pytest.raises(EmptySequenceError):
            canonical_form(AdmissibleSeq(q3, ()))

    def test_round_trip_everywhere(self, q3, qk, a4_orientations, triangle_orientations):
        for q in [q3, qk, *a4_orientations, *triangle_orientations]:
            for letters in enumerate_admissible(q, 6):
                if not letters:
                    continue
                s = AdmissibleSeq(q, letters)
                form = canonical_form(s)
                assert equivalent(form.sequence(), s)
                supports = form.supports()
                for i in range(len(supports) - 1):
                    assert supports[i + 1] <= supports[i]
                    assert q.hull(supports[i + 1]) <= supports[i]
                for f in supports:
                    assert q.is_filter(f)


class TestSeqFromMultiplicities:
    def test_examples(self, q3):
        assert equivalent(
            seq_from_multiplicities(q3, (1, 1, 2)), AdmissibleSeq(q3, (3, 2, 1, 3))
        )
        assert seq_from_multiplicities(q3, (0, 0, 1)).letters == (3,)

    def test_non_filter_level(self, q3):
        with pytest.raises(InvalidMultiplicityError) as exc:
            seq_from_multiplicities(q3, (1, 0, 0))
        assert exc.value.level == 1

    def test_hull_violation(self, q3):
        # level sets {1,2,3} then {1,2,3}: fine; {3},{3}: hull({3}) = {2,3} not in {3}
        with pytest.raises(InvalidMultiplicityError) as exc:
            seq_from_multiplicities(q3, (0, 0, 2))
        assert exc.value.level == 2

    def test_non_integer_vector_rejected(self, q3):
        # int() would truncate this to (0, 1, 2), the vector of 3,2,3
        with pytest.raises(AdmseqError, match="multiplicities must be integers"):
            seq_from_multiplicities(q3, (0.5, 1.7, 2.9))

    def test_inverse_of_multiplicities(self, q3, qk):
        for q in (q3, qk):
            for letters in enumerate_admissible(q, 7):
                s = AdmissibleSeq(q, letters)
                assert equivalent(seq_from_multiplicities(q, s.multiplicities()), s)


class TestLattice:
    def test_meet_join_examples(self, q3):
        s, t = AdmissibleSeq(q3, (3, 2, 3)), AdmissibleSeq(q3, (3, 2, 1))
        assert meet(s, t).multiplicities() == (0, 1, 1)
        assert join(s, t).multiplicities() == (1, 1, 2)

    def test_empty_neutral(self, q3):
        s = AdmissibleSeq(q3, (3, 2, 3))
        empty = AdmissibleSeq(q3, ())
        assert equivalent(join(s, empty), s)
        assert len(meet(s, empty)) == 0

    def test_complement_pair_example(self, q3):
        s, t = AdmissibleSeq(q3, (3, 2, 3)), AdmissibleSeq(q3, (3, 2, 1))
        w, u, v = complement_pair(s, t)
        assert w.multiplicities() == (0, 1, 1)
        assert u.letters == (3,)
        assert v.letters == (1,)
        assert w.final_quiver.arrows == ((2, 1), (2, 3))

    def test_complement_pair_idempotent(self, q3):
        s = AdmissibleSeq(q3, (3, 2, 3))
        w, u, v = complement_pair(s, s)
        assert len(u) == 0 and len(v) == 0

    def test_complement_pair_nested(self, q3):
        s, t = AdmissibleSeq(q3, (3,)), AdmissibleSeq(q3, (3, 2, 3))
        w, u, v = complement_pair(s, t)
        assert w.multiplicities() == (0, 0, 1)
        assert len(u) == 0
        assert v.multiplicities() == (0, 1, 1)


class TestPrincipal:
    def test_materialization(self, q3):
        assert principal(q3, 1, 3).letters == (3,)
        assert principal(q3, 2, 3).letters == (3, 2, 3)
        assert principal(q3, 3, 3).letters == (3, 2, 1, 3, 2, 3)

    @pytest.mark.parametrize("x", [0, -1, 4])
    def test_generator_outside_the_quiver(self, q3, x):
        with pytest.raises(AdmseqError) as exc:
            principal(q3, 2, x)
        assert type(exc.value) is AdmseqError
        assert str(exc.value) == f"letter {x} at position 1 is not a vertex 1..3"

    def test_last_letter_is_generator(self, q3, qk, a4_orientations):
        for q in [q3, qk, *a4_orientations]:
            for r in range(1, 5):
                for x in q.vertices():
                    assert principal(q, r, x).letters[-1] == x

    def test_support_connected(self, q3, qk, a4_orientations):
        for q in [q3, qk, *a4_orientations]:
            for r in range(1, 4):
                for x in q.vertices():
                    supp = principal(q, r, x).support()
                    # connectivity of the induced subgraph by BFS
                    seen = {min(supp)}
                    frontier = [min(supp)]
                    while frontier:
                        u = frontier.pop()
                        for v in q.graph.neighbors(u):
                            if v in supp and v not in seen:
                                seen.add(v)
                                frontier.append(v)
                    assert seen == supp

    def test_is_principal(self, q3):
        assert is_principal(AdmissibleSeq(q3, (3, 2, 3))) == (2, 3)
        assert is_principal(AdmissibleSeq(q3, (3,))) == (1, 3)
        assert is_principal(AdmissibleSeq(q3, (3, 2, 1, 3))) is None

    def test_principal_precedes(self, q3):
        s = AdmissibleSeq(q3, (3, 2, 1, 3))
        assert principal_precedes((1, 3), s)
        assert not principal_precedes((2, 1), s)
        assert principal_precedes((2, 3), AdmissibleSeq(q3, (3, 2, 3)))

    @pytest.mark.parametrize("pair", [(0, 1), (-1, 3), (2, 0), (2, 4), (1.5, 1), (1, "3")])
    def test_principal_precedes_rejects_what_principal_rejects(self, q3, pair):
        # S_{0,1} does not exist: it used to read level set -1 of s
        s = AdmissibleSeq(q3, (3, 2, 1, 3))
        with pytest.raises(AdmseqError) as expected:
            principal(q3, *pair)
        with pytest.raises(AdmseqError) as exc:
            principal_precedes(pair, s)
        assert type(exc.value) is type(expected.value)
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("pair", [(2,), (2, 3, 1), 5])
    def test_principal_precedes_rejects_what_is_not_a_pair(self, q3, pair):
        with pytest.raises(AdmseqError):
            principal_precedes(pair, AdmissibleSeq(q3, (3, 2, 3)))

    def test_principal_precedes_matches_materialized(self, q3, qk):
        for q in (q3, qk):
            for letters in enumerate_admissible(q, 6):
                if not letters:
                    continue
                s = AdmissibleSeq(q, letters)
                for r in range(1, 4):
                    for x in q.vertices():
                        assert principal_precedes((r, x), s) == precedes(
                            principal(q, r, x), s
                        )

    def test_decomposition_examples(self, q3):
        assert principal_decomposition(AdmissibleSeq(q3, (3, 2, 1, 3))) == [(1, 1), (2, 3)]
        assert principal_decomposition(AdmissibleSeq(q3, (3, 2, 3))) == [(2, 3)]
        assert principal_decomposition(AdmissibleSeq(q3, (3,))) == [(1, 3)]

    def test_decomposition_joins_back(self, q3, qk, a4_orientations):
        for q in [q3, qk, *a4_orientations]:
            for letters in enumerate_admissible(q, 6):
                if not letters:
                    continue
                s = AdmissibleSeq(q, letters)
                parts = [principal(q, h, v) for h, v in principal_decomposition(s)]
                acc = parts[0]
                for p in parts[1:]:
                    acc = join(acc, p)
                assert equivalent(acc, s)

    def test_tail_cases(self, q3):
        new_q, t, pair = principal_tail(AdmissibleSeq(q3, (3, 2, 3)))
        assert t.letters == (2, 3) and pair == (1, 3)
        assert new_q.arrows == ((1, 2), (3, 2))
        _, t, pair = principal_tail(AdmissibleSeq(q3, (3, 2, 1, 3, 2, 3)))
        assert t.letters == (2, 1, 3, 2, 3) and pair == (2, 3)
        new_q, t, pair = principal_tail(AdmissibleSeq(q3, (3, 2, 1)))
        assert t.letters == (2, 1) and pair == (1, 1)
        assert canonical_form(t).supports()[0] == {1, 2}

    def test_tail_is_the_validated_walk(self, q3, qk, a4_orientations):
        # the tail is installed without a second sink pass: it must be the
        # sequence that validation gives, ending where s ends
        for q in [q3, qk, *a4_orientations]:
            for r in range(1, 4):
                for x in q.vertices():
                    s = principal(q, r, x)
                    if len(s) < 2:
                        continue
                    new_q, tail, _ = principal_tail(s)
                    assert tail == AdmissibleSeq(new_q, tail.letters)
                    assert tail.final_quiver == s.final_quiver

    def test_tail_rejects_non_principal(self, q3):
        with pytest.raises(NotPrincipalError):
            principal_tail(AdmissibleSeq(q3, (3, 2, 1, 3)))

    def test_tail_support_transformation(self, q3, qk, a4_orientations):
        for q in [q3, qk, *a4_orientations]:
            for r in range(1, 5):
                for x in q.vertices():
                    s = principal(q, r, x)
                    if len(s) < 2:
                        continue
                    x1 = s.letters[0]
                    new_q, t, (size, gen) = principal_tail(s)
                    assert gen == x
                    assert is_principal(t) == (size, x)
                    old_supports = canonical_form(s).supports()
                    new_supports = canonical_form(t).supports()
                    if x1 == x:
                        assert size == r - 1
                        assert new_supports == old_supports[: r - 1]
                    else:
                        assert size == r
                        m1 = s.multiplicities()[x1 - 1]
                        for i in range(r):
                            if i + 1 == m1:
                                assert new_supports[i] == old_supports[i] - {x1}
                            else:
                                assert new_supports[i] == old_supports[i]


class TestTranslationQuiver:
    def test_psi(self):
        assert psi((2, 3)) == (1, 3)

    def test_arrow_rules(self, q3):
        assert nq_reachable(q3, (0, 3), (0, 2))
        assert nq_reachable(q3, (0, 2), (1, 3))
        assert not nq_reachable(q3, (0, 1), (1, 3))

    def test_rejects_what_is_not_a_node(self, q3):
        # a triple, a string id, a bare int and a float level, either side
        for bad in [(0, 3, 1), (0, "3"), 5, (0.0, 3)]:
            for a, b in [(bad, (0, 3)), ((0, 3), bad)]:
                with pytest.raises(AdmseqError):
                    nq_reachable(q3, a, b)

    def test_order_isomorphism(self, q3, qk):
        # S_{q,y} precedes S_{r,x} iff (q-1, y) reaches (r-1, x); the
        # direction is pinned here against the materialized preorder.
        for q in (q3, qk):
            for r in range(1, 5):
                for x in q.vertices():
                    for size in range(1, 5):
                        for y in q.vertices():
                            lhs = precedes(principal(q, size, y), principal(q, r, x))
                            rhs = nq_reachable(q, (size - 1, y), (r - 1, x))
                            assert lhs == rhs


class TestAgainstSwapOracle:
    def test_equivalence_is_swap_closure(self, q3, qk, triangle_orientations):
        for q in [q3, qk, *triangle_orientations]:
            raw = raw_enumerate(q.n, q.arrows, 7)
            by_len = {}
            for letters in raw:
                by_len.setdefault(len(letters), []).append(letters)
            for letters_list in by_len.values():
                for cls in swap_closure_classes(q.n, q.arrows, letters_list):
                    mults = {raw_mult(q.n, s) for s in cls}
                    assert len(mults) == 1
                # distinct classes have distinct multiplicity vectors
                classes = swap_closure_classes(q.n, q.arrows, letters_list)
                reps = [raw_mult(q.n, cls[0]) for cls in classes]
                assert len(set(reps)) == len(classes)


def test_parse_letters():
    assert parse_letters("3,2,3") == (3, 2, 3)
    assert parse_letters("") == ()


def test_canonical_rep_is_stable(q3):
    s = AdmissibleSeq(q3, (3, 2, 3, 1))
    rep = canonical_rep(s)
    assert rep.letters == (3, 2, 1, 3)
    assert canonical_rep(rep) == rep
