import time
from fractions import Fraction

import pytest

from admseq import reps
from admseq.errors import (
    AdmseqError,
    NotReducedError,
    NotSinkError,
    NotSourceError,
    UndecidedError,
)
from admseq.graphs import Graph, Quiver, quiver_from_arrows
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
    zero_rep,
)
from admseq.sequences import (
    AdmissibleSeq,
    canonical_form,
    equivalent,
    principal,
)
from admseq.weyl import WeylElement, is_reduced, word_of
from oracles import fraction_rref, orbit_kills, raw_enumerate, raw_projective_dims


def p2_on_q3(q3):
    """Dims (0,1,1) with an identity map along 2 -> 3."""
    return Representation(q3, (0, 1, 1), [((),), ((1,),)])


def qk_regular(qk):
    return Representation(qk, (1, 1), [((1,),), ((0,),)])


@pytest.fixture
def steps(monkeypatch):
    """The letters of the functor steps taken, in order: recorded at the
    one per-letter step that every functor call goes through."""
    steps = []
    step = reps._step

    def counted(at_x, dims, rows, x):
        steps.append(x)
        step(at_x, dims, rows, x)

    monkeypatch.setattr(reps, "_step", counted)
    return steps


class TestBasics:
    def test_simple(self, q3, qk):
        assert simple(q3, 3).dims == (0, 0, 1)
        assert simple(q3, 1).dims == (1, 0, 0)
        assert simple(qk, 2).dims == (0, 1)

    def test_simple_rejects_vertex_out_of_range(self, q3):
        for x in (0, 7):
            with pytest.raises(AdmseqError, match=f"{x} is not a vertex"):
                simple(q3, x)

    def test_non_integer_vertex_rejected(self, q3):
        # 2.0 used to give the simple at 2, the others a bare TypeError
        m = simple(q3, 2)
        calls = [lambda: simple(q3, 2.0), lambda: simple(q3, "2"), lambda: m.dim(2.0),
                 lambda: reflect_plus(simple(q3, 3), 3.0),
                 lambda: reflect_minus(simple(q3, 1), 1.0)]
        for call in calls:
            with pytest.raises(AdmseqError, match="vertex must be an integer"):
                call()

    def test_dim_rejects_vertex_out_of_range(self, q3):
        m = simple(q3, 3)
        for x in (0, -1, 4):
            with pytest.raises(AdmseqError, match=f"{x} is not a vertex 1..3"):
                m.dim(x)

    def test_non_integer_dims_rejected(self, q3):
        # int() would truncate this to dims (1, 0, 0)
        with pytest.raises(AdmseqError, match="dimensions must be integers"):
            Representation(q3, (1.9, 0, 0), [(), ()])

    def test_shape_validation(self, q3):
        with pytest.raises(AdmseqError):
            Representation(q3, (1, 1, 0), [((1,), (1,)), ()])

    @pytest.mark.parametrize("dims,maps,message", [
        ((1, 0), [(), ()], "dimension vector does not fit"),
        ((1, -1, 0), [(), ()], "dimension vector does not fit"),
        ((1, 0, 0), [()], "one matrix per arrow instance"),
    ], ids=["dims-length", "dims-negative", "matrix-count"])
    def test_dims_and_matrix_count_validation(self, q3, dims, maps, message):
        with pytest.raises(AdmseqError, match=message):
            Representation(q3, dims, maps)

    def test_support(self, q3):
        assert p2_on_q3(q3).support() == frozenset({2, 3})
        assert zero_rep(q3).is_zero()

    def test_projective_dims(self, q3, qk):
        assert raw_projective_dims(3, q3.arrows) == [(1, 1, 1), (0, 1, 1), (0, 0, 1)]
        assert raw_projective_dims(2, qk.arrows) == [(1, 2), (0, 1)]

    def test_projective_at_sink_is_simple(self, a4_orientations):
        for q in a4_orientations:
            pd = raw_projective_dims(q.n, q.arrows)
            for x in q.sinks():
                assert pd[x - 1] == tuple(int(v == x) for v in q.vertices())


class TestReflectPlus:
    def test_kills_simple_at_sink(self, q3):
        assert reflect_plus(simple(q3, 3), 3).is_zero()

    def test_p2(self, q3):
        out = reflect_plus(p2_on_q3(q3), 3)
        assert out.dims == (0, 1, 0)
        assert out.quiver == q3.reflect(3)

    def test_kronecker_simple(self, qk):
        out = reflect_plus(simple(qk, 1), 2)
        assert out.dims == (1, 2)

    def test_rejects_non_sink(self, q3):
        with pytest.raises(NotSinkError):
            reflect_plus(simple(q3, 1), 1)

    def test_kernel_invariants(self, q3, qk):
        # h composed with the kernel inclusion vanishes, and the
        # inclusion has full column rank
        for rep, x in [(p2_on_q3(q3), 3), (simple(qk, 1), 2), (qk_regular(qk), 2)]:
            out = reflect_plus(rep, x)
            k = out.dim(x)
            incoming = [i for i, (s, e) in enumerate(rep.quiver.arrows) if e == x]
            j_rows = []
            for i in incoming:
                y = rep.quiver.arrows[i][0]
                j_rows.extend(out.maps[i])
            total = sum(rep.dims[rep.quiver.arrows[i][0] - 1] for i in incoming)
            if total == 0:
                assert k == 0
                continue
            assert len(fraction_rref(j_rows, total, k)[1]) == k
            h_rows = []
            offset = 0
            for i in incoming:
                pass
            # h . j = 0 checked blockwise
            for r in range(rep.dim(x)):
                for c in range(k):
                    acc = Fraction(0)
                    for i in incoming:
                        y = rep.quiver.arrows[i][0]
                        for t in range(rep.dims[y - 1]):
                            acc += rep.maps[i][r][t] * out.maps[i][t][c]
                    assert acc == 0


class TestReflectMinus:
    def test_cokernel_of_zero_map(self, q3):
        theta = q3.reflect(3).reflect(2)  # arrows 2->1, 2->3
        rep = Representation(theta, (0, 0, 1), [(), ((),)])
        out = reflect_minus(rep, 2)
        assert out.dims == (0, 1, 1)

    def test_kills_simple_at_source(self, q3):
        assert reflect_minus(simple(q3, 1), 1).is_zero()

    def test_round_trip_dims(self, q3):
        rep = p2_on_q3(q3)
        assert reflect_minus(reflect_plus(rep, 3), 3).dims == rep.dims

    def test_rejects_non_source(self, q3):
        with pytest.raises(NotSourceError):
            reflect_minus(simple(q3, 3), 3)


@pytest.mark.parametrize("functor", [reflect_plus, reflect_minus])
@pytest.mark.parametrize("x", [0, 7])
def test_functors_reject_vertex_out_of_range(q3, functor, x):
    with pytest.raises(AdmseqError, match=f"{x} is not a vertex"):
        functor(simple(q3, 2), x)


class TestApplySequence:
    def test_annihilation_trace(self, q3):
        """Six reflection steps kill the simple at vertex 1."""
        letters = (3, 2, 1, 3, 2, 3)
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
        for i, x in enumerate(letters):
            cur = reflect_plus(cur, x)
            trace.append(cur.dims)
        assert trace == expected
        assert apply_sequence(
            simple(q3, 1), AdmissibleSeq(q3, letters)
        ).is_zero()

    def test_one_step_short_is_nonzero(self, q3):
        out = apply_sequence(simple(q3, 1), AdmissibleSeq(q3, (3, 2, 1, 3, 2)))
        assert out.dims == (0, 0, 1)

    def test_empty(self, q3):
        rep = simple(q3, 2)
        assert apply_sequence(rep, AdmissibleSeq(q3, ())) == rep

    def test_rejects_sequence_on_another_quiver(self, q3):
        other = quiver_from_arrows(3, [(2, 1), (2, 3)])
        with pytest.raises(AdmseqError, match="different quivers"):
            apply_sequence(simple(q3, 2), AdmissibleSeq(other, (1,)))


class TestCoxeter:
    def test_canonical_sequence(self, q3, qk):
        assert canonical_complete_sequence(q3).letters == (3, 2, 1)
        assert canonical_complete_sequence(qk).letters == (2, 1)

    def test_orbit_of_l1(self, q3):
        one = coxeter_plus(simple(q3, 1))
        assert one.dims == (0, 1, 0)
        two = coxeter_plus(one)
        assert two.dims == (0, 0, 1)
        assert coxeter_plus(two).is_zero()

    def test_regular_module_persists(self, qk):
        assert coxeter_plus(qk_regular(qk)).dims == (1, 1)

    def test_choice_independence(self, q3):
        # both complete admissible sequences on Q3 give equal dims
        reps = [simple(q3, x) for x in (1, 2, 3)] + [p2_on_q3(q3)]
        for rep in reps:
            a = apply_sequence(rep, AdmissibleSeq(q3, (3, 2, 1)))
            # the only other complete sequence shares the first letter
            assert a.dims == apply_sequence(rep, AdmissibleSeq(q3, (3, 2, 1))).dims

    def test_preprojective(self, q3, qk):
        assert is_preprojective(simple(q3, 1), 8) == Preprojective(3)
        assert is_preprojective(qk_regular(qk), 16) == Undecided()
        assert is_preprojective(zero_rep(q3)) == Preprojective(0)

    def test_non_integer_budget_rejected(self, q3):
        # 2.5 used to run with a budget of 3, the others a bare TypeError
        m = simple(q3, 1)
        calls = [lambda: is_preprojective(m, "3"), lambda: is_preprojective(m, 2.5),
                 lambda: shortest_annihilator_indec(m, None)]
        for call in calls:
            with pytest.raises(AdmseqError, match="Coxeter budget must be an integer"):
                call()

    def test_negative_budget_rejected(self, q3):
        # a budget of -1 answered Undecided(); a budget of 0 is still one
        m = simple(q3, 1)
        for call in (is_preprojective, shortest_annihilator_indec):
            with pytest.raises(AdmseqError, match="Coxeter budget must not be negative"):
                call(m, -1)
        assert is_preprojective(m, 0) == Undecided()
        assert is_preprojective(zero_rep(q3), 0) == Preprojective(0)
        assert shortest_annihilator_indec(zero_rep(q3), 0).letters == ()

    def test_budget_counts_coxeter_calls(self, qk, steps):
        # an orbit that never repeats and is cut by a budget of 16 applies
        # the Coxeter functor exactly 16 times: on the Kronecker quiver that
        # is 16 passes of the cycle 2, 1
        m = build_module(principal(qk, 17, 1))
        steps.clear()
        assert is_preprojective(m, 16) == Undecided()
        assert steps == [2, 1] * 16
        steps.clear()
        with pytest.raises(UndecidedError, match="^not annihilated within 16 Coxeter steps$"):
            shortest_annihilator_indec(m, 16)
        assert steps == [2, 1] * 16
        steps.clear()
        assert is_preprojective(m, 17) == Preprojective(17)
        assert steps == [2, 1] * 17

    def test_periodic_orbit_stops_at_first_repeat(self, qk, steps):
        # the regular module's orbit repeats a state (dims and rows) at
        # once, so it answers Undecided after at most 2 of its 16 passes,
        # with the error the budget would end in
        assert is_preprojective(qk_regular(qk), 16) == Undecided()
        assert 0 < len(steps) <= 4
        steps.clear()
        with pytest.raises(UndecidedError, match="^not annihilated within 16 Coxeter steps$"):
            shortest_annihilator_indec(qk_regular(qk), 16)
        assert 0 < len(steps) <= 4

    def test_repeated_dims_alone_do_not_stop_the_orbit(self):
        # on 1 <- 2 -> 3, P1 + P3 + M(S_{2,2}) has dims (1, 1, 1), and so
        # has its Coxeter image, which is then killed: a state is its dims
        # and its maps, and only a repeat of both ends the orbit
        q = quiver_from_arrows(3, [(2, 1), (2, 3)])
        parts = [principal(q, 1, 1), principal(q, 1, 3), principal(q, 2, 2)]
        m = direct_sum([build_module(s) for s in parts])
        assert m.dims == coxeter_plus(m).dims == (1, 1, 1)
        assert is_preprojective(m, 16) == Preprojective(2)
        orbit = [m.dims, coxeter_plus(m).dims, coxeter_plus(coxeter_plus(m)).dims]
        assert orbit[-1] == (0, 0, 0)
        kills = [(1, 1), (1, 3), (2, 2)]
        assert reps._annihilating_power(m, 16) == (2, kills)
        assert orbit_kills(3, q.arrows, orbit) == kills

    def test_repeated_summand_is_one_kill(self, qk):
        # the step at 1 of pass 3 kills both copies of M(S_{3,1}) and is
        # recorded once, after the step at 2 of pass 1 that kills P_2
        a, b = build_module(principal(qk, 3, 1)), build_module(principal(qk, 1, 2))
        m = direct_sum([a, a, b])
        orbit, cur = [m.dims], m
        while not cur.is_zero():
            cur = coxeter_plus(cur)
            orbit.append(cur.dims)
        kills = [(1, 2), (3, 1)]
        assert reps._annihilating_power(m, 16) == (3, kills)
        assert orbit_kills(2, qk.arrows, orbit) == kills
        assert shortest_annihilator_indec(m) == principal(qk, 3, 1)

    def test_walks_call_no_reflect(self, monkeypatch):
        # every walk of sinks or sources runs on a parity mask over its
        # base quiver, so validating, emitting and folding functors along
        # a sequence never reflect a quiver
        q = quiver_from_arrows(4, [(1, 2), (3, 2), (2, 4)])
        calls = []
        reflect = Quiver.reflect

        def counted(self, x):
            calls.append(x)
            return reflect(self, x)

        monkeypatch.setattr(Quiver, "reflect", counted)
        s = principal(q, 2, 1)
        seq = AdmissibleSeq(q, s.letters)
        assert canonical_form(seq).sequence() == s
        m = build_module(seq)
        assert m.dims == (0, 1, 1, 0)
        assert coxeter_plus(m).quiver == q
        assert is_preprojective(m) == Preprojective(2)
        assert calls == []


class TestBuildModule:
    def test_examples(self, q3):
        assert build_module(AdmissibleSeq(q3, (3,))).dims == (0, 0, 1)
        assert build_module(AdmissibleSeq(q3, (3, 2, 3))).dims == (0, 1, 0)
        assert build_module(
            AdmissibleSeq(q3, (3, 2, 1, 3, 2, 3))
        ).dims == (1, 0, 0)

    def test_annihilated_by_its_sequence(self, q3, qk):
        for q, s in [
            (q3, (3, 2, 3)),
            (q3, (3, 2, 1)),
            (q3, (3, 2, 1, 3, 2, 3)),
            (qk, (2, 1, 2)),
            (qk, (2, 1, 2, 1)),
        ]:
            seq = AdmissibleSeq(q, s)
            assert apply_sequence(build_module(seq), seq).is_zero()

    def test_dims_are_word_images(self, q3, qk):
        for q in (q3, qk):
            for letters in raw_enumerate(q.n, q.arrows, 5):
                if not letters:
                    continue
                s = AdmissibleSeq(q, letters)
                if not is_reduced(word_of(s)):
                    continue
                # sigma_{x_1} ... sigma_{x_{s-1}} applied to e_{x_s}:
                # the reflection nearest the vector acts first
                from admseq.weyl import WeylWord

                w = WeylWord(
                    q.graph.cartan(), tuple(reversed(letters[:-1]))
                ).evaluate()
                e = tuple(int(v == letters[-1]) for v in q.vertices())
                assert build_module(s).dims == tuple(w.apply(e))

    def test_builds_no_quiver(self, monkeypatch, q3, qk):
        # the simple at the last letter is sized from the base arrows, and
        # the fold runs on a parity mask, so no quiver is installed
        seqs = [principal(q3, 3, 3), principal(qk, 4, 2), AdmissibleSeq(q3, (3, 2, 1))]
        calls = []
        trusted = Quiver._trusted.__func__

        def counted(cls, *args):
            calls.append(args)
            return trusted(cls, *args)

        monkeypatch.setattr(Quiver, "_trusted", classmethod(counted))
        assert [build_module(s).dims for s in seqs] == [(1, 0, 0), (6, 7), (1, 1, 1)]
        assert calls == []

    def test_wild_growth_costs_nonzeros(self):
        # three arrows 1 -> 2: the maps of M(S_{5,1}) would hold 52 M
        # entries densely but have 9,662 nonzeros, and each functor step
        # costs in nonzeros, so the build, the Coxeter orbit and the
        # shortest annihilator take a fraction of the time bound together
        start = time.perf_counter()
        q = quiver_from_arrows(2, [(1, 2)] * 3)
        s = principal(q, 5, 1)
        m = build_module(s)
        assert m.dims == (2584, 6765)
        assert sum(len(row) for rows in m._rows for row in rows) == 9662
        assert is_preprojective(m) == Preprojective(5)
        assert shortest_annihilator_indec(m).multiplicities() == s.multiplicities()
        assert time.perf_counter() - start < 10

    def test_rejects_empty(self, q3):
        with pytest.raises(AdmseqError, match="sequence must be nonempty"):
            build_module(AdmissibleSeq(q3, ()))

    def test_rejects_non_reduced(self, q3):
        # a long principal sequence on a Dynkin quiver leaves the group
        s = principal(q3, 4, 3)
        assert not is_reduced(word_of(s))
        with pytest.raises(NotReducedError):
            build_module(s)


class TestShortestAnnihilator:
    def test_indec_examples(self, q3):
        assert shortest_annihilator_indec(simple(q3, 1)).letters == (3, 2, 1, 3, 2, 3)
        assert shortest_annihilator_indec(simple(q3, 3)).letters == (3,)
        assert shortest_annihilator_indec(
            build_module(AdmissibleSeq(q3, (3, 2, 3)))
        ).letters == (3, 2, 3)
        # the empty sequence already kills the zero module
        assert shortest_annihilator_indec(zero_rep(q3)).letters == ()

    def test_bruteforce_examples(self, q3):
        k2 = AdmissibleSeq(q3, (3, 2, 1, 3, 2, 1))
        assert shortest_annihilator_bruteforce(simple(q3, 2), k2).letters == (3, 2, 3)
        assert shortest_annihilator_bruteforce(
            zero_rep(q3), AdmissibleSeq(q3, ())
        ).letters == ()

    def test_direct_sum_answer_is_join(self, q3):
        m = direct_sum([simple(q3, 1), simple(q3, 2)])
        k3 = AdmissibleSeq(q3, (3, 2, 1) * 3)
        found = shortest_annihilator_bruteforce(m, k3)
        assert found.letters == (3, 2, 1, 3, 2, 3)
        joined = join_annihilators(
            [shortest_annihilator_indec(simple(q3, 1)),
             shortest_annihilator_indec(simple(q3, 2))]
        )
        assert equivalent(found, joined)

    def test_two_algorithms_agree(self, q3, qk):
        for q in (q3, qk):
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

    def test_absorbed_summand(self, q3):
        """A direct sum can share its shortest annihilator with one
        summand while having a different dimension vector."""
        small = build_module(AdmissibleSeq(q3, (3, 2, 3)))
        big = build_module(AdmissibleSeq(q3, (3, 2, 1, 3, 2, 3)))
        both = direct_sum([small, big])
        s_big = shortest_annihilator_indec(big)
        s_sum = shortest_annihilator_bruteforce(
            both, AdmissibleSeq(q3, (3, 2, 1) * 3)
        )
        assert equivalent(s_sum, s_big)
        assert both.dims != big.dims

    def test_empty_or_mixed_inputs_rejected(self, q3, qk):
        with pytest.raises(AdmseqError, match="at least one sequence"):
            join_annihilators([])
        with pytest.raises(AdmseqError, match="at least one representation"):
            direct_sum([])
        with pytest.raises(AdmseqError, match="different quivers"):
            direct_sum([simple(q3, 1), simple(qk, 1)])

    def test_affine_d4_sum_is_read_off_its_orbit(self, steps):
        # on affine D4 (arrows 1, 2, 3, 4 -> 5) the sum of M(S_{2,4}),
        # M(S_{30,4}) and M(S_{30,5}) is killed by 30 Coxeter passes; the
        # answer is the join of the three principal sequences, recorded as
        # the orbit steps, with no functor step beyond its 30 passes of the
        # cycle 5, 1, 2, 3, 4
        q = quiver_from_arrows(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
        parts = [principal(q, r, x) for r, x in ((2, 4), (30, 4), (30, 5))]
        m = direct_sum([build_module(s) for s in parts])
        assert m.dims == (45, 45, 45, 43, 91)
        steps.clear()
        found = shortest_annihilator_indec(m)
        assert steps == [5, 1, 2, 3, 4] * 30
        assert found.multiplicities() == (29, 29, 29, 30, 30)
        assert found == join_annihilators(parts)

    def test_regular_raises(self, qk):
        with pytest.raises(AdmseqError):
            shortest_annihilator_indec(qk_regular(qk), max_iter=12)


class TestSerialization:
    def test_round_trip(self, qk):
        rep = Representation(qk, (1, 1), [((Fraction(1, 2),),), ((3,),)])
        data = rep_to_dict(rep)
        assert data["maps"][0]["matrix"] == [["1/2"]]
        back = rep_from_dict(data)
        assert back == rep

    def test_missing_maps_default_to_zero(self, q3):
        back = rep_from_dict(
            {"quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]}, "dims": [1, 0, 0]}
        )
        assert back == simple(q3, 1)
        # a left-out map between two nonzero spaces is the zero matrix
        both = rep_from_dict(
            {"quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]}, "dims": [1, 1, 0]}
        )
        assert both.maps == (((Fraction(0),),), ())
        assert both == direct_sum([simple(q3, 1), simple(q3, 2)])


    @pytest.mark.parametrize("entry", ["abc", None, float("inf"), float("nan"), "1/0"],
                             ids=["text", "none", "inf", "nan", "zero-denominator"])
    def test_bad_entry_of_a_map(self, entry):
        # each used to escape as the bare error Fraction raised
        q = quiver_from_arrows(2, [(1, 2)])
        with pytest.raises(AdmseqError, match="is not a rational number"):
            Representation(q, (1, 1), [[[entry]]])

    def test_exponent_entry_of_a_map_is_refused_at_once(self):
        # Fraction("1e10000000") would build the whole power of ten first
        q = quiver_from_arrows(2, [(1, 2)])
        start = time.perf_counter()
        with pytest.raises(AdmseqError, match="^map entry '1e10000000' has an exponent$"):
            Representation(q, (1, 1), [[["1e10000000"]]])
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("entry,value", [
        (3, 3), (-4, -4), (Fraction(1, 3), Fraction(1, 3)), (Fraction(6, 2), 3),
        ("1/3", Fraction(1, 3)), ("-8/4", -2), ("7", 7),
    ], ids=["int", "negative", "fraction", "integral-fraction", "text-fraction",
            "text-integral", "text-int"])
    def test_entry_of_a_map_is_read_integer_first(self, entry, value):
        q = quiver_from_arrows(2, [(1, 2)])
        rep = Representation(q, (1, 1), [[[entry]]])
        assert rep._rows == (({0: value},),)
        assert type(rep._rows[0][0][0]) is type(value)

    @pytest.mark.parametrize("entry,message", [
        ("abc", "not a number"),
        (None, "not a number"),
        (float("nan"), "not a number"),
        (float("inf"), "not a number"),
        ("1/0", "zero denominator"),
        ("1e5", "exponent"),
    ], ids=["text", "null", "nan", "inf", "zero-denominator", "exponent"])
    def test_bad_entry_of_a_module_file(self, entry, message):
        data = {"quiver": {"n": 2, "arrows": [[1, 2]]}, "dims": [1, 1],
                "maps": [{"arrow": 0, "matrix": [[entry]]}]}
        with pytest.raises(AdmseqError, match=f"matrix of arrow 0 has .*{message}"):
            rep_from_dict(data)

    def test_json_float_entry_is_read(self):
        data = {"quiver": {"n": 2, "arrows": [[1, 2]]}, "dims": [1, 1],
                "maps": [{"arrow": 0, "matrix": [[1e20]]}]}
        assert rep_from_dict(data).maps == ((((Fraction(10**20),),),))


def test_folds_do_not_recheck_their_letters(q3, qk, monkeypatch):
    """A letter is checked once, where its walk is formed: no fold tests a
    sink or a source, and a single reflection tests its one vertex."""
    seq = AdmissibleSeq(q3, (3, 2, 1, 3, 2, 3))
    m, l1 = build_module(principal(qk, 3, 1)), simple(q3, 1)
    calls = []
    sink_after = Quiver._sink_after

    def counted(self, flips, x):
        calls.append(x)
        return sink_after(self, flips, x)

    monkeypatch.setattr(Quiver, "_sink_after", counted)
    for run in (lambda: is_preprojective(m), lambda: shortest_annihilator_indec(m),
                lambda: build_module(seq), lambda: apply_sequence(l1, seq),
                lambda: coxeter_plus(m)):
        run()
        assert calls == []
    reflect_plus(l1, 3)
    assert calls == [3]
    calls.clear()
    reflect_minus(l1, 1)
    assert calls == [1]


def _entries(rep):
    return [x for m in rep.maps for row in m for x in row]


def test_maps_hold_fractions(q3, qk):
    """Map entries are Fractions whatever the functors hold inside, and
    the benchmark digests read them."""
    nonunit = Representation(
        qk, (2, 1), [((2, Fraction(1, 3)),), ((-3, 1),)]
    )
    l1 = simple(q3, 1)
    outs = [
        reflect_plus(nonunit, 2),
        reflect_plus(p2_on_q3(q3), 3),
        reflect_minus(reflect_plus(nonunit, 2), 2),
        apply_sequence(l1, AdmissibleSeq(q3, (3, 2, 1, 3))),
        apply_sequence(l1, AdmissibleSeq(q3, ())),
        coxeter_plus(nonunit),
        coxeter_plus(qk_regular(qk)),
        build_module(principal(qk, 3, 1)),
        build_module(AdmissibleSeq(q3, (3, 2, 1, 3, 2, 3))),
        simple(qk, 1),
        direct_sum([nonunit, qk_regular(qk)]),
        rep_from_dict(rep_to_dict(nonunit)),
        rep_from_dict({"quiver": {"n": 2, "arrows": [[1, 2], [1, 2]]}, "dims": [2, 3]}),
        Representation(qk, (1, 1), [((1,),), ((Fraction(4, 2),),)]),
    ]
    for rep in outs:
        entries = _entries(rep)
        assert all(type(x) is Fraction for x in entries), rep
    assert any(x.denominator != 1 for x in _entries(outs[0]))


def _simples(q):
    return [simple(q, 1), simple(q, 2)]


def _principals(q):
    return [principal(q, 1, 1), principal(q, 1, 2)]


@pytest.mark.parametrize("call,expect", [
    (lambda q: Representation(q, (1, 1), None), "one matrix per arrow instance"),
    (lambda q: Representation(q, (1, 1), [5]), "matrix for arrow 1->2 must be 1 x 1"),
    (lambda q: Representation(q, (1, 1), [[5]]), "matrix for arrow 1->2 must be 1 x 1"),
    (lambda q: WeylElement(q.graph.cartan(), None), "Weyl element matrix must be 2 x 2"),
    (lambda q: Graph(2, None), "edges must be a list of pairs"),
    (lambda q: Quiver(q.graph, None), "arrows must be a list of pairs"),
    (lambda q: quiver_from_arrows(2, None), "arrows must be a list of pairs"),
    (lambda q: q.is_filter(None), "a vertex set must be a list of vertices"),
    (lambda q: direct_sum(iter(_simples(q))), lambda q: direct_sum(_simples(q))),
    (lambda q: join_annihilators(iter(_principals(q))),
     lambda q: join_annihilators(_principals(q))),
], ids=["maps-none", "maps-flat", "matrix-rows-flat", "weyl-none", "edges-none",
        "quiver-none", "quiver-from-arrows-none", "vertex-set-none", "direct-sum-iterator",
        "join-iterator"])
def test_list_arguments_are_read_once(call, expect):
    """A list-shaped argument is read once, as a list: an iterator is read
    like one, and a value that cannot be iterated, at any depth, is an
    AdmseqError with the shape message, never a bare TypeError."""
    q = quiver_from_arrows(2, [(1, 2)])
    if isinstance(expect, str):
        with pytest.raises(AdmseqError, match=expect):
            call(q)
    else:
        assert call(q) == expect(q)
