import json
import random
import re
import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from admseq import weyl
from admseq.cli import main
from admseq.errors import AdmseqError, InvalidCartanError, NotCompleteError, NotPrincipalError
from admseq.graphs import Graph, graph_from_cartan, quiver_from_arrows
from admseq.reps import canonical_complete_sequence
from admseq.sequences import AdmissibleSeq, principal
from admseq.weyl import (
    SortingWord,
    WeylElement,
    WeylWord,
    c_sorting_word,
    coxeter_element,
    coxeter_powers_reduced,
    is_c_sortable,
    is_reduced,
    length_of_word,
    principal_reduced_criterion,
    principal_root,
    simple_reflection,
    weyl_is_finite,
    word_of,
)

from oracles import bfs_lengths, raw_enumerate, word_matrix


@contextmanager
def deadline(seconds):
    """Fail the block after ``seconds`` of wall time where SIGALRM exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"no answer within {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


A2 = ((2, -1), (-1, 2))
A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
KRONECKER = ((2, -2), (-2, 2))


class TestSimpleReflection:
    def test_negates_own_root(self):
        assert simple_reflection(A3, 3).apply((0, 0, 1)) == (0, 0, -1)

    def test_neighbor_action(self):
        assert simple_reflection(A3, 2).apply((0, 0, 1)) == (0, 1, 1)

    def test_kronecker(self):
        assert simple_reflection(KRONECKER, 2).apply((1, 0)) == (1, 2)

    def test_involution_and_form(self):
        for cartan in (A2, A3, A4, KRONECKER):
            n = len(cartan)
            for i in range(1, n + 1):
                s = simple_reflection(cartan, i)
                assert (s * s).is_identity()
                assert s.preserves_form()

    def test_fixes_vectors_orthogonal_in_formula(self):
        # sigma_1 on A3 fixes e_3 (a_13 = 0)
        assert simple_reflection(A3, 1).apply((0, 0, 1)) == (0, 0, 1)


class TestWordEvaluation:
    def test_word_of_copies_letters(self, q3):
        w = word_of(AdmissibleSeq(q3, (3, 2, 3)))
        assert w.letters == (3, 2, 3)

    def test_identity(self, q3):
        assert word_of(AdmissibleSeq(q3, ())).evaluate().is_identity()
        assert WeylElement.identity(A3) == WeylWord(A3, ()).evaluate()

    def test_identity_of_rank_one(self):
        assert WeylElement.identity([[2]]).is_identity()

    @pytest.mark.parametrize("matrix", [((-1, 0), (0, -1)), ((1, 1), (0, 1))],
                             ids=["minus-identity", "shear"])
    def test_is_identity_false_off_the_identity(self, matrix):
        assert not WeylElement(KRONECKER, matrix).is_identity()

    def test_equivalence_invariance(self, q3):
        a = word_of(AdmissibleSeq(q3, (3, 2, 1, 3))).evaluate()
        b = word_of(AdmissibleSeq(q3, (3, 2, 3, 1))).evaluate()
        assert a == b

    def test_coxeter_action(self):
        w = WeylWord(A3, (3, 2, 1))
        assert w.evaluate().apply((1, 0, 0)) == (0, 1, 0)

    def test_kronecker_coxeter(self):
        c = WeylWord(KRONECKER, (2, 1)).evaluate()
        for d1, d2 in [(1, 0), (0, 1), (1, 1), (2, 3)]:
            assert c.apply((d1, d2)) == (3 * d1 - 2 * d2, 2 * d1 - d2)

    def test_braid_relation(self):
        assert WeylWord(A3, (2, 3, 2)).evaluate() == WeylWord(A3, (3, 2, 3)).evaluate()

    def test_inverse(self):
        w = WeylWord(A3, (1, 2, 3, 1, 2)).evaluate()
        assert (w * w.inverse()).is_identity()

    def test_inverse_rejects_non_integral_inverse(self):
        # diag(2, 1) is invertible over Q, but its inverse diag(1/2, 1) is
        # not an integer matrix, so the element is not in W
        with pytest.raises(AdmseqError, match="not an integer matrix"):
            WeylElement(KRONECKER, ((2, 0), (0, 1))).inverse()

    def test_inverse_rejects_singular(self):
        with pytest.raises(AdmseqError, match="singular"):
            WeylElement(KRONECKER, ((1, 1), (1, 1))).inverse()

    def test_non_integer_letter_rejected(self):
        # int() would truncate this to the word 1,2
        with pytest.raises(AdmseqError, match="word letters must be integers"):
            WeylWord(A2, [1.7, 2])

    @pytest.mark.parametrize("letters", [(1, 3), (0,), (-1, 2)])
    def test_letter_out_of_range_rejected(self, letters):
        with pytest.raises(AdmseqError, match="word letter out of range"):
            WeylWord(A2, letters)

    @pytest.mark.parametrize("v,message", [
        ((1.5, 2), "vector entries must be integers"),
        (("a", 1), "vector entries must be integers"),
        ((1, 0, 0), "vector length does not match rank"),
    ])
    def test_apply_reads_its_vector(self, v, message):
        # the float used to come back as (0.5, 2.0), the string as a bare
        # TypeError
        with pytest.raises(AdmseqError, match=message):
            simple_reflection(A2, 1).apply(v)

    def test_elements_of_different_groups_rejected(self):
        with pytest.raises(AdmseqError, match="different Weyl groups"):
            simple_reflection(A2, 1) * simple_reflection(KRONECKER, 1)
        with pytest.raises(AdmseqError, match="different Cartan matrices"):
            c_sorting_word(WeylWord(A2, (2, 1)), simple_reflection(KRONECKER, 1))

    def test_non_integer_entry_rejected(self):
        # rejected when built, before the elimination ever sees a float
        with pytest.raises(AdmseqError, match="Weyl element entries must be integers"):
            WeylElement(A2, [[0.5, 0], [0, 1]]).inverse()

    def test_rejects_matrix_of_wrong_shape(self):
        # the short one used to be accepted and inverted to ((0, 1),), the
        # ragged one to end in an IndexError
        for matrix in ([[1, 0]], [[1, 0], [0]]):
            with pytest.raises(AdmseqError, match="must be 3 x 3"):
                WeylElement(A3, matrix)

    # the constructors used to accept all but the number, which was a bare
    # TypeError; then the ragged one gave a reduced word and a wrong matrix,
    # the 2 x 3 one ended in an IndexError, the string in a TypeError, and
    # the positive one gave a word and a matrix
    NOT_CARTAN = {"ragged": [[2, -1], [-1]], "not-square": [[2, -1, 0], [-1, 2, -1]],
                  "string": "ab", "positive-off-diagonal": [[2, 1], [1, 2]], "number": 2}

    @pytest.mark.parametrize("cartan", NOT_CARTAN.values(), ids=NOT_CARTAN)
    def test_word_rejects_what_is_no_cartan_matrix(self, cartan):
        with pytest.raises(InvalidCartanError):
            WeylWord(cartan, (1, 2))

    @pytest.mark.parametrize("cartan", NOT_CARTAN.values(), ids=NOT_CARTAN)
    def test_element_rejects_what_is_no_cartan_matrix(self, cartan):
        with pytest.raises(InvalidCartanError):
            WeylElement(cartan, ((1, 0), (0, 1)))
        with pytest.raises(InvalidCartanError):
            WeylElement.identity(cartan)

    def test_products_check_no_matrix_again(self, monkeypatch, q3):
        # the matrix is checked once, by a public constructor; a word of a
        # sequence, its value, products and inverses hold a checked one
        calls = []
        check = weyl._cartan_rows
        monkeypatch.setattr(weyl, "_cartan_rows", lambda a: calls.append(a) or check(a))
        w = word_of(AdmissibleSeq(q3, (3, 2, 1, 3))).evaluate()
        assert (w * w.inverse()).is_identity() and calls == []
        WeylWord(A3, (1, 2))
        assert calls == [A3]


class TestIsReduced:
    def test_examples(self):
        assert is_reduced(WeylWord(A4, (2, 3, 2)))
        assert not is_reduced(WeylWord(A3, (3, 3)))
        assert is_reduced(WeylWord(A3, (3, 2, 1, 3, 2, 3)))

    @pytest.mark.parametrize("cartan", [A2, A3])
    def test_agrees_with_bfs_oracle(self, cartan):
        lengths = bfs_lengths(cartan)
        n = len(cartan)

        def words(max_len):
            stack = [()]
            while stack:
                w = stack.pop()
                yield w
                if len(w) < max_len:
                    for x in range(1, n + 1):
                        stack.append(w + (x,))

        for letters in words(7):
            expected = lengths[word_matrix(cartan, letters)] == len(letters)
            assert is_reduced(WeylWord(cartan, letters)) == expected

    def test_length_of_word(self):
        lengths = bfs_lengths(A3)
        for letters in [(1,), (1, 2), (1, 2, 1), (3, 2, 1, 3, 2, 3), (1, 1), ()]:
            assert length_of_word(WeylWord(A3, letters)) == lengths[word_matrix(A3, letters)]


class TestPrincipalReducedCriterion:
    def test_examples(self, q3, qk):
        assert principal_reduced_criterion(AdmissibleSeq(q3, (3, 2, 3)))
        assert principal_reduced_criterion(AdmissibleSeq(q3, (3,)))
        assert principal_reduced_criterion(principal(qk, 3, 2))

    def test_rejects_non_principal(self, q3):
        with pytest.raises(NotPrincipalError):
            principal_reduced_criterion(AdmissibleSeq(q3, (3, 2, 1, 3)))

    def test_matches_is_reduced(self, q3, qk, a4_orientations, triangle_orientations):
        for q in [q3, qk, *a4_orientations, *triangle_orientations]:
            for r in range(1, 4):
                for x in q.vertices():
                    s = principal(q, r, x)
                    assert principal_reduced_criterion(s) == is_reduced(word_of(s))


class TestPrincipalRoot:
    def test_is_a_column_of_the_prefix_product(self, q3, qk, a4_orientations,
                                               triangle_orientations):
        for q in [q3, qk, *a4_orientations, *triangle_orientations]:
            cartan = q.graph.cartan()
            for r in range(1, 4):
                for x in q.vertices():
                    s = principal(q, r, x)
                    root = principal_root(s)
                    if not is_reduced(word_of(s)):
                        assert root is None
                        continue
                    # sigma_{x_1} ... sigma_{x_{s-1}} acts last letter first
                    prefix = word_matrix(cartan, tuple(reversed(s.letters[:-1])))
                    assert root == tuple(row[s.letters[-1] - 1] for row in prefix)

    def test_rejects_non_principal(self, q3):
        with pytest.raises(NotPrincipalError):
            principal_root(AdmissibleSeq(q3, (3, 2, 1, 3)))


class TestCoxeterElement:
    def test_definition(self, q3, qk):
        assert coxeter_element(AdmissibleSeq(q3, (3, 2, 1))).letters == (3, 2, 1)
        assert coxeter_element(AdmissibleSeq(qk, (2, 1))).letters == (2, 1)

    def test_rejects_incomplete(self, q3):
        with pytest.raises(NotCompleteError):
            coxeter_element(AdmissibleSeq(q3, (3, 2, 3)))

    def test_square_is_homomorphic(self, q3):
        k = AdmissibleSeq(q3, (3, 2, 1))
        c = word_of(k).evaluate()
        c2 = word_of(AdmissibleSeq(q3, (3, 2, 1, 3, 2, 1))).evaluate()
        assert c * c == c2

    def test_complete_returns_base_orientation(self, q3):
        assert AdmissibleSeq(q3, (3, 2, 1)).final_quiver == q3


class TestFiniteness:
    def test_examples(self, q3, qk, triangle_graph):
        assert weyl_is_finite(q3.graph)
        assert not weyl_is_finite(qk.graph)
        assert not weyl_is_finite(triangle_graph)

    def test_ade_shapes(self):
        d4 = Graph(4, [(1, 4), (2, 4), (3, 4)])
        assert weyl_is_finite(d4)
        e6 = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
        assert weyl_is_finite(e6)
        e8 = Graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)])
        assert weyl_is_finite(e8)
        affine_e7_like = Graph(
            9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (4, 9)]
        )
        assert not weyl_is_finite(affine_e7_like)
        star4 = Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
        assert not weyl_is_finite(star4)
        # E7, affine E6, affine E8: a branch vertex with three paths of
        # the given lengths, all vertices numbered in a shuffled order
        for arms, finite in [((1, 2, 3), True), ((2, 2, 2), False), ((1, 2, 5), False)]:
            n = 1 + sum(arms)
            label = random.Random(n).sample(range(1, n + 1), n)
            edges, v = [], 1
            for length in arms:
                prev = 0
                for _ in range(length):
                    edges.append((label[prev], label[v]))
                    prev, v = v, v + 1
            assert weyl_is_finite(Graph(n, edges)) is finite, arms

    def test_matches_bfs_boundedness(self):
        # finite types have bounded BFS; Kronecker words keep growing
        assert len(bfs_lengths(A3)) == 24
        assert len(bfs_lengths(A2)) == 6


class TestCoxeterPowers:
    def test_kronecker_all_reduced(self, qk):
        rows = coxeter_powers_reduced(AdmissibleSeq(qk, (2, 1)), 10)
        assert all(ok for _, ok, _ in rows)
        assert [length for _, _, length in rows] == [2 * m for m in range(1, 11)]

    def test_a3_fails(self, q3):
        rows = coxeter_powers_reduced(AdmissibleSeq(q3, (3, 2, 1)), 4)
        assert not all(ok for _, ok, _ in rows)

    @pytest.mark.parametrize("m_max", [0, -3])
    def test_rejects_power_bound_below_one(self, qk, m_max):
        with pytest.raises(AdmseqError, match="at least 1"):
            coxeter_powers_reduced(AdmissibleSeq(qk, (2, 1)), m_max)

    @pytest.mark.parametrize("m_max", [2.5, "3"])
    def test_rejects_non_integer_power_bound(self, qk, m_max):
        with pytest.raises(AdmseqError, match="power bound must be an integer"):
            coxeter_powers_reduced(AdmissibleSeq(qk, (2, 1)), m_max)


class TestSorting:
    def test_full_coxeter_element(self):
        c = WeylWord(A3, (3, 2, 1))  # c = s1 s2 s3
        sw = c_sorting_word(c, c.evaluate())
        assert sw.blocks == ((1, 2, 3),)

    def test_identity(self):
        c = WeylWord(A3, (3, 2, 1))
        assert is_c_sortable(c, c.evaluate() * c.evaluate().inverse())

    def test_a2_non_sortable(self):
        c = WeylWord(A2, (2, 1))  # c = s1 s2
        target = WeylWord(A2, (1, 2)).evaluate()  # s2 s1
        sw = c_sorting_word(c, target)
        assert sw.render() == "2 | 1"
        assert not is_c_sortable(c, target)

    def test_element_outside_w_is_a_stuck_peel(self):
        # the A2 diagram automorphism swaps the simple roots: it preserves
        # the form and has an integer inverse, but no descent, and is not
        # the identity, so it is not in W
        swap = WeylElement(A2, [[0, 1], [1, 0]])
        assert swap.preserves_form() and swap.inverse() == swap
        with pytest.raises(AdmseqError, match="stuck peel"):
            c_sorting_word(WeylWord(A2, (2, 1)), swap)

    # Without the determinant in the gate, [[0, 0], [-1, 1]] (singular,
    # but its columns have the norm 2 of a real root) would cycle for ever
    # in the first height walk, with period 2.
    @pytest.mark.parametrize("matrix,message", [
        ([[-1, 0], [0, 0]], "matrix is singular"),
        ([[0, 0], [-1, 1]], "matrix is singular"),
        ([[-2, 0], [0, 1]], "inverse is not an integer matrix"),
        ([[-2, 0], [0, -2]], "inverse is not an integer matrix"),
        ([[0, 1], [0, 1]], "matrix is singular"),  # no pivot in column 1
    ])
    @pytest.mark.parametrize("query", [c_sorting_word, is_c_sortable])
    def test_gate_rejects_matrices_with_no_integer_inverse(self, query, matrix, message):
        with pytest.raises(AdmseqError, match=message):
            query(WeylWord(KRONECKER, (1, 2)), WeylElement(KRONECKER, matrix))

    # Both shears have determinant 1 and a column that is no real root.
    # On [[1, 1], [0, 1]], whose column (1, 1) is the imaginary root delta
    # of norm 0, a column peel of the inverse never ends.  On
    # [[1, -2], [0, 1]], whose column (-2, 1) has norm 18, the first height
    # walk never ends without the norm test.  A regression fails at a
    # deadline instead of hanging.
    @pytest.mark.parametrize("matrix", [[[1, 1], [0, 1]], [[1, -2], [0, 1]]])
    @pytest.mark.parametrize("query", [c_sorting_word, is_c_sortable])
    def test_column_that_is_not_a_real_root_is_a_stuck_peel(self, query, matrix):
        with deadline(5), pytest.raises(AdmseqError, match="stuck peel"):
            query(WeylWord(KRONECKER, (1, 2)), WeylElement(KRONECKER, matrix))

    # the target sigma_2 is in W, so only the word can be at fault: a
    # vertex missing or repeated
    @pytest.mark.parametrize("letters", [(), (1,), (1, 1), (1, 2, 1), (2, 1, 2, 1)])
    @pytest.mark.parametrize("query", [c_sorting_word, is_c_sortable])
    def test_word_that_is_not_a_coxeter_word_is_refused(self, query, letters):
        # a Coxeter word holds each vertex 1..n exactly once
        word = WeylWord(A2, letters)
        with pytest.raises(AdmseqError, match=re.escape(f"{word!r} is not a Coxeter word")):
            query(word, WeylWord(A2, (2,)).evaluate())

    def test_sortable_from_principal(self, q3):
        c = coxeter_element(AdmissibleSeq(q3, (3, 2, 1)))
        target = word_of(AdmissibleSeq(q3, (3, 2, 3))).evaluate().inverse()
        assert is_c_sortable(c, target)

    def test_sortable_words_of_sequences(self, q3):
        # scanning the Coxeter word in the acting order of the complete
        # sequence, the word of any principal sequence with reduced word
        # sorts with its canonical segments as blocks
        scan_word = WeylWord(A3, (1, 2, 3))
        for letters in [(3, 2, 1), (3, 2), (3, 2, 3), (3, 2, 1, 3, 2)]:
            target = word_of(AdmissibleSeq(q3, letters)).evaluate().inverse()
            assert is_c_sortable(scan_word, target)

    def test_sorting_word_is_reduced_word_for_target(self):
        lengths = bfs_lengths(A3)
        c = WeylWord(A3, (3, 2, 1))
        for target in lengths:
            from admseq.weyl import WeylElement

            elem = WeylElement(A3, target)
            sw = c_sorting_word(c, elem)  # the identity included: no letters
            letters = sw.letters
            assert len(letters) == lengths[target]
            assert word_matrix(A3, tuple(reversed(letters))) == target

    def test_blocks_nonempty_until_done(self):
        c = WeylWord(A3, (3, 2, 1))
        lengths = bfs_lengths(A3)
        from admseq.weyl import WeylElement

        for target in lengths:
            elem = WeylElement(A3, target)
            if elem.is_identity():
                continue
            for block in c_sorting_word(c, elem).blocks:
                assert block

    @pytest.mark.parametrize("n,arrows,hit,sortable", [
        (3, ((1, 2), (2, 3)), 7, 13),
        (3, ((1, 2), (3, 2)), 8, 13),
        (4, ((1, 2), (3, 2), (3, 4)), 19, 41),
        (4, ((1, 2), (2, 3), (2, 4)), 21, 49),
        (4, ((1, 2), (3, 2), (4, 2)), 24, 49),
    ], ids=["A3-linear", "A3-alternating", "A4-mixed", "D4-path-and-leaf", "D4-star"])
    def test_reduced_admissible_sequences_hit_c_sortable_elements(self, n, arrows, hit, sortable):
        # w_S = sigma_{x_1} ... sigma_{x_s}, the value of the reversed word
        # of S, is c-sortable for c the reversed canonical complete
        # sequence; the nonempty reduced admissible S (none longer than the
        # longest element) reach only part of the non-identity c-sortable
        # elements, and how many depends on the orientation, not on the
        # graph alone
        q = quiver_from_arrows(n, arrows)
        A = q.graph.cartan()
        lengths = bfs_lengths(A)
        c_word = WeylWord(A, tuple(reversed(canonical_complete_sequence(q).letters)))
        c_sortable = {m for m, length in lengths.items()
                      if length and is_c_sortable(c_word, WeylElement(A, m))}
        w_s = {WeylWord(A, tuple(reversed(letters))).evaluate().matrix
               for letters in raw_enumerate(n, arrows, max(lengths.values()))
               if letters and is_reduced(WeylWord(A, letters))}
        assert (len(w_s), len(c_sortable)) == (hit, sortable)
        assert w_s <= c_sortable


def test_a_long_path_walks_no_square_matrix(tmp_path, capsys):
    # words, elements and the walks over them hold the sparse Cartan rows of
    # the graph, and the finiteness walk generates its letters, so each call
    # on the path on 3000 vertices peaks far below the 72 MB that the
    # pointers of its 3000 x 3000 matrix, or of the n(n+1) letters of
    # c^(n+1), alone would take
    n = 3000
    arrows = [(v, v + 1) for v in range(1, n)]
    q = quiver_from_arrows(n, arrows)
    s = principal(q, 2, 1)
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "arrows": arrows}))

    def reduced_and_length():
        word = WeylWord(q.graph, (1, 2, 1))
        return is_reduced(word), length_of_word(word)

    calls = {
        "word": reduced_and_length,
        "principal": lambda: (len(word_of(s)), principal_root(s)),
        "coxeter-powers": lambda: coxeter_powers_reduced(canonical_complete_sequence(q), 1),
        "finite": lambda: weyl_is_finite(q.graph),
        "cli": lambda: main(["reduced", "-q", str(path), "-w", "1,2"]),
    }
    results, peaks = {}, {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            results[name] = call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < 16 << 20 for peak in peaks.values()), peaks
    assert results["word"] == (True, 3)
    assert results["principal"] == (2 * n, None)  # the square of a Coxeter word of A_n
    assert results["coxeter-powers"] == [(1, True, n)]
    assert results["finite"] is True
    assert results["cli"] == 0 and capsys.readouterr().out == "reduced (length 2)\n"
