import json

import pytest

from admseq.cli import export_component, main


@pytest.fixture(scope="module")
def q3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "q3.json"
    path.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [2, 3]]}))
    return str(path)


@pytest.fixture(scope="module")
def qk_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "qk.json"
    path.write_text(json.dumps({"n": 2, "arrows": [[1, 2], [1, 2]]}))
    return str(path)


@pytest.fixture(scope="module")
def a4_cartan_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a4.json"
    cartan = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    path.write_text(json.dumps({"cartan": cartan}))
    return str(path)


@pytest.fixture(scope="module")
def l1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "l1.json"
    path.write_text(
        json.dumps(
            {
                "quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]},
                "dims": [1, 0, 0],
                "maps": [],
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestSequenceVerbs:
    def test_canon(self, capsys, q3_file):
        code, out, _ = run(capsys, "canon", "-q", q3_file, "-s", "3,2,1,3")
        assert (code, out) == (0, "3,2,1 | 3")

    def test_check_seq(self, capsys, q3_file):
        code, out, _ = run(capsys, "check-seq", "-q", q3_file, "-s", "3,2,3")
        assert code == 0
        code, out, _ = run(capsys, "check-seq", "-q", q3_file, "-s", "3,1")
        assert code == 1
        assert "not admissible" in out

    def test_mult_json(self, capsys, q3_file):
        code, out, _ = run(
            capsys, "mult", "-q", q3_file, "-s", "3,2,3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"multiplicities": [0, 1, 2]}

    def test_equiv(self, capsys, q3_file):
        code, out, _ = run(capsys, "equiv", "-q", q3_file, "-s", "3,2,1,3", "-t", "3,2,3,1")
        assert (code, out) == (0, "true")

    def test_preceq_false(self, capsys, q3_file):
        code, out, _ = run(capsys, "preceq", "-q", q3_file, "-s", "3,2,3", "-t", "3,2,1")
        assert (code, out) == (1, "false")

    def test_meet_join(self, capsys, q3_file):
        code, out, _ = run(capsys, "meet", "-q", q3_file, "-s", "3,2,3", "-t", "3,2,1")
        assert (code, out) == (0, "3,2")
        code, out, _ = run(capsys, "join", "-q", q3_file, "-s", "3,2,3", "-t", "3,2,1")
        assert (code, out) == (0, "3,2,1,3")

    def test_complement_json(self, capsys, q3_file):
        code, out, _ = run(
            capsys, "complement", "-q", q3_file, "-s", "3,2,3", "-t", "3,2,1",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["meet"] == [3, 2]
        assert sorted(data["u"] + data["v"]) == [1, 3]

    def test_principal(self, capsys, q3_file):
        code, out, _ = run(capsys, "principal", "-q", q3_file, "-r", "3", "-x", "3")
        assert (code, out) == (0, "3,2,1,3,2,3")

    def test_decompose(self, capsys, q3_file):
        code, out, _ = run(capsys, "decompose", "-q", q3_file, "-s", "3,2,1,3")
        assert code == 0
        assert out == "(1,1); (2,3)"

    def test_tail(self, capsys, q3_file):
        code, out, _ = run(capsys, "tail", "-q", q3_file, "-s", "3,2,3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["size"], data["vertex"]) == (1, 3)

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "-r", "3", "-x", "1")
        assert (code, out) == (0, "(2,1)")


class TestWordVerbs:
    def test_reduced(self, capsys, a4_cartan_file):
        code, out, _ = run(capsys, "reduced", "--cartan", a4_cartan_file, "-w", "2,3,2")
        assert (code, out) == (0, "reduced (length 3)")
        code, out, _ = run(capsys, "reduced", "--cartan", a4_cartan_file, "-w", "2,2")
        assert (code, out) == (1, "not reduced")

    def test_word_json(self, capsys, q3_file):
        code, out, _ = run(
            capsys, "word", "-q", q3_file, "-s", "3,2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["letters"] == [3, 2]
        assert len(data["matrix"]) == 3

    def test_principal_reduced(self, capsys, q3_file):
        code, out, _ = run(capsys, "principal-reduced", "-q", q3_file, "-s", "3,2,3")
        assert (code, out) == (0, "true")

    def test_coxeter_check(self, capsys, q3_file, qk_file):
        code, out, _ = run(capsys, "coxeter-check", "-q", q3_file, "-s", "3,2,1", "-m", "4")
        assert code == 1
        assert "not reduced" in out
        code, out, _ = run(capsys, "coxeter-check", "-q", qk_file, "-s", "2,1", "-m", "5")
        assert code == 0
        assert "m=5: reduced (word length 10)" in out

    def test_finite(self, capsys, q3_file, qk_file):
        assert run(capsys, "finite", "-q", q3_file)[0] == 0
        assert run(capsys, "finite", "-q", qk_file)[0] == 1

    def test_sorting(self, capsys, q3_file):
        code, out, _ = run(
            capsys, "sorting-word", "-q", q3_file, "-w", "3,2,1", "-t", "3,2,1"
        )
        assert (code, out) == (0, "1,2,3")
        code, out, _ = run(
            capsys, "sortable", "-q", q3_file, "-w", "3,2,1", "-t", "3,2,1"
        )
        assert (code, out) == (0, "true")


class TestModuleVerbs:
    def test_module(self, capsys, q3_file):
        code, out, _ = run(capsys, "module", "-q", q3_file, "-s", "3,2,3")
        assert (code, out) == (0, "dims (0, 1, 0)")

    def test_module_json_round_trip(self, capsys, q3_file, tmp_path):
        from admseq.reps import load_rep

        code, out, _ = run(
            capsys, "module", "-q", q3_file, "-s", "3,2,1,3,2,3", "--format", "json"
        )
        assert code == 0
        path = tmp_path / "m.json"
        path.write_text(out)
        assert load_rep(str(path)).dims == (1, 0, 0)

    def test_apply(self, capsys, l1_file):
        code, out, _ = run(capsys, "apply", "--module", l1_file, "-s", "3,2,1,3,2,3")
        assert (code, out) == (0, "dims (0, 0, 0)")

    def test_phi_plus(self, capsys, l1_file):
        code, out, _ = run(capsys, "phi-plus", "--module", l1_file)
        assert (code, out) == (0, "dims (0, 1, 0)")

    def test_preproj(self, capsys, l1_file):
        code, out, _ = run(capsys, "preproj", "--module", l1_file)
        assert (code, out) == (0, "preprojective(3)")

    def test_sm(self, capsys, l1_file):
        code, out, _ = run(capsys, "sm", "--module", l1_file)
        assert (code, out) == (0, "3,2,1,3,2,3")

    def test_sm_brute(self, capsys, l1_file):
        code, out, _ = run(capsys, "sm-brute", "--module", l1_file, "-m", "8")
        assert (code, out) == (0, "3,2,1,3,2,3")


class TestComponent:
    def test_q3_levels_1(self, capsys, q3_file):
        code, out, _ = run(capsys, "component", "-q", q3_file, "--levels", "1")
        assert code == 0
        assert out.count("[label=") == 3
        assert '"n0_2" -> "n0_1"' in out
        assert '"n0_3" -> "n0_2"' in out
        assert out.count(" -> ") == 2

    def test_qk_levels_2(self, capsys, qk_file):
        code, out, _ = run(capsys, "component", "-q", qk_file, "--levels", "2")
        assert code == 0
        assert out.count("[label=") == 4
        assert out.count('"n0_2" -> "n0_1"') == 2
        assert out.count('"n0_1" -> "n1_2"') == 2

    def test_labels_mark_reducedness(self, q3_file, qk_file):
        from admseq.graphs import load_quiver

        dot = export_component(load_quiver(q3_file), 4)
        assert "not reduced" in dot  # Dynkin type runs out of reduced words
        dot = export_component(load_quiver(qk_file), 4)
        assert "not reduced" not in dot


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "canon", "-q", "/nonexistent.json", "-s", "3")
        assert code == 2
        assert "error" in err

    def test_missing_quiver_flag(self, capsys):
        code, _, err = run(capsys, "canon", "-s", "3")
        assert code == 2

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "canon", "-q", str(p), "-s", "3")
        assert code == 2

    def test_sequence_letter_out_of_range(self, capsys, q3_file):
        code, out, err = run(capsys, "mult", "-q", q3_file, "-s", "99")
        assert (code, out) == (2, "")
        assert "letter 99 at position 1" in err

    def test_principal_vertex_out_of_range(self, capsys, q3_file):
        code, out, err = run(capsys, "principal", "-q", q3_file, "-r", "2", "-x", "7")
        assert (code, out) == (2, "")
        assert "letter 7" in err

    def test_format_dot_rejected(self, q3_file, l1_file):
        for argv in (["canon", "-q", q3_file, "-s", "3"], ["sm", "--module", l1_file]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "dot"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("power", ["0", "-3"])
    def test_coxeter_check_power_below_one(self, capsys, q3_file, power):
        code, out, err = run(capsys, "coxeter-check", "-q", q3_file, "-s", "3,2,1", "-m", power)
        assert (code, out) == (2, "")
        assert "at least 1" in err

    def test_component_takes_no_format(self, q3_file):
        with pytest.raises(SystemExit) as exc:
            main(["component", "-q", q3_file, "--levels", "1", "--format", "json"])
        assert exc.value.code == 2

    def test_unknown_verb(self, q3_file):
        with pytest.raises(SystemExit):
            main(["frobnicate", "-q", q3_file])
