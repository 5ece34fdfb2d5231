import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admseq
from admseq.cli import FLAGS, VERBS, export_component, main
from admseq.errors import AdmseqError

from oracles import raw_graph, raw_reflect, raw_sinks


Q3 = {"n": 3, "arrows": [[1, 2], [2, 3]]}


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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The input files the golden rows name by placeholder."""
    base = tmp_path_factory.mktemp("golden")
    data = {
        "q3": {"n": 3, "arrows": [[1, 2], [2, 3]]},
        "qk": {"n": 2, "arrows": [[1, 2], [1, 2]]},
        "wild": {"n": 3, "arrows": [[1, 2], [1, 2], [2, 3], [1, 3]]},
        "a4": {"cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]},
        "l1": {"quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]}, "dims": [1, 0, 0], "maps": []},
        # M(3,2,3) + M(3,2,1) on A3: decomposable, answered by the join
        "dec": {
            "quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]},
            "dims": [1, 2, 1],
            "maps": [{"arrow": 0, "matrix": [["0"], ["1"]]},
                     {"arrow": 1, "matrix": [["0", "1"]]}],
        },
        # a regular Kronecker module: never annihilated, never preprojective
        "kr": {
            "quiver": {"n": 2, "arrows": [[1, 2], [1, 2]]},
            "dims": [1, 1],
            "maps": [{"arrow": 0, "matrix": [[1]]}, {"arrow": 1, "matrix": [[1]]}],
        },
    }
    out = {}
    for name, content in data.items():
        path = base / f"{name}.json"
        path.write_text(json.dumps(content))
        out[name] = str(path)
    return out


# (argv, exit code, stdout without its final newline, or None when
# nothing is printed) of every verb, in text and JSON, error exits
# included; {name} stands for a file of ``files``.
GOLDEN = [
    ('check-seq -q {q3} -s 3,2,3', 0, 'admissible; final arrows [(2, 1), (3, 2)]'),
    ('check-seq -q {q3} -s 3,2,3 --format json', 0,
     '{"admissible": true, "final_arrows": [[2, 1], [3, 2]]}'),
    ('check-seq -q {q3} -s 3,1', 1, 'not admissible: letter 1 at position 2 is not a sink'),
    ('check-seq -q {q3} -s 3,1 --format json', 1, '{"admissible": false, "index": 2}'),
    ('canon -q {q3} -s 3,2,1,3', 0, '3,2,1 | 3'),
    ('canon -q {q3} -s 3,2,1,3 --format json', 0, '{"segments": [[3, 2, 1], [3]]}'),
    ('mult -q {q3} -s 3,2,3', 0, '(0,1,2)'),
    ('mult -q {q3} -s 3,2,3 --format json', 0, '{"multiplicities": [0, 1, 2]}'),
    ('equiv -q {q3} -s 3,2,1,3 -t 3,2,3,1', 0, 'true'),
    ('equiv -q {q3} -s 3,2,1,3 -t 3,2,3,1 --format json', 0, '{"equivalent": true}'),
    ('equiv -q {q3} -s 3,2,3 -t 3,2,1', 1, 'false'),
    ('equiv -q {q3} -s 3,2,3 -t 3,2,1 --format json', 1, '{"equivalent": false}'),
    ('preceq -q {q3} -s 3,2 -t 3,2,3', 0, 'true'),
    ('preceq -q {q3} -s 3,2 -t 3,2,3 --format json', 0, '{"precedes": true}'),
    ('preceq -q {q3} -s 3,2,3 -t 3,2,1', 1, 'false'),
    ('preceq -q {q3} -s 3,2,3 -t 3,2,1 --format json', 1, '{"precedes": false}'),
    ('meet -q {q3} -s 3,2,3 -t 3,2,1', 0, '3,2'),
    ('meet -q {q3} -s 3,2,3 -t 3,2,1 --format json', 0, '{"letters": [3, 2]}'),
    ('join -q {q3} -s 3,2,3 -t 3,2,1', 0, '3,2,1,3'),
    ('join -q {q3} -s 3,2,3 -t 3,2,1 --format json', 0, '{"letters": [3, 2, 1, 3]}'),
    ('complement -q {q3} -s 3,2,3 -t 3,2,1', 0, 'meet 3,2; U 3; V 1'),
    ('complement -q {q3} -s 3,2,3 -t 3,2,1 --format json', 0,
     '{"meet": [3, 2], "u": [3], "v": [1], "base_arrows": [[2, 1], [2, 3]]}'),
    ('principal -q {q3} -r 3 -x 3', 0, '3,2,1,3,2,3'),
    ('principal -q {q3} -r 3 -x 3 --format json', 0, '{"letters": [3, 2, 1, 3, 2, 3]}'),
    ('principal -q {wild} -r 2 -x 1', 0, '3,2,1,3,2,1'),
    ('principal -q {wild} -r 2 -x 1 --format json', 0, '{"letters": [3, 2, 1, 3, 2, 1]}'),
    ('decompose -q {q3} -s 3,2,1,3', 0, '(1,1); (2,3)'),
    ('decompose -q {q3} -s 3,2,1,3 --format json', 0, '{"pairs": [[1, 1], [2, 3]]}'),
    ('tail -q {q3} -s 3,2,3', 0, 'T 2,3 on arrows [(1, 2), (3, 2)]; (1,3)'),
    ('tail -q {q3} -s 3,2,3 --format json', 0,
     '{"tail": [2, 3], "arrows": [[1, 2], [3, 2]], "size": 1, "vertex": 3}'),
    ('psi -r 3 -x 1', 0, '(2,1)'),
    ('psi -r 3 -x 1 --format json', 0, '{"level": 2, "vertex": 1}'),
    ('word -q {q3} -s 3,2', 0, '3,2'),
    ('word -q {q3} -s 3,2 --format json', 0,
     '{"letters": [3, 2], "matrix": [[1, 0, 0], [1, 0, -1], [0, 1, -1]]}'),
    ('reduced --cartan {a4} -w 2,3,2', 0, 'reduced (length 3)'),
    ('reduced --cartan {a4} -w 2,3,2 --format json', 0, '{"reduced": true, "length": 3}'),
    ('reduced --cartan {a4} -w 2,2', 1, 'not reduced'),
    ('reduced --cartan {a4} -w 2,2 --format json', 1, '{"reduced": false, "length": 2}'),
    ('reduced -q {qk} -w 2,1,2,1', 0, 'reduced (length 4)'),
    ('reduced -q {qk} -w 2,1,2,1 --format json', 0, '{"reduced": true, "length": 4}'),
    ('principal-reduced -q {q3} -s 3,2,3', 0, 'true'),
    ('principal-reduced -q {q3} -s 3,2,3 --format json', 0, '{"reduced": true}'),
    ('principal-reduced -q {q3} -s 3,2,1,3,2,3,1,2', 1, 'false'),
    ('principal-reduced -q {q3} -s 3,2,1,3,2,3,1,2 --format json', 1, '{"reduced": false}'),
    ('coxeter-check -q {q3} -s 3,2,1 -m 4', 1,
     'm=1: reduced (word length 3)\n'
     'm=2: not reduced (word length 6)\n'
     'm=3: not reduced (word length 9)\n'
     'm=4: not reduced (word length 12)'),
    ('coxeter-check -q {q3} -s 3,2,1 -m 4 --format json', 1,
     '{"powers": [{"m": 1, "reduced": true, "length": 3}, {"m": 2, '
     '"reduced": false, "length": 6}, {"m": 3, "reduced": false, "length": 9}, '
     '{"m": 4, "reduced": false, "length": 12}]}'),
    ('coxeter-check -q {qk} -s 2,1 -m 5', 0,
     'm=1: reduced (word length 2)\n'
     'm=2: reduced (word length 4)\n'
     'm=3: reduced (word length 6)\n'
     'm=4: reduced (word length 8)\n'
     'm=5: reduced (word length 10)'),
    ('coxeter-check -q {qk} -s 2,1 -m 5 --format json', 0,
     '{"powers": [{"m": 1, "reduced": true, "length": 2}, {"m": 2, '
     '"reduced": true, "length": 4}, {"m": 3, "reduced": true, "length": 6}, '
     '{"m": 4, "reduced": true, "length": 8}, {"m": 5, "reduced": true, "length": 10}]}'),
    ('coxeter-check -q {wild} -s 3,2,1 -m 3', 0,
     'm=1: reduced (word length 3)\n'
     'm=2: reduced (word length 6)\n'
     'm=3: reduced (word length 9)'),
    ('coxeter-check -q {wild} -s 3,2,1 -m 3 --format json', 0,
     '{"powers": [{"m": 1, "reduced": true, "length": 3}, {"m": 2, '
     '"reduced": true, "length": 6}, {"m": 3, "reduced": true, "length": 9}]}'),
    ('finite -q {q3}', 0, 'true'),
    ('finite -q {q3} --format json', 0, '{"finite": true}'),
    ('finite -q {qk}', 1, 'false'),
    ('finite -q {qk} --format json', 1, '{"finite": false}'),
    ('finite --cartan {a4}', 0, 'true'),
    ('finite --cartan {a4} --format json', 0, '{"finite": true}'),
    ('sorting-word -q {q3} -w 3,2,1 -t 3,2,1', 0, '1,2,3'),
    ('sorting-word -q {q3} -w 3,2,1 -t 3,2,1 --format json', 0, '{"blocks": [[1, 2, 3]]}'),
    ('sorting-word --cartan {a4} -w 1,2,3,4 -t 2,1,3,2', 0, '2,1 | 3,2'),
    ('sorting-word --cartan {a4} -w 1,2,3,4 -t 2,1,3,2 --format json', 0,
     '{"blocks": [[2, 1], [3, 2]]}'),
    ('sorting-word -q {q3} -w 3,2,1 -t 2,2', 0, ''),
    ('sorting-word -q {q3} -w 3,2,1 -t 2,2 --format json', 0, '{"blocks": []}'),
    ('sorting-word -q {q3} -w 3,2,1 --other=', 0, ''),
    ('sorting-word -q {q3} -w 3,2,1 --other= --format json', 0, '{"blocks": []}'),
    ('sortable -q {q3} -w 3,2,1 -t 3,2,1', 0, 'true'),
    ('sortable -q {q3} -w 3,2,1 -t 3,2,1 --format json', 0, '{"sortable": true}'),
    ('sortable -q {q3} -w 3,2,1 -t 2,2', 0, 'true'),
    ('sortable -q {q3} -w 3,2,1 -t 2,2 --format json', 0, '{"sortable": true}'),
    ('sortable -q {q3} -w 1,2,3 -t 1,3,2', 1, 'false'),
    ('sortable -q {q3} -w 1,2,3 -t 1,3,2 --format json', 1, '{"sortable": false}'),
    ('sortable -q {q3} -w 3,2,1,3 -t 3,2,1', 2, None),
    ('sortable -q {q3} -w 3,2,1,3 -t 3,2,1 --format json', 2, None),
    ('module -q {q3} -s 3,2,3', 0, 'dims (0, 1, 0)'),
    ('module -q {q3} -s 3,2,3 --format json', 0,
     '{"quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]}, "dims": [0, 1, 0], '
     '"maps": [{"arrow": 0, "matrix": [[]]}, {"arrow": 1, "matrix": []}]}'),
    ('module -q {qk} -s 2,1,2', 0, 'dims (2, 3)'),
    ('module -q {qk} -s 2,1,2 --format json', 0,
     '{"quiver": {"n": 2, "arrows": [[1, 2], [1, 2]]}, "dims": [2, 3], '
     '"maps": [{"arrow": 0, "matrix": [["0", "1"], ["0", "0"], ["-1", "0"]]}, '
     '{"arrow": 1, "matrix": [["0", "0"], ["1", "0"], ["0", "1"]]}]}'),
    ('apply --module {l1} -s 3,2,1,3,2,3', 0, 'dims (0, 0, 0)'),
    ('apply --module {l1} -s 3,2,1,3,2,3 --format json', 0,
     '{"quiver": {"n": 3, "arrows": [[2, 1], [3, 2]]}, "dims": [0, 0, 0], '
     '"maps": [{"arrow": 0, "matrix": []}, {"arrow": 1, "matrix": []}]}'),
    ('apply --module {l1} -s 3,2', 0, 'dims (1, 1, 0)'),
    ('apply --module {l1} -s 3,2 --format json', 0,
     '{"quiver": {"n": 3, "arrows": [[2, 1], [2, 3]]}, "dims": [1, 1, 0], '
     '"maps": [{"arrow": 0, "matrix": [["1"]]}, {"arrow": 1, "matrix": []}]}'),
    ('phi-plus --module {l1}', 0, 'dims (0, 1, 0)'),
    ('phi-plus --module {l1} --format json', 0,
     '{"quiver": {"n": 3, "arrows": [[1, 2], [2, 3]]}, "dims": [0, 1, 0], '
     '"maps": [{"arrow": 0, "matrix": [[]]}, {"arrow": 1, "matrix": []}]}'),
    ('phi-plus --module {kr}', 0, 'dims (1, 1)'),
    ('phi-plus --module {kr} --format json', 0,
     '{"quiver": {"n": 2, "arrows": [[1, 2], [1, 2]]}, "dims": [1, 1], '
     '"maps": [{"arrow": 0, "matrix": [["1"]]}, {"arrow": 1, "matrix": [["1"]]}]}'),
    ('preproj --module {l1}', 0, 'preprojective(3)'),
    ('preproj --module {l1} --format json', 0, '{"preprojective": true, "power": 3}'),
    ('preproj --module {kr} -m 5', 1, 'undecided'),
    ('preproj --module {kr} -m 5 --format json', 1, '{"preprojective": null}'),
    ('sm --module {l1}', 0, '3,2,1,3,2,3'),
    ('sm --module {l1} --format json', 0, '{"letters": [3, 2, 1, 3, 2, 3]}'),
    ('sm-brute --module {l1} -t 3,2,1,3,2,3,1,2,3', 0, '3,2,1,3,2,3'),
    ('sm-brute --module {l1} -t 3,2,1,3,2,3,1,2,3 --format json', 0,
     '{"letters": [3, 2, 1, 3, 2, 3]}'),
    ('sm --module {dec}', 0, '3,2,1,3'),
    ('sm --module {dec} --format json', 0, '{"letters": [3, 2, 1, 3]}'),
    ('sm-brute --module {dec} -t 3,2,1,3,2,3,1,2,3', 0, '3,2,1,3'),
    ('sm-brute --module {dec} -t 3,2,1,3,2,3,1,2,3 --format json', 0,
     '{"letters": [3, 2, 1, 3]}'),
    ('sm-brute --module {l1} --other=', 2, None),
    ('sm-brute --module {l1} --other= --format json', 2, None),
    ('sm-brute --module {l1}', 2, None),
    ('sm-brute --module {l1} --format json', 2, None),
    ('sm-brute --module {l1} -m 8', 2, None),
    ('sm-brute --module {l1} -m 8 --format json', 2, None),
    ('canon -q {q3} --seq=', 2, None),
    ('canon -q {q3} --seq= --format json', 2, None),
    ('decompose -q {q3} --seq=', 2, None),
    ('decompose -q {q3} --seq= --format json', 2, None),
    ('mult -q {q3} -s 1', 2, None),
    ('mult -q {q3} -s 1 --format json', 2, None),
    ('module -q {q3} -s 2', 2, None),
    ('module -q {q3} -s 2 --format json', 2, None),
    ('apply --module {dec} -s 1', 2, None),
    ('apply --module {dec} -s 1 --format json', 2, None),
    ('coxeter-check -q {q3} -s 3,2,1 -m 0', 2, None),
    ('coxeter-check -q {q3} -s 3,2,1 -m 0 --format json', 2, None),
    ('coxeter-check -q {q3} -s 3,2', 2, None),
    ('coxeter-check -q {q3} -s 3,2 --format json', 2, None),
    ('principal-reduced -q {q3} -s 3,2,1,3', 2, None),
    ('principal-reduced -q {q3} -s 3,2,1,3 --format json', 2, None),
    ('principal -q {q3} -r 0 -x 1', 2, None),
    ('principal -q {q3} -r 0 -x 1 --format json', 2, None),
    ('sm --module {kr} -m 5', 2, None),
    ('sm --module {kr} -m 5 --format json', 2, None),
    ('meet -q {q3} -s 3,2 -t 3,1', 2, None),
    ('meet -q {q3} -s 3,2 -t 3,1 --format json', 2, None),
    ('component -q {q3} --levels 3', 0,
     'digraph component {\n'
     '  rankdir=LR;\n'
     '  "n0_1" [label="(0,1)\\nS=3,2,1\\nreduced, dim (1, 1, 1)"];\n'
     '  "n0_2" [label="(0,2)\\nS=3,2\\nreduced, dim (0, 1, 1)"];\n'
     '  "n0_3" [label="(0,3)\\nS=3\\nreduced, dim (0, 0, 1)"];\n'
     '  "n1_1" [label="(1,1)\\nS=3,2,1,3,2,1\\nnot reduced"];\n'
     '  "n1_2" [label="(1,2)\\nS=3,2,1,3,2\\nreduced, dim (1, 1, 0)"];\n'
     '  "n1_3" [label="(1,3)\\nS=3,2,3\\nreduced, dim (0, 1, 0)"];\n'
     '  "n2_1" [label="(2,1)\\nS=3,2,1,3,2,1,3,2,1\\nnot reduced"];\n'
     '  "n2_2" [label="(2,2)\\nS=3,2,1,3,2,1,3,2\\nnot reduced"];\n'
     '  "n2_3" [label="(2,3)\\nS=3,2,1,3,2,3\\nreduced, dim (1, 0, 0)"];\n'
     '  "n0_2" -> "n0_1";\n'
     '  "n0_1" -> "n1_2";\n'
     '  "n0_3" -> "n0_2";\n'
     '  "n0_2" -> "n1_3";\n'
     '  "n1_2" -> "n1_1";\n'
     '  "n1_1" -> "n2_2";\n'
     '  "n1_3" -> "n1_2";\n'
     '  "n1_2" -> "n2_3";\n'
     '  "n2_2" -> "n2_1";\n'
     '  "n2_3" -> "n2_2";\n'
     '}'),
    ('component -q {qk} --levels 2', 0,
     'digraph component {\n'
     '  rankdir=LR;\n'
     '  "n0_1" [label="(0,1)\\nS=2,1\\nreduced, dim (1, 2)"];\n'
     '  "n0_2" [label="(0,2)\\nS=2\\nreduced, dim (0, 1)"];\n'
     '  "n1_1" [label="(1,1)\\nS=2,1,2,1\\nreduced, dim (3, 4)"];\n'
     '  "n1_2" [label="(1,2)\\nS=2,1,2\\nreduced, dim (2, 3)"];\n'
     '  "n0_2" -> "n0_1";\n'
     '  "n0_1" -> "n1_2";\n'
     '  "n0_2" -> "n0_1";\n'
     '  "n0_1" -> "n1_2";\n'
     '  "n1_2" -> "n1_1";\n'
     '  "n1_2" -> "n1_1";\n'
     '}'),
    ('component -q {wild} --levels 2', 0,
     'digraph component {\n'
     '  rankdir=LR;\n'
     '  "n0_1" [label="(0,1)\\nS=3,2,1\\nreduced, dim (1, 2, 3)"];\n'
     '  "n0_2" [label="(0,2)\\nS=3,2\\nreduced, dim (0, 1, 1)"];\n'
     '  "n0_3" [label="(0,3)\\nS=3\\nreduced, dim (0, 0, 1)"];\n'
     '  "n1_1" [label="(1,1)\\nS=3,2,1,3,2,1\\nreduced, dim (6, 13, 16)"];\n'
     '  "n1_2" [label="(1,2)\\nS=3,2,1,3,2\\nreduced, dim (3, 6, 8)"];\n'
     '  "n1_3" [label="(1,3)\\nS=3,2,1,3\\nreduced, dim (1, 3, 3)"];\n'
     '  "n0_2" -> "n0_1";\n'
     '  "n0_1" -> "n1_2";\n'
     '  "n0_2" -> "n0_1";\n'
     '  "n0_1" -> "n1_2";\n'
     '  "n0_3" -> "n0_2";\n'
     '  "n0_2" -> "n1_3";\n'
     '  "n0_3" -> "n0_1";\n'
     '  "n0_1" -> "n1_3";\n'
     '  "n1_2" -> "n1_1";\n'
     '  "n1_2" -> "n1_1";\n'
     '  "n1_3" -> "n1_2";\n'
     '  "n1_3" -> "n1_1";\n'
     '}'),
    ('canon -s 3', 2, None),
    ('reduced -w 1', 2, None),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden(capsys, files, argv, code, stdout):
    try:
        got = main(argv.format(**files).split())
    except SystemExit as exc:  # argparse rejects the command line
        got = exc.code
    expected = "" if stdout is None else stdout + "\n"
    assert (got, capsys.readouterr().out) == (code, expected)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_apply_refuses_a_non_sink_before_any_fold(capsys, files):
    # 1 is a source of 1 -> 2 -> 3: the sequence is refused as it is read,
    # since no functor step checks its letter again
    code, out, err = run(capsys, "apply", "--module", files["dec"], "-s", "1")
    assert (code, out, err) == (2, "", "error: letter 1 at position 1 is not a sink")


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

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_psi_size_below_one(self, capsys, size):
        # these used to print the levels -1 and -6 with exit 0
        code, out, err = run(capsys, "psi", "-r", size, "-x", "1")
        assert (code, out) == (2, "")
        assert "size must be positive" in err


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

    def test_text_mode_builds_no_payload(self, capsys, monkeypatch, q3_file, l1_file):
        # the JSON module payload holds every entry as a string; text mode
        # prints only the dims and must not build it
        monkeypatch.setattr("admseq.reps.rep_to_dict", None)
        for argv in (["module", "-q", q3_file, "-s", "3,2,3"],
                     ["apply", "--module", l1_file, "-s", "3,2,1"],
                     ["phi-plus", "--module", l1_file]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith("dims (")

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

    def test_phi_plus_left_out_map(self, capsys, tmp_path):
        # no "maps": the map 1 -> 2 between two nonzero spaces is zero
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"quiver": Q3, "dims": [1, 1, 0]}))
        code, out, _ = run(capsys, "phi-plus", "--module", str(path))
        assert (code, out) == (0, "dims (0, 1, 1)")

    def test_preproj(self, capsys, l1_file):
        code, out, _ = run(capsys, "preproj", "--module", l1_file)
        assert (code, out) == (0, "preprojective(3)")

    def test_sm(self, capsys, l1_file):
        code, out, _ = run(capsys, "sm", "--module", l1_file)
        assert (code, out) == (0, "3,2,1,3,2,3")

    def test_sm_brute(self, capsys, l1_file):
        code, out, _ = run(capsys, "sm-brute", "--module", l1_file, "-t", "3,2,1,3,2,3,1,2,3")
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

    @pytest.mark.parametrize("levels", [1.5, "2"])
    def test_levels_must_be_an_integer(self, q3_file, levels):
        # these used to end in a bare TypeError, from range and from <
        from admseq.graphs import load_quiver

        with pytest.raises(AdmseqError, match="levels must be an integer"):
            export_component(load_quiver(q3_file), levels)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "canon", "-q", "/nonexistent.json", "-s", "3")
        assert code == 2
        assert "error" in err

    def test_missing_quiver_flag(self, capsys):
        code, _, err = run(capsys, "canon", "-s", "3")
        assert code == 2

    def test_library_key_error_propagates(self, monkeypatch, q3_file):
        # no input raises KeyError, so one raised in a library call is a
        # bug and ends in a traceback, not in exit 2
        def broken(seq):
            raise KeyError("bug")

        monkeypatch.setattr("admseq.sequences.canonical_form", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["canon", "-q", q3_file, "-s", "3"])

    def test_only_the_chosen_verb_is_built(self, capsys, monkeypatch, q3_file):
        # a leading verb builds its subparser alone, and anything else every
        # verb's; the usage a usage error prints names every verb either way
        from admseq import cli
        built, build = [], cli.build_parser

        def recorded(verbs=VERBS):
            built.append(list(verbs))
            return build(verbs)

        monkeypatch.setattr(cli, "build_parser", recorded)
        assert main(["canon", "-q", q3_file, "-s", "3"]) == 0
        for argv in (["canon", "-q", q3_file, "-s", "3", "extra"], ["cano"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "{" + ",".join(VERBS) + "}" in capsys.readouterr().err
        assert built == [["canon"], ["canon"], list(VERBS), list(VERBS)]

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "canon", "-q", str(p), "-s", "3")
        assert code == 2

    def test_empty_known_annihilator_is_checked(self, capsys, l1_file):
        # -t '' names the empty sequence, which does not kill L1
        code, out, err = run(capsys, "sm-brute", "--module", l1_file, "-t", "")
        assert (code, out) == (2, "")
        assert "given sequence does not annihilate" in err

    def test_sm_brute_refuses_a_coxeter_budget(self, capsys, l1_file):
        # sm-brute only descends from -t; it has no -m to fall back on sm with
        with pytest.raises(SystemExit) as exc:
            main(["sm-brute", "--module", l1_file, "-t", "3,2,1,3,2,3,1,2,3", "-m", "8"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: -m 8" in out.err

    def test_sequence_letter_out_of_range(self, capsys, q3_file):
        code, out, err = run(capsys, "mult", "-q", q3_file, "-s", "99")
        assert (code, out) == (2, "")
        assert "letter 99 at position 1" in err

    def test_principal_vertex_out_of_range(self, capsys, q3_file):
        code, out, err = run(capsys, "principal", "-q", q3_file, "-r", "2", "-x", "7")
        assert (code, out) == (2, "")
        assert "7 is not a vertex 1..3" in err

    @pytest.mark.parametrize("x", ["0", "-1", "4"])
    def test_principal_generator_outside_the_quiver(self, capsys, q3_file, x):
        code, out, err = run(capsys, "principal", "-q", q3_file, "-r", "2", "-x", x)
        assert (code, out) == (2, "")
        assert f"{x} is not a vertex 1..3" in err

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

    def test_out_of_memory_is_an_input_error(self, q3_file):
        # c^m for m near 10^11 asks for a word of 3 * 10^11 letters: one line
        # and exit 2, not a traceback and the exit 1 of a false property.
        # The child caps its address space at 1 GB, so the request fails at
        # once whatever the host's overcommit policy
        child = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
                 "from admseq.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["coxeter-check", "-q", q3_file, "-s", "3,2,1", "-m", "99999999999"]
        env = {**os.environ, "PYTHONPATH": str(Path(admseq.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")

    @pytest.mark.parametrize("verb", ["preproj", "sm"])
    def test_negative_coxeter_budget(self, capsys, l1_file, verb):
        code, out, err = run(capsys, verb, "--module", l1_file, "-m", "-1")
        assert (code, out) == (2, "")
        assert "Coxeter budget must not be negative" in err

    @pytest.mark.parametrize("levels", ["0", "-1"])
    def test_component_levels_below_one(self, capsys, q3_file, levels):
        code, out, err = run(capsys, "component", "-q", q3_file, "--levels", levels)
        assert (code, out) == (2, "")
        assert "at least 1" in err

    def test_component_takes_no_format(self, q3_file):
        with pytest.raises(SystemExit) as exc:
            main(["component", "-q", q3_file, "--levels", "1", "--format", "json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["equiv", "preceq", "meet", "join", "complement"])
    def test_second_sequence_required(self, capsys, q3_file, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "-q", q3_file, "-s", "3,2,3"])
        assert exc.value.code == 2
        assert "-t/--other" in capsys.readouterr().err

    @pytest.mark.parametrize("cartan", [
        [[2, -1], [-1]],
        [[2, -1], [-2, 2]],
        [[2, -1.5], [-1.5, 2]],
        [[2, -1], []],
        5,
    ], ids=["ragged", "asymmetric", "float", "empty-row", "scalar"])
    @pytest.mark.parametrize("verb", [
        ["reduced", "-w", "1,2,1"],
        ["finite"],
        ["sorting-word", "-w", "1,2", "-t", "2,1"],
        ["sortable", "-w", "1,2", "-t", "2,1"],
    ], ids=lambda verb: verb[0])
    def test_malformed_cartan_file(self, capsys, tmp_path, cartan, verb):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cartan": cartan}))
        code, out, err = run(capsys, verb[0], "--cartan", str(path), *verb[1:])
        assert (code, out) == (2, "")
        assert "error" in err

    @pytest.mark.parametrize("verb,flag,data", [
        (["finite"], "--cartan", [[2, -1], [-1, 2]]),
        (["canon", "-s", "3"], "-q", [[1, 2], [2, 3]]),
        (["canon", "-s", "3"], "-q", {"n": 3, "arrows": 5}),
        (["phi-plus"], "--module", [[1, 0, 0]]),
        (["phi-plus"], "--module", {"quiver": Q3, "dims": 5}),
        (["phi-plus"], "--module",
         {"quiver": Q3, "dims": [1, 1, 0], "maps": [{"arrow": 7, "matrix": [[1]]}]}),
        (["phi-plus"], "--module",
         {"quiver": Q3, "dims": [1, 1, 0], "maps": [{"arrow": 0, "matrix": [["1/0"]]}]}),
        (["phi-plus"], "--module",
         {"quiver": Q3, "dims": [1, 1, 0], "maps": [{"arrow": 0, "matrix": [["1e400"]]}]}),
        (["phi-plus"], "--module", {"quiver": Q3, "dims": [1, 1, 0], "maps": 5}),
        (["phi-plus"], "--module",
         {"quiver": Q3, "dims": [1, 1, 0], "maps": [{"arrow": 0, "matrix": [["abc"]]}]}),
        (["phi-plus"], "--module",
         {"quiver": Q3, "dims": [1, 1, 0], "maps": [{"arrow": 0, "matrix": [[None]]}]}),
        # a file that contradicts itself: n beside a Cartan matrix, and one
        # arrow given two matrices
        (["canon", "-s", "2,1"], "-q", {"n": 7, "cartan": [[2, -1], [-1, 2]], "arrows": [[1, 2]]}),
        (["preproj"], "--module",
         {"quiver": {"n": 2, "arrows": [[1, 2]]}, "dims": [1, 1],
          "maps": [{"arrow": 0, "matrix": [["1"]]}, {"arrow": 0, "matrix": [["0"]]}]}),
    ], ids=["cartan-list", "quiver-list", "arrows-int", "module-list", "dims-int",
            "arrow-out-of-range", "zero-denominator", "exponent", "maps-int",
            "entry-text", "entry-null", "n-and-cartan", "arrow-repeated"])
    def test_malformed_json_shape(self, capsys, tmp_path, verb, flag, data):
        # valid JSON of the wrong shape is an input error, not a crash
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, verb[0], flag, str(path), *verb[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_verb(self, q3_file):
        with pytest.raises(SystemExit):
            main(["frobnicate", "-q", q3_file])


# a DOT node label: (letters, dims) with dims empty on "not reduced"
LABEL = re.compile(
    r'\[label="\(\d+,\d+\)\\nS=([\d,]+)\\n'
    r'(?:reduced, dim \(([\d, ]+)\)|not reduced)"\]'
)


@pytest.mark.parametrize("n,arrows", [
    (2, [(1, 2), (1, 2)]),                  # Kronecker
    (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # affine A_3
    (3, [(1, 2), (1, 2), (2, 3), (1, 3)]),  # wild
])
def test_component_labels_are_module_dims(n, arrows):
    from admseq.graphs import quiver_from_arrows
    from admseq.reps import build_module
    from admseq.sequences import AdmissibleSeq, parse_letters

    q = quiver_from_arrows(n, arrows)
    labels = LABEL.findall(export_component(q, 3))
    assert len(labels) == 3 * n
    reduced = [(s, dims) for s, dims in labels if dims]
    assert reduced
    for s, dims in reduced:
        module = build_module(AdmissibleSeq(q, parse_letters(s)))
        assert module.dims == tuple(map(int, dims.split(", ")))


def test_component_on_a_wild_quiver_reads_roots():
    """Six levels of a wild quiver, where building the modules of the
    last level is out of reach: every label is the column x_s of the
    prefix product sigma_{x_1} ... sigma_{x_{s-1}}."""
    from admseq.graphs import quiver_from_arrows

    from oracles import word_matrix

    q = quiver_from_arrows(3, [(1, 2), (1, 2), (2, 3), (1, 3)])
    cartan = q.graph.cartan()
    labels = LABEL.findall(export_component(q, 6))
    assert len(labels) == 18
    for s, dims in labels:
        letters = tuple(map(int, s.split(",")))
        prefix = word_matrix(cartan, letters[-2::-1])
        assert dims == ", ".join(str(row[letters[-1] - 1]) for row in prefix)
    assert labels[-1] == ("3,2,1,3,2,1,3,2,1,3,2,1,3,2,1,3", "1537, 3219, 4059")



# ------------------------------------------------------------- fuzzing

# the verbs whose output is a checked property: only these may exit 1
VERDICT_VERBS = {"check-seq", "equiv", "preceq", "reduced", "principal-reduced",
                 "coxeter-check", "finite", "sortable", "preproj"}

JUNK = st.sampled_from([None, True, -1, 0, 7, 1.5, "p/0", "1e5", "1/2", "x", [], {},
                        [[1, 7]], [-1, 2], [[1, 2], [2, 1]]])


@st.composite
def corrupted(draw, value):
    """The JSON value, or, half the time, a copy with one node replaced
    by junk or one dict key dropped."""
    if draw(st.booleans()):
        return value
    value = root = json.loads(json.dumps({"": value}))
    key = ""
    while isinstance(value[key], (list, dict)) and value[key] and draw(st.booleans()):
        value = value[key]
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
    if isinstance(value, dict) and key and draw(st.booleans()):
        del value[key]
    else:
        value[key] = draw(JUNK)
    return root[""]


@st.composite
def small_quivers(draw, tame):
    """(n, arrows) on n <= 4, oriented along a random ranking, so acyclic.
    A tame one is a tree, a cycle or the Kronecker quiver, whose Coxeter
    orbits grow at most linearly; any other is a tree plus at most one
    edge, which may make it wild."""
    n = draw(st.integers(2, 4))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    if tame and draw(st.booleans()):
        edges = [(v, v % n + 1) for v in range(1, n + 1)] if n > 2 else [(1, 2), (1, 2)]
    elif not tame:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges += draw(st.lists(st.sampled_from(pairs), max_size=1))
    rank = draw(st.permutations(range(1, n + 1)))
    return n, [(u, v) if rank[u - 1] < rank[v - 1] else (v, u) for u, v in edges]


@st.composite
def module_data(draw):
    """(n, arrows, module JSON) over a tame quiver, dims <= 3, with small
    rational entries."""
    n, arrows = draw(small_quivers(tame=True))
    dims = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    entry = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3/2"]))
    maps = [{"arrow": i, "matrix": [[draw(entry) for _ in range(dims[s - 1])]
                                    for _ in range(dims[e - 1])]}
            for i, (s, e) in enumerate(arrows)]
    return n, arrows, {"quiver": {"n": n, "arrows": arrows}, "dims": dims, "maps": maps}


@st.composite
def letter_literals(draw, n, arrows):
    """A letter literal: half the time a walk of at most 8 sinks of the
    arrows, else random ids or text."""
    if draw(st.booleans()):
        walk = []
        for _ in range(draw(st.integers(0, 8))):
            walk.append(draw(st.sampled_from(raw_sinks(n, arrows))))
            arrows = raw_reflect(arrows, walk[-1])
        return ",".join(map(str, walk))
    return draw(st.one_of(st.lists(st.integers(-1, 5), max_size=8).map(
        lambda w: ",".join(map(str, w))), st.sampled_from(["a", "1,,2", "1.5", " "])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(VERBS)), st.data())
def test_fuzzed_command_lines_exit_0_1_or_2(fuzz_dir, verb, data):
    # any command line and any JSON file ends in an answer, a false
    # verdict or an input error, never in a traceback; a flag is left out
    # one time in ten
    flags = VERBS[verb][0].split()
    n, arrows = data.draw(small_quivers(tame=False))
    if "module" in flags:  # a walk on the module's quiver
        n, arrows, module = data.draw(module_data())
        (fuzz_dir / "module.json").write_text(json.dumps(data.draw(corrupted(module))))
    cartan = raw_graph(n, arrows)[1]
    quiver = data.draw(st.sampled_from([{"n": n}, {"cartan": cartan}]))
    (fuzz_dir / "quiver.json").write_text(
        json.dumps(data.draw(corrupted({**quiver, "arrows": arrows}))))
    (fuzz_dir / "cartan.json").write_text(json.dumps(data.draw(corrupted({"cartan": cartan}))))
    draws = {
        "seq": letter_literals(n, arrows), "other": letter_literals(n, arrows),
        "word": letter_literals(n, arrows),
        "size": st.integers(-1, 5), "vertex": st.integers(-1, 5), "power": st.integers(-1, 8),
        "budget": st.integers(-1, 8), "levels": st.integers(-1, 3),
        "format": st.sampled_from(["text", "json", "dot"]),
    }
    argv = [verb]
    for flag in flags:
        if data.draw(st.integers(0, 9)):
            value = draws[flag] if flag in draws else st.just(str(fuzz_dir / f"{flag}.json"))
            argv += [FLAGS[flag][0][0], str(data.draw(value))]
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2, argv
        return
    assert code in (0, 1, 2), argv
    assert code != 1 or verb in VERDICT_VERBS, argv
