"""Command-line front end.

Every verb wraps exactly one library operation.  Exit codes: 0 for
success or a true checked property, 1 for a false checked property, 2
for input errors.  Sequence and word literals are comma-separated
vertex ids; the first letter always acts first.

Each verb is one row of ``VERBS``: the flags it takes, named from the
shared table ``FLAGS``; the library call that turns the parsed
arguments into a result; and the output shape that turns the result
into (text, JSON payload, verdict).  The shapes ``as_letters``,
``as_module`` and ``as_truth`` serve the verbs that repeat; a false
verdict exits 1.  A module's payload is the module itself, written out
with ``reps.rep_to_dict`` only under ``--format json``: text mode prints
its dims alone.  ``build_parser`` and ``main`` are loops over the
tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphs, reps, sequences, weyl
from .errors import AdmseqError, NotAdmissibleError, _int

parse = sequences.parse_letters


def _quiver(args):
    if args.quiver:
        return graphs.load_quiver(args.quiver)
    raise AdmseqError("a quiver file is required (-q/--quiver)")


def _graph(args):
    """The graph of the --cartan file (validated by graph_from_cartan),
    else that of the -q quiver file."""
    if args.cartan:
        with open(args.cartan) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise AdmseqError('a Cartan file holds {"cartan": [[...]]}')
        return graphs.graph_from_cartan(data.get("cartan"))
    if args.quiver:
        return graphs.load_quiver(args.quiver).graph
    raise AdmseqError("a Cartan file (--cartan) or quiver file (-q) is required")


def _seq(args):
    return sequences.AdmissibleSeq(_quiver(args), parse(args.seq))


def _pair(args):
    """The -s and -t sequences, on one load of the quiver."""
    q = _quiver(args)
    return (sequences.AdmissibleSeq(q, parse(args.seq)),
            sequences.AdmissibleSeq(q, parse(args.other)))


def _joined(letters):
    return ",".join(map(str, letters))


def as_letters(seq):
    return _joined(seq.letters), {"letters": list(seq.letters)}, True


def as_module(m):
    return f"dims {m.dims}", m, True


def as_truth(key):
    return lambda value: ("true" if value else "false", {key: value}, value)


def _admissibility(final):
    if isinstance(final, NotAdmissibleError):
        return f"not admissible: {final}", {"admissible": False, "index": final.index}, False
    return (f"admissible; final arrows {list(final.arrows)}",
            {"admissible": True, "final_arrows": [list(a) for a in final.arrows]}, True)


def _complement(result):
    w, u, v = result
    text = f"meet {_joined(w.letters)}; U {_joined(u.letters)}; V {_joined(v.letters)}"
    return text, {"meet": list(w.letters), "u": list(u.letters), "v": list(v.letters),
                  "base_arrows": [list(a) for a in w.final_quiver.arrows]}, True


def _tail(result):
    new_q, tail, (size, x) = result
    text = f"T {_joined(tail.letters)} on arrows {list(new_q.arrows)}; ({size},{x})"
    return text, {"tail": list(tail.letters), "arrows": [list(a) for a in new_q.arrows],
                  "size": size, "vertex": x}, True


def _word_matrix(result):
    word, elem = result
    return (_joined(word.letters),
            {"letters": list(word.letters), "matrix": [list(r) for r in elem.matrix]}, True)


def _reducedness(result):
    ok, length = result
    text = f"reduced (length {length})" if ok else "not reduced"
    return text, {"reduced": ok, "length": length}, ok


def _powers(rows):
    text = "\n".join(
        f"m={m}: {'reduced' if ok else 'not reduced'} (word length {length})"
        for m, ok, length in rows
    )
    payload = {"powers": [{"m": m, "reduced": ok, "length": length} for m, ok, length in rows]}
    return text, payload, all(ok for _, ok, _ in rows)


def _preprojective(result):
    if isinstance(result, reps.Preprojective):
        return f"preprojective({result.m})", {"preprojective": True, "power": result.m}, True
    return "undecided", {"preprojective": None}, False


def _check_seq(args):
    q = _quiver(args)
    try:
        return sequences.check_admissible(q, parse(args.seq))[1]
    except NotAdmissibleError as exc:
        return exc


def _word(args):
    word = weyl.word_of(_seq(args))
    return word, word.evaluate()


def _reduced(args):
    word = weyl.WeylWord(_graph(args), parse(args.word))
    return weyl.is_reduced(word), len(word)


def _sorting(args):
    """The Coxeter word -w and the target word -t, sorted as a word."""
    graph = _graph(args)
    return weyl.WeylWord(graph, parse(args.word)), weyl.WeylWord(graph, parse(args.other))


def _apply(args):
    m = reps.load_rep(args.module)
    return reps.apply_sequence(m, sequences.AdmissibleSeq(m.quiver, parse(args.seq)))


def _sm_brute(args):
    """Shortest annihilator by descent below the known annihilator -t."""
    m = reps.load_rep(args.module)
    return reps.shortest_annihilator_bruteforce(
        m, sequences.AdmissibleSeq(m.quiver, parse(args.other)))


def export_component(quiver, levels):
    """DOT rendering of the first ``levels`` levels of the translation
    quiver, labeled with principal sequences, reducedness, and module
    dimension vectors, read off the principal roots: dim M(S) is
    sigma_{x_1} ... sigma_{x_{s-1}}(e_{x_s}), so no module is built."""
    levels = _int(levels, "levels")
    if levels < 1:
        raise AdmseqError(f"levels must be at least 1, got {levels}")
    lines = ["digraph component {", "  rankdir=LR;"]
    for level in range(levels):
        for x in quiver.vertices():
            s = sequences.principal(quiver, level + 1, x)
            root = weyl.principal_root(s)
            label = f"({level},{x})\\nS={_joined(s.letters)}"
            label += "\\nnot reduced" if root is None else f"\\nreduced, dim {root}"
            lines.append(f'  "n{level}_{x}" [label="{label}"];')
    for level in range(levels):
        for u, v in quiver.arrows:
            lines.append(f'  "n{level}_{v}" -> "n{level}_{u}";')
            if level + 1 < levels:
                lines.append(f'  "n{level}_{u}" -> "n{level + 1}_{v}";')
    lines.append("}")
    return "\n".join(lines)


FLAGS = {
    "quiver": (("-q", "--quiver"), {"help": "quiver JSON file"}),
    "cartan": (("--cartan",), {"help": "Cartan matrix JSON file"}),
    "module": (("--module",), {"required": True, "help": "representation JSON file"}),
    "seq": (("-s", "--seq"), {"required": True, "help": "sequence literal, e.g. 3,2,3"}),
    "other": (("-t", "--other"), {"required": True, "help": "second sequence, target "
                                  "word, or known annihilating sequence, literal"}),
    "word": (("-w", "--word"), {"required": True,
                                "help": "word literal, first letter acts first"}),
    "size": (("-r", "--size"), {"type": int, "required": True}),
    "vertex": (("-x", "--vertex"), {"type": int, "required": True}),
    "power": (("-m", "--power"), {"type": int, "default": 10}),
    "budget": (("-m", "--power"), {"type": int, "default": 64}),
    "levels": (("--levels",), {"type": int, "required": True}),
    "format": (("--format",), {"choices": ["text", "json"], "default": "text"}),
}

SEQ = "quiver seq format"
PAIR = "quiver seq other format"
SORT = "quiver cartan word other format"

VERBS = {
    "check-seq": (SEQ, _check_seq, _admissibility),
    "canon": (SEQ, lambda a: sequences.canonical_form(_seq(a)),
              lambda f: (f.render(), {"segments": [list(s) for s in f.segments]}, True)),
    "mult": (SEQ, lambda a: _seq(a).multiplicities(),
             lambda m: ("(" + _joined(m) + ")", {"multiplicities": list(m)}, True)),
    "equiv": (PAIR, lambda a: sequences.equivalent(*_pair(a)), as_truth("equivalent")),
    "preceq": (PAIR, lambda a: sequences.precedes(*_pair(a)), as_truth("precedes")),
    "meet": (PAIR, lambda a: sequences.meet(*_pair(a)), as_letters),
    "join": (PAIR, lambda a: sequences.join(*_pair(a)), as_letters),
    "complement": (PAIR, lambda a: sequences.complement_pair(*_pair(a)), _complement),
    "principal": ("quiver size vertex format",
                  lambda a: sequences.principal(_quiver(a), a.size, a.vertex), as_letters),
    "decompose": (SEQ, lambda a: sequences.principal_decomposition(_seq(a)),
                  lambda pairs: ("; ".join(f"({h},{v})" for h, v in pairs),
                                 {"pairs": [[h, v] for h, v in pairs]}, True)),
    "tail": (SEQ, lambda a: sequences.principal_tail(_seq(a)), _tail),
    "psi": ("size vertex format", lambda a: sequences.psi((a.size, a.vertex)),
            lambda p: (f"({p[0]},{p[1]})", {"level": p[0], "vertex": p[1]}, True)),
    "word": (SEQ, _word, _word_matrix),
    "reduced": ("quiver cartan word format", _reduced, _reducedness),
    "principal-reduced": (SEQ, lambda a: weyl.principal_reduced_criterion(_seq(a)),
                          as_truth("reduced")),
    "coxeter-check": ("quiver seq power format",
                      lambda a: weyl.coxeter_powers_reduced(_seq(a), a.power), _powers),
    "finite": ("quiver cartan format", lambda a: weyl.weyl_is_finite(_graph(a)),
               as_truth("finite")),
    "sorting-word": (SORT, lambda a: weyl.c_sorting_word(*_sorting(a)),
                     lambda sw: (sw.render(), {"blocks": [list(b) for b in sw.blocks]}, True)),
    "sortable": (SORT, lambda a: weyl.is_c_sortable(*_sorting(a)), as_truth("sortable")),
    "module": (SEQ, lambda a: reps.build_module(_seq(a)), as_module),
    "apply": ("module seq format", _apply, as_module),
    "phi-plus": ("module format", lambda a: reps.coxeter_plus(reps.load_rep(a.module)),
                 as_module),
    "preproj": ("module budget format",
                lambda a: reps.is_preprojective(reps.load_rep(a.module), a.power),
                _preprojective),
    "sm": ("module budget format",
           lambda a: reps.shortest_annihilator_indec(reps.load_rep(a.module), a.power),
           as_letters),
    "sm-brute": ("module other format", _sm_brute, as_letters),
    "component": ("quiver levels", lambda a: export_component(_quiver(a), a.levels),
                  lambda dot: (dot, None, True)),
}


def build_parser(verbs=VERBS):
    """The parser with a subparser for each of ``verbs``; its usage names
    every verb whichever are built."""
    parser = argparse.ArgumentParser(
        prog="admseq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    every = None if verbs is VERBS else "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=every)
    for name in verbs:
        p = sub.add_parser(name)
        for flag in VERBS[name][0].split():
            names, options = FLAGS[flag]
            p.add_argument(*names, **options)
    return parser


def main(argv=None):
    """Run one verb; only its subparser is built when the verb comes first,
    as it must to run, and every verb's otherwise, for help and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[:1] if argv and argv[0] in VERBS else VERBS).parse_args(argv)
    _, call, shape = VERBS[args.verb]
    try:
        text, payload, verdict = shape(call(args))
    except (AdmseqError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an input too large to answer, not a false property
        print("error: out of memory", file=sys.stderr)
        return 2
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, default=reps.rep_to_dict))
    else:
        print(text)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
