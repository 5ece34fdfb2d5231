"""Command-line front end.

Every verb wraps exactly one library operation.  Exit codes: 0 for
success or a true checked property, 1 for a false checked property, 2
for input errors.  Sequence and word literals are comma-separated
vertex ids; the first letter always acts first.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphs, reps, sequences, weyl
from .errors import AdmseqError, NotAdmissibleError


def _load_quiver(args):
    if getattr(args, "quiver", None):
        return graphs.load_quiver(args.quiver)
    raise AdmseqError("a quiver file is required (-q/--quiver)")


def _load_cartan(args):
    if getattr(args, "cartan", None):
        with open(args.cartan) as fh:
            data = json.load(fh)
        return tuple(tuple(row) for row in data["cartan"])
    if getattr(args, "quiver", None):
        return graphs.load_quiver(args.quiver).graph.cartan()
    raise AdmseqError("a Cartan file (--cartan) or quiver file (-q) is required")


def _seq(args, attr="seq"):
    q = _load_quiver(args)
    return sequences.AdmissibleSeq(q, sequences.parse_letters(getattr(args, attr)))


def _emit(args, text, payload):
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _letters_str(seq):
    return ",".join(map(str, seq.letters))


def cmd_check_seq(args):
    q = _load_quiver(args)
    try:
        seq, final = sequences.check_admissible(q, sequences.parse_letters(args.seq))
    except NotAdmissibleError as exc:
        _emit(args, f"not admissible: {exc}", {"admissible": False, "index": exc.index})
        return 1
    _emit(
        args,
        f"admissible; final arrows {list(final.arrows)}",
        {"admissible": True, "final_arrows": [list(a) for a in final.arrows]},
    )
    return 0


def cmd_canon(args):
    form = sequences.canonical_form(_seq(args))
    _emit(args, form.render(), {"segments": [list(s) for s in form.segments]})
    return 0


def cmd_mult(args):
    m = _seq(args).multiplicities()
    _emit(args, "(" + ",".join(map(str, m)) + ")", {"multiplicities": list(m)})
    return 0


def _bool_result(args, value, payload_key):
    _emit(args, "true" if value else "false", {payload_key: value})
    return 0 if value else 1


def cmd_equiv(args):
    return _bool_result(
        args, sequences.equivalent(_seq(args), _seq(args, "other")), "equivalent"
    )


def cmd_preceq(args):
    return _bool_result(
        args, sequences.precedes(_seq(args), _seq(args, "other")), "precedes"
    )


def cmd_meet(args):
    out = sequences.meet(_seq(args), _seq(args, "other"))
    _emit(args, _letters_str(out), {"letters": list(out.letters)})
    return 0


def cmd_join(args):
    out = sequences.join(_seq(args), _seq(args, "other"))
    _emit(args, _letters_str(out), {"letters": list(out.letters)})
    return 0


def cmd_complement(args):
    w, u, v = sequences.complement_pair(_seq(args), _seq(args, "other"))
    _emit(
        args,
        f"meet {_letters_str(w)}; U {_letters_str(u)}; V {_letters_str(v)}",
        {
            "meet": list(w.letters),
            "u": list(u.letters),
            "v": list(v.letters),
            "base_arrows": [list(a) for a in w.final_quiver.arrows],
        },
    )
    return 0


def cmd_principal(args):
    out = sequences.principal(_load_quiver(args), args.size, args.vertex)
    _emit(args, _letters_str(out), {"letters": list(out.letters)})
    return 0


def cmd_decompose(args):
    pairs = sequences.principal_decomposition(_seq(args))
    _emit(
        args,
        "; ".join(f"({h},{v})" for h, v in pairs),
        {"pairs": [[h, v] for h, v in pairs]},
    )
    return 0


def cmd_tail(args):
    new_q, tail, (size, x) = sequences.principal_tail(_seq(args))
    _emit(
        args,
        f"T {_letters_str(tail)} on arrows {list(new_q.arrows)}; ({size},{x})",
        {
            "tail": list(tail.letters),
            "arrows": [list(a) for a in new_q.arrows],
            "size": size,
            "vertex": x,
        },
    )
    return 0


def cmd_psi(args):
    level, x = sequences.psi((args.size, args.vertex))
    _emit(args, f"({level},{x})", {"level": level, "vertex": x})
    return 0


def cmd_word(args):
    word = weyl.word_of(_seq(args))
    elem = word.evaluate()
    _emit(
        args,
        ",".join(map(str, word.letters)),
        {"letters": list(word.letters), "matrix": [list(r) for r in elem.matrix]},
    )
    return 0


def cmd_reduced(args):
    cartan = _load_cartan(args)
    word = weyl.WeylWord(cartan, sequences.parse_letters(args.word))
    ok = weyl.is_reduced(word)
    text = f"reduced (length {len(word)})" if ok else "not reduced"
    _emit(args, text, {"reduced": ok, "length": len(word)})
    return 0 if ok else 1


def cmd_principal_reduced(args):
    return _bool_result(
        args, weyl.principal_reduced_criterion(_seq(args)), "reduced"
    )


def cmd_coxeter_check(args):
    rows = weyl.coxeter_powers_reduced(_seq(args), args.power)
    text = "\n".join(
        f"m={m}: {'reduced' if ok else 'not reduced'} (word length {length})"
        for m, ok, length in rows
    )
    _emit(
        args,
        text,
        {"powers": [{"m": m, "reduced": ok, "length": length} for m, ok, length in rows]},
    )
    return 0 if all(ok for _, ok, _ in rows) else 1


def cmd_finite(args):
    cartan = _load_cartan(args)
    g = graphs.graph_from_cartan(cartan)
    return _bool_result(args, weyl.weyl_is_finite(g), "finite")


def _sorting_inputs(args):
    cartan = _load_cartan(args)
    c_word = weyl.WeylWord(cartan, sequences.parse_letters(args.word))
    target = weyl.WeylWord(cartan, sequences.parse_letters(args.other)).evaluate()
    return c_word, target


def cmd_sorting_word(args):
    c_word, target = _sorting_inputs(args)
    sw = weyl.c_sorting_word(c_word, target) if not target.is_identity() else weyl.SortingWord([])
    _emit(args, sw.render(), {"blocks": [list(b) for b in sw.blocks]})
    return 0


def cmd_sortable(args):
    c_word, target = _sorting_inputs(args)
    return _bool_result(args, weyl.is_c_sortable(c_word, target), "sortable")


def cmd_module(args):
    m = reps.build_module(_seq(args))
    _emit(args, f"dims {m.dims}", reps.rep_to_dict(m))
    return 0


def cmd_apply(args):
    m = reps.load_rep(args.module)
    out = reps.apply_sequence(
        m, sequences.AdmissibleSeq(m.quiver, sequences.parse_letters(args.seq))
    )
    _emit(args, f"dims {out.dims}", reps.rep_to_dict(out))
    return 0


def cmd_phi_plus(args):
    out = reps.coxeter_plus(reps.load_rep(args.module))
    _emit(args, f"dims {out.dims}", reps.rep_to_dict(out))
    return 0


def cmd_preproj(args):
    result = reps.is_preprojective(reps.load_rep(args.module), args.power)
    if isinstance(result, reps.Preprojective):
        _emit(args, f"preprojective({result.m})", {"preprojective": True, "power": result.m})
        return 0
    _emit(args, "undecided", {"preprojective": None})
    return 1


def cmd_sm(args):
    out = reps.shortest_annihilator_indec(reps.load_rep(args.module), args.power)
    _emit(args, _letters_str(out), {"letters": list(out.letters)})
    return 0


def cmd_sm_brute(args):
    m = reps.load_rep(args.module)
    if args.other:
        ann = sequences.AdmissibleSeq(m.quiver, sequences.parse_letters(args.other))
    else:
        k = reps.canonical_complete_sequence(m.quiver)
        letters = ()
        for _ in range(args.power):
            letters = letters + k.letters
            ann = sequences.AdmissibleSeq(m.quiver, letters)
            if reps.apply_sequence(m, ann).is_zero():
                break
        else:
            raise AdmseqError("no annihilating power of the complete sequence found")
    out = reps.shortest_annihilator_bruteforce(m, ann)
    _emit(args, _letters_str(out), {"letters": list(out.letters)})
    return 0


def export_component(quiver, levels):
    """DOT rendering of the first ``levels`` levels of the translation
    quiver, labeled with principal sequences, reducedness, and module
    dimension vectors."""
    lines = ["digraph component {", "  rankdir=LR;"]
    for level in range(levels):
        for x in quiver.vertices():
            s = sequences.principal(quiver, level + 1, x)
            reduced = weyl.principal_reduced_criterion(s)
            label = f"({level},{x})\\nS={_letters_str(s)}"
            if reduced:
                dims = reps.build_module(s).dims
                label += f"\\nreduced, dim {tuple(dims)}"
            else:
                label += "\\nnot reduced"
            lines.append(f'  "n{level}_{x}" [label="{label}"];')
    for level in range(levels):
        for u, v in quiver.arrows:
            lines.append(f'  "n{level}_{v}" -> "n{level}_{u}";')
            if level + 1 < levels:
                lines.append(f'  "n{level}_{u}" -> "n{level + 1}_{v}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_component(args):
    print(export_component(_load_quiver(args), args.levels))
    return 0


def _add_common(p, quiver=True, cartan=False, seq=False, other=False, word=False,
                output=True):
    if quiver:
        p.add_argument("-q", "--quiver", help="quiver JSON file")
    if cartan:
        p.add_argument("--cartan", help="Cartan matrix JSON file")
    if seq:
        p.add_argument("-s", "--seq", required=True, help="sequence literal, e.g. 3,2,3")
    if other:
        p.add_argument("-t", "--other", help="second sequence/word literal")
    if word:
        p.add_argument("-w", "--word", required=True, help="word literal, first letter acts first")
    if output:
        p.add_argument("--format", choices=["text", "json"], default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admseq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name)
        _add_common(p, **kwargs)
        p.set_defaults(func=func)
        return p

    add("check-seq", cmd_check_seq, seq=True)
    add("canon", cmd_canon, seq=True)
    add("mult", cmd_mult, seq=True)
    for name, func in [("equiv", cmd_equiv), ("preceq", cmd_preceq),
                       ("meet", cmd_meet), ("join", cmd_join),
                       ("complement", cmd_complement)]:
        p = add(name, func, seq=True, other=True)
    p = add("principal", cmd_principal)
    p.add_argument("-r", "--size", type=int, required=True)
    p.add_argument("-x", "--vertex", type=int, required=True)
    add("decompose", cmd_decompose, seq=True)
    add("tail", cmd_tail, seq=True)
    p = add("psi", cmd_psi, quiver=False)
    p.add_argument("-r", "--size", type=int, required=True)
    p.add_argument("-x", "--vertex", type=int, required=True)
    add("word", cmd_word, seq=True)
    add("reduced", cmd_reduced, cartan=True, word=True)
    add("principal-reduced", cmd_principal_reduced, seq=True)
    p = add("coxeter-check", cmd_coxeter_check, seq=True)
    p.add_argument("-m", "--power", type=int, default=10)
    add("finite", cmd_finite, cartan=True)
    p = add("sorting-word", cmd_sorting_word, cartan=True, word=True)
    p.add_argument("-t", "--other", required=True, help="target word literal")
    p = add("sortable", cmd_sortable, cartan=True, word=True)
    p.add_argument("-t", "--other", required=True, help="target word literal")
    p = add("module", cmd_module, seq=True)
    for name, func in [("apply", None), ("phi-plus", cmd_phi_plus),
                       ("preproj", cmd_preproj), ("sm", cmd_sm),
                       ("sm-brute", cmd_sm_brute)]:
        p = sub.add_parser(name)
        p.add_argument("--module", required=True, help="representation JSON file")
        if name == "apply":
            p.add_argument("-s", "--seq", required=True)
            p.set_defaults(func=cmd_apply)
        else:
            p.set_defaults(func=func)
        if name in ("preproj", "sm", "sm-brute"):
            p.add_argument("-m", "--power", type=int, default=64)
        if name == "sm-brute":
            p.add_argument("-t", "--other", help="known annihilating sequence")
        p.add_argument("--format", choices=["text", "json"], default="text")
    p = add("component", cmd_component, output=False)
    p.add_argument("--levels", type=int, required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AdmseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
