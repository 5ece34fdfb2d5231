"""The benchmark workloads.

Each workload's setup turns a seed into a list of operations.  An
operation calls the library once (or runs the ``admseq`` command once),
names the typed error it must raise when the input is invalid on
purpose, and carries a check of its output that needs no reference run:
every expected value comes from the integer oracles in ``gen``.

Input sizes follow fixed ladders and the seed only fills in structure
(graphs, orientations, walks, vertices), so the work one pass implies
stays comparable from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import gen
from admseq import cli, graphs, reps, sequences, weyl
from admseq.errors import NotAdmissibleError, UndecidedError


class CheckError(Exception):
    """An output disagrees with its oracle."""


def need(cond, what):
    if not cond:
        raise CheckError(what)


class Op:
    """One operation of a pass.

    ``call`` runs it; ``check`` receives the output, or the exception
    when ``expect`` names the error class the input must raise.  The cli
    workload also sets ``inproc``, the same argv through ``cli.main`` in
    this process.
    """

    __slots__ = ("kind", "call", "check", "expect", "inproc")

    def __init__(self, kind, call, check, expect=None, inproc=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.expect = expect
        self.inproc = inproc


def spaced(k, lo, hi):
    """k integers evenly spaced over [lo, hi], in increasing order."""
    return [lo + (hi - lo) * i // max(k - 1, 1) for i in range(k)]


def ladder(rng, k, lo, hi):
    """k integers evenly spaced over [lo, hi], in random order."""
    out = spaced(k, lo, hi)
    rng.shuffle(out)
    return out


def principal_size(n, arrows, x, length):
    """Smallest r whose principal sequence at x has at least ``length``
    letters."""
    r = 1
    while sum(gen.principal_mult(n, arrows, r, x)) < length and r < 60:
        r += 1
    return r


def family(rng):
    return list(gen.FIXED.values()) + gen.random_family(rng)


def quiver(n, arrows):
    return graphs.quiver_from_arrows(n, arrows)


# ------------------------------------------------------------------ lattice


def _principal_op(n, arrows, r, x):
    expected = gen.principal_mult(n, arrows, r, x)

    def call():
        s = sequences.principal(quiver(n, arrows), r, x)
        return s, sequences.is_principal(s)

    def check(out):
        s, info = out
        need(gen.first_non_sink(arrows, s.letters) is None, "principal admissible")
        need(s.multiplicities() == expected, "principal multiplicities")
        need(info[0] == r and gen.reachable(arrows, info[1]) == gen.reachable(arrows, x),
             "is_principal")
    return Op("principal", call, check)


def _lattice_ops(rng, n, arrows):
    # Walk lengths go to the roles below in a fixed order, shortest to the
    # validations and longest to the decompositions, so that the seed
    # does not change which operations get the long walks.
    walks = [gen.sink_walk(rng, n, arrows, k) for k in spaced(12, 10, 80)]
    ops = []

    def validate(letters):
        def check(s):
            need(s.multiplicities() == gen.mult(n, letters), "multiplicities")
            need(sorted(s.final_quiver.arrows) == sorted(gen.reflect_all(arrows, letters)),
                 "final orientation")
        return Op("validate", lambda: sequences.AdmissibleSeq(quiver(n, arrows), letters), check)

    def invalid(letters):
        # Replace one letter by a vertex that is not a sink at that point.
        i = rng.randrange(len(letters))
        running = gen.reflect_all(arrows, letters[:i])
        bad = [v for v in range(1, n + 1) if not gen.is_sink(running, v)]
        letters = letters[:i] + (rng.choice(bad),) + letters[i + 1:]
        index = gen.first_non_sink(arrows, letters)

        def check(exc):
            need(exc.index == index and exc.letter == letters[index - 1], "error position")
        return Op("validate", lambda: sequences.AdmissibleSeq(quiver(n, arrows), letters),
                  check, expect=NotAdmissibleError)

    def canon(letters):
        def check(form):
            flat = tuple(x for seg in form.segments for x in seg)
            need(gen.first_non_sink(arrows, flat) is None, "canonical form admissible")
            need(gen.mult(n, flat) == gen.mult(n, letters), "canonical multiplicities")
        return Op("canonical_form", lambda: sequences.canonical_form(
            sequences.AdmissibleSeq(quiver(n, arrows), letters)), check)

    def compare(s, t):
        ms, mt = gen.mult(n, s), gen.mult(n, t)

        def call():
            q = quiver(n, arrows)
            u, v = sequences.AdmissibleSeq(q, s), sequences.AdmissibleSeq(q, t)
            return sequences.equivalent(u, v), sequences.precedes(u, v)

        def check(out):
            need(out == (ms == mt, all(p <= r for p, r in zip(ms, mt))), "equivalent/precedes")
        return Op("equivalent_precedes", call, check)

    def lattice(name, s, t):
        ms, mt = gen.mult(n, s), gen.mult(n, t)
        low = tuple(map(min, ms, mt))
        high = tuple(map(max, ms, mt))

        def call():
            q = quiver(n, arrows)
            u, v = sequences.AdmissibleSeq(q, s), sequences.AdmissibleSeq(q, t)
            return getattr(sequences, name)(u, v)

        def check_one(out, expected=high if name == "join" else low):
            need(gen.first_non_sink(arrows, out.letters) is None, f"{name} admissible")
            need(out.multiplicities() == expected, f"{name} = min/max")

        def check_pair(out):
            w, u, v = out
            check_one(w, low)
            base = gen.reflect_all(arrows, w.letters)
            for part, m in ((u, ms), (v, mt)):
                need(gen.first_non_sink(base, part.letters) is None, "tail admissible")
                need(part.multiplicities() == tuple(p - q for p, q in zip(m, low)), "tail mult")
            need(not set(u.letters) & set(v.letters), "tails disjoint")
        return Op(name, call, check_pair if name == "complement_pair" else check_one)

    def decompose(letters):
        m = gen.mult(n, letters)

        def check(pairs):
            vecs = [gen.principal_mult(n, arrows, h, v) for h, v in pairs]
            need(tuple(max(col) for col in zip(*vecs)) == m, "join of principals")
        return Op("principal_decomposition", lambda: sequences.principal_decomposition(
            sequences.AdmissibleSeq(quiver(n, arrows), letters)), check)

    def tail(r, x):
        letters = gen.principal_letters(rng, arrows, r, x)

        def check(out):
            new_q, t, (size, y) = out
            base = gen.reflect(arrows, letters[0])
            need(sorted(new_q.arrows) == sorted(base), "reflected quiver")
            need(t.letters == letters[1:], "tail letters")
            need(t.multiplicities() == gen.principal_mult(n, base, size, y), "tail principal")
        return Op("principal_tail", lambda: sequences.principal_tail(
            sequences.AdmissibleSeq(quiver(n, arrows), letters)), check)

    def nq(a, b):
        return Op("nq_reachable", lambda: sequences.nq_reachable(quiver(n, arrows), a, b),
                  lambda out: need(out == gen.nq_reachable(arrows, a, b), "nq_reachable"))

    ops += [validate(w) for w in walks[:3]] + [invalid(walks[3])]
    ops += [canon(w) for w in walks[4:6]]
    ops += [compare(walks[6], walks[7])]
    ops += [lattice(name, walks[8], walks[9]) for name in ("meet", "join", "complement_pair")]
    ops += [decompose(w) for w in walks[10:12]]
    for length in ladder(rng, 3, 10, 80):
        x = rng.randrange(1, n + 1)
        ops.append(_principal_op(n, arrows, principal_size(n, arrows, x, length), x))
    for length in ladder(rng, 2, 10, 80):
        x = rng.randrange(1, n + 1)
        ops.append(tail(principal_size(n, arrows, x, length), x))
    for level in ladder(rng, 2, 2, 10):
        ops.append(nq((rng.randrange(2), rng.randrange(1, n + 1)), (level, rng.randrange(1, n + 1))))
    return ops


# (quiver, r, x) of larger principal sequences, 128-160 letters: their
# sizes do not depend on the seed and each outlasts every seeded
# operation, so latency_tail_ms (the 11th slowest) falls on one of them.
LARGE_PRINCIPALS = tuple((name, r, x) for name in ("A8", "affine_A7")
                         for r, x in ((16, 1), (16, 5), (18, 3), (18, 8), (20, 2), (20, 6)))


def setup_lattice(rng):
    ops = []
    for n, arrows in family(rng):
        ops += _lattice_ops(rng, n, arrows)
    for name, r, x in LARGE_PRINCIPALS:
        ops.append(_principal_op(*gen.FIXED[name], r, x))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------- weyl


def _weyl_ops(rng, n, arrows):
    a = gen.cartan(n, arrows)
    q = quiver(n, arrows)
    complete = gen.complete_sequence(rng, n, arrows)
    scan = weyl.WeylWord(a, tuple(reversed(complete)))

    def principal_letters(length):
        x = rng.randrange(1, n + 1)
        return gen.principal_letters(rng, arrows, principal_size(n, arrows, x, length), x)

    def reduced(letters):
        word = weyl.WeylWord(a, letters)
        expected = gen.is_reduced(a, letters)
        return Op("is_reduced", lambda: weyl.is_reduced(word),
                  lambda out: need(out == expected, "is_reduced"))

    def length(letters):
        word = weyl.WeylWord(a, letters)
        full = gen.is_reduced(a, letters)

        def check(out):
            need(out <= len(letters) and (len(letters) - out) % 2 == 0, "length parity")
            need((out == len(letters)) == full, "length of a reduced word")
        return Op("length_of_word", lambda: weyl.length_of_word(word), check)

    def sorting(letters):
        target = weyl.WeylElement(a, gen.product(a, letters))

        def call():
            return weyl.c_sorting_word(scan, target), weyl.is_c_sortable(scan, target)

        def check(out):
            sw, sortable = out
            need(len(sw.letters) == len(letters), "sorting word length")
            need(gen.product(a, sw.letters) == target.matrix, "sorting word value")
            need(sortable, "inverse of a principal word is c-sortable")
        return Op("c_sorting_word", call, check)

    def criterion(letters):
        s = sequences.AdmissibleSeq(q, letters)
        expected = gen.is_reduced(a, letters)
        return Op("principal_reduced_criterion", lambda: weyl.principal_reduced_criterion(s),
                  lambda out: need(out == expected, "principal_reduced_criterion"))

    ops = []
    for k in ladder(rng, 6, 10, 80):
        ops.append(reduced(complete * max(1, k // n)))
    for k in ladder(rng, 6, 10, 80):
        ops.append(reduced(principal_letters(k)))
    for k in ladder(rng, 6, 10, 80):
        ops.append(reduced(tuple(rng.randrange(1, n + 1) for _ in range(k))))
    for k in ladder(rng, 6, 10, 80):
        ops.append(reduced(gen.random_reduced_word(rng, a, k)))
    ops.append(length(principal_letters(rng.randint(10, 40))))
    ops.append(length(gen.random_reduced_word(rng, a, rng.randint(10, 40))))
    for k in ladder(rng, 2, 5, 40):
        letters = principal_letters(k)
        while not gen.is_reduced(a, letters):
            letters = principal_letters(len(letters) // 2)
        ops.append(sorting(letters))
    ops.append(criterion(principal_letters(rng.randint(10, 80))))
    return q, a, complete, ops


def _powers(q, a, complete, m):
    s = sequences.AdmissibleSeq(q, complete)
    n = len(a)
    bad = gen.first_non_reduced(a, complete * m)
    expected = [(k, bad is None or bad > k * n, k * n) for k in range(1, m + 1)]
    return Op("coxeter_powers_reduced", lambda: weyl.coxeter_powers_reduced(s, m),
              lambda rows: need(rows == expected, "coxeter powers"))


# Coxeter powers on the affine and wild quivers of the fixed family, at
# seed-independent m: the slow end of the weyl latency distribution.
COXETER_POWERS = {"kronecker": (20, 30), "affine_A7": (10,), "wild3": tuple(range(30, 42))}


def setup_weyl(rng):
    ops = []
    fixed = {v: k for k, v in gen.FIXED.items()}
    for n, arrows in family(rng):
        q, a, complete, more = _weyl_ops(rng, n, arrows)
        ops += more
        for m in COXETER_POWERS.get(fixed.get((n, arrows)), ()):
            ops.append(_powers(q, a, complete, m))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------- module_build, sm


DYNKIN = (("A", 6), ("D", 5), ("D", 8), ("E", 6), ("E", 7), ("E", 8))

# (quiver, r, x) of the larger modules: seed-independent sizes, so the
# slow end of the latency distribution means the same thing every run.
# At least eleven of them outlast every Dynkin input, so that
# latency_tail_ms (the 11th slowest operation) falls on one of them.
LARGE_MODULES = (
    ("affine_A7", 5, 2), ("affine_A7", 5, 6), ("affine_A7", 6, 2), ("affine_A7", 6, 3),
    ("affine_A7", 6, 7), ("affine_A7", 7, 1), ("affine_A7", 7, 5), ("kronecker", 5, 1),
    ("kronecker", 6, 1), ("kronecker", 6, 2), ("kronecker", 7, 1), ("kronecker", 7, 2),
    ("kronecker", 8, 1), ("kronecker", 9, 2), ("wild3", 2, 1), ("wild3", 3, 2),
    ("wild3", 3, 3),
)


def dynkin_quivers(rng):
    return [gen.A8] + [(n, gen.orient(rng, n, gen.dynkin_edges(kind, n))) for kind, n in DYNKIN]


def reduced_principals(rng, n, arrows, k, r_max=30, max_len=40):
    """k principal sequences with reduced words, spread evenly over the
    lengths of all of them with r <= r_max and at most max_len letters,
    as (r, x, letters)."""
    a = gen.cartan(n, arrows)
    found = []
    for x in range(1, n + 1):
        for r in range(1, r_max + 1):
            letters = gen.principal_letters(rng, arrows, r, x)
            if len(letters) > max_len or not gen.is_reduced(a, letters):
                break
            found.append((len(letters), r, x, letters))
    found.sort()
    picks = [found[i * (len(found) - 1) // max(k - 1, 1)] for i in range(k)]
    return [(r, x, letters) for _, r, x, letters in picks]


def _module_input(n, arrows, letters):
    return sequences.AdmissibleSeq(quiver(n, arrows), letters)


def module_inputs(rng, small_per_quiver, large, draws=1):
    """(n, arrows, r, x, sequence) for principal sequences with reduced
    words: a stratified sample on ``draws`` seeded orientations of the
    Dynkin quivers plus the given large (quiver, r, x) triples."""
    out = []
    for n, arrows in [q for _ in range(draws) for q in dynkin_quivers(rng)]:
        for r, x, letters in reduced_principals(rng, n, arrows, small_per_quiver):
            out.append((n, arrows, r, x, _module_input(n, arrows, letters)))
    for name, r, x in large:
        n, arrows = gen.FIXED[name]
        letters = gen.principal_letters(rng, arrows, r, x)
        out.append((n, arrows, r, x, _module_input(n, arrows, letters)))
    return out


def setup_module_build(rng):
    ops = []
    # Three draws of the orientations: the median latency depends on
    # them, and more of them make it depend less on the seed.
    for n, arrows, _, _, s in module_inputs(rng, 8, LARGE_MODULES, draws=3):
        expected = gen.root(gen.cartan(n, arrows), s.letters)

        def check(m, s=s, expected=expected):
            need(m.quiver == s.quiver, "module base quiver")
            need(m.dims == expected, "dims(M(S)) = root of S")
        ops.append(Op("build_module", lambda s=s: reps.build_module(s), check))
    rng.shuffle(ops)
    return ops


def regular_kronecker(k, lam):
    """The regular Kronecker module with maps I_k and the Jordan block
    J_k(lam); the Coxeter functor never kills it."""
    q = quiver(*gen.KRONECKER)
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    jordan = [[Fraction(lam if i == j else int(j == i + 1)) for j in range(k)] for i in range(k)]
    return reps.Representation(q, (k, k), [ident, jordan])


ANNIHILATE_MODULES = (
    ("kronecker", 4, 2), ("kronecker", 6, 1), ("kronecker", 8, 2), ("kronecker", 10, 1),
    ("kronecker", 12, 2), ("affine_A7", 3, 3), ("affine_A7", 5, 8), ("affine_A7", 7, 5),
    ("wild3", 2, 1), ("wild3", 2, 3), ("wild3", 3, 3),
)


def setup_annihilate(rng):
    ops = []
    for n, arrows, r, x, s in module_inputs(rng, 4, ANNIHILATE_MODULES):
        m = reps.build_module(s)
        expected = gen.principal_mult(n, arrows, r, x)
        after = gen.coxeter_dims(n, arrows, m.dims)
        ops.append(Op("shortest_annihilator_indec", lambda m=m: reps.shortest_annihilator_indec(m),
                      lambda out, e=expected: need(out.multiplicities() == e,
                                                   "shortest annihilator of M(S_r,x) is S_r,x")))
        ops.append(Op("is_preprojective", lambda m=m: reps.is_preprojective(m),
                      lambda out, r=r: need(out == reps.Preprojective(r), "preprojective power")))
        ops.append(Op("coxeter_plus", lambda m=m: reps.coxeter_plus(m),
                      lambda out, e=after: need(out.dims == e, "Coxeter functor dims")))
    for k, lam in zip((1, 2, 2, 3), rng.sample(range(-3, 4), 4)):
        m = regular_kronecker(k, lam)
        ops.append(Op("shortest_annihilator_indec", lambda m=m: reps.shortest_annihilator_indec(m),
                      lambda exc: None, expect=UndecidedError))
        ops.append(Op("is_preprojective", lambda m=m: reps.is_preprojective(m),
                      lambda out: need(out == reps.Undecided(), "regular module undecided")))
        ops.append(Op("coxeter_plus", lambda m=m: reps.coxeter_plus(m),
                      lambda out, k=k: need(out.dims == (k, k), "regular module dims")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------- cli


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def interval_module(n, i, j):
    """The interval module [i, j] of the linear quiver 1 -> ... -> n, in
    the library's JSON representation format."""
    return {
        "quiver": {"n": n, "arrows": [[v, v + 1] for v in range(1, n)]},
        "dims": [int(i <= v <= j) for v in range(1, n + 1)],
        "maps": [{"arrow": v - 1, "matrix": [[1]]} for v in range(i, j)],
    }


def _run_cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "admseq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def _cli_inproc(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def setup_cli(rng, workdir, src):
    """A fixed verb mix, four calls per verb and pass, on input files
    written to ``workdir``; ``src`` goes on the child's PYTHONPATH."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    quivers = {"A3": gen.A3, **gen.FIXED}
    qfile = {name: _write_json(os.path.join(workdir, f"{name}.json"), {"n": n, "arrows": arrows})
             for name, (n, arrows) in quivers.items()}
    cfile = {name: _write_json(os.path.join(workdir, f"{name}.cartan.json"),
                               {"cartan": gen.cartan(n, arrows)})
             for name, (n, arrows) in quivers.items()}
    small = ("A3", "A8", "kronecker", "wild3")
    ops = []

    def op(kind, argv, check):
        def verify(out):
            need(out == _cli_inproc(argv), "cli stdout equals the in-process answer")
            check(out[0], out[1])
        ops.append(Op(kind, lambda: _run_cli(argv, env), verify, inproc=lambda: _cli_inproc(argv)))

    def principal_mults(n, arrows):
        return {gen.principal_mult(n, arrows, r, x) for r in range(1, n + 2) for x in range(1, n + 1)}

    for name in small:
        n, arrows = quivers[name]
        q = qfile[name]
        s, t = (gen.sink_walk(rng, n, arrows, rng.randint(5, 20)) for _ in range(2))
        lit = lambda letters: ",".join(map(str, letters))  # noqa: E731

        def canon(code, text, n=n, arrows=arrows, s=s):
            flat = tuple(x for seg in json.loads(text)["segments"] for x in seg)
            need(code == 0 and gen.first_non_sink(arrows, flat) is None, "canon admissible")
            need(gen.mult(n, flat) == gen.mult(n, s), "canon multiplicities")
        op("canon", ["canon", "-q", q, "-s", lit(s), "--format", "json"], canon)
        op("mult", ["mult", "-q", q, "-s", lit(s), "--format", "json"],
           lambda code, text, n=n, s=s: need(tuple(json.loads(text)["multiplicities"])
                                             == gen.mult(n, s), "mult"))
        high = tuple(map(max, gen.mult(n, s), gen.mult(n, t)))
        op("join", ["join", "-q", q, "-s", lit(s), "-t", lit(t), "--format", "json"],
           lambda code, text, n=n, high=high: need(
               gen.mult(n, json.loads(text)["letters"]) == high, "join = max"))
        r, x = rng.randint(1, 4), rng.randint(1, n)
        expected = gen.principal_mult(n, arrows, r, x)
        op("principal", ["principal", "-q", q, "-r", str(r), "-x", str(x), "--format", "json"],
           lambda code, text, n=n, e=expected: need(
               gen.mult(n, json.loads(text)["letters"]) == e, "principal multiplicities"))
        a = gen.cartan(n, arrows)
        word = tuple(rng.randrange(1, n + 1) for _ in range(rng.randint(3, 12)))
        red = gen.is_reduced(a, word)
        op("reduced", ["reduced", "--cartan", cfile[name], "-w", lit(word), "--format", "json"],
           lambda code, text, red=red: need(code == (0 if red else 1)
                                            and json.loads(text)["reduced"] == red, "reduced"))
        complete = gen.complete_sequence(rng, n, arrows)
        m = rng.randint(3, 10)
        bad = gen.first_non_reduced(a, complete * m)
        rows = [{"m": k, "reduced": bad is None or bad > k * n, "length": k * n}
                for k in range(1, m + 1)]
        op("coxeter-check", ["coxeter-check", "-q", q, "-s", lit(complete), "-m", str(m),
                             "--format", "json"],
           lambda code, text, rows=rows: need(json.loads(text)["powers"] == rows, "coxeter-check"))
        r, x, letters = rng.choice(reduced_principals(rng, n, arrows, 4, r_max=2, max_len=8))
        root = list(gen.root(a, letters))
        op("module", ["module", "-q", q, "-s", lit(letters), "--format", "json"],
           lambda code, text, root=root: need(json.loads(text)["dims"] == root, "module dims"))

    for k in range(4):
        n = (3, 8)[k % 2]
        i = rng.randint(1, n)
        mfile = _write_json(os.path.join(workdir, f"interval{k}.json"),
                            interval_module(n, i, rng.randint(i, n)))
        arrows = tuple((v, v + 1) for v in range(1, n))
        mults = principal_mults(n, arrows)
        op("sm", ["sm", "--module", mfile, "--format", "json"],
           lambda code, text, n=n, mults=mults: need(
               gen.mult(n, json.loads(text)["letters"]) in mults, "sm returns a principal sequence"))
        op("component", ["component", "-q", qfile["A3"], "--levels", "3"],
           lambda code, text: need(code == 0 and text.count("[label=") == 9, "component nodes"))
    rng.shuffle(ops)
    return ops
