"""Benchmark of the admseq library and command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one at a time

The seed makes the inputs.  Each operation is one call into the library
(or one ``admseq`` subprocess), run by one caller in a closed loop.
With ``--trace 0``, WORKERS single-threaded processes run one after
another, each for an equal share of ``--seconds``: each builds the
inputs, then runs passes over every operation, timing a fixed
reference kernel between operations; the first pass of the first
process checks every output against independent oracles, and every pass
of every process must reproduce its outputs.  The end-to-end metrics of
BENCHMARK.json are printed, with each time taken relative to the
reference kernel next to it (see run_untraced).  With ``--trace 1``,
one process alternates untraced and traced passes and prints the
per-layer metrics and a layer-share report.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 1 when an output is wrong and 2 when the
library sources are missing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("lattice", "weyl", "module_build", "annihilate", "cli")
DEFAULT_SEED = 1
WORKERS = 3  # measuring processes per untraced run, one after another
TAIL_BEYOND = 10
# Median time of reference_kernel() on the host the benchmark was written
# on (2 vCPUs, Python 3.11.7): the scale of the untraced run's times.
REF_MS = 0.75
CAPPED = "wall-clock cap reached"
STARTED = time.monotonic()

# Layers that should hold most of each workload's self time; for cli the
# share is process start and imports against the whole subprocess time.
INTENDED = {
    "lattice": ("graphs", "sequences"),
    "weyl": ("weyl",),
    "module_build": ("linalg", "reps"),
    "annihilate": ("linalg", "reps"),
    "cli": ("startup",),
}


class CapReached(BaseException):
    """The run's wall-clock cap expired; a BaseException so that no
    handler in the library can swallow it."""


def _on_cap(signum, frame):
    raise CapReached()


# ------------------------------------------------------------------ outputs


# Output views through public attributes only, so that internal fields a
# later change adds or drops do not alter the digest.
VIEWS = {
    "Quiver": lambda q: (q.n, q.arrows),
    "AdmissibleSeq": lambda s: (s.quiver, s.letters, s.final_quiver),
    "CanonicalForm": lambda c: (c.quiver, c.segments),
    "Representation": lambda r: (r.quiver, r.dims, r.maps),
    "WeylElement": lambda w: (w.matrix,),
    "SortingWord": lambda w: (w.blocks,),
    "Preprojective": lambda p: (p.m,),
    "Undecided": lambda u: (),
}


def plain(x):
    """An output as nested tuples of ints and strings, through the
    public attributes of the library types only."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(plain(v) for v in x))
    name = type(x).__name__
    if name not in VIEWS:
        raise TypeError(f"unexpected output type {name}")
    return (name,) + plain(VIEWS[name](x))


def reference_kernel():
    """A fixed piece of work that never calls the library: small
    Fraction matrix products and dict updates, like the library's own
    inner loops."""
    m = [[Fraction(i + 2 * j + 1, j + 3) for j in range(4)] for i in range(4)]
    x = m
    for _ in range(3):
        x = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in x]
    d = {}
    for i in range(600):
        d[i % 61] = d.get(i % 61, 0) + i * i
    return x, tuple(sorted(d.items()))


def reference_s():
    """Seconds one reference_kernel() call takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Pass:
    """Latencies (s), latencies in reference-kernel units, output
    fingerprints and failures of one pass."""

    def __init__(self):
        self.lat = []
        self.rel = []
        self.fps = []
        self.failed = []
        self.capped = False

    @property
    def total(self):
        return sum(self.lat)

    def digest(self, ops):
        h = hashlib.sha256()
        for op, fp in zip(ops, self.fps):
            h.update(f"{op.kind}:{fp}\n".encode())
        return h.hexdigest()


def judge(op, out, exc, verify, check_error):
    """(fingerprint, reason for failure or None) of one outcome."""
    if exc is not None:
        if op.expect is None or type(exc) is not op.expect:
            return "-", f"{type(exc).__name__}: {exc}"
        view, target = ("raised", type(exc).__name__, str(exc)), exc
    elif op.expect is not None:
        return "-", f"expected {op.expect.__name__}, got a result"
    else:
        try:
            view = plain(out)
        except TypeError as e:
            return "-", str(e)
        target = out
    fp = hashlib.sha1(repr(view).encode()).hexdigest()
    if verify:
        try:
            op.check(target)
        except check_error as e:
            return fp, f"check failed: {e}"
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as e:
            return fp, f"check could not read the output: {type(e).__name__}: {e}"
    return fp, None


def run_pass(ops, check_error, ref=None, verify=False, tracer=None, inproc=False,
             relative=False):
    """Run every operation once, in order.  ``ref`` holds the first
    pass's fingerprints; ``inproc`` runs the cli workload's in-process
    calls instead of subprocesses; ``relative`` also times
    reference_kernel() between operations and records each latency over
    the mean of the kernel times just before and just after it."""
    res = Pass()
    clock = time.perf_counter
    gc.collect()  # every pass starts from the same collector state
    before = reference_s() if relative else None
    for i, op in enumerate(ops):
        call = op.inproc if inproc and op.inproc else op.call
        try:
            start = clock()
            try:
                out = tracer.run_op(op.kind, call) if tracer else call()
                exc = None
            except Exception as e:  # judged below against the expected error
                out, exc = None, e
            res.lat.append(clock() - start)
            if relative:
                after = reference_s()
                res.rel.append(2 * res.lat[-1] / (before + after))
                before = after
            fp, why = judge(op, out, exc, verify, check_error)
        except CapReached:
            res.failed += [(j, ops[j].kind, CAPPED) for j in range(i, len(ops))]
            res.capped = True
            return res
        if why is None and ref is not None and fp != ref[i]:
            why = "output differs from the first pass"
        res.fps.append(fp)
        if why:
            res.failed.append((i, op.kind, why))
    return res


def tail(lat):
    """(latency, percentile) at the highest percentile that still has
    TAIL_BEYOND samples beyond it."""
    s = sorted(lat)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


# -------------------------------------------------------------------- setup


def load_library():
    """Import the library from this checkout's sources, never from an
    installed copy."""
    pkg = SRC / "admseq" / "__init__.py"
    if not pkg.is_file():
        print(f"error: library sources not found at {pkg.parent}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import admseq

    if Path(admseq.__file__).resolve() != pkg.resolve():
        print(f"error: admseq imported from {admseq.__file__}, not {pkg}", file=sys.stderr)
        sys.exit(2)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setups(workdir):
    import workloads as w

    return {
        "lattice": w.setup_lattice,
        "weyl": w.setup_weyl,
        "module_build": w.setup_module_build,
        "annihilate": w.setup_annihilate,
        "cli": functools.partial(w.setup_cli, workdir=str(workdir), src=str(SRC)),
    }


def timed(times, setup, seed):
    """Build the inputs once; append to ``times`` the seconds it took and
    that time over the median of reference_kernel() times around it."""
    before = [reference_s() for _ in range(5)]
    start = time.perf_counter()
    ops = setup(random.Random(seed))
    took = time.perf_counter() - start
    after = [reference_s() for _ in range(5)]
    times.append((took, took / statistics.median(before + after)))
    return ops


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cap_s(seconds):
    """Wall-clock cap, from process start, of a run that measures for
    ``seconds``: room for the set-ups and for a last pass that overruns."""
    return 2 * seconds + 60.0


def arm_cap(seconds):
    signal.signal(signal.SIGALRM, _on_cap)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1.0))


def attempted_of(runs):
    return sum(len(p.lat) + sum(1 for f in p.failed if f[2] == CAPPED) for p in runs)


# ------------------------------------------------------------------ workers


def measure(args):
    """One measuring process: build the inputs, then run passes until
    ``--seconds`` have passed; the first pass of worker 0 also checks
    every output.  Every pass is timed.  Prints one JSON line."""
    load_library()
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    arm_cap(args.cap)
    setup_times, passes = [], []
    try:
        setup = setups(workdir)[args.workload]
        ops = timed(setup_times, setup, args.seed)
        start = time.perf_counter()
        passes.append(run_pass(ops, workloads.CheckError, verify=args.worker == 0,
                               relative=True))
        while not passes[-1].capped and time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, workloads.CheckError, ref=passes[0].fps,
                                   relative=True))
        if not passes[-1].capped:
            timed(setup_times, setup, args.seed)
    except CapReached:
        if not passes:
            print(f"error: {CAPPED} before any result", file=sys.stderr)
            return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    done = [p for p in passes if not p.capped] or passes
    print(json.dumps({
        "best": [min(lats) for lats in zip(*(p.lat for p in done))],
        "rel": [list(rels) for rels in zip(*(p.rel for p in done))],
        "digest": passes[0].digest(ops),
        "failed": [[k, i, kind, why] for k, p in enumerate(passes) for i, kind, why in p.failed],
        "attempted": attempted_of(passes),
        "setup": setup_times,
        "rss": peak_rss_mb(args.workload),
        "passes": len(passes),
    }))
    return 0


def run_workers(args):
    """WORKERS measuring processes, one after another, each for an
    equal share of ``--seconds``; returns their results."""
    results = []
    for k in range(WORKERS):
        left = cap_s(args.seconds) - (time.monotonic() - STARTED)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--worker", str(k), "--cap", str(left / (WORKERS - k))]
        # A fixed hash seed gives every process the same set and dict
        # layouts, so processes differ only in the host's speed.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left + 10,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
        sys.stderr.write(proc.stderr)
        try:
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            return None
    return results


# ---------------------------------------------------------------------- run


def stored_digest(workload):
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload)


def report(args, spec, digest, problems, attempted, failed, metrics, notes):
    """Print the metrics, the digest and failures, then the JSON line;
    return the exit code."""
    expected = stored_digest(args.workload) if args.seed == DEFAULT_SEED else None
    if expected and expected != digest:
        problems.append(f"digest {digest} differs from the stored {expected}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'error_ratio':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    print(f"  digest {digest}" + (" (stored: match)" if expected == digest else
                                  " (no stored digest for this seed)" if expected is None else ""))
    for line in problems[:20]:
        print(f"  FAIL {line}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_untraced(args):
    load_library()
    spec = load_spec()
    results = run_workers(args)
    if results is None:
        print("error: a measuring process printed no result", file=sys.stderr)
        return 1
    digest = results[0]["digest"]
    problems = [f"process {w}, pass {k}: op {i} ({kind}): {why}"
                for w, r in enumerate(results) for k, i, kind, why in r["failed"]]
    problems += [f"process {w} digest {r['digest']} differs from process 0"
                 for w, r in enumerate(results) if r["digest"] != digest]
    # The host's speed changes by up to twofold for seconds to minutes at
    # a time, whatever runs on it.  So an operation's latency is the
    # median, over all its executions, of its time over the mean time of
    # reference_kernel() just before and after it, scaled by REF_MS: its
    # time at the kernel's reference speed.  Set-up time likewise.
    lat = [REF_MS / 1e3 * statistics.median(v for r in results for v in r["rel"][i])
           for i in range(len(results[0]["rel"]))]
    tail_s, pct = tail(lat)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "setup_s": REF_MS / 1e3 * statistics.median(rel for r in results for _, rel in r["setup"]),
        "peak_rss_mb": max(r["rss"] for r in results),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    notes = {"latency_tail_ms": f"p{pct:.2f}: {TAIL_BEYOND} of {len(lat)} operations beyond"}
    print(f"workload {args.workload}, seed {args.seed}: {len(lat)} ops a pass, "
          f"{sum(r['passes'] for r in results)} passes in {WORKERS} processes; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    best = [min(lats) for lats in zip(*(r["best"] for r in results))]
    print(f"  wall clock, least of all executions: {len(best) / sum(best):.6g} ops/s, "
          f"p50 {1e3 * statistics.median(best):.6g} ms, tail {1e3 * tail(best)[0]:.6g} ms, "
          f"setup {min(t for r in results for t, _ in r['setup']):.6g} s")
    return report(args, spec, digest, problems, sum(r["attempted"] for r in results),
                  sum(len(r["failed"]) for r in results), metrics, notes)


def run_traced(args):
    """One process: untraced and traced passes alternate for
    ``--seconds``; prints the per-layer metrics and the layer shares."""
    load_library()
    import tracer as tracing
    import workloads
    from admseq import cli, graphs, linalg, reps, sequences, weyl

    spec = load_spec()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    arm_cap(cap_s(args.seconds) - (time.monotonic() - STARTED))
    tr = tracing.Tracer({"graphs": graphs, "sequences": sequences, "weyl": weyl,
                         "linalg": linalg, "reps": reps, "cli": cli})
    try:
        ops = setups(workdir)[args.workload](random.Random(args.seed))
        first = run_pass(ops, workloads.CheckError, verify=True)
        passes, traced = [first], []
        extra = trace_passes(args, ops, first, tr, workloads.CheckError, passes, traced)
    except CapReached:
        print(f"error: {CAPPED} before any result", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    runs = passes + traced
    digest = first.digest(ops)
    problems = [f"pass {k}: op {i} ({kind}): {why}" for k, p in enumerate(runs)
                for i, kind, why in p.failed]
    if traced[0].digest(ops) != digest:
        problems.append("traced digest differs from the untraced one")
    metrics = {m["name"]: {"value": extra[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, traced: {len(ops)} ops a pass, "
          f"{len(traced)} traced passes; python {platform.python_version()}, nproc {os.cpu_count()}")
    report_shares(args.workload, extra)
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tr.write_spans(spans, {"workload": args.workload, "seed": args.seed})
    print(f"  spans of the first traced pass written to {spans.relative_to(ROOT)}")
    return report(args, spec, digest, problems, attempted_of(runs),
                  sum(len(p.failed) for p in runs), metrics, {})


def trace_passes(args, ops, first, tr, check_error, passes, traced):
    """Alternate untraced and traced passes; return the per-layer
    metrics."""
    is_cli = args.workload == "cli"
    counters, ratios, process, inproc = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain_pass = run_pass(ops, check_error, ref=first.fps, inproc=is_cli)
        passes.append(plain_pass)
        if is_cli:
            sub = run_pass(ops, check_error, ref=first.fps)
            passes.append(sub)
            process.append(sub.total)
            inproc.append(plain_pass.total)
        tr.reset()
        tr.install()
        try:
            t = run_pass(ops, check_error, ref=first.fps, tracer=tr, inproc=is_cli)
        finally:
            tr.uninstall()
        traced.append(t)
        if plain_pass.capped or t.capped:
            break
        tr.recording = False  # keep the first traced pass's spans only
        counters.append(dict(tr.counters(), bench_self_s=tr.bench_self_s(), total_s=t.total))
        ratios.append(t.total / plain_pass.total)
    if not counters:
        raise CapReached()
    out = dict(counters[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(c[key] for c in counters)
    if any({k: v for k, v in c.items() if not k.endswith("_s")}
           != {k: v for k, v in counters[0].items() if not k.endswith("_s")} for c in counters):
        print("  note: counts differ between traced passes")
    process_s = statistics.median(process) if process else 0.0
    inproc_s = statistics.median(inproc) if inproc else 0.0
    out["cli.process_s"] = process_s
    out["cli.inproc_s"] = inproc_s
    out["cli.startup_s"] = process_s - inproc_s
    out["trace.overhead_ratio"] = statistics.median(ratios)
    return out


def report_shares(workload, c):
    """Print each layer's share of the attributed self time (the traced
    op time minus the tracer's own upkeep) and whether the layers the
    workload is meant to load hold most of it."""
    import tracer as tracing

    selfs = {layer: c[f"{layer}.self_s"] for layer in tracing.LAYERS}
    selfs["benchmark"] = c["bench_self_s"]
    attributed = sum(selfs.values())
    print(f"  layer shares of {attributed:.3f} s attributed self time "
          f"({1 - attributed / c['total_s']:.1%} of traced op time is tracer upkeep): " +
          ", ".join(f"{k} {v / attributed:.1%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
    if workload == "cli":
        share = c["cli.startup_s"] / c["cli.process_s"]
    else:
        share = sum(selfs[layer] for layer in INTENDED[workload]) / attributed
    verdict = "ok" if share > 0.5 else "LOW"
    print(f"  intended layers {'+'.join(INTENDED[workload])}: {share:.1%} ({verdict})")


def run_all(args):
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return 2
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one measuring process of an untraced run
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--cap", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.worker is not None:
        return measure(args)
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
