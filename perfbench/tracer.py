"""Layer tracing from outside the library.

``Tracer.install`` replaces every function and method of the layer
modules with a wrapper that records a span (start, end, parent) and
charges the span's self time, its duration minus that of its child
spans, to the layer the function is defined in.  Names bound by
``from ... import`` in another layer module are replaced where they are
bound, with the same wrapper.  Work that no wrapper covers, such as
``Fraction`` arithmetic, stays charged to the enclosing span.
``uninstall`` puts the originals back, so untraced passes run the
library unchanged.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from array import array

LAYERS = ("graphs", "sequences", "weyl", "linalg", "reps", "cli")
SPAN_CAP = 200_000  # spans kept; later ones are only tallied in ``dropped``

# Per-layer counters derived from per-function call counts.
CALL_COUNTERS = {
    "graphs.reflect_calls": "graphs.Quiver.reflect",
    "graphs.quiver_inits": "graphs.Quiver.__init__",
    "graphs.reachable_calls": "graphs.Quiver.reachable",
    "weyl.int_matmul_calls": "weyl._int_matmul",
    "weyl.inverse_calls": "weyl.WeylElement.inverse",
    "linalg.rref_calls": "linalg.rref",
    "linalg.invert_calls": "linalg.invert",
    "reps.reflect_minus_calls": "reps.reflect_minus",
    "reps.reflect_plus_calls": "reps.reflect_plus",
    "reps.coxeter_iters": "reps.coxeter_plus",
}

# Counters that look at arguments or results: summed ones and maxima.
SUM_COUNTERS = ("sequences.letters_validated", "weyl.letters_checked", "linalg.rref_cells")
MAX_COUNTERS = ("weyl.max_entry_bits", "linalg.max_rows", "linalg.max_cols",
                "linalg.max_entry_bits", "reps.max_total_dim")


def _int_bits(matrix):
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


def _fraction_bits(matrix):
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in matrix for x in row), default=0)


def _hook_admissible(extra, args, result, exc):
    if exc is None:
        extra["sequences.letters_validated"] += len(args[0].letters)
    else:
        extra["sequences.letters_validated"] += getattr(exc, "index", 0)


def _hook_is_reduced(extra, args, result, exc):
    extra["weyl.letters_checked"] += len(args[0].letters)


def _hook_int_matmul(extra, args, result, exc):
    if exc is None:
        extra["weyl.max_entry_bits"] = max(extra["weyl.max_entry_bits"], _int_bits(result))


def _hook_rref(extra, args, result, exc):
    rows, cols = args[1], args[2]
    extra["linalg.rref_cells"] += rows * cols
    extra["linalg.max_rows"] = max(extra["linalg.max_rows"], rows)
    extra["linalg.max_cols"] = max(extra["linalg.max_cols"], cols)
    if exc is None:
        extra["linalg.max_entry_bits"] = max(extra["linalg.max_entry_bits"],
                                             _fraction_bits(result[0]))


def _hook_representation(extra, args, result, exc):
    if exc is None:
        extra["reps.max_total_dim"] = max(extra["reps.max_total_dim"], sum(args[0].dims))


HOOKS = {
    "sequences.AdmissibleSeq.__init__": _hook_admissible,
    "weyl.is_reduced": _hook_is_reduced,
    "weyl._int_matmul": _hook_int_matmul,
    "linalg.rref": _hook_rref,
    "reps.Representation.__init__": _hook_representation,
}


class Tracer:
    """Wraps the layer modules.  Counts are kept per pass; spans are kept
    while ``recording`` is set, up to SPAN_CAP of them.
    """

    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self.recording = True
        self.spans = array("q")
        self.dropped = 0
        self.op_names = []
        self._patches = []
        self._wrappers = {}
        self._classes = set()
        self._build()
        self.reset()

    # ---------------------------------------------------------- counters

    def reset(self):
        """Zero the per-pass counters; kept spans stay."""
        self.self_ns = [0] * (len(LAYERS) + 1)  # the last slot is the benchmark's own code
        self.calls = [0] * len(LAYERS)
        self.fcalls = [0] * len(self.names)
        self.extra = dict.fromkeys(SUM_COUNTERS + MAX_COUNTERS, 0)
        self._stack = [0]
        self._ids = [-1]
        self._next_id = 0

    def counters(self):
        out = {}
        for layer, ns, calls in zip(LAYERS, self.self_ns, self.calls):
            out[f"{layer}.self_s"] = ns / 1e9
            out[f"{layer}.calls"] = calls
        for metric, qual in CALL_COUNTERS.items():
            out[metric] = self.fcalls[self.names.index(qual)]
        out.update(self.extra)
        return out

    def bench_self_s(self):
        return self.self_ns[-1] / 1e9

    # -------------------------------------------------------------- spans

    def run_op(self, kind, call):
        """Run one operation as a root span; its time outside every
        library span is charged to the benchmark's own code."""
        stack, ids = self._stack, self._ids
        op_id = self._next_id
        self._next_id += 1
        stack[:] = [0]
        ids[:] = [op_id]
        start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            self.self_ns[-1] += end - start - stack[0]
            self._keep(op_id, -1, -1 - self._op_index(kind), start, end)

    def _op_index(self, kind):
        if kind not in self.op_names:
            self.op_names.append(kind)
        return self.op_names.index(kind)

    def _keep(self, span_id, parent, name, start, end):
        if not self.recording:
            return
        if len(self.spans) < 5 * SPAN_CAP:
            self.spans.extend((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def write_spans(self, path, meta):
        """Write the kept spans as gzipped JSON: ``spans`` is a flat list
        of (id, parent, name, start_ns, end_ns) groups; a name >= 0
        indexes ``functions`` and a name < 0 is the root span of an
        operation of kind ``op_kinds[-1 - name]``."""
        doc = dict(meta, functions=self.names, op_kinds=self.op_names,
                   dropped=self.dropped, spans=self.spans.tolist())
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)

    # ----------------------------------------------------------- wrapping

    def _build(self):
        module_layer = {m.__name__: layer for layer, m in self.modules.items()}
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                home = module_layer.get(getattr(obj, "__module__", None))
                if home is None:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, home)
                elif callable(obj):
                    qual = f"{home}.{obj.__qualname__}"
                    self._patch(module, name, obj, self._wrapper(obj, home, qual))

    def _wrap_class(self, cls, layer):
        if cls in self._classes:
            return
        self._classes.add(cls)
        for name, attr in list(vars(cls).items()):
            qual = f"{layer}.{cls.__qualname__}.{name}"
            if isinstance(attr, types.FunctionType) and name != "__repr__":
                self._patch(cls, name, attr, self._wrapper(attr, layer, qual))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, attr, classmethod(self._wrapper(attr.__func__, layer, qual)))
            elif isinstance(attr, property):
                self._patch(cls, name, attr, property(self._wrapper(attr.fget, layer, qual)))

    def _patch(self, owner, name, original, wrapped):
        self._patches.append((owner, name, original, wrapped))

    def install(self):
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _wrapper(self, func, layer, qual):
        key = id(func)
        if key in self._wrappers:
            return self._wrappers[key]
        li = LAYERS.index(layer)
        fi = len(self.names)
        self.names.append(qual)
        hook = HOOKS.get(qual)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            stack, ids = tracer._stack, tracer._ids
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append(0)
            ids.append(span_id)
            start = clock()
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                children = stack.pop()
                ids.pop()
                tracer.self_ns[li] += end - start - children
                tracer.calls[li] += 1
                tracer.fcalls[fi] += 1
                tracer._keep(span_id, ids[-1], fi, start, end)
                if hook is not None:
                    hook(tracer.extra, args, result, exc)
                # The whole call, hook included, is a child of the caller,
                # so counter upkeep is charged to no layer.
                stack[-1] += clock() - start

        functools.update_wrapper(wrapper, func)
        self._wrappers[key] = wrapper
        return wrapper
