"""The benchmark's tracer counts calls of library functions it looks up by
name (``perfbench/tracer.py``: ``CALL_COUNTERS`` and ``HOOKS``), and its
``counters()`` fails on a name that no longer exists.  This checks every
such name against the layer modules, so a rename fails here and not only
in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Read the file without writing a bytecode cache next to it.
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()
NAMES = sorted(set(tracer.CALL_COUNTERS.values()) | set(tracer.HOOKS))


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    # The tracer names a function by the layer it is defined in and its
    # qualified name, so the object must be defined there under that name
    # (an inherited method such as object.__init__ does not count).
    layer, *path = name.split(".")
    obj = importlib.import_module(f"admseq.{layer}")
    for part in path:
        obj = getattr(obj, part, None)
        assert obj is not None, f"{name}: no {part!r}"
    assert obj.__module__ == f"admseq.{layer}"
    assert obj.__qualname__ == ".".join(path)
