"""The benchmark's tracer finds every package function it traces.

On every ``--trace 1`` run, ``bench/tracer.py`` looks up
``domminor.<layer>.<name>`` for each entry of its ``LAYERS`` table, so a
package change that removes or renames one of them stops every traced
workload.  The tracer is loaded from its file, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    pairs = [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]
    assert ("exact", "has_kt_minor") in pairs
    missing = [
        f"domminor.{layer}.{name}"
        for layer, name in pairs
        if not callable(getattr(importlib.import_module(f"domminor.{layer}"), name, None))
    ]
    assert missing == []
    # installing rebinds the package's attributes; leaving restores them
    exact = importlib.import_module("domminor.exact")
    original = exact.has_kt_minor
    with tracer.Tracer("contract"):
        assert exact.has_kt_minor is not original
    assert exact.has_kt_minor is original
