"""Layer spans for the domminor benchmark, recorded from outside the package.

The package is not edited.  :class:`Tracer` rebinds, in every loaded
``domminor`` module, each attribute that refers to one of the traced layer
functions, so that a call from one layer into another (for example
``domminor.extraction.chromatic_number`` or
``domminor.generators.find_2k2``) passes through a wrapper that records a
span: name, start, end, parent span and graph id.  Spans stay in memory until
the run ends; :meth:`Tracer.summary` derives calls, busy time and self time
from them, and :meth:`Tracer.write` saves them.

Generator functions get no span, because their work interleaves with the
consumer's; they count calls and items yielded instead, and their time is
part of the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# The layer functions the benchmark traces, by module.  Tiny bitmask helpers
# (``bits``, ``mask_of``, ...) are left out: wrapping them would cost more
# than they do and they are not a layer boundary.
LAYERS = {
    "graphs": ("parse_graph6", "induced_subgraph"),
    "patterns": ("find_2k2", "find_induced"),
    "generators": ("random_2k2_free", "random_gnp"),
    "exact": (
        "clique_number",
        "chromatic_number",
        "verify_dominating_model",
        "verify_ordinary_model",
        "enumerate_connected_sets",
        "has_dominating_kt",
        "has_kt_minor",
        "dominating_hadwiger_number",
    ),
    "extraction": ("extract_dominating", "extract_ordinary_minor"),
    "hunt": ("run_hunt", "check_graph"),
}

# Calls to these set the current graph id to their first argument, so spans
# inside a hunt carry the graph6 string they belong to.
GRAPH_ID_FROM_ARG = ("graphs.parse_graph6",)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`, or use as a
    context manager that does both.

    ``spans`` holds ``(name, start, end, parent_index, graph_id)`` tuples;
    ``counts`` holds the generator call and yield counts.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.counts: Counter = Counter()
        self.graph = None
        self._stack = [-1]
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            counts = self.counts
            calls_key, yields_key = name + ".calls", name + ".yields"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[calls_key] += 1
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    counts[yields_key] += n

            return gen_wrapper

        sets_graph = name in GRAPH_ID_FROM_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sets_graph:
                self.graph = args[0]
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.graph)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"domminor.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "domminor" or modname.startswith("domminor.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived numbers ---------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, busy and self seconds, and parent-name call counts.

        A span's self time is its duration minus the durations of its direct
        child spans (calls are sequential, so children never overlap).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        by_parent: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_time[i]
            by_parent[(name, spans[parent][0] if parent >= 0 else None)] += 1
        return {"calls": calls, "busy": busy, "self": self_s, "by_parent": by_parent}

    def write(self, path) -> None:
        """Write every span as one tab-separated line, with a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tworkload\tname\tstart\tend\tparent\tgraph\n")
            for i, (name, start, end, parent, graph) in enumerate(self.spans):
                fh.write(f"{i}\t{self.workload}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{graph}\n")
            for key, value in sorted(self.counts.items()):
                fh.write(f"# {key}\t{value}\n")
