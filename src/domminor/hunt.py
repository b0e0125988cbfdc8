"""Corpus-scale conjecture checking over graph6 streams.

Reads one graph6 string per line ('#' comments and blank lines are ignored),
runs the requested checks on every graph, and emits exactly one JSONL record
per graph.  A byte-offset checkpoint makes interrupted runs resumable with an
identical final record multiset; worker processes only change record order
timing, never content.  Any counterexample verdict is re-checked once more,
single-threaded and with the time budget removed, before it is reported.

Checks:

* ``dominating-hadwiger``: compute chi, then search exhaustively for a
  dominating K_chi minor; absence is a conjecture counterexample and carries
  a machine-checkable certificate pair (a proper chi-coloring plus the
  exhausted (chi-1)-coloring and minor searches).
* ``extraction``: on 2K2-free graphs, run the constructive extractor and
  verify its model (skipped otherwise).
* ``ordinary-minor``: on 2K2-free graphs, run the ordinary-minor extractor
  and verify (skipped otherwise).
* ``t3-equivalence``: for t in {1,2,3} the dominating and ordinary minor
  deciders must agree.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .exact import (
    DEFAULT_SEARCH_CAP,
    Deadline,
    SearchDeadlineExceeded,
    _k_colorable,
    chromatic_number,
    has_dominating_kt,
    has_kt_minor,
    model_to_lists,
    verify_dominating_model,
    verify_ordinary_model,
)
from .extraction import ExtractionError, extract_dominating, extract_ordinary_minor
from .graphs import Graph, GraphError, parse_graph6
from .patterns import find_2k2

KNOWN_CHECKS = ("dominating-hadwiger", "extraction", "ordinary-minor", "t3-equivalence")
KNOWN_FILTERS = ("2k2-free",)

VERDICTS = ("holds", "counterexample", "skipped-filter", "timeout", "capacity", "parse-error")

_CHUNK_LINES = 16


class HuntError(Exception):
    """Operational failure (unreadable input, bad configuration, ...)."""


@dataclass(frozen=True)
class HuntConfig:
    input_path: str | None = None  # None reads standard input
    output_path: str | None = None  # None writes records to standard output
    checks: tuple[str, ...] = ("dominating-hadwiger",)
    graph_filter: str | None = None  # "2k2-free" or None
    workers: int = 1
    checkpoint_path: str | None = None
    time_budget_s: float | None = 60.0  # per graph; None disables
    exact_cap: int = DEFAULT_SEARCH_CAP
    graph6_cap: int = 512

    def validate(self) -> None:
        if self.workers < 1:
            raise HuntError("worker count must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise HuntError("time budget must be positive")
        bad = [c for c in self.checks if c not in KNOWN_CHECKS]
        if bad:
            raise HuntError(f"unknown checks {bad}; known: {list(KNOWN_CHECKS)}")
        if not self.checks:
            raise HuntError("at least one check is required")
        if self.graph_filter is not None and self.graph_filter not in KNOWN_FILTERS:
            raise HuntError(f"unknown filter {self.graph_filter!r}; known: {list(KNOWN_FILTERS)}")
        if self.checkpoint_path is not None and self.output_path is None:
            # a resume skips the checkpointed lines, whose records went to a
            # stream the hunt cannot read back, so they would be lost
            raise HuntError("a checkpoint needs an output file (--output) to resume from")


@dataclass
class HuntRecord:
    line: int  # 1-based input line number; the stable sort key
    graph6: str
    verdict: str
    n: int | None = None
    chi: int | None = None
    detail: dict | None = None
    elapsed_ms: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "line": self.line,
                "graph6": self.graph6,
                "n": self.n,
                "chi": self.chi,
                "verdict": self.verdict,
                "detail": self.detail,
                "elapsed_ms": self.elapsed_ms,
            }
        )


# ---------------------------------------------------------------------------
# per-graph checking
# ---------------------------------------------------------------------------

def _run_check(
    name: str, g: Graph, cap: int, remaining: float | None
) -> tuple[str, dict]:
    """One named check; returns (outcome, detail) with outcome in
    {ok, violated, capacity, timeout, skipped}."""
    try:
        if name == "dominating-hadwiger":
            chi, coloring = chromatic_number(g, deadline_s=remaining)
            if chi == 0:
                return "ok", {"chi": 0}
            if g.n > cap:
                return "capacity", {"n": g.n, "cap": cap}
            model = has_dominating_kt(g, chi, cap=cap, deadline_s=remaining)
            if model is not None:
                return "ok", {"chi": chi, "dominating_model": model_to_lists(model)}
            # counterexample certificate: the coloring shows chi(g) <= chi, the
            # exhausted searches show chi-1 colors and a dominating K_chi are
            # both impossible
            lower = _k_colorable(g, chi - 1, Deadline(remaining)) if chi > 1 else None
            return "violated", {
                "chi": chi,
                "coloring": list(coloring),
                "k_minus_one_colorable": lower is not None,
                "dominating_model_found": False,
            }
        if name == "extraction":
            if find_2k2(g) is not None:
                return "skipped", {"reason": "not 2k2-free"}
            chi, _ = chromatic_number(g, deadline_s=remaining)
            try:
                model = extract_dominating(g)
            except ExtractionError as exc:
                return "violated", {"error": str(exc)}
            ok = len(model) == chi and verify_dominating_model(g, model).valid
            if not ok:
                return "violated", {"chi": chi, "model": model_to_lists(model)}
            return "ok", {"chi": chi, "sets": len(model)}
        if name == "ordinary-minor":
            if find_2k2(g) is not None:
                return "skipped", {"reason": "not 2k2-free"}
            chi, _ = chromatic_number(g, deadline_s=remaining)
            try:
                model = extract_ordinary_minor(g)
            except ExtractionError as exc:
                return "violated", {"error": str(exc)}
            ok = len(model) == chi and verify_ordinary_model(g, model).valid
            if not ok:
                return "violated", {"chi": chi, "model": model_to_lists(model)}
            return "ok", {"chi": chi, "sets": len(model)}
        if name == "t3-equivalence":
            if g.n > cap:
                return "capacity", {"n": g.n, "cap": cap}
            for t in (1, 2, 3):
                dom = has_dominating_kt(g, t, cap=cap, deadline_s=remaining) is not None
                ordi = has_kt_minor(g, t, cap=cap, deadline_s=remaining)
                if dom != ordi:
                    return "violated", {"t": t, "dominating": dom, "ordinary": ordi}
            return "ok", {}
        raise HuntError(f"unknown check {name!r}")
    except SearchDeadlineExceeded:
        return "timeout", {"check": name}


def check_graph(
    g: Graph,
    checks: tuple[str, ...],
    cap: int = DEFAULT_SEARCH_CAP,
    time_budget_s: float | None = None,
) -> tuple[str, int | None, dict]:
    """Run the requested checks; returns (verdict, chi, detail-per-check).

    Verdict precedence: counterexample > timeout > capacity > holds.
    """
    t0 = time.monotonic()

    def remaining() -> float | None:
        if time_budget_s is None:
            return None
        return max(time_budget_s - (time.monotonic() - t0), 0.001)

    detail: dict = {}
    outcomes = []
    chi: int | None = None
    for name in checks:
        outcome, info = _run_check(name, g, cap, remaining())
        outcomes.append(outcome)
        detail[name] = {"outcome": outcome, **info}
        if chi is None and isinstance(info.get("chi"), int):
            chi = info["chi"]
    if "violated" in outcomes:
        verdict = "counterexample"
    elif "timeout" in outcomes:
        verdict = "timeout"
    elif "capacity" in outcomes:
        verdict = "capacity"
    else:
        verdict = "holds"
    return verdict, chi, detail


def _process_line(
    line_no: int,
    text: str,
    checks: tuple[str, ...],
    graph_filter: str | None,
    cap: int,
    budget: float | None,
    g6cap: int,
) -> HuntRecord:
    t0 = time.monotonic()
    try:
        g = parse_graph6(text, cap=g6cap)
    except GraphError as exc:
        return HuntRecord(line_no, text, "parse-error", detail={"error": str(exc)})
    if graph_filter == "2k2-free" and find_2k2(g) is not None:
        return HuntRecord(
            line_no,
            text,
            "skipped-filter",
            n=g.n,
            elapsed_ms=int((time.monotonic() - t0) * 1000),
        )
    verdict, chi, detail = check_graph(g, checks, cap=cap, time_budget_s=budget)
    return HuntRecord(
        line_no,
        text,
        verdict,
        n=g.n,
        chi=chi,
        detail=detail,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


def _process_chunk(args) -> list[HuntRecord]:
    lines, checks, graph_filter, cap, budget, g6cap = args
    return [
        _process_line(no, text, checks, graph_filter, cap, budget, g6cap)
        for no, text in lines
    ]


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

@dataclass
class HuntSummary:
    total: int = 0
    verdicts: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    elapsed_s: float = 0.0
    graphs_per_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "domminor/hunt-summary/v1",
                "total": self.total,
                "verdicts": self.verdicts,
                "counterexamples": self.counterexamples,
                "elapsed_s": round(self.elapsed_s, 3),
                "graphs_per_s": round(self.graphs_per_s, 1),
            }
        )

    @property
    def exit_code(self) -> int:
        return 2 if self.verdicts.get("counterexample", 0) else 0


def _read_checkpoint(path: str | None) -> tuple[int, int]:
    if path is None or not os.path.exists(path):
        return 0, 0
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return int(data["next_line"]), int(data["output_bytes"])
    except (ValueError, KeyError, OSError) as exc:
        raise HuntError(f"unreadable checkpoint {path}: {exc}") from exc


def _write_checkpoint(path: str | None, next_line: int, output_bytes: int) -> None:
    if path is None:
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"next_line": next_line, "output_bytes": output_bytes}, fh)
    os.replace(tmp, path)


def _summarize_records(lines: list[str]) -> HuntSummary:
    s = HuntSummary()
    for ln in lines:
        if not ln.strip():
            continue
        rec = json.loads(ln)
        s.total += 1
        s.verdicts[rec["verdict"]] = s.verdicts.get(rec["verdict"], 0) + 1
        if rec["verdict"] == "counterexample":
            s.counterexamples.append(rec["graph6"])
    return s


def run_hunt(cfg: HuntConfig, record_stream=None) -> HuntSummary:
    """Process the corpus per the configuration; returns the final summary.

    Records go to ``cfg.output_path`` (or ``record_stream``/stdout).  With a
    checkpoint path, interrupted runs resume where they stopped: the output
    file is truncated back to the last checkpointed byte so the final record
    multiset is identical to an uninterrupted run.
    """
    cfg.validate()
    t0 = time.monotonic()

    if cfg.input_path is None:
        text = sys.stdin.read()
    else:
        try:
            with open(cfg.input_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise HuntError(f"cannot read input: {exc}") from exc

    tasks = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]

    next_line, output_bytes = _read_checkpoint(cfg.checkpoint_path)
    pending = [t for t in tasks if t[0] >= next_line]

    summary = HuntSummary()
    out_fh = None
    close_out = False
    if cfg.output_path is not None:
        mode = "r+" if os.path.exists(cfg.output_path) and next_line > 0 else "w"
        out_fh = open(cfg.output_path, mode, encoding="utf-8")
        if mode == "r+":
            # records before the checkpointed byte stay; later partial output
            # from an interrupted run is discarded and recomputed
            out_fh.seek(0)
            prefix = out_fh.read(output_bytes)
            summary = _summarize_records(prefix.splitlines())
            out_fh.truncate(output_bytes)
            out_fh.seek(output_bytes)
        close_out = True
    elif record_stream is not None:
        out_fh = record_stream
    else:
        out_fh = sys.stdout

    def emit(batch: list[HuntRecord]) -> None:
        nonlocal output_bytes
        for rec in batch:
            out_fh.write(rec.to_json() + "\n")
            summary.total += 1
            summary.verdicts[rec.verdict] = summary.verdicts.get(rec.verdict, 0) + 1
            if rec.verdict == "counterexample":
                summary.counterexamples.append(rec.graph6)
        out_fh.flush()
        if close_out:
            output_bytes = out_fh.tell()

    def finalize(batch: list[HuntRecord]) -> list[HuntRecord]:
        # counterexamples are re-checked once, single-threaded, no budget
        out = []
        for rec in batch:
            if rec.verdict == "counterexample":
                redo = _process_line(
                    rec.line, rec.graph6, cfg.checks, cfg.graph_filter,
                    cfg.exact_cap, None, cfg.graph6_cap,
                )
                redo.detail = (redo.detail or {}) | {"rechecked": True}
                rec = redo
            out.append(rec)
        return out

    args = (cfg.checks, cfg.graph_filter, cfg.exact_cap, cfg.time_budget_s, cfg.graph6_cap)
    chunks = [
        (pending[i : i + _CHUNK_LINES], *args) for i in range(0, len(pending), _CHUNK_LINES)
    ]

    try:
        if cfg.workers == 1:
            batches = map(_process_chunk, chunks)
            for chunk, batch in zip(chunks, batches):
                batch = finalize(batch)
                emit(batch)
                _write_checkpoint(cfg.checkpoint_path, chunk[0][-1][0] + 1, output_bytes)
        else:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                for chunk, batch in zip(chunks, pool.map(_process_chunk, chunks)):
                    batch = finalize(batch)
                    emit(batch)
                    _write_checkpoint(cfg.checkpoint_path, chunk[0][-1][0] + 1, output_bytes)
    finally:
        if close_out:
            out_fh.close()

    summary.elapsed_s = time.monotonic() - t0
    if summary.elapsed_s > 0:
        summary.graphs_per_s = summary.total / summary.elapsed_s
    return summary
