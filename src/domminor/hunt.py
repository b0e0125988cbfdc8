"""Corpus-scale conjecture checking over graph6 streams.

Reads one graph6 string per line ('#' comments and blank lines are ignored),
runs the requested checks on every graph, and emits exactly one JSONL record
per graph, in input order.  Input is decoded as UTF-8, undecodable bytes
becoming U+FFFD (so such a line is a parse error), and split into lines as
``str.splitlines`` splits.

The input is a stream: it is read lazily and cut into chunks of
``_CHUNK_LINES`` graph lines, and at most two chunks per worker are in flight,
so memory does not grow with corpus length as long as its lines end in line
feeds (a corpus that breaks lines only with other ``splitlines`` separators,
such as lone carriage returns, is one physical line and is read whole).
Workers send back encoded records; the parent writes each chunk's records,
flushes, and then writes the checkpoint once per chunk.  With one worker the
same loop runs in process.

A byte-offset checkpoint makes interrupted runs resumable with an identical
final record multiset; worker counts and chunk sizes never change record
content.  The checkpoint is a small JSON object, overwritten in place by one
write at offset 0, padded with spaces to the file's size.  It stays far
below one 4 KiB page, which Linux writes whole or not at all even when the
process is killed, so an interrupt at any instant leaves the last complete
checkpoint (before the first write lands, an empty file, which a resume
treats as no checkpoint).  Neither it nor the records file is fsynced:
durability against power loss is not promised.  Any counterexample verdict
is re-checked once more, single-threaded and with the time budget removed,
before it is reported.

The checkpoint also stores a fingerprint of its run: the checks, filter,
search cap and time budget, and the sha256 of the input lines it consumed.
A resume is refused when a field is missing or differs, or when the output
file holds fewer bytes than the checkpoint counted, since records would be
lost.  The settings are compared before the consumed input is read.

Checks live in the ``_CHECKS`` table (name -> function of the graph, the
search cap and the record's one deadline, which bounds its chi, searches and
certificate).  The checks of one record, and the 2k2-free filter before
them, share chi, its coloring and the 2K2 test through the per-graph memo of
``chromatic_number`` and ``find_2k2``, so each is computed once per graph.
The checks:

* ``dominating-hadwiger``: compute chi, then search exhaustively for a
  dominating K_chi minor; absence is a conjecture counterexample and carries
  a machine-checkable certificate pair (a proper chi-coloring plus the
  exhausted (chi-1)-coloring and minor searches).  If the (chi-1)-coloring
  search succeeds instead, chi was wrong and the record is an
  ``internal-error``, never a counterexample.
* ``extraction``: on 2K2-free graphs, run the constructive extractor and
  verify its model (skipped otherwise).
* ``ordinary-minor``: on 2K2-free graphs, run the ordinary-minor extractor
  and verify (skipped otherwise).
* ``t3-equivalence``: for t in {1,2,3} the exhaustive dominating search
  must agree with the closed-form ordinary decision (a vertex, an edge, a
  cycle), which shares no code with it.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import islice
from typing import NamedTuple

try:  # CPython's own sha256; hashlib's would load OpenSSL, which adds about
    from _sha2 import sha256  # 4 MB of resident memory to every hunt process
except ImportError:
    try:
        from _sha256 import sha256  # Python < 3.12
    except ImportError:
        from hashlib import sha256

from .exact import (
    DEFAULT_SEARCH_CAP,
    CapacityError,
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
from .extraction import EnumerationCapError, ExtractionError, extract_dominating, extract_ordinary_minor
from .graphs import Graph, GraphError, parse_graph6
from .patterns import find_2k2

KNOWN_FILTERS = ("2k2-free",)

VERDICTS = ("holds", "counterexample", "internal-error", "skipped-filter", "timeout", "capacity", "parse-error")

# Graph lines per chunk sent to a worker: one round trip and one checkpoint
# write per chunk.  An interrupt loses at most 2 x workers chunks of work.
_CHUNK_LINES = 256


class HuntError(Exception):
    """Operational failure (unreadable input, bad configuration, ...)."""


class HuntConfig(NamedTuple):
    input_path: str | None = None  # None reads standard input
    output_path: str | None = None  # None writes records to standard output
    checks: tuple[str, ...] = ("dominating-hadwiger",)
    graph_filter: str | None = None  # "2k2-free" or None
    workers: int = 1
    checkpoint_path: str | None = None
    time_budget_s: float | None = 60.0  # per graph; None disables
    exact_cap: int = DEFAULT_SEARCH_CAP

    def validate(self) -> None:
        if self.workers < 1:
            raise HuntError("worker count must be >= 1")
        if self.exact_cap < 0:
            raise HuntError("search cap must be >= 0")
        if self.time_budget_s is not None and not self.time_budget_s > 0:  # also refuses NaN
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


# ---------------------------------------------------------------------------
# per-graph checking
# ---------------------------------------------------------------------------

def _dominating_hadwiger(g: Graph, cap: int, deadline: Deadline) -> tuple[str, dict]:
    chi, coloring = chromatic_number(g, deadline)
    if chi == 0:
        return "ok", {"chi": 0}
    model = has_dominating_kt(g, chi, cap, deadline)
    if model is not None:
        return "ok", {"chi": chi, "dominating_model": model_to_lists(model)}
    # counterexample certificate: the coloring shows chi(g) <= chi, the
    # exhausted searches show chi-1 colors and a dominating K_chi are
    # both impossible
    lower = _k_colorable(g, chi - 1, deadline)
    if lower is not None:
        # chi - 1 colours suffice, so chi was wrong: the record would refute
        # its own certificate
        return "inconsistent", {
            "chi": chi,
            "k_minus_one_colorable": True,
            "k_minus_one_coloring": lower,
            "dominating_model_found": False,
        }
    return "violated", {
        "chi": chi,
        "coloring": list(coloring),
        "k_minus_one_colorable": False,
        "dominating_model_found": False,
    }


def _extractor_check(g: Graph, deadline: Deadline, extract, verify) -> tuple[str, dict]:
    """On a 2K2-free graph, the extractor's model must have chi sets and pass
    the verifier."""
    if find_2k2(g) is not None:
        return "skipped", {"reason": "not 2k2-free"}
    chi, _ = chromatic_number(g, deadline)
    try:
        model = extract(g)
    except ExtractionError as exc:
        return "violated", {"error": str(exc)}
    if len(model) != chi or not verify(g, model).valid:
        return "violated", {"chi": chi, "model": model_to_lists(model)}
    return "ok", {"chi": chi, "sets": len(model)}


def _t3_equivalence(g: Graph, cap: int, deadline: Deadline) -> tuple[str, dict]:
    for t in (1, 2, 3):
        dom = has_dominating_kt(g, t, cap, deadline) is not None
        ordi = has_kt_minor(g, t)
        if dom != ordi:
            return "violated", {"t": t, "dominating": dom, "ordinary": ordi}
    return "ok", {}


# Each check is a function of (g, cap, deadline) returning (outcome, detail),
# with outcome in {ok, violated, inconsistent, skipped} (inconsistent: the
# check's own evidence contradicts its finding); a limit raises, and
# ``check_graph`` maps it to an outcome.  The bodies name the package
# functions they call, so those are looked up at call time (where tracers and
# test doubles replace them).
_CHECKS = {
    "dominating-hadwiger": _dominating_hadwiger,
    "extraction": lambda g, cap, deadline: _extractor_check(
        g, deadline, extract_dominating, verify_dominating_model
    ),
    "ordinary-minor": lambda g, cap, deadline: _extractor_check(
        g, deadline, extract_ordinary_minor, verify_ordinary_model
    ),
    "t3-equivalence": _t3_equivalence,
}
KNOWN_CHECKS = tuple(_CHECKS)

# the verdict of the strongest outcome among a record's checks, else "holds"
_PRECEDENCE = (
    ("inconsistent", "internal-error"), ("violated", "counterexample"), ("timeout", "timeout"),
    ("capacity", "capacity"),
)


def check_graph(
    g: Graph,
    checks: tuple[str, ...],
    cap: int = DEFAULT_SEARCH_CAP,
    time_budget_s: float | None = None,
) -> tuple[str, int | None, dict]:
    """Run the requested checks; returns (verdict, chi, detail-per-check).

    One ``Deadline(time_budget_s)`` bounds every check's chi, searches and
    certificate (not the extractors).  A limit is an outcome: ``timeout``, or
    ``capacity`` (with the C5 cap's ``error``).  The checks share chi, its
    coloring and the 2K2 test through the per-graph memo of
    ``chromatic_number`` and ``find_2k2``; one that runs out of time is not
    remembered, and the next check that needs it retries under the same
    deadline.  Verdict precedence: internal-error > counterexample > timeout
    > capacity > holds.  ``chi`` is the first integer chi in any detail.
    """
    deadline = Deadline(time_budget_s)
    detail: dict = {}
    chi: int | None = None
    for name in checks:
        if name not in _CHECKS:
            raise HuntError(f"unknown check {name!r}")
        try:
            outcome, info = _CHECKS[name](g, cap, deadline)
        except SearchDeadlineExceeded:
            outcome, info = "timeout", {"check": name}
        except EnumerationCapError as exc:
            outcome, info = "capacity", {"error": str(exc)}
        except CapacityError:
            outcome, info = "capacity", {"n": g.n, "cap": cap}
        detail[name] = {"outcome": outcome, **info}
        if chi is None and isinstance(info.get("chi"), int):
            chi = info["chi"]
    outcomes = {d["outcome"] for d in detail.values()}
    verdict = next((v for o, v in _PRECEDENCE if o in outcomes), "holds")
    return verdict, chi, detail


def _process_line(cfg: HuntConfig, line_no: int, text: str) -> dict:
    """The record of one graph line, its keys in output order; ``line`` is
    the 1-based input line number, the records' stable sort key.  A parse
    error's ``elapsed_ms`` is 0."""
    t0 = time.monotonic()
    n = chi = detail = None
    elapsed_ms = 0
    try:
        g = parse_graph6(text)
    except GraphError as exc:
        verdict, detail = "parse-error", {"error": str(exc)}
    else:
        n = g.n
        if cfg.graph_filter == "2k2-free" and find_2k2(g) is not None:
            verdict = "skipped-filter"
        else:
            verdict, chi, detail = check_graph(g, cfg.checks, cap=cfg.exact_cap, time_budget_s=cfg.time_budget_s)
        elapsed_ms = int((time.monotonic() - t0) * 1000)
    return {"line": line_no, "graph6": text, "n": n, "chi": chi, "verdict": verdict, "detail": detail,
            "elapsed_ms": elapsed_ms}


def _process_chunk(cfg: HuntConfig, lines: list[tuple[int, str]]) -> list[tuple]:
    """The records of a chunk of (line number, text) pairs, as (line, graph6,
    verdict, JSON line) tuples."""
    out = []
    for no, text in lines:
        rec = _process_line(cfg, no, text)
        out.append((no, text, rec["verdict"], json.dumps(rec)))
    return out


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

class HuntSummary:
    __slots__ = ("total", "verdicts", "counterexamples", "elapsed_s", "graphs_per_s")

    def __init__(self):
        self.total = 0
        self.verdicts: dict[str, int] = {}
        self.counterexamples: list[str] = []
        self.elapsed_s = 0.0
        self.graphs_per_s = 0.0

    def add(self, verdict: str, graph6: str) -> None:
        """Count one record."""
        self.total += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if verdict == "counterexample":
            self.counterexamples.append(graph6)

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
        """1 if a record contradicts itself, else 2 if one is a counterexample."""
        if self.verdicts.get("internal-error", 0):
            return 1
        return 2 if self.verdicts.get("counterexample", 0) else 0


def _numbered_lines(src):
    """(number, line) for each line of a binary stream, numbered from 1.

    Each physical line is decoded as UTF-8, undecodable bytes becoming U+FFFD,
    and split by ``str.splitlines``, so the lines and their numbers are those
    of ``splitlines`` on the whole decoded text.
    """
    no = 0
    try:
        for raw in src:
            for ln in raw.decode("utf-8", "replace").splitlines():
                no += 1
                yield no, ln
    except OSError as exc:
        raise HuntError(f"cannot read input: {exc}") from exc


class _Checkpoint:
    """The resume point of a run: the next input line, the output bytes
    written before it, and a fingerprint of the run (the settings that shape
    its records, and the sha256 of the input lines consumed so far)."""

    def __init__(self, cfg: HuntConfig):
        self.cfg = cfg
        self.path = cfg.checkpoint_path
        self.sha = sha256()  # of the input lines up to the last graph line read

    def _fields(self, next_line: int, output_bytes: int, input_sha256: str) -> dict:
        cfg = self.cfg
        return {"next_line": next_line, "output_bytes": output_bytes, "checks": list(cfg.checks),
                "graph_filter": cfg.graph_filter, "exact_cap": cfg.exact_cap,
                "time_budget_s": cfg.time_budget_s, "input_sha256": input_sha256}

    def read(self, lines) -> tuple[int, int]:
        """(next_line, output_bytes) to resume from; (0, 0) without a checkpoint.

        An empty checkpoint counts as none: a run killed between creating it
        and its first write leaves one, and no record was checkpointed.
        Refuses a checkpoint that lacks a fingerprint field or whose stored
        fields differ from this run's, and an output file shorter than the
        bytes the checkpoint counted.  The fields present and the settings
        are checked first; only then are the lines of ``lines`` before
        ``next_line`` consumed and hashed, and the hash compared.
        """
        if self.path is None or not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return 0, 0
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
            next_line, output_bytes = int(data["next_line"]), int(data["output_bytes"])
        except (ValueError, KeyError, TypeError, OSError) as exc:
            raise HuntError(f"unreadable checkpoint {self.path}: {exc}") from exc
        fields = self._fields(next_line, output_bytes, None)
        for key in fields:
            if key not in data:
                raise HuntError(f"checkpoint {self.path} lacks {key}, so it cannot be matched to this run")
        for key, value in fields.items():
            if key == "input_sha256":  # the last field, so no line is read for a refused setting
                for _, ln in islice(lines, max(next_line - 1, 0)):
                    self.sha.update(ln.encode() + b"\n")
                value = self.sha.hexdigest()
            if data[key] != value:
                raise HuntError(
                    f"checkpoint {self.path} does not match this run: "
                    f"{key} is {data[key]!r} there and {value!r} here"
                )
        out = self.cfg.output_path
        size = os.path.getsize(out) if os.path.exists(out) else 0
        if size < output_bytes:
            raise HuntError(
                f"output {out} holds {size} bytes but the checkpoint "
                f"counted {output_bytes}; its records are lost, so the run cannot resume"
            )
        return next_line, output_bytes

    def graph_lines(self, lines):
        """(number, stripped text) of each graph line of ``lines``, skipping
        blank and '#' lines.  When a graph line is yielded, ``self.sha`` has
        hashed every line up to it and none after it."""
        ahead = None  # self.sha plus the lines skipped since the last graph line
        for no, ln in lines:
            text = ln.strip()
            if not text or text[0] == "#":
                if ahead is None:
                    ahead = self.sha.copy()
                ahead.update(ln.encode() + b"\n")
                continue
            if ahead is not None:
                self.sha, ahead = ahead, None
            self.sha.update(ln.encode() + b"\n")
            yield no, text

    def write(self, next_line: int, output_bytes: int, input_sha256: str) -> None:
        """Overwrite the checkpoint in place: one write at offset 0 of the JSON,
        padded with spaces to the file's size, so a shorter payload blanks a
        longer one (``json.load`` skips the spaces).  No temporary file,
        rename, truncation or fsync: ext4 flushes a file replaced by rename or
        truncated and rewritten (~40 ms each).  The padded payload stays far
        below one 4 KiB page, which Linux writes whole or not at all even if
        the process is killed, so an interrupt leaves the previous checkpoint
        or this one.  Durability against power loss is not promised."""
        if self.path is None:
            return
        data = json.dumps(self._fields(next_line, output_bytes, input_sha256)).encode()
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                data = data.ljust(os.fstat(fd).st_size)
                written = os.write(fd, data)
            finally:
                os.close(fd)
        except OSError as exc:
            raise HuntError(f"cannot write checkpoint: {exc}") from exc
        if written != len(data):
            raise HuntError(f"short write to checkpoint {self.path}")


class _InProcess:
    """The executor of a 1-worker hunt: runs each chunk as it is submitted."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def run_hunt(cfg: HuntConfig, record_stream=None) -> HuntSummary:
    """Process the corpus per the configuration; returns the final summary.

    Records go to ``cfg.output_path`` (or ``record_stream``/stdout) in input
    order.  With a checkpoint path, interrupted runs resume where they
    stopped: the output file is truncated back to the last checkpointed byte
    so the final record multiset is identical to an uninterrupted run.
    """
    cfg.validate()
    t0 = time.monotonic()
    summary = HuntSummary()
    with contextlib.ExitStack() as stack:
        if cfg.input_path is None:
            src = sys.stdin.buffer
        else:
            try:
                src = stack.enter_context(open(cfg.input_path, "rb"))
            except OSError as exc:
                raise HuntError(f"cannot read input: {exc}") from exc
        lines = _numbered_lines(src)
        checkpoint = _Checkpoint(cfg)
        next_line, output_bytes = checkpoint.read(lines)

        if cfg.output_path is not None:
            resume = next_line > 0 and os.path.exists(cfg.output_path)
            try:
                out_fh = stack.enter_context(open(cfg.output_path, "r+" if resume else "w", encoding="utf-8"))
            except OSError as exc:
                raise HuntError(f"cannot write output: {exc}") from exc
            if resume:
                # records before the checkpointed byte stay; later partial output
                # from an interrupted run is discarded and recomputed
                left = output_bytes
                try:
                    while left > 0 and (ln := out_fh.readline(left)):
                        left -= len(ln)
                        if ln.strip():
                            rec = json.loads(ln)
                            summary.add(rec["verdict"], rec["graph6"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise HuntError(f"unreadable record before the checkpoint in {cfg.output_path}: {exc}") from exc
                out_fh.truncate(output_bytes)
                out_fh.seek(output_bytes)
        else:
            out_fh = record_stream if record_stream is not None else sys.stdout

        pool = stack.enter_context(ProcessPoolExecutor(cfg.workers)) if cfg.workers > 1 else _InProcess()
        unbudgeted = cfg._replace(time_budget_s=None)
        graphs = checkpoint.graph_lines(lines)
        window: deque = deque()  # (future, next line, input sha256) per chunk, in input order
        while True:
            while len(window) < 2 * cfg.workers and (chunk := list(islice(graphs, _CHUNK_LINES))):
                future = pool.submit(_process_chunk, cfg, chunk)
                window.append((future, chunk[-1][0] + 1, checkpoint.sha.hexdigest()))
            if not window:
                break
            future, next_line, digest = window.popleft()
            for line, graph6, verdict, json_line in future.result():
                if verdict == "counterexample":
                    # counterexamples are re-checked once, single-threaded, no budget
                    rec = _process_line(unbudgeted, line, graph6)
                    rec["detail"] = (rec["detail"] or {}) | {"rechecked": True}
                    verdict, json_line = rec["verdict"], json.dumps(rec)
                out_fh.write(json_line + "\n")
                summary.add(verdict, graph6)
            out_fh.flush()
            if cfg.output_path is not None:
                output_bytes = out_fh.tell()
            checkpoint.write(next_line, output_bytes, digest)

    summary.elapsed_s = time.monotonic() - t0
    if summary.elapsed_s > 0:
        summary.graphs_per_s = summary.total / summary.elapsed_s
    return summary
