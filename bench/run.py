#!/usr/bin/env python3
"""Benchmark of the domminor package: atlas hunts, 2K2-free sweeps, exact h_d.

Run from the root of a source checkout (standard library only):

    python3 bench/run.py --workload atlas-scan --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it times the user-facing entry points (the ``domminor
hunt`` CLI and the library calls), scales the times to a reference CPU speed
sampled meanwhile (``bench/speed.py``) and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed amount of the same work with layer spans
recorded by ``bench/tracer.py`` and prints the per-layer metrics.  Every
output the program returns is checked outside the timed phase; the last line
of standard output is the JSON result, and the exit code is 0 only when every
check passed.  See ``bench/NOTES.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ATLAS_DIR = ROOT / "tests" / "data"
WORK = ROOT / ".bench_run"
REFS = Path(__file__).resolve().parent / "refs.json"

# Pinned references (refs.json) hold for this seed; other seeds only run the
# verification checks, except where the reference does not depend on the
# seed (the atlas digests and the h_d values).
DEFAULT_SEED = 0

BRANCHES = (
    "empty", "clique", "split_graph", "banner_completed", "banner_structure", "c4_reduction",
    "low_degree_c5", "low_degree_k4", "c5_partition", "y_empty", "y_small",
    "independent_side_edge", "y_complete_neighbor", "final_construction",
)
LAYER_UNITS = {
    "generators.repair_scans": "count",
    "generators.graphs_per_scan": "ratio",
    "generators.random_2k2_free.busy_s": "s",
    "exact.chromatic_number.calls": "count",
    "exact.chromatic_number.busy_s": "s",
    "extraction.chi_calls_per_graph": "ratio",
    "hunt.chi_calls_per_graph": "ratio",
    "patterns.find_2k2.calls": "count",
    "patterns.find_2k2.busy_s": "s",
    "exact.clique_number.calls": "count",
    "exact.clique_number.busy_s": "s",
    "extraction.extract_dominating.busy_s": "s",
    "extraction.extract_dominating.self_s": "s",
    "extraction.extract_ordinary_minor.busy_s": "s",
    "extraction.extract_ordinary_minor.self_s": "s",
    "patterns.find_induced.calls": "count",
    "patterns.find_induced.busy_s": "s",
    "graphs.induced_subgraph.calls": "count",
    "graphs.induced_subgraph.busy_s": "s",
    **{f"extraction.branch.{b}": "count" for b in BRANCHES},
    "extraction.max_depth": "count",
    "exact.has_dominating_kt.calls": "count",
    "exact.has_dominating_kt.busy_s": "s",
    "exact.enumerate_connected_sets.yields": "count",
    "exact.dominating_hadwiger_number.probes": "count",
    "exact.has_kt_minor.calls": "count",
    "exact.has_kt_minor.busy_s": "s",
    "exact.verify_dominating_model.busy_s": "s",
    "exact.verify_ordinary_model.busy_s": "s",
    "graphs.parse_graph6.busy_s": "s",
    "hunt.check_graph.busy_s": "s",
    "hunt.self_s": "s",
    "hunt.parallel_eff": "ratio",
    "hunt.records": "count",
    "hunt.output_bytes": "bytes",
    "trace.overhead": "ratio",
}

ALL_CHECKS = ("dominating-hadwiger", "extraction", "ordinary-minor", "t3-equivalence")
ATLAS = {  # workload -> (hunt checks, workers)
    "atlas-scan": (("dominating-hadwiger",), 2),
    "atlas-hunt": (ALL_CHECKS, 2),
}

# Criterion 1's parameter cycle: graph i of seed s is random_2k2_free(n, p,
# s * 1_000_000 + i), so seed 0 reproduces criterion 1's corpus.  One batch
# is one full cycle (lcm(26, 6) = 78 graphs).
DENSITIES = (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)
BATCH = 78
PINNED_BATCHES = 2  # every run does at least these; the corpus digest covers them

# (label, generator call); the h_d values are pinned in refs.json.  Calibrated
# on a 2-core x86 box with Python 3.11: dense about 11.7 s per pass, sparse
# about 4.1 s.  Graphs that take 30-70 s are left out (see NOTES.md).
HD_GRAPHS = {
    "hd-dense": (
        ("2k2(14,.3,5)", ("random_2k2_free", 14, 0.3, 5)),
        ("2k2(14,.3,1)", ("random_2k2_free", 14, 0.3, 1)),
        ("2k2(14,.3,2)", ("random_2k2_free", 14, 0.3, 2)),
        ("2k2(14,.4,3)", ("random_2k2_free", 14, 0.4, 3)),
        ("2k2(13,.4,2)", ("random_2k2_free", 13, 0.4, 2)),
        ("2k2(14,.2,4)", ("random_2k2_free", 14, 0.2, 4)),
    ),
    "hd-sparse": (
        ("gnp(16,.25,3)", ("random_gnp", 16, 0.25, 3)),
        ("gnp(16,.3,5)", ("random_gnp", 16, 0.3, 5)),
        ("gnp(16,.2,1)", ("random_gnp", 16, 0.2, 1)),
        ("gnp(15,.3,2)", ("random_gnp", 15, 0.3, 2)),
        ("gnp(14,.35,1)", ("random_gnp", 14, 0.35, 1)),
        ("subdivided K5", ("one_subdivision_complete", 5)),
    ),
}

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 9


# ---------------------------------------------------------------------------
# independent checks: the benchmark's own graph6 decoder and model verifiers
# ---------------------------------------------------------------------------

def g6_rows(text: str) -> list[int]:
    """Adjacency rows of a short-form graph6 string (n < 63)."""
    n = ord(text[0]) - 63
    stream = [(ord(c) - 63) >> s & 1 for c in text[1:] for s in range(5, -1, -1)]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if stream[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def _connected(rows: list[int], s: int) -> bool:
    seen = s & -s
    frontier = seen
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = rows[v] & s & ~seen
        seen |= new
        frontier |= new
    return seen == s


def _structural(rows: list[int], sets) -> bool:
    full = (1 << len(rows)) - 1
    used = 0
    for s in sets:
        if s <= 0 or s & ~full or s & used or not _connected(rows, s):
            return False
        used |= s
    return True


def is_dominating_model(rows: list[int], sets) -> bool:
    """Disjoint connected sets; every vertex of a later set sees each earlier set."""
    if not _structural(rows, sets):
        return False
    for j, later in enumerate(sets):
        for earlier in sets[:j]:
            v_mask = later
            while v_mask:
                v = (v_mask & -v_mask).bit_length() - 1
                v_mask &= v_mask - 1
                if rows[v] & earlier == 0:
                    return False
    return True


def is_ordinary_model(rows: list[int], sets) -> bool:
    """Disjoint connected sets with an edge between every two of them."""
    if not _structural(rows, sets):
        return False
    reach = []
    for s in sets:
        r = 0
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            r |= rows[v]
        reach.append(r)
    return all(reach[j] & sets[i] for j in range(len(sets)) for i in range(j))


def is_2k2_free(rows: list[int]) -> bool:
    """No two edges without an edge between them: for every edge uv, the
    vertices adjacent to neither u nor v form an independent set."""
    full = (1 << len(rows)) - 1
    for u, ru in enumerate(rows):
        for v in range(u + 1, len(rows)):
            if ru >> v & 1:
                rest = full & ~ru & ~rows[v] & ~(1 << u) & ~(1 << v)
                m = rest
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    if rows[w] & rest:
                        return False
    return True


def is_proper_coloring(rows: list[int], colors, k: int) -> bool:
    if len(colors) != len(rows) or any(not 0 <= c < k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, r in enumerate(rows) for v in range(len(rows)) if r >> v & 1)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


class Gate:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.observed: dict = {}  # every value compared with a pinned reference

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def pinned(self, refs: dict, key: str, value) -> None:
        """Compare against a pinned reference; a mismatch is one failure."""
        self.observed[key] = value
        if key not in refs:
            self.fail(f"no pinned reference {key!r}")
        elif refs[key] != value:
            self.fail(f"pinned reference {key!r} differs: expected {refs[key]!r}, got {value!r}")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each timed child is started by this small intermediate process, which
# reports the child's wall time and peak RSS.  On Linux a process inherits the
# high-water RSS of the process that spawned it, so children spawned directly
# by the benchmark would report at least the benchmark's own peak.
TIMER = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
p = subprocess.run(sys.argv[1:], capture_output=True, text=True)
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(json.dumps([p.returncode, wall, rss, p.stdout[-2000:], p.stderr[-2000:]]))
"""


@dataclass
class Timed:
    returncode: int
    wall: float  # seconds
    rss_mb: float  # peak RSS of the child and its descendants
    output: str  # the end of its stdout and stderr


def time_command(cmd: list[str]) -> Timed:
    """Run ``cmd`` to completion in a fresh process group; kill the group on timeout."""
    with subprocess.Popen([sys.executable, "-c", TIMER, *cmd], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return Timed(-1, float(CHILD_TIMEOUT_S), 0.0, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        return Timed(proc.returncode, 0.0, 0.0, err[-2000:])
    code, wall, rss, child_out, child_err = json.loads(out)
    return Timed(code, wall, rss, child_out + child_err)


@dataclass
class Setup:
    scaled_s: float  # median set-up time at the reference speed
    wall_s: float  # median wall time


def median_setup(run_once, gate: Gate, clock: ReferenceClock, repeats: int = SETUP_REPEATS) -> Setup:
    """Median time of ``repeats`` fresh processes; ``run_once()`` starts one
    and returns its :class:`Timed`."""
    scaled, walls = [], []
    for _ in range(repeats):
        r, _, factor = clock.measure(run_once)
        gate.expect(r.returncode == 0, f"set-up command failed: {r.output.strip()[-300:]}")
        scaled.append(r.wall * factor)
        walls.append(r.wall)
    return Setup(statistics.median(scaled), statistics.median(walls))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# atlas workloads: the domminor hunt CLI over every graph with n <= 8
# ---------------------------------------------------------------------------

def atlas_corpus(seed: int) -> Path:
    """The vendored atlas with its line order permuted by ``seed``."""
    lines = []
    for n in range(9):
        lines += (ATLAS_DIR / f"graphs{n}.g6").read_text().split()
    random.Random(seed).shuffle(lines)
    path = WORK / "atlas.g6"
    path.write_text("\n".join(lines) + "\n")
    return path


RECORDS, CHECKPOINT = WORK / "records.jsonl", WORK / "checkpoint.json"


def hunt_cli(corpus: Path, checks, workers: int) -> Timed:
    """One fresh ``domminor hunt`` (no checkpoint to resume from), timed."""
    for p in (RECORDS, CHECKPOINT):
        p.unlink(missing_ok=True)
    return time_command([sys.executable, "-m", "domminor.cli", "hunt", "--input", str(corpus),
                         "--output", str(RECORDS), "--checkpoint", str(CHECKPOINT),
                         "--workers", str(workers), "--checks", *checks])


def check_records(corpus: Path, checks, gate: Gate, refs: dict) -> int:
    """Checks one hunt's records; returns the number of records."""
    expected = set(corpus.read_text().split())
    gate.attempted += len(expected)
    triples = []
    seen = set()
    for line in RECORDS.read_text().splitlines():
        rec = json.loads(line)
        g6, verdict, chi = rec["graph6"], rec["verdict"], rec["chi"]
        triples.append(f"{g6} {verdict} {chi}")
        if g6 in seen or g6 not in expected:
            gate.fail(f"unexpected or repeated record for {g6}")
            continue
        seen.add(g6)
        if verdict != "holds":
            gate.fail(f"{g6}: verdict {verdict}")
            continue
        rows = g6_rows(g6)
        dom = rec["detail"]["dominating-hadwiger"]
        sets = tuple(sum(1 << v for v in part) for part in dom.get("dominating_model", []))
        gate.expect(len(sets) == chi and is_dominating_model(rows, sets),
                    f"{g6}: returned dominating model fails the check")
        extractors = [c for c in checks if c in ("extraction", "ordinary-minor")]
        if extractors and is_2k2_free(rows):
            gate.expect(all(rec["detail"][c].get("sets") == chi for c in extractors),
                        f"{g6}: an extractor did not report chi sets on a 2K2-free graph")
    missing = len(expected - seen)
    if missing:
        gate.fail(f"{missing} graphs have no record", missing)
    gate.pinned(refs, "atlas:" + ",".join(checks), digest(sorted(triples)))
    return len(triples)


def atlas_run(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    checks, workers = ATLAS[name]
    corpus = atlas_corpus(args.seed)
    empty = WORK / "empty.g6"
    empty.write_text("")
    clock = ReferenceClock()
    setup = median_setup(lambda: hunt_cli(empty, checks, workers), gate, clock)

    passes, rss = [], []  # (records, wall s, scaled s) per hunt
    measured = 0.0
    while measured < args.seconds or not passes:
        run, _, factor = clock.measure(hunt_cli, corpus, checks, workers)
        measured += run.wall
        rss.append(run.rss_mb)
        if run.returncode != 0:
            gate.fail(f"hunt exited with {run.returncode}: {run.output.strip()[-300:]}")
            break
        records = check_records(corpus, checks, gate, refs)
        passes.append((records, run.wall, run.wall * factor))
    total = [sum(p[k] for p in passes) for k in range(3)]
    metrics = {
        "graphs_per_s": metric(total[0] / total[2] if passes else 0.0, "1/s"),
        "setup_s": metric(setup.scaled_s, "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    return metrics, {"workers": workers, "passes": len(passes),
                     "pass_graphs_per_s": [r / t for r, _, t in passes],
                     "wall_graphs_per_s": total[0] / total[1] if passes else 0.0,
                     "wall_setup_s": setup.wall_s, **clock.summary()}


def atlas_trace(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    """In-process hunt at 1 worker, untraced then traced; CLI passes at 1 and
    2 workers give the parallel efficiency."""
    from domminor import hunt

    from tracer import Tracer

    checks, _ = ATLAS[name]
    corpus = atlas_corpus(args.seed)

    def in_process() -> float:
        for p in (RECORDS, CHECKPOINT):
            p.unlink(missing_ok=True)
        cfg = hunt.HuntConfig(input_path=str(corpus), output_path=str(RECORDS), checks=checks,
                              workers=1, checkpoint_path=str(CHECKPOINT))
        t0 = time.perf_counter()
        hunt.run_hunt(cfg)
        return time.perf_counter() - t0

    plain = in_process()
    check_records(corpus, checks, gate, refs)
    with Tracer(name) as tracer:
        traced = in_process()
    records = check_records(corpus, checks, gate, refs)
    output_bytes = RECORDS.stat().st_size

    rate = {}
    for workers in (1, 2):
        run = hunt_cli(corpus, checks, workers)
        gate.expect(run.returncode == 0, f"hunt at {workers} workers exited with {run.returncode}")
        rate[workers] = check_records(corpus, checks, gate, refs) / run.wall

    metrics = layer_metrics(tracer)
    metrics["hunt.parallel_eff"] = rate[2] / (2 * rate[1])
    metrics["hunt.records"] = records
    metrics["hunt.output_bytes"] = output_bytes
    metrics["trace.overhead"] = traced / plain - 1
    return metrics, write_spans(tracer) | {"untraced_s": plain, "traced_s": traced}


# ---------------------------------------------------------------------------
# sweep workloads: seeded random 2K2-free graphs, generated and extracted
# ---------------------------------------------------------------------------

def sweep_params(seed: int, i: int) -> tuple[int, float, int]:
    return 5 + i % 26, DENSITIES[i % 6], seed * 1_000_000 + i


def sweep_graph(seed: int, i: int, trace=None) -> tuple:
    """Graph ``i`` of the sweep, generated and then extracted both ways, with
    chi and both verifiers; returns (i, graph, results, gen s, extract s)."""
    from domminor import exact, extraction, generators

    t0 = time.perf_counter()
    g = generators.random_2k2_free(*sweep_params(seed, i))
    t1 = time.perf_counter()
    model = extraction.extract_dominating(g, trace=trace)
    chi, colors = exact.chromatic_number(g)
    ordinary = extraction.extract_ordinary_minor(g)
    reports = (exact.verify_dominating_model(g, model).valid,
               exact.verify_ordinary_model(g, ordinary).valid)
    t2 = time.perf_counter()
    return i, g, (model, chi, colors, ordinary, reports), t1 - t0, t2 - t1


def sweep_batch(seed: int, b: int, gate: Gate, tracer=None, traces: list | None = None) -> list:
    """Batch ``b`` of the sweep; every raised error counts as a failed graph.
    With a tracer, spans carry the graph index and each graph's extraction
    trace is appended to ``traces``."""
    from domminor import extraction

    out = []
    for i in range(b * BATCH, (b + 1) * BATCH):
        gate.attempted += 1
        trace = None
        if tracer is not None:
            tracer.graph = i
            trace = extraction.Trace()
            traces.append(trace)
        try:
            out.append(sweep_graph(seed, i, trace))
        except Exception as exc:  # a failed operation, not a crash of the benchmark
            gate.fail(f"sweep graph {sweep_params(seed, i)}: {type(exc).__name__}: {exc}")
    return out


def check_sweep(done: list, gate: Gate) -> None:
    for _, g, (model, chi, colors, ordinary, reports), _, _ in done:
        rows = list(g.adj)
        gate.expect(is_2k2_free(rows), f"{rows}: generated graph is not 2K2-free")
        gate.expect(reports == (True, True), f"{rows}: the package's verifiers rejected its models")
        gate.expect(len(model) == chi == len(ordinary), f"{rows}: model sizes differ from chi")
        gate.expect(is_proper_coloring(rows, colors, chi), f"{rows}: chi coloring is not proper")
        gate.expect(is_dominating_model(rows, model), f"{rows}: dominating model fails the check")
        gate.expect(is_ordinary_model(rows, ordinary), f"{rows}: ordinary model fails the check")


def pin_sweep(args, gate: Gate, refs: dict, done: list) -> None:
    if args.seed == DEFAULT_SEED:
        gate.pinned(refs, "sweep:corpus", digest(f"{d[1].n} {d[1].adj}" for d in done))
        gate.pinned(refs, "sweep:chi", digest(str(d[2][1]) for d in done))


def sweep_run(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    """Whole batches until the time is up.  The rate is BATCH over the sum, across
    the 78 (n, p) classes of the cycle, of the median time of the graphs of
    that class (each class has one graph per batch), at the reference speed.
    Per-class medians keep the few heavy graphs a seed happens to draw from
    dominating the rate."""
    clock = ReferenceClock()
    setup = median_setup(
        lambda: time_command([sys.executable, "-c", "import domminor.generators, domminor.extraction"]),
        gate, clock)
    by_class: list[list[float]] = [[] for _ in range(BATCH)]
    gen_s, extract_s, pinned = [], [], []
    measured = wall = 0.0
    b = 0
    while measured < args.seconds or b < PINNED_BATCHES:
        done, batch_s, factor = clock.measure(sweep_batch, args.seed, b, gate)
        if not done:
            break  # every graph of the batch failed
        wall += batch_s
        # the graphs' own timers also ran the speed samples: take them out
        factor *= batch_s / sum(gen + extract for *_, gen, extract in done)
        for i, _, _, gen, extract in done:
            by_class[i % BATCH].append((gen + extract) * factor)
            gen_s.append(gen * factor)
            extract_s.append(extract * factor)
        measured += batch_s
        check_sweep(done, gate)
        if b < PINNED_BATCHES:
            pinned += done
        b += 1
    pin_sweep(args, gate, refs, pinned)
    metrics = {
        "graphs_per_s": metric(BATCH / sum(statistics.median(t) for t in by_class if t), "1/s"),
        "setup_s": metric(setup.scaled_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    p99 = statistics.quantiles(extract_s, n=100)[98] if len(extract_s) >= 1000 else None
    return metrics, {
        "batches": b,
        "wall_graphs_per_s": len(gen_s) / wall,
        "wall_setup_s": setup.wall_s,
        **clock.summary(),
        "gen_graphs_per_s": len(gen_s) / sum(gen_s),
        "extract_graphs_per_s": len(extract_s) / sum(extract_s),
        "graph_ms_p50": statistics.median(extract_s) * 1000,
        "graph_ms_p99": None if p99 is None else p99 * 1000,
        "graph_samples": len(extract_s),
    }


def sweep_trace(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    """The pinned batches, untraced and then traced."""
    from tracer import Tracer

    def work(tracer=None, traces=None) -> tuple[float, list]:
        t0 = time.perf_counter()
        done = []
        for b in range(PINNED_BATCHES):
            done += sweep_batch(args.seed, b, gate, tracer, traces)
        return time.perf_counter() - t0, done

    plain, done = work()
    check_sweep(done, gate)
    traces: list = []
    with Tracer(name) as tracer:
        traced, done = work(tracer, traces)
    check_sweep(done, gate)
    pin_sweep(args, gate, refs, done)
    metrics = layer_metrics(tracer, traces=traces)
    metrics["trace.overhead"] = traced / plain - 1
    return metrics, write_spans(tracer) | {"untraced_s": plain, "traced_s": traced}


# ---------------------------------------------------------------------------
# exact h_d workloads
# ---------------------------------------------------------------------------

def hd_inputs(name: str, seed: int) -> list:
    from domminor import generators

    items = [(label, getattr(generators, call[0])(*call[1:])) for label, call in HD_GRAPHS[name]]
    random.Random(seed).shuffle(items)
    return items


def hd_call(label: str, g, gate: Gate, refs: dict, clock: ReferenceClock | None = None) -> tuple[float, float]:
    """One ``dominating_hadwiger_number`` call, checked after the clock
    stops; returns its wall time and the factor that scales it to the
    reference speed (1 without a clock)."""
    from domminor import exact

    gate.attempted += 1
    t0 = time.perf_counter()
    try:
        if clock is None:
            hd, model = exact.dominating_hadwiger_number(g)
            wall, factor = time.perf_counter() - t0, 1.0
        else:
            (hd, model), wall, factor = clock.measure(exact.dominating_hadwiger_number, g)
    except Exception as exc:  # any raised error is a failed operation, not a crash
        gate.fail(f"{label}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, 1.0
    gate.pinned(refs, f"hd:{label}", hd)
    gate.expect(len(model) == hd and is_dominating_model(list(g.adj), model),
                f"{label}: returned model fails the check")
    return wall, factor


def hd_run(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    setup_code = ("import domminor.generators as G, domminor.exact; "
                  + "; ".join(f"G.{c[0]}{tuple(c[1:])}" for _, c in HD_GRAPHS[name]))
    clock = ReferenceClock()
    setup = median_setup(lambda: time_command([sys.executable, "-c", setup_code]), gate, clock)
    items = hd_inputs(name, args.seed)
    scaled: dict = {label: [] for label, _ in items}
    wall: dict = {label: [] for label, _ in items}
    measured = 0.0
    k = 0
    # whole passes first, then graphs in the same order until time is up
    while measured < args.seconds or k < len(items):
        label, g = items[k % len(items)]
        dt, factor = hd_call(label, g, gate, refs, clock)
        scaled[label].append(dt * factor)
        wall[label].append(dt)
        measured += dt
        k += 1
    total = sum(statistics.median(v) for v in scaled.values())
    metrics = {
        "graphs_per_s": metric(len(items) / total, "1/s"),
        "setup_s": metric(setup.scaled_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return metrics, {"class_s": total, "calls": k,
                     "wall_class_s": sum(statistics.median(v) for v in wall.values()),
                     "wall_setup_s": setup.wall_s, **clock.summary(),
                     "graph_s": {label: statistics.median(v) for label, v in scaled.items()}}


def hd_trace(name: str, args, gate: Gate, refs: dict) -> tuple[dict, dict]:
    from tracer import Tracer

    items = hd_inputs(name, args.seed)

    def one_pass(tracer=None) -> float:
        total = 0.0
        for label, g in items:
            if tracer is not None:
                tracer.graph = label
            total += hd_call(label, g, gate, refs)[0]
        return total

    plain = one_pass()
    with Tracer(name) as tracer:
        traced = one_pass(tracer)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = traced / plain - 1
    return metrics, write_spans(tracer) | {"untraced_s": plain, "traced_s": traced}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer, traces: list | None = None) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    s = tracer.summary()
    calls, busy, self_s, by_parent = s["calls"], s["busy"], s["self"], s["by_parent"]

    def under(name: str, layer: str) -> int:
        return sum(v for (n, p), v in by_parent.items() if n == name and p and p.startswith(layer + "."))

    def per(num: float, den: float) -> float:
        return num / den if den else 0

    scans = by_parent[("patterns.find_2k2", "generators.random_2k2_free")]
    m = {
        "generators.repair_scans": scans,
        "generators.graphs_per_scan": per(calls["generators.random_2k2_free"], scans),
        "generators.random_2k2_free.busy_s": busy["generators.random_2k2_free"],
        "extraction.chi_calls_per_graph": per(under("exact.chromatic_number", "extraction"),
                                              calls["extraction.extract_dominating"]),
        "hunt.chi_calls_per_graph": per(under("exact.chromatic_number", "hunt"), calls["hunt.check_graph"]),
        "exact.enumerate_connected_sets.yields": tracer.counts["exact.enumerate_connected_sets.yields"],
        "exact.dominating_hadwiger_number.probes":
            by_parent[("exact.has_dominating_kt", "exact.dominating_hadwiger_number")],
        "hunt.self_s": self_s["hunt.run_hunt"],
        "hunt.parallel_eff": 0,
        "hunt.records": 0,
        "hunt.output_bytes": 0,
    }
    for key in LAYER_UNITS:
        base, _, kind = key.rpartition(".")
        if key in m or key.startswith("extraction.branch.") or kind not in ("calls", "busy_s", "self_s"):
            continue
        m[key] = {"calls": calls, "busy_s": busy, "self_s": self_s}[kind][base]
    events = [e for t in traces or () for e in t.events]
    for b in BRANCHES:
        m[f"extraction.branch.{b}"] = sum(1 for e in events if e["branch"] == b)
    m["extraction.max_depth"] = max((e["depth"] for e in events), default=0)
    return m


def write_spans(tracer) -> dict:
    path = WORK / f"spans-{tracer.workload}.tsv"
    tracer.write(path)
    return {"spans": len(tracer.spans), "spans_file": str(path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = {  # name -> (untraced run, traced run), each called as f(name, args, gate, refs)
    "atlas-scan": (atlas_run, atlas_trace),
    "atlas-hunt": (atlas_run, atlas_trace),
    "sweep-2k2": (sweep_run, sweep_trace),
    "hd-dense": (hd_run, hd_trace),
    "hd-sparse": (hd_run, hd_trace),
}


def machine_load() -> dict:
    """Load average and cumulative steal seconds (all CPUs), read-only from /proc."""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
        steal = int(Path("/proc/stat").read_text().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return {"loadavg": None, "steal_s": None}
    return {"loadavg": loadavg, "steal_s": steal}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "domminor").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src_hash.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def load_package() -> str | None:
    """Import the checkout's package; returns why that failed, or None."""
    if not (SRC / "domminor" / "__init__.py").is_file():
        return f"no package source at {SRC / 'domminor'}; run from the root of a domminor checkout"
    missing = [n for n in range(9) if not (ATLAS_DIR / f"graphs{n}.g6").is_file()]
    if missing:
        return f"missing atlas files graphs{missing}.g6 in {ATLAS_DIR}"
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import domminor

    if Path(domminor.__file__).resolve().parent != (SRC / "domminor").resolve():
        return f"imported domminor from {domminor.__file__}, not from {SRC}"
    WORK.mkdir(exist_ok=True)
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0, help="timed work per run (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", type=Path, default=REFS, help="pinned references (JSON)")
    args = ap.parse_args(argv)

    problem = load_package()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    refs = json.loads(args.refs.read_text())

    env = environment()
    load = machine_load()
    gate = Gate()
    t0 = time.perf_counter()
    run = WORKLOADS[args.workload][args.trace]
    try:
        values, info = run(args.workload, args, gate, refs)
    except Exception as exc:  # a program so broken that no metric exists is a failed run
        traceback.print_exc()
        gate.fail(f"the run stopped: {type(exc).__name__}: {exc}")
        values, info = {}, {}
    if args.trace and values:
        values = {k: metric(values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}
    end = machine_load()
    steal = end["steal_s"] - load["steal_s"] if load["steal_s"] is not None and end["steal_s"] is not None else None
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "pinned": args.seed == DEFAULT_SEED, "run_s": time.perf_counter() - t0,
                      **env, "loadavg": load["loadavg"], "loadavg_end": end["loadavg"],
                      "steal_s": steal, **info, "errors": gate.messages}))
    for message in gate.messages:
        print(f"bench: FAILED {message}", file=sys.stderr)
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(gate.attempted, 1), "failed": gate.failed,
                      "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
