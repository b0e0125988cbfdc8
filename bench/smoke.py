#!/usr/bin/env python3
"""The benchmark's own check, at reduced size (about three minutes on 2 cores).

    python3 bench/smoke.py

1. Every workload in BENCHMARK.json, run with ``--seconds 1``, prints every
   end-to-end metric (``--trace 0``) and every per-layer metric
   (``--trace 1``) named there, each with its unit, and passes its
   correctness gate.
2. Exact counts of a traced run repeat identically when it is run again.
3. The correctness gate trips on a wrong pinned reference (a corrupted copy
   of refs.json passed with ``--refs``), with the program unchanged.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"


def bench(*argv: str, cwd: Path = ROOT, script: Path = BENCH / "run.py") -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(script), *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    traced = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, err = bench("--workload", w["name"], "--seed", "0", "--seconds", "1",
                                      "--trace", str(trace))
            label = f"{w['name']} --trace {trace}"
            if result is None:
                expect(False, f"{label}: no result line (exit {code}): {err.strip()[-300:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{label}: gate passes ({result['attempted']} attempted)")
            expect(got == wanted[trace], f"{label}: every named metric, with its unit")
            if trace:
                traced[w["name"]] = result["metrics"]

    for name in ("sweep-2k2", "hd-sparse"):
        _, again, _ = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "1")
        counts = {k for k, unit in wanted[1].items() if unit == "count"}
        same = again is not None and name in traced and all(
            again["metrics"][k]["value"] == traced[name][k]["value"] for k in counts)
        expect(same, f"{name}: exact counts repeat across traced runs")

    refs = json.loads((BENCH / "refs.json").read_text())
    WORK.mkdir(exist_ok=True)
    for key, workload in (("atlas:dominating-hadwiger", "atlas-scan"),
                          ("sweep:corpus", "sweep-2k2"),
                          ("hd:gnp(16,.2,1)", "hd-sparse")):
        wrong = dict(refs)
        wrong[key] = wrong[key] + 1 if isinstance(wrong[key], int) else "0" * len(wrong[key])
        path = WORK / "wrong-refs.json"
        path.write_text(json.dumps(wrong))
        code, result, _ = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                                "--refs", str(path))
        expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
               f"{workload}: gate trips on a wrong pinned {key!r}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "hd-sparse", "--seed", "0", "--seconds", "1",
                            cwd=bare, script=bare / "bench" / "run.py")
    expect(code != 0 and result is None, "without the package source: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
