#!/usr/bin/env python3
"""Scan the vendored atlas (every graph on <= 8 vertices) for counterexamples
to the Dominating Hadwiger's Conjecture.

Concatenates tests/data/graphs{0..N}.g6, runs the dominating-hadwiger check
with worker processes, and prints the summary JSON. Exit code 2 would signal
a counterexample; expected result is all-holds.

    python3 scripts/hunt_atlas.py --workers 4 --max-n 8
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domminor.hunt import KNOWN_CHECKS, HuntConfig, run_hunt  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--output", help="JSONL record path (default: temp file)")
    ap.add_argument("--checks", nargs="+", choices=KNOWN_CHECKS, default=["dominating-hadwiger"])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "atlas.g6"
        with corpus.open("w") as fh:
            for n in range(args.max_n + 1):
                src = DATA / f"graphs{n}.g6"
                if not src.exists():
                    raise SystemExit(f"missing corpus {src}; run scripts/gen_atlas.py first")
                fh.write(src.read_text())
        out = args.output or str(Path(tmp) / "records.jsonl")
        summary = run_hunt(
            HuntConfig(
                input_path=str(corpus),
                output_path=out,
                checks=tuple(args.checks),
                workers=args.workers,
                time_budget_s=120.0,
            )
        )
    print(summary.to_json())
    return summary.exit_code


if __name__ == "__main__":
    sys.exit(main())
