#!/usr/bin/env python3
"""Rewrite bench/refs.json from the package in this checkout.

Runs the workloads whose outputs are pinned once, at the default seed and
minimum size, and records every value the correctness gate compares.  Use it
only when a change is meant to alter those outputs, and say so in the change.

    python3 bench/pin_refs.py
"""

from __future__ import annotations

import argparse
import json
import sys

import run

PINNED_WORKLOADS = ("atlas-scan", "atlas-hunt", "sweep-2k2", "hd-dense", "hd-sparse")


def main() -> int:
    problem = run.load_package()
    if problem is not None:
        print(f"pin_refs: {problem}", file=sys.stderr)
        return 2
    observed = {}
    for name in PINNED_WORKLOADS:
        gate = run.Gate()
        args = argparse.Namespace(seed=run.DEFAULT_SEED, seconds=0)
        run.WORKLOADS[name][0](name, args, gate, {})
        unpinned = [m for m in gate.messages if not m.startswith("no pinned reference")]
        if unpinned:
            print(f"pin_refs: {name} failed its checks: {unpinned}", file=sys.stderr)
            return 1
        observed |= gate.observed
    run.REFS.write_text(json.dumps(dict(sorted(observed.items())), indent=1) + "\n")
    print(f"wrote {len(observed)} references to {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
