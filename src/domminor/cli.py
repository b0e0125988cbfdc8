"""Command-line entry point.

Every subcommand writes a single JSON object to standard output (``--plain``
switches to terse human-readable text), with a top-level ``schema`` field.
Exit codes: 0 success, 1 operational error (parse failure, capacity,
precondition violation) or a hunt record with verdict ``internal-error``
(a record whose own evidence contradicts it, such as a chi that a
(chi-1)-colouring refutes), 2 negative verification verdict or
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exact, extraction, generators, hunt as hunt_mod, patterns
from .graphs import (
    DEFAULT_GRAPH6_CAP,
    Graph,
    GraphError,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    to_dot,
)


class CliError(Exception):
    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


def _read_graph_text(args) -> str:
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise CliError(f"cannot read graph file: {exc}")
    if args.graph is None:
        raise CliError("a graph literal or --file is required")
    return args.graph


def _load_graph(args) -> Graph:
    text = _read_graph_text(args)
    fmt = args.format
    if fmt == "auto":
        head = text.lstrip()[:1]
        fmt = "edges" if head.isdigit() or head == "#" else "g6"
    try:
        if fmt == "edges":
            return parse_edge_list(text, cap=args.g6_cap)
        return parse_graph6(text, cap=args.g6_cap)
    except GraphError as exc:
        raise CliError(f"graph parse error: {exc}")


def _print(args, obj: dict, plain: str) -> None:
    if args.plain:
        print(plain)
    else:
        print(json.dumps(obj))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    chi, _ = exact.chromatic_number(g)
    omega, omega_witness = exact.clique_number(g)
    alpha, _ = exact.independence_number(g)
    w2 = patterns.find_2k2(g)
    c4 = patterns.find_induced_cycle(g, 4)
    c5 = patterns.find_induced_cycle(g, 5)
    ban = patterns.find_banner(g)
    # each witness with the role names of its positions, in template order
    witnesses = {
        "two_k2": (w2, ("a1", "a2", "b1", "b2")),
        "c4": (c4, ("c0", "c1", "c2", "c3")),
        "c5": (c5, ("c0", "c1", "c2", "c3", "c4")),
        "banner": (ban, ("b1", "b2", "b3", "b", "bp")),
    }
    found = {key: None if w is None else dict(zip(names, w)) for key, (w, names) in witnesses.items()}
    obj = {
        "schema": "domminor/analyze/v1",
        "n": g.n,
        "m": g.edge_count(),
        "chi": chi,
        "omega": omega,
        "alpha": alpha,
        "is_2k2_free": w2 is None,
        "is_split": w2 is None and c4 is None and c5 is None,
        "max_clique": exact.set_to_list(omega_witness),
        "found_patterns": found,
    }
    _print(
        args,
        obj,
        f"n={g.n} m={obj['m']} chi={chi} omega={omega} alpha={alpha} "
        f"2k2-free={obj['is_2k2_free']} split={obj['is_split']}",
    )
    return 0


def _cmd_extract(args) -> int:
    g = _load_graph(args)
    trace = extraction.Trace() if args.trace else None
    extracted = False
    try:
        if args.mode == "dominating":
            model = extraction.extract_dominating(g, trace=trace)
            report = exact.verify_dominating_model(g, model)
        else:
            model = extraction.extract_ordinary_minor(g, trace=trace)
            report = exact.verify_ordinary_model(g, model)
        extracted = True
    except extraction.Not2K2FreeError as exc:
        raise CliError(str(exc), {"witness": list(exc.witness)})
    finally:
        if trace is not None:
            try:
                trace.write(args.trace)
            except OSError as exc:
                if extracted:  # otherwise the extraction's own error is the one reported
                    raise CliError(f"cannot write trace: {exc}")
    chi, _ = exact.chromatic_number(g)
    obj = {
        "schema": "domminor/extract/v1",
        "mode": args.mode,
        "chi": chi,
        "sets": len(model),
        "model": exact.model_to_lists(model),
        "verdict": "valid" if report.valid else "invalid",
    }
    _print(args, obj, f"chi={chi} model={obj['model']} verdict={obj['verdict']}")
    return 0 if report.valid else 2


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    try:
        lists = json.loads(args.model)
        model = exact.model_from_lists(lists)
    except (ValueError, TypeError) as exc:
        raise CliError(f"malformed model JSON: {exc}")
    report = (
        exact.verify_ordinary_model(g, model)
        if args.ordinary
        else exact.verify_dominating_model(g, model)
    )
    obj = {
        "schema": "domminor/verify/v1",
        "kind": "ordinary" if args.ordinary else "dominating",
        "valid": report.valid,
        "condition": report.condition,
        "set_index": report.set_index,
        "other_index": report.other_index,
        "witness": report.witness,
        "message": report.message,
    }
    _print(args, obj, report.message)
    return 0 if report.valid else 2


def _cmd_hd(args) -> int:
    g = _load_graph(args)
    try:
        hd, witness = exact.dominating_hadwiger_number(g, cap=args.cap)
    except ValueError as exc:  # the empty graph
        raise CliError(str(exc))
    obj = {
        "schema": "domminor/hd/v1",
        "hd": hd,
        "witness": exact.model_to_lists(witness),
    }
    _print(args, obj, f"hd={hd} witness={obj['witness']}")
    return 0


def _cmd_gen(args) -> int:
    name = args.family
    if name in ("gnp", "2k2-free"):
        if args.seed is None:
            raise CliError(f"family {name!r} requires an explicit --seed")
        if len(args.params) != 2:
            raise CliError(f"family {name!r} takes parameters: n p")
        try:
            n, p = int(args.params[0]), float(args.params[1])
        except ValueError:
            raise CliError(f"family {name!r} needs an integer n and a number p, got {args.params}")
        make = generators.random_gnp if name == "gnp" else generators.random_2k2_free
        try:
            g = make(n, p, args.seed)
        except ValueError as exc:
            raise CliError(str(exc))
    else:
        params = []
        for x in args.params:
            try:
                params.append(int(x))
            except ValueError:
                raise CliError(f"family {name!r} takes integer parameters, got {x!r}")
        try:
            g = generators.family(name, params)
        except ValueError as exc:
            raise CliError(str(exc))
    s = emit_graph6(g)
    _print(args, {"schema": "domminor/gen/v1", "family": name, "n": g.n, "graph6": s}, s)
    return 0


def _cmd_convert(args) -> int:
    g = _load_graph(args)
    if args.to == "g6":
        out = emit_graph6(g)
    elif args.to == "edges":
        out = emit_edge_list(g)
    else:
        out = to_dot(g)
    _print(args, {"schema": "domminor/convert/v1", "to": args.to, "output": out}, out)
    return 0


def _cmd_hunt(args) -> int:
    cfg = hunt_mod.HuntConfig(
        input_path=None if args.input in (None, "-") else args.input,
        output_path=args.output,
        checks=tuple(args.checks),
        graph_filter=args.filter,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        time_budget_s=args.budget,
        exact_cap=args.cap,
    )
    summary = hunt_mod.run_hunt(cfg)
    print(summary.to_json())
    return summary.exit_code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="domminor",
        description="Dominating clique minors: exact search, constructive "
        "extraction on 2K2-free graphs, and corpus hunting.",
    )
    ap.add_argument("--plain", action="store_true", help="terse text output instead of JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("graph", nargs="?", help="inline graph literal (graph6 or edge list)")
        p.add_argument("--file", help="read the graph from this file instead")
        p.add_argument("--format", choices=["auto", "g6", "edges"], default="auto")
        p.add_argument("--g6-cap", type=int, default=DEFAULT_GRAPH6_CAP, help="largest vertex count, either format")

    p = sub.add_parser("analyze", help="exact invariants and pattern witnesses")
    add_graph_args(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("extract", help="extract a clique-minor model of order chi")
    add_graph_args(p)
    p.add_argument("--mode", choices=["dominating", "ordinary"], default="dominating")
    p.add_argument("--trace", help="write the extraction trace (JSONL) to this path")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("verify", help="verify a minor model against a graph")
    add_graph_args(p)
    p.add_argument("--model", required=True, help="JSON array of arrays of vertex ids")
    p.add_argument("--ordinary", action="store_true", help="check the ordinary (some-vertex) condition")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hd", help="exact dominating Hadwiger number")
    add_graph_args(p)
    p.add_argument("--cap", type=int, default=exact.DEFAULT_SEARCH_CAP)
    p.set_defaults(fn=_cmd_hd)

    p = sub.add_parser("gen", help="generate a named or random family graph")
    p.add_argument("family", help="one of: " + ", ".join(generators.family_names() + ["gnp", "2k2-free"]))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, help="seed for random families (required there)")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("convert", help="convert between graph formats")
    add_graph_args(p)
    p.add_argument("--to", choices=["g6", "edges", "dot"], required=True)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("hunt", help="scan a graph6 corpus for conjecture counterexamples")
    p.add_argument("--input", help="corpus path; '-' or omitted reads stdin")
    p.add_argument("--output", help="write JSONL records to this file (required with --checkpoint)")
    p.add_argument(
        "--checks",
        nargs="+",
        choices=list(hunt_mod.KNOWN_CHECKS),
        default=["dominating-hadwiger"],
    )
    p.add_argument("--filter", choices=list(hunt_mod.KNOWN_FILTERS))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.add_argument("--budget", type=float, default=60.0, help="per-graph time budget in seconds")
    p.add_argument("--cap", type=int, default=exact.DEFAULT_SEARCH_CAP)
    p.set_defaults(fn=_cmd_hunt)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"schema": "domminor/error/v1", "error": str(exc), **exc.payload}))
        return 1
    except (GraphError, exact.CapacityError, hunt_mod.HuntError, extraction.ExtractionError) as exc:
        print(json.dumps({"schema": "domminor/error/v1", "error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
