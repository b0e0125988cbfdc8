"""Acceptance suite: one test per release criterion, at full stated size.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion PASS
lines.  The random corpora are fully seeded, so every run checks the identical
graphs.  Criteria 1-2 feed the branch-coverage ledger that criterion 7
inspects, but criterion 7 covers every branch on its own: it drives the named
families and the crafted hosts from helpers.py, which deterministically reach
the branches random graphs essentially never produce (the fully regular final
construction needs five same-size matched classes).  CI also runs it alone.
"""

import itertools
from functools import lru_cache
from pathlib import Path

from helpers import (
    branches,
    complete_neighbor_host,
    final_host,
    forced_k4_host,
    has_kt_minor,
    is_proper_coloring,
    singleton_class_host,
)

from domminor.exact import (
    chromatic_number,
    clique_number,
    dominating_hadwiger_number,
    has_dominating_kt,
    verify_dominating_model,
    verify_ordinary_model,
)
from domminor.extraction import Trace, extract_dominating, extract_ordinary_minor
from domminor.generators import (
    banner,
    complete,
    complete_multipartite,
    cycle,
    one_subdivision_complete,
    random_2k2_free,
    t_graph,
)
from domminor.graphs import Graph, complement, emit_graph6, from_edge_list, parse_graph6
from domminor.hunt import HuntConfig, run_hunt

DATA = Path(__file__).parent / "data"

C1_COUNT = 10_000
C2_COUNT = 1_000
ATLAS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# branch-coverage ledger shared by criteria 1, 2 and 7
_seen_branches: set[str] = set()
_seen_parities: set[str] = set()


def _note(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


def _absorb(trace: Trace) -> None:
    _seen_branches.update(branches(trace))
    for e in trace.events:
        if e["branch"] == "final_construction":
            _seen_parities.add(e["parity"])


def _c1_params(i: int) -> tuple[int, float, int]:
    n = 5 + i % 26
    p = (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)[i % 6]
    return n, p, i


@lru_cache(maxsize=1)
def _c1_corpus() -> list[Graph]:
    return [random_2k2_free(*_c1_params(i)) for i in range(C1_COUNT)]


@lru_cache(maxsize=1)
def _atlas(n: int) -> list[Graph]:
    return [parse_graph6(line) for line in (DATA / f"graphs{n}.g6").read_text().split()]


def test_criterion_1_extraction_end_to_end():
    for i, g in enumerate(_c1_corpus()):
        trace = Trace()
        # any internal-error branch raises and fails the criterion
        model = extract_dominating(g, trace=trace)
        chi, _ = chromatic_number(g)
        assert len(model) == chi, f"graph {i}: {len(model)} sets for chi={chi}"
        report = verify_dominating_model(g, model)
        assert report.valid, f"graph {i}: {report.message}"
        _absorb(trace)
    _note(
        1,
        f"{C1_COUNT} seeded random 2K2-free graphs (5<=n<=30): every model "
        "verified with exactly chi sets, zero internal errors",
    )


def test_criterion_2_oracle_agreement():
    for i in range(C2_COUNT):
        n = 4 + i % 7
        p = (0.15, 0.3, 0.5, 0.7)[i % 4]
        g = random_2k2_free(n, p, 10_000_000 + i)
        chi, _ = chromatic_number(g)
        trace = Trace()
        model = extract_dominating(g, trace=trace)
        _absorb(trace)
        hd, witness = dominating_hadwiger_number(g)
        assert hd >= chi, f"graph {i}: hd={hd} < chi={chi}"
        assert len(model) <= hd, f"graph {i}: extractor exceeded hd"
        assert has_dominating_kt(g, chi) is not None, f"graph {i}: no dominating K_chi"
    _note(
        2,
        f"{C2_COUNT} random 2K2-free graphs (n<=10): hd >= chi, extractor "
        "size <= hd, dominating K_chi present in all cases",
    )


def test_criterion_3_subdivided_complete_graphs():
    for k in (4, 5):
        g = one_subdivision_complete(k)
        assert has_dominating_kt(g, 4) is None, f"subdivided K{k} has no dominating K4"
        assert has_dominating_kt(g, 3) is not None
        hd, _ = dominating_hadwiger_number(g)
        assert hd == 3
    # an explicit ordinary K4 model: branch vertex i with the subdivision
    # vertices of its edges to later branch vertices
    g = one_subdivision_complete(4)
    model = [1 << i for i in range(4)]
    for s in range(4, g.n):
        model[(g.adj[s] & -g.adj[s]).bit_length() - 1] |= 1 << s
    assert verify_ordinary_model(g, tuple(model)).valid
    assert has_kt_minor(g, 4)
    _note(3, "1-subdivisions of K4 and K5 have hd = 3 exactly; ordinary K4 minor present")


def test_criterion_4_t3_equivalence_full_atlas():
    checked = 0
    for n in range(8):
        for g in _atlas(n):
            for t in (1, 2, 3):
                dom = has_dominating_kt(g, t) is not None
                ordi = has_kt_minor(g, t)
                assert dom == ordi, f"disagreement at n={n}, t={t}, g={emit_graph6(g)}"
                checked += 1
    assert checked == 1253 * 3
    _note(4, "dominating and ordinary deciders agree for t<=3 on all 1,253 graphs with n<=7")


def test_criterion_5_conjecture_scan(tmp_path):
    corpus = tmp_path / "all_le8.g6"
    with corpus.open("w") as fh:
        for n in range(9):
            fh.write((DATA / f"graphs{n}.g6").read_text())
    out = tmp_path / "records.jsonl"
    summary = run_hunt(
        HuntConfig(
            input_path=str(corpus),
            output_path=str(out),
            checks=("dominating-hadwiger",),
            workers=2,
            time_budget_s=120.0,
        )
    )
    total = sum(ATLAS_COUNTS.values())
    assert summary.total == total == 13599
    assert summary.counterexamples == []
    assert summary.verdicts == {"holds": total}
    assert summary.exit_code == 0
    _note(5, f"hunt over all {total} graphs on <=8 vertices: zero counterexamples")


def test_criterion_6_ordinary_extraction_corpus():
    for i, g in enumerate(_c1_corpus()):
        model = extract_ordinary_minor(g)
        chi, _ = chromatic_number(g)
        assert len(model) == chi, f"graph {i}"
        assert verify_ordinary_model(g, model).valid, f"graph {i}"
    _note(6, f"ordinary-minor extraction verified with exactly chi sets on all {C1_COUNT} graphs")


def test_criterion_7_branch_coverage():
    # named families
    named = [
        cycle(5),
        t_graph(),
        banner(),
        complete_multipartite([2, 2, 2]),
        complete(5),
        from_edge_list(5, list(itertools.combinations(range(4), 2)) + [(0, 4)]),
    ]
    # crafted hosts reaching the branches random graphs essentially never hit;
    # the atlas graph E_lo completes a banner step inside the low-degree branch
    crafted = [
        parse_graph6("E_lo"),
        complement(cycle(7)),
        singleton_class_host(),
        forced_k4_host(),
        final_host(2),
        final_host(3),
        complete_neighbor_host(),
    ]
    for g in named + crafted:
        trace = Trace()
        extract_dominating(g, trace=trace)
        _absorb(trace)

    required = {
        "banner_completed",
        "banner_structure",
        "c4_reduction",
        "split_graph",
        "low_degree_c5",
        "low_degree_k4",
        "y_empty",
        "y_small",
        "y_complete_neighbor",
        "final_construction",
    }
    missing = required - _seen_branches
    assert not missing, f"branches never executed: {sorted(missing)}"
    assert _seen_parities == {"even", "odd"}, f"final-construction parities seen: {_seen_parities}"
    _note(7, f"all {len(required)} extraction branches executed, final construction in both parities")


def test_criterion_8_graph6_fidelity():
    assert sorted(parse_graph6("Dhc").edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)
    total = 0
    for n in range(9):
        lines = (DATA / f"graphs{n}.g6").read_text().split()
        assert len(lines) == ATLAS_COUNTS[n]
        for line in lines:
            g = parse_graph6(line)
            assert parse_graph6(emit_graph6(g)) == g
            assert emit_graph6(g) == line
            total += 1
    assert total == 13599
    _note(8, f"graph6 round-trip identity on all {total} corpus graphs; Dhc=C5 and A_=K2 exact")


def test_criterion_9_invariant_suites():
    # (a) suffix validity of dominating models, on solver witnesses
    suffix_checked = 0
    for g in _atlas(5) + _atlas(6):
        if g.n == 0:
            continue
        _, model = dominating_hadwiger_number(g)
        for k in range(len(model)):
            assert verify_dominating_model(g, model[k:]).valid
            suffix_checked += 1

    # (b) edge-addition monotonicity of hd on every graph with n <= 6
    mono_checked = 0
    for n in range(1, 7):
        for g in _atlas(n):
            hd, _ = dominating_hadwiger_number(g)
            for u, v in itertools.combinations(range(g.n), 2):
                if g.has_edge(u, v):
                    continue
                adj = list(g.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                hd2, _ = dominating_hadwiger_number(Graph(g.n, tuple(adj)))
                assert hd2 >= hd, f"edge ({u},{v}) on {emit_graph6(g)} dropped hd"
                mono_checked += 1

    # (c) omega <= hd <= ordinary Hadwiger number: every dominating model is
    # an ordinary one, which certifies hd <= h; the ordinary decider probes h
    sandwich_checked = 0
    for n in range(1, 7):
        for g in _atlas(n):
            omega, _ = clique_number(g)
            hd, model = dominating_hadwiger_number(g)
            assert verify_ordinary_model(g, model).valid
            hadwiger = omega
            while hadwiger < g.n and has_kt_minor(g, hadwiger + 1):
                hadwiger += 1
            assert omega <= hd <= hadwiger
            sandwich_checked += 1

    # (d) coloring properness and the clique/greedy sandwich
    for n in range(8):
        for g in _atlas(n):
            k, coloring = chromatic_number(g)
            omega, _ = clique_number(g)
            assert omega <= k <= g.n or (g.n == 0 and k == 0)
            if g.n:
                assert is_proper_coloring(g, coloring, k)
    _note(
        9,
        f"invariants green: {suffix_checked} suffixes valid, hd monotone over "
        f"{mono_checked} edge additions, omega<=hd<=hadwiger on {sandwich_checked} "
        "graphs, all colorings proper",
    )
