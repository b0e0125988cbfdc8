import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    branches,
    c5_blowup,
    complete_neighbor_host,
    final_host,
    forced_k4_host,
    pendant_class_host,
    pentagon,
    perturbed_host,
    singleton_class_host,
    wheel5,
)

import domminor
import domminor.extraction as ex
from domminor.exact import (
    chromatic_number,
    dominating_hadwiger_number,
    model_to_lists,
    verify_dominating_model,
    verify_ordinary_model,
)
from domminor.extraction import (
    EnumerationCapError,
    InternalContradictionError,
    Not2K2FreeError,
    Structure,
    Trace,
    extract_dominating,
    extract_ordinary_minor,
)
from domminor.generators import (
    banner,
    complete,
    complete_multipartite,
    cycle,
    one_subdivision_complete,
    random_2k2_free,
    t_graph,
    two_k2,
)
from domminor.graphs import bits, complement, emit_graph6, from_edge_list, mask_of, parse_graph6
from domminor.patterns import find_banner, find_induced_cycle, is_2k2_free


def assert_sound(g, trace=None):
    model = extract_dominating(g, trace=trace)
    chi, _ = chromatic_number(g)
    assert len(model) == chi
    assert verify_dominating_model(g, model).valid
    return model


def test_package_exports_resolve():
    missing = [name for name in domminor.__all__ if not hasattr(domminor, name)]
    assert missing == []


class TestEndToEnd:
    def test_c5(self):
        tr = Trace()
        model = assert_sound(cycle(5), tr)
        assert model_to_lists(model) == [[0, 1, 2], [3], [4]]
        assert "y_empty" in branches(tr)

    def test_octahedron_clique_shortcut(self):
        tr = Trace()
        model = assert_sound(complete_multipartite([2, 2, 2]), tr)
        assert len(model) == 3
        assert "clique" in branches(tr)

    def test_k4_plus_pendant_split(self):
        g = from_edge_list(5, list(itertools.combinations(range(4), 2)) + [(0, 4)])
        tr = Trace()
        model = assert_sound(g, tr)
        assert model_to_lists(model) == [[0], [1], [2], [3]]
        assert "split_graph" in branches(tr)

    def test_wheel(self):
        tr = Trace()
        model = assert_sound(wheel5(), tr)
        assert len(model) == 4
        assert "y_empty" in branches(tr)

    def test_complement_c7_routes_through_c4_reduction(self):
        g = complement(cycle(7))
        assert find_banner(g) is None
        tr = Trace()
        model = assert_sound(g, tr)
        assert len(model) == 4
        assert "c4_reduction" in branches(tr)

    def test_singleton_class_host(self):
        tr = Trace()
        assert_sound(singleton_class_host(), tr)
        assert "y_small" in branches(tr)

    def test_forced_k4_host(self):
        tr = Trace()
        assert_sound(forced_k4_host(), tr)
        assert {"banner_structure", "low_degree_c5", "low_degree_k4"} <= branches(tr)

    @pytest.mark.parametrize("m", [2, 3])
    def test_final_construction_host(self, m):
        tr = Trace()
        assert_sound(final_host(m), tr)
        finals = [e for e in tr.events if e["branch"] == "final_construction"]
        assert finals and finals[0]["m"] == m
        assert "c5_partition" in branches(tr)

    def test_complete_neighbor_host(self):
        tr = Trace()
        assert_sound(complete_neighbor_host(), tr)
        assert "y_complete_neighbor" in branches(tr)

    def test_pendant_class_host(self):
        # an edge from the anticomplete side into a miss-class whose classes
        # all have size >= 2; needs the dedicated four-set reduction
        tr = Trace()
        assert_sound(pendant_class_host(), tr)
        assert "independent_side_edge" in branches(tr)

    def test_not_2k2_free_rejected(self):
        with pytest.raises(Not2K2FreeError) as ei:
            extract_dominating(two_k2())
        assert ei.value.witness == (0, 1, 2, 3)

    def test_deterministic(self):
        g = random_2k2_free(14, 0.3, 77)
        assert extract_dominating(g) == extract_dominating(g)

    def test_disconnected_input(self):
        # 2K2-free disconnected graphs are one real component plus isolated
        # vertices; the machinery absorbs the isolated ones
        g = from_edge_list(7, [(i, (i + 1) % 5) for i in range(5)])
        assert_sound(g)

    def test_random_sweep(self):
        for seed in range(150):
            n = 5 + seed % 22
            p = (0.1, 0.25, 0.4, 0.6, 0.85)[seed % 5]
            assert_sound(random_2k2_free(n, p, seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=1, max_value=14))
    def test_random_property(self, seed, n):
        assert_sound(random_2k2_free(n, 0.35, seed))

    def test_oracle_agreement_small(self):
        for seed in range(40):
            g = random_2k2_free(4 + seed % 6, 0.4, seed)
            chi, _ = chromatic_number(g)
            model = extract_dominating(g)
            hd, _ = dominating_hadwiger_number(g)
            assert hd >= chi
            assert len(model) <= hd

    def test_cap_error(self, monkeypatch):
        # the cap is read when the C5 scan runs, so patching the constant binds
        monkeypatch.setattr(ex, "DEFAULT_C5_CAP", 1)
        with pytest.raises(EnumerationCapError, match="DEFAULT_C5_CAP"):
            extract_dominating(final_host(2))

    def test_trace_jsonl(self, tmp_path):
        tr = Trace()
        assert_sound(cycle(5), tr)
        path = tmp_path / "trace.jsonl"
        tr.write(path)
        import json

        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines and all("branch" in e and "depth" in e for e in lines)


def chi_of(g):
    return chromatic_number(g)[0]


class TestBannerStep:
    def test_banner_alone_completes(self):
        g = banner()
        emb = find_banner(g)
        model = ex._banner_step(g, emb, chi_of(g), ex._Ctx(), 0)
        assert model_to_lists(model) == [[0, 3, 4], [1, 2]]
        assert verify_dominating_model(g, model).valid

    def test_t_graph_yields_structure(self):
        g = t_graph()
        emb = find_banner(g)
        assert emb == (0, 1, 2, 5, 6)
        out = ex._banner_step(g, emb, chi_of(g), ex._Ctx(), 0)
        assert isinstance(out, Structure)
        assert {out.b4, out.b5} == {3, 4}
        assert g.has_edge(out.b4, out.b5)

    def test_completed_models_dominate_both_pairs(self):
        # the atlas graph E_lo reaches the banner step inside the low-degree
        # branch, and there the step completes: its two pairs lead the model
        g = parse_graph6("E_lo")
        tr = Trace()
        model = extract_dominating(g, trace=tr)
        [event] = [e for e in tr.events if e["branch"] == "banner_completed"]
        assert model_to_lists(model)[:2] == event["prefix"]
        assert verify_dominating_model(g, model).valid
        assert ex._banner_step(g, tuple(event["banner"]), chi_of(g), ex._Ctx(), 0) == model


class TestC4Reduction:
    def test_octahedron(self):
        g = complete_multipartite([2, 2, 2])
        emb = find_induced_cycle(g, 4)
        model = ex._c4_reduction(g, emb, chi_of(g), ex._Ctx(), 0)
        assert len(model) == 3
        assert verify_dominating_model(g, model).valid

    def test_degenerate_c4_itself(self):
        g = cycle(4)
        emb = find_induced_cycle(g, 4)
        model = ex._c4_reduction(g, emb, chi_of(g), ex._Ctx(), 0)
        assert len(model) == 2
        assert verify_dominating_model(g, model).valid


class TestSplitModel:
    # a split graph ends at once in the clique base case, traced as split_graph
    def split_model(self, g):
        tr = Trace()
        model = assert_sound(g, tr)
        assert [e["branch"] for e in tr.events] == ["split_graph"]
        return model

    def test_k4_plus_pendant(self):
        g = from_edge_list(5, list(itertools.combinations(range(4), 2)) + [(0, 4)])
        assert model_to_lists(self.split_model(g)) == [[0], [1], [2], [3]]

    def test_complete_graph(self):
        assert len(self.split_model(complete(6))) == 6

    def test_star(self):
        g = from_edge_list(6, [(0, i) for i in range(1, 6)])
        assert len(self.split_model(g)) == 2


class TestLowDegreeStep:
    def test_low_degree_completes_on_wheel_plus_spoke(self):
        # wheel plus a vertex seeing two rim vertices at distance two
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
        edges += [(6, 0), (6, 2)]
        g = from_edge_list(7, edges)
        assert is_2k2_free(g)
        chi = chi_of(g)
        model = ex._low_degree_c5(g, (0, 1, 2, 3, 4), 6, chi, ex._Ctx(), 0)
        assert len(model) == chi
        assert verify_dominating_model(g, model).valid

    def test_invalid_pair_raises_internal(self):
        # x adjacent to an adjacent rim pair cannot occur in a 2K2-free graph
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)]
        g = from_edge_list(6, edges)
        with pytest.raises(InternalContradictionError):
            ex._low_degree_c5(g, (0, 1, 2, 3, 4), 5, chi_of(g), ex._Ctx(), 0)


class TestPartition:
    def test_c5_routes_to_y_empty(self):
        model = ex._build_partition(cycle(5), (0, 1, 2, 3, 4), 3, ex._Ctx(), 0)
        assert model_to_lists(model) == [[0, 1, 2], [3], [4]]

    def test_blowup_partition_shape(self, monkeypatch):
        seen = {}
        real = ex._final_construction

        def spy(g, c, iso, y, m, need, ctx, depth):
            seen.update(c=c, iso=iso, y=list(y), m=m)
            return real(g, c, iso, y, m, need, ctx, depth)

        monkeypatch.setattr(ex, "_final_construction", spy)
        g = final_host(2)
        ex._build_partition(g, (0, 1, 2, 3, 4), chi_of(g), ex._Ctx(), 0)
        assert seen["m"] == 2
        assert seen["iso"] == 0
        y = seen["y"]
        complete_side = g.full_mask & ~mask_of(seen["c"]) & ~(y[0] | y[1] | y[2] | y[3] | y[4])
        assert complete_side == mask_of(range(15, 20))
        # between consecutive classes, non-adjacency is a perfect matching
        for i in range(5):
            for v in bits(y[i]):
                assert (y[(i + 1) % 5] & ~g.adj[v]).bit_count() == 1

    def test_final_construction_from_partition(self):
        g = final_host(2)
        chi = chi_of(g)
        tr = Trace()
        model = ex._build_partition(g, (0, 1, 2, 3, 4), chi, ex._Ctx(tr), 0)
        assert len(model) == chi
        assert verify_dominating_model(g, model).valid
        top = {e["branch"]: e for e in tr.events if e["depth"] == 0}
        assert top["c5_partition"]["m"] == top["final_construction"]["m"] == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_rotated_classes_fail_in_reduce(self, m):
        # the construction trusts its classes; _reduce is the one check that
        # refuses a prefix built from classes off by one around the cycle
        g = final_host(m)
        chi = chi_of(g)
        c = (0, 1, 2, 3, 4)
        y = [mask_of(range(5 + m * i, 5 + m * (i + 1))) for i in range(5)]
        assert verify_dominating_model(g, ex._final_construction(g, c, 0, y, m, chi, ex._Ctx(), 0)).valid
        with pytest.raises(InternalContradictionError, match="final_construction"):
            ex._final_construction(g, c, 0, y[1:] + y[:1], m, chi, ex._Ctx(), 0)


class TestReduce:
    """``_reduce`` is the one check that a step dominates what it keeps."""

    def test_undominated_kept_vertex_names_branch(self):
        g = from_edge_list(3, [(0, 1)])
        with pytest.raises(InternalContradictionError, match="the probe prefix") as err:
            ex._reduce(g, (1 << 0,), 1 << 0, 2, ex._Ctx(), 0, "probe")
        assert err.value.context == {"vertex": 2, "set": [0]}  # vertex 2 is isolated

    def test_prefix_meeting_kept_set(self):
        with pytest.raises(InternalContradictionError, match="the probe prefix") as err:
            ex._reduce(complete(4), (0b0011,), 1 << 0, 2, ex._Ctx(), 0, "probe")
        assert err.value.context == {"vertex": 1, "set": [0, 1]}

    def test_covered_need_builds_no_subgraph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("induced_subgraph called")

        monkeypatch.setattr(ex, "induced_subgraph", refuse)
        prefix = (1 << 0, 1 << 1, 1 << 2)
        for need in (2, 3):
            assert ex._reduce(complete(4), prefix, 0b0111, need, ex._Ctx(), 0, "probe") == prefix


class TestOrdinaryExtraction:
    def test_p4(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        model = extract_ordinary_minor(g)
        assert model_to_lists(model) == [[0, 1], [2, 3]]

    def test_c5(self):
        model = extract_ordinary_minor(cycle(5))
        assert model_to_lists(model) == [[0, 1], [2, 3], [4]]
        assert verify_ordinary_model(cycle(5), model).valid
        assert not verify_dominating_model(cycle(5), model).valid

    def test_c4_cograph_base(self):
        model = extract_ordinary_minor(cycle(4))
        assert len(model) == 2
        assert verify_ordinary_model(cycle(4), model).valid

    def test_not_2k2_free_rejected(self):
        with pytest.raises(Not2K2FreeError):
            extract_ordinary_minor(one_subdivision_complete(4))

    def test_random_sweep(self):
        for seed in range(120):
            n = 4 + seed % 20
            g = random_2k2_free(n, 0.35, seed * 31 + 1)
            model = extract_ordinary_minor(g)
            chi, _ = chromatic_number(g)
            assert len(model) == chi
            assert verify_ordinary_model(g, model).valid


class TestOrdinaryTrace:
    def test_one_p4_removal_per_level_then_the_base_case(self):
        # the ordinary extractor runs the shared recursion, so its trace has
        # a p4_removal event at each depth 0..k-1 and one more at depth k:
        # a clique or empty base case, or a p4_removal whose prefix already
        # covers the sets still owed, so that every set of the model is a
        # set of some step's prefix; that prefix is its P4's two end pairs
        data = Path(__file__).parent / "data"
        atlas = [parse_graph6(s) for n in range(8) for s in (data / f"graphs{n}.g6").read_text().split()]
        graphs = [g for g in atlas if is_2k2_free(g)] + [random_2k2_free(14, 0.3, seed) for seed in range(20)]
        ends = set()
        for g in graphs:
            tr = Trace()
            model = extract_ordinary_minor(g, trace=tr)
            assert model == extract_ordinary_minor(g)
            events = sorted(tr.events, key=lambda e: e["depth"])
            k = len(events) - 1
            assert [e["depth"] for e in events] == list(range(k + 1))
            assert all(e["branch"] == "p4_removal" for e in events[:k])
            ends.add(events[k]["branch"])
            if events[k]["branch"] == "p4_removal":
                # each level's trace is in its subgraph's labels: map them back
                verts, prefixes = list(range(g.n)), []
                for e in events:
                    prefixes += [sorted(verts[v] for v in t) for t in e["prefix"]]
                    verts = [v for i, v in enumerate(verts) if i not in e["removed"]]
                assert all(t in prefixes for t in model_to_lists(model))
            else:
                assert events[k]["branch"] in ("clique", "empty")
            for e in events[:k]:
                assert set(e) == {"depth", "branch", "p4", "prefix", "removed"}
                assert e["prefix"] == [sorted(e["p4"][:2]), sorted(e["p4"][2:])]
            if k:
                assert model_to_lists(model)[:2] == events[0]["prefix"]
        assert ends == {"clique", "empty", "p4_removal"}


class TestPinnedExtraction:
    # md5 over "graph6 model trace" lines, with each trace event's keys
    # sorted, for the 3,161 2K2-free atlas graphs (n <= 8) and every crafted
    # host in helpers.py; together they reach all eight reduction branches.
    # Pinned from the budgeted recursion, which passes the root's chi down as
    # the number of sets still owed and stops once a prefix covers it.
    DIGEST = "61a040d95243093c2547dad52a69fcd6"

    def test_atlas_and_hosts_digest(self):
        data = Path(__file__).parent / "data"
        atlas = [ln for n in range(9) for ln in (data / f"graphs{n}.g6").read_text().split()]
        free = [s for s in atlas if is_2k2_free(parse_graph6(s))]
        assert len(free) == 3161
        hosts = [
            wheel5(), singleton_class_host(), forced_k4_host(), c5_blowup(2), c5_blowup(3),
            final_host(2), final_host(3), complete_neighbor_host(), pendant_class_host(), pentagon(),
        ]
        h = hashlib.md5()
        seen = set()
        for s in free + [emit_graph6(g) for g in hosts]:
            tr = Trace()
            model = extract_dominating(parse_graph6(s), trace=tr)
            h.update(f"{s} {list(model)} {json.dumps(tr.events, sort_keys=True)}\n".encode())
            seen |= branches(tr)
        assert {
            "banner_completed", "c4_reduction", "low_degree_k4", "y_empty", "y_small",
            "independent_side_edge", "y_complete_neighbor", "final_construction",
        } <= seen
        assert h.hexdigest() == self.DIGEST


class TestPinnedOrdinaryExtraction:
    # md5 over "graph6 model" lines of extract_ordinary_minor on the same
    # graphs as TestPinnedExtraction; every model depends on which induced P4
    # find_induced returns. Pinned from the budgeted recursion, which passes
    # the root's chi down as the number of sets still owed.
    DIGEST = "08f4f6c1aa0df662d1bd723f6e2c9ae3"

    def test_atlas_and_hosts_digest(self):
        data = Path(__file__).parent / "data"
        atlas = [ln for n in range(9) for ln in (data / f"graphs{n}.g6").read_text().split()]
        free = [s for s in atlas if is_2k2_free(parse_graph6(s))]
        assert len(free) == 3161
        hosts = [
            wheel5(), singleton_class_host(), forced_k4_host(), c5_blowup(2), c5_blowup(3),
            final_host(2), final_host(3), complete_neighbor_host(), pendant_class_host(), pentagon(),
        ]
        h = hashlib.md5()
        for s in free + [emit_graph6(g) for g in hosts]:
            model = extract_ordinary_minor(parse_graph6(s))
            h.update(f"{s} {list(model)}\n".encode())
        assert h.hexdigest() == self.DIGEST


class TestSplitBaseCase:
    def test_clique_from_branch_is_reused(self, monkeypatch):
        # the split base case takes omega and the clique that _branch found;
        # it used to compute them again (4,192 calls over these graphs)
        import domminor.extraction as ex

        data = Path(__file__).parent / "data"
        atlas = [parse_graph6(s) for n in range(9) for s in (data / f"graphs{n}.g6").read_text().split()]
        free = [g for g in atlas if is_2k2_free(g)]
        calls = 0
        fresh = ex.clique_number

        def counted(g):
            nonlocal calls
            calls += 1
            return fresh(g)

        monkeypatch.setattr(ex, "clique_number", counted)
        for g in free:
            extract_dominating(g)
        assert len(free) == 3161
        assert calls == 3269


class TestDeepBranchCorpus:
    # perturbed_host seeds 0..1499: crafted hosts with a few 2K2-free-keeping
    # flips, half of them joined with a small random 2K2-free graph.  Unlike
    # random or atlas 2K2-free graphs, they reach every deep branch many
    # times; the md5 is over "graph6 dominating-model ordinary-model" lines.
    SEEDS = 1500
    DIGEST = "5c395b91ccfc35b767d4337cd0ba5420"
    FLOORS = {
        "banner_completed": 200, "banner_structure": 80, "c4_reduction": 10,
        "low_degree_c5": 270, "low_degree_k4": 70, "y_empty": 180, "y_small": 400,
        "independent_side_edge": 40, "y_complete_neighbor": 200,
        "c5_partition": 190, "final_construction": 190,
    }

    def test_both_extractors_on_the_corpus(self):
        counts = dict.fromkeys(self.FLOORS, 0)
        parities = set()
        h = hashlib.md5()
        for seed in range(self.SEEDS):
            g = perturbed_host(seed)
            dom_trace, ord_trace = Trace(), Trace()
            dom = extract_dominating(g, trace=dom_trace)
            ordinary = extract_ordinary_minor(g, trace=ord_trace)
            chi = chi_of(g)
            assert len(dom) == len(ordinary) == chi, seed
            assert verify_dominating_model(g, dom).valid, seed
            assert verify_ordinary_model(g, ordinary).valid, seed
            assert branches(ord_trace) <= {"p4_removal", "clique", "empty"}
            for b in branches(dom_trace) & counts.keys():
                counts[b] += 1
            parities |= {e["parity"] for e in dom_trace.events if e["branch"] == "final_construction"}
            h.update(f"{emit_graph6(g)} {list(dom)} {list(ordinary)}\n".encode())
        short = {b: n for b, n in counts.items() if n < self.FLOORS[b]}
        assert not short, short
        assert parities == {"even", "odd"}
        assert h.hexdigest() == self.DIGEST


def _free_atlas_and_hosts():
    data = Path(__file__).parent / "data"
    atlas = [parse_graph6(s) for n in range(9) for s in (data / f"graphs{n}.g6").read_text().split()]
    hosts = [
        wheel5(), singleton_class_host(), forced_k4_host(), c5_blowup(2), c5_blowup(3),
        final_host(2), final_host(3), complete_neighbor_host(), pendant_class_host(), pentagon(),
    ]
    return [g for g in atlas if is_2k2_free(g)] + hosts


def _c1_graph(i):
    # graph i of the acceptance suite's criterion 1 corpus
    return random_2k2_free(5 + i % 26, (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)[i % 6], i)


class TestBudget:
    def test_every_budget_up_to_chi(self):
        # the recursion owes `need` sets and is sound for any need <= chi:
        # each step removes U with chi(G[U]) <= len(prefix), so the residual
        # budget never exceeds the residual chromatic number
        import domminor.extraction as ex

        graphs = _free_atlas_and_hosts() + [
            random_2k2_free(5 + i % 26, (0.15, 0.25, 0.4, 0.6)[i % 4], 7_000 + i) for i in range(360)
        ]
        budgets = 0
        for g in graphs:
            chi, _ = chromatic_number(g)
            for branch, verify in ((ex._branch, verify_dominating_model), (ex._p4_branch, verify_ordinary_model)):
                for b in range(chi + 1):
                    model = ex._extract(g, ex._Ctx(None, branch, verify), 0, b)
                    assert len(model) == b
                    report = verify(g, model)
                    assert report.valid, (emit_graph6(g), branch.__name__, b, report.message)
                    budgets += 1
        assert budgets > 15_000


class TestOneChromaticNumber:
    def test_one_call_per_extraction(self, monkeypatch):
        # chi is computed once, at the root, and passed down as the budget;
        # the recursion computed it again on every residual graph
        import domminor.extraction as ex

        calls = 0
        fresh = ex.chromatic_number

        def counted(g, *args, **kwargs):
            nonlocal calls
            calls += 1
            return fresh(g, *args, **kwargs)

        monkeypatch.setattr(ex, "chromatic_number", counted)
        for g in _free_atlas_and_hosts()[:3161] + [_c1_graph(i) for i in range(156)]:
            for extract in (extract_dominating, extract_ordinary_minor):
                before = calls
                extract(g)
                assert calls == before + 1, (emit_graph6(g), extract.__name__, calls - before)
