import gc
import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hadwiger_number, has_kt_minor, is_proper_coloring

import domminor.exact as exact_mod
from domminor.exact import (
    CapacityError,
    Deadline,
    SearchDeadlineExceeded,
    chromatic_number,
    clique_number,
    dominating_hadwiger_number,
    enumerate_connected_sets,
    has_dominating_kt,
    independence_number,
    model_from_lists,
    model_to_lists,
    verify_dominating_model,
    verify_ordinary_model,
)
from domminor.generators import (
    complete,
    complete_multipartite,
    cycle,
    family,
    one_subdivision_complete,
    path,
    petersen,
    random_2k2_free,
    random_gnp,
)
from domminor.graphs import (
    GRAPH_MEMO_SIZE,
    Graph,
    complement,
    connected_components,
    emit_graph6,
    from_edge_list,
    induced_subgraph,
    is_connected_set,
    neighbors_of_set,
    parse_graph6,
    set_to_list,
)
from domminor.patterns import find_2k2, find_induced, path_template

C5 = cycle(5)
DATA = Path(__file__).parent / "data"


def atlas_and_sweep():
    """(name, graph) for the 1,409 pinned colouring graphs: the atlas graphs
    with n <= 7 by graph6, then the first 156 of criterion 1's corpus by index."""
    graphs = [
        (line, parse_graph6(line))
        for n in range(8)
        for line in (DATA / f"graphs{n}.g6").read_text().split()
    ]
    graphs += [
        (str(i), random_2k2_free(5 + i % 26, (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)[i % 6], i))
        for i in range(156)
    ]
    return graphs


def random_graphs(max_n=7, min_n=0):
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return from_edge_list(n, chosen)

    return st.composite(build)()


def brute_has_dominating_kt(g: Graph, t: int) -> bool:
    """Definition-level oracle: enumerate every ordered tuple of disjoint
    non-empty connected sets and test the every-vertex domination condition."""
    conn = [m for m in range(1, 1 << g.n) if is_connected_set(g, m)]

    def ok_pair(ti: int, tj: int) -> bool:
        return all(g.adj[v] & ti for v in set_to_list(tj))

    def rec(chosen: list[int], used: int) -> bool:
        if len(chosen) == t:
            return True
        for s in conn:
            if s & used:
                continue
            if all(ok_pair(ti, s) for ti in chosen):
                if rec(chosen + [s], used | s):
                    return True
        return False

    return rec([], 0)


def brute_has_kt_minor(g: Graph, t: int) -> bool:
    conn = [m for m in range(1, 1 << g.n) if is_connected_set(g, m)]

    def linked(a: int, b: int) -> bool:
        return any(g.adj[v] & b for v in set_to_list(a))

    def rec(chosen: list[int], used: int) -> bool:
        if len(chosen) == t:
            return True
        for s in conn:
            if s & used:
                continue
            if all(linked(s, ti) for ti in chosen):
                if rec(chosen + [s], used | s):
                    return True
        return False

    return rec([], 0)


class TestVerifiers:
    def test_c5_valid_model(self):
        report = verify_dominating_model(C5, model_from_lists([[0, 1, 2], [3], [4]]))
        assert report.valid

    def test_c5_order_matters(self):
        report = verify_dominating_model(C5, model_from_lists([[4], [3], [0, 1, 2]]))
        assert not report.valid
        assert report.condition == "domination"
        assert (report.set_index, report.other_index, report.witness) == (1, 3, 1)

    def test_overlap_reported(self):
        report = verify_dominating_model(C5, model_from_lists([[0, 1], [1, 2]]))
        assert not report.valid and report.condition == "disjoint"
        assert report.witness == 1

    def test_empty_set_reported(self):
        report = verify_dominating_model(C5, (0b11, 0))
        assert not report.valid and report.condition == "nonempty" and report.set_index == 2

    def test_disconnected_set_reported(self):
        report = verify_dominating_model(C5, model_from_lists([[0, 2]]))
        assert not report.valid and report.condition == "connected"

    def test_out_of_range_reported(self):
        report = verify_dominating_model(C5, (1 << 7,))
        assert not report.valid and report.condition == "range"

    def test_ordinary_weaker_than_dominating(self):
        model = model_from_lists([[0, 1, 2], [3], [4]])
        assert verify_dominating_model(C5, model).valid
        assert verify_ordinary_model(C5, model).valid

    def test_ordinary_valid_where_dominating_fails(self):
        model = model_from_lists([[4], [3], [0, 1, 2]])
        assert verify_ordinary_model(C5, model).valid

    def test_anticomplete_singletons_invalid(self):
        g = from_edge_list(2, [])
        report = verify_ordinary_model(g, model_from_lists([[0], [1]]))
        assert not report.valid and report.condition == "linkage"

    def test_model_json_round_trip(self):
        lists = [[0, 1, 2], [3], [4]]
        assert model_to_lists(model_from_lists(lists)) == lists

    def test_report_truth_is_its_validity(self):
        assert not exact_mod.ModelReport(False, "domination", 1, 2, 0, "forced failure")
        assert not verify_dominating_model(C5, model_from_lists([[4], [3], [0, 1, 2]]))
        assert verify_dominating_model(C5, model_from_lists([[0, 1, 2], [3], [4]]))


class TestDominationReference:
    @staticmethod
    def reference(g: Graph, model):
        """The dominating verifier written vertex by vertex."""
        bad = exact_mod._structural_report(g, model)
        if bad is not None:
            return bad.condition, bad.set_index, bad.other_index, bad.witness
        for j in range(1, len(model)):
            for i in range(j):
                for v in range(g.n):
                    if model[j] >> v & 1 and g.adj[v] & model[i] == 0:
                        return "domination", i + 1, j + 1, v
        return None, None, None, None

    @staticmethod
    def pieces(g: Graph, t: int):
        while t:
            piece = frontier = t & -t
            while frontier:
                frontier = neighbors_of_set(g, frontier) & t & ~piece
                piece |= frontier
            yield piece
            t &= ~piece

    def test_random_partitions_of_the_atlas(self):
        # random partitions of a random vertex subset, as drawn and with each
        # part split into its connected pieces (which reach the domination
        # test); most are invalid
        rng = random.Random(3)
        graphs = [parse_graph6(s) for n in range(8) for s in (DATA / f"graphs{n}.g6").read_text().split()]
        conditions = Counter()
        for g in graphs:
            for _ in range(8):
                k = rng.randint(1, max(g.n, 1))
                parts = [0] * k
                for v in range(g.n):
                    if rng.random() < 0.85:
                        parts[rng.randrange(k)] |= 1 << v
                pieces = [c for t in parts for c in self.pieces(g, t)]
                rng.shuffle(pieces)
                for model in (tuple(parts), tuple(pieces)):
                    r = verify_dominating_model(g, model)
                    assert (r.condition, r.set_index, r.other_index, r.witness) == self.reference(g, model)
                    conditions[r.condition] += 1
        assert conditions["domination"] > 5000 and conditions[None] > 1000
        assert {"nonempty", "connected"} <= set(conditions)


class TestChromatic:
    def test_odd_cycle(self):
        k, col = chromatic_number(C5)
        assert k == 3 and is_proper_coloring(C5, col, k)

    def test_bipartite(self):
        k33 = complete_multipartite([3, 3])
        k, col = chromatic_number(k33)
        assert k == 2 and is_proper_coloring(k33, col, k)

    def test_petersen_is_3_chromatic(self):
        g = petersen()
        # independent oracle: exhaust all 2-colorings
        assert all(
            any((mask >> u & 1) == (mask >> v & 1) for u, v in g.edges())
            for mask in range(1 << g.n)
        )
        k, col = chromatic_number(g)
        assert k == 3 and is_proper_coloring(g, col, k)

    def test_empty_graph(self):
        assert chromatic_number(Graph(0, ())) == (0, ())

    def test_disconnected(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        k, col = chromatic_number(g)
        assert k == 3 and is_proper_coloring(g, col, k)

    @settings(max_examples=120, deadline=None)
    @given(random_graphs(max_n=7))
    def test_sandwiched_and_proper(self, g):
        k, col = chromatic_number(g)
        omega, _ = clique_number(g)
        assert omega <= k <= max(g.n, 0)
        if g.n:
            assert is_proper_coloring(g, col, k)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=6, min_n=1))
    def test_exact_against_brute_force(self, g):
        k, _ = chromatic_number(g)
        # oracle: try all assignments with k-1 colors
        if k > 1:
            assert all(
                any(assign[u] == assign[v] for u, v in g.edges())
                for assign in itertools.product(range(k - 1), repeat=g.n)
            )
        assert any(
            all(assign[u] != assign[v] for u, v in g.edges())
            for assign in itertools.product(range(k), repeat=g.n)
        )

    def test_atlas_and_sweep_colorings_pinned(self):
        # (chi, coloring) over the atlas graphs with n <= 7 and the first
        # 156 graphs of criterion 1's corpus; the digest was taken when the
        # search started from a greedy clique size instead of the clique number
        h = hashlib.md5()
        graphs = atlas_and_sweep()
        for name, g in graphs:
            chi, colors = chromatic_number(g)
            h.update(f"{name} {chi} {colors}\n".encode())
        assert len(graphs) == 1409
        assert h.hexdigest() == "52c81b720a8b629f62b9b494ae8776a5"

    def test_atlas_and_sweep_kernels_pinned(self):
        # DSATUR's greedy colouring (optimal or not), the k-colouring
        # search's first descent when k = n, and the clique search's (omega,
        # witness) on the same graphs; pinned from the kernels that picked
        # the DSATUR vertex by a tuple key and ran the greedy clique bound
        # at every node
        h = hashlib.md5()
        graphs = atlas_and_sweep()
        for name, g in graphs:
            colors = exact_mod._k_colorable(g, g.n, Deadline(None))
            k = max(colors, default=-1) + 1
            omega, mask = clique_number(g)
            h.update(f"{name} {k} {colors} {omega} {mask}\n".encode())
        assert len(graphs) == 1409
        assert h.hexdigest() == "3b5a796f9347c9137c53aba8033334f1"

    def test_long_cycles_need_no_python_stack(self):
        # one vertex coloured per search level: 1,000 levels exceeded
        # Python's default recursion limit when the search recursed
        odd = cycle(1001)
        k, colors = chromatic_number(odd)
        assert k == 3 and is_proper_coloring(odd, colors, 3)
        assert exact_mod._k_colorable(odd, 2, Deadline(None)) is None
        assert exact_mod._k_colorable(cycle(1000), 2, Deadline(None)) == [0, 1] * 500

    def test_large_cliques_need_no_python_stack(self):
        # one clique vertex per search level: the clique search recursed
        # once per vertex, so K_1001 exceeded the default recursion limit
        k1001 = complete(1001)
        assert clique_number(k1001) == (1001, k1001.full_mask)
        k, colors = chromatic_number(k1001)
        assert k == 1001 and sorted(colors) == list(range(1001))

    def test_atlas_and_sweep_k_colorable_pinned(self):
        # the k-colouring search's answer for every k in 0..n on the same
        # graphs: a colouring, or None below chi; pinned from the recursive
        # search that re-scanned every vertex for the next one to colour
        h = hashlib.md5()
        calls = 0
        for name, g in atlas_and_sweep():
            for k in range(g.n + 1):
                result = exact_mod._k_colorable(g, k, Deadline(None))
                h.update(f"{name} {k} {result}\n".encode())
                calls += 1
        assert calls == 12614
        assert h.hexdigest() == "8485da9bcf262c6c2655e31d956b99c5"

    def test_atlas_backtracked_colorings_pinned(self):
        # the colourings the search finds only after undoing a step: every
        # k from chi up to below DSATUR's class count, on the atlas graphs
        # with n <= 8; the pin above never backtracks into a success that a
        # wrong undo would change; pinned from the recursive search
        h = hashlib.md5()
        calls = 0
        for n in range(9):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                dsatur = max(exact_mod._k_colorable(g, g.n, Deadline(None)), default=-1) + 1
                for k in range(chromatic_number(g)[0], dsatur):
                    h.update(f"{line} {k} {exact_mod._k_colorable(g, k, Deadline(None))}\n".encode())
                    calls += 1
        assert calls == 79
        assert h.hexdigest() == "d3dec8d636bb379bc52e261b627b495e"


class TestCliqueIndependence:
    def test_k6(self):
        omega, w = clique_number(complete(6))
        assert omega == 6 and w == (1 << 6) - 1

    def test_c5(self):
        assert clique_number(C5)[0] == 2
        assert independence_number(C5)[0] == 2

    def test_complement_c7(self):
        c7 = cycle(7)
        # alpha(C7) = 3 by exhaustive check
        best = max(
            len(s)
            for r in range(4)
            for s in itertools.combinations(range(7), r)
            if all(not c7.has_edge(u, v) for u, v in itertools.combinations(s, 2))
        )
        assert best == 3
        assert clique_number(complement(c7))[0] == 3

    def test_witness_is_clique(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 3)])
        omega, w = clique_number(g)
        vs = set_to_list(w)
        assert len(vs) == omega
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def unstopped_clique_number(g: Graph) -> tuple[int, int]:
    """The clique search without the stop at DSATUR's count: it proves
    optimality before it returns."""
    if g.n == 0:
        return 0, 0
    adj = g.adj
    best = [0, 0]

    def expand(r_mask: int, r_size: int, p: int) -> None:
        if p == 0:
            if r_size > best[0]:
                best[:] = r_size, r_mask
            return
        if r_size + p.bit_count() <= best[0]:
            return
        if r_size + exact_mod._greedy_class_count(adj, p, best[0] - r_size + 1) <= best[0]:
            return
        while p:
            if r_size + p.bit_count() <= best[0]:
                return
            v = (p & -p).bit_length() - 1
            expand(r_mask | 1 << v, r_size + 1, p & adj[v])
            p &= ~(1 << v)

    expand(0, 0, g.full_mask)
    return best[0], best[1]


class TestCliqueStop:
    # omega <= chi <= DSATUR's count, so the search may stop at a clique of
    # that size; the lexicographic search meets no other clique of it first

    def test_atlas_matches_unstopped_search(self):
        clique_number.cache_clear()
        count = 0
        for n in range(9):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                assert clique_number(g) == unstopped_clique_number(g), line
                count += 1
        assert count == 13_599

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 14), st.floats(0.05, 0.95), st.integers(0, 10**6))
    def test_gnp_matches_unstopped_search(self, n, p, seed):
        clique_number.cache_clear()
        g = random_gnp(n, p, seed)
        assert clique_number(g) == unstopped_clique_number(g)

    def test_stop_saves_colourings(self, monkeypatch):
        # chromatic_number's clique searches over criterion 1's first 156
        # graphs run 5,705 greedy colourings without the stop and 3,232
        # with it
        runs = 0
        greedy = exact_mod._greedy_class_count

        def counted(*args):
            nonlocal runs
            runs += 1
            return greedy(*args)

        graphs = [random_2k2_free(5 + i % 26, (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)[i % 6], i) for i in range(156)]
        monkeypatch.setattr(exact_mod, "_greedy_class_count", counted)
        for g in graphs:
            chromatic_number(g)
        assert runs <= 3_600

    def test_direct_call_matches_hinted_call(self):
        checked = 0
        for i in range(156):
            g = random_2k2_free(5 + i % 26, (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)[i % 6], i)
            if len(connected_components(g)) != 1:
                continue
            clique_number.cache_clear()
            direct = clique_number(g)
            clique_number.cache_clear()
            chromatic_number.cache_clear()
            chromatic_number(g)  # asks clique_number(g, _ub=DSATUR's count)
            assert clique_number.cache_info().misses == 1
            assert clique_number(g) == direct
            checked += 1
        assert checked > 50


class TestGraphMemo:
    MEMOISED = (clique_number, chromatic_number, find_2k2)

    def test_equal_graph_object_hits(self):
        for g in (petersen(), cycle(5), complete(4)):  # find_2k2: a witness, then None twice
            twin = parse_graph6(emit_graph6(g))
            assert twin == g and twin is not g
            for fn in self.MEMOISED:
                first = fn(g)
                hits = fn.cache_info().hits
                assert fn(twin) is first
                assert fn.cache_info().hits == hits + 1

    def test_deadline_failure_is_not_remembered(self):
        g = family("mycielski", [5])  # 23 vertices, triangle-free, chi 5
        with pytest.raises(SearchDeadlineExceeded):
            chromatic_number(g, Deadline(0))
        assert chromatic_number.cache_info().size == 0
        k, colors = chromatic_number(g)
        assert (k, colors) == chromatic_number.__wrapped__(g)
        assert k == 5 and is_proper_coloring(g, colors, k)
        assert chromatic_number.cache_info() == (0, 2, 1)
        # a remembered answer is returned whatever the deadline
        assert chromatic_number(g, Deadline(0)) == (k, colors)

    def test_size_is_bounded_least_recent_evicted(self):
        paths = [path(n) for n in range(1, GRAPH_MEMO_SIZE + 11)]
        for g in paths:
            clique_number(g)
            assert clique_number.cache_info().size <= GRAPH_MEMO_SIZE
        assert clique_number.cache_info() == (0, GRAPH_MEMO_SIZE + 10, GRAPH_MEMO_SIZE)
        clique_number(paths[-1])
        clique_number(paths[0])
        assert clique_number.cache_info()[:2] == (1, GRAPH_MEMO_SIZE + 11)

    def test_warm_answers_equal_cold_on_atlas(self):
        lines = [line for n in range(8) for line in (DATA / f"graphs{n}.g6").read_text().split()]
        for fn in self.MEMOISED:
            for line in lines:
                cold = fn(parse_graph6(line))
                assert fn(parse_graph6(line)) == cold == fn.__wrapped__(parse_graph6(line))
            assert fn.cache_info().hits == len(lines)

    def test_hadwiger_number_computes_clique_once(self):
        # one of the benchmark's dense graphs; each probe used to redo omega
        g = random_2k2_free(13, 0.4, 2)
        assert dominating_hadwiger_number(g)[0] == 8
        assert clique_number.cache_info().misses == 1


class TestConnectedSets:
    def test_c5_singletons(self):
        got = list(enumerate_connected_sets(C5, max_size=1))
        assert got == [1 << v for v in range(5)]

    def test_p3_exact_order(self):
        p3 = path(3)
        got = [set_to_list(m) for m in enumerate_connected_sets(p3)]
        assert got == [[0], [1], [2], [0, 1], [1, 2], [0, 1, 2]]

    def test_edgeless_only_singletons(self):
        g = from_edge_list(3, [])
        got = list(enumerate_connected_sets(g))
        assert got == [0b001, 0b010, 0b100]

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=7))
    def test_against_subset_filter_oracle(self, g):
        got = list(enumerate_connected_sets(g))
        expected = [m for m in range(1, 1 << g.n) if is_connected_set(g, m)]
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)
        # size-major and deterministic
        sizes = [m.bit_count() for m in got]
        assert sizes == sorted(sizes)
        assert got == list(enumerate_connected_sets(g))


class TestConnectedSetWalker:
    def test_pairs_match_sets_and_neighbourhoods(self):
        # every atlas graph with n <= 7, on its full vertex set and on two
        # seeded (within, max_size) pairs; the digest of the pair sequences
        # was taken from the recursive per-size enumerator it replaced
        rng = random.Random(7)
        h = hashlib.md5()
        count = 0
        for n in range(8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                pairs = [(g.full_mask, n)] + [(rng.getrandbits(n), rng.randint(0, n)) for _ in range(2)]
                for within, max_size in pairs:
                    got = list(exact_mod._connected_sets_with_neighbors(g, within, max_size))
                    sets = enumerate_connected_sets(g, within, max_size)
                    assert got == [(s, neighbors_of_set(g, s)) for s in sets]
                    count += len(got)
                    h.update(f"{line} {within} {max_size} {got}\n".encode())
        assert count == 101411
        assert h.hexdigest() == "4b555643acaf2ef2a29d81f2fb764822"

    @staticmethod
    def atlas_walks():
        """(graph6, graph, within, max_size, root, need, hook name, hook) for
        every atlas graph with n <= 7: three seeded (within, max_size, root)
        triples, each walked without a hook, under the excess cut's hook
        ``_growth_test(g, need, count)`` and under a synthetic hook that is not
        monotone."""
        rng = random.Random(11)
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                for _ in range(3):
                    within = rng.getrandbits(n) | 1 << rng.randrange(n)
                    max_size = rng.randint(1, n)
                    root = None
                    if rng.random() < 0.6:
                        root = 1 << rng.choice(set_to_list(within))
                    need = rng.randint(0, 6)
                    hooks = (
                        ("none", None),
                        ("excess", exact_mod._growth_test(g, need, exact_mod._edge_counter(g.adj))),
                        ("synthetic", lambda s: (s * 0x9E3779B1) >> 7 & 3 != 0),
                    )
                    for name, hook in hooks:
                        yield line, g, within, max_size, root, need, name, hook

    def test_rooted_and_hooked_walks_pinned(self):
        # the pairs of each walk, and the sets handed to the hook in the
        # order of their first test; the digest was taken on the per-size
        # walker that the level-by-level one replaced (each size walked from
        # scratch, with a hook that remembered its answers)
        h = hashlib.md5()
        count = tested = 0
        for line, g, within, max_size, root, need, name, hook in self.atlas_walks():
            calls: dict[int, None] = {}

            def counting(s, hook=hook, calls=calls):
                calls.setdefault(s)
                return hook(s)

            got = list(exact_mod._connected_sets_with_neighbors(
                g, within, max_size, root, None if hook is None else counting
            ))
            for s, nb in got:
                assert nb == neighbors_of_set(g, s) and s & within == s and is_connected_set(g, s)
                assert root is None or s & root
            count += len(got)
            tested += len(calls)
            h.update(f"{line} {within} {max_size} {root} {need} {name} {got} {list(calls)}\n".encode())
        assert (count, tested) == (58674, 16864)
        assert h.hexdigest() == "66f4d44df9775ec46d3e2948464f2bc2"

    def test_each_set_tested_once_per_walk(self, monkeypatch):
        # a set is handed to the hook at most once in a walk, and so is
        # every set the excess cut's hook tests in a has_dominating_kt search
        def counted(hook, tests):
            def counting(s):
                tests[s] += 1
                return hook(s)
            return counting

        for _, g, within, max_size, root, _, _, hook in self.atlas_walks():
            if hook is not None:
                tests: Counter = Counter()
                for _ in exact_mod._connected_sets_with_neighbors(
                    g, within, max_size, root, counted(hook, tests)
                ):
                    pass
                assert max(tests.values(), default=1) == 1

        g = random_gnp(16, 0.25, 3)
        tests = Counter()
        list(exact_mod._connected_sets_with_neighbors(
            g, g.full_mask, 7, None, counted(lambda s: True, tests)
        ))
        assert len(tests) > 1000 and max(tests.values()) == 1

        growth_test = exact_mod._growth_test
        hooks: list[Counter] = []

        def counting_growth_test(g, need, count, base=None):
            hooks.append(Counter())
            return counted(growth_test(g, need, count, base), hooks[-1])

        monkeypatch.setattr(exact_mod, "_growth_test", counting_growth_test)
        assert has_dominating_kt(g, 6) is None
        assert len(hooks) == 1 and len(hooks[0]) > 100 and max(hooks[0].values()) == 1


class TestMinorSearch:
    def test_k5_clique_shortcut(self):
        model = has_dominating_kt(complete(5), 5)
        assert model == tuple(1 << v for v in range(5))

    def test_c5_no_dominating_k4(self):
        assert has_dominating_kt(C5, 4) is None

    def test_c5_hd_witness(self):
        hd, model = dominating_hadwiger_number(C5)
        assert hd == 3
        assert model_to_lists(model) == [[0, 1, 2], [3], [4]]

    def test_k5_hd(self):
        assert dominating_hadwiger_number(complete(5))[0] == 5

    def test_subdivided_k4(self):
        g = one_subdivision_complete(4)
        assert g.n == 10 and g.edge_count() == 12
        assert has_kt_minor(g, 4)
        assert has_dominating_kt(g, 4) is None
        assert dominating_hadwiger_number(g)[0] == 3

    def test_c5_no_ordinary_k4(self):
        assert not has_kt_minor(C5, 4)
        assert has_kt_minor(complete(4), 4)

    def test_capacity_errors(self):
        g = from_edge_list(20, [(i, i + 1) for i in range(19)])
        with pytest.raises(CapacityError):
            has_dominating_kt(g, 3)
        with pytest.raises(CapacityError):
            dominating_hadwiger_number(g)
        assert has_dominating_kt(g, 2, cap=20) is not None

    def test_t_validation(self):
        with pytest.raises(ValueError):
            has_dominating_kt(C5, 0)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=5, min_n=1), st.integers(min_value=1, max_value=4))
    def test_dominating_against_brute_force(self, g, t):
        model = has_dominating_kt(g, t)
        assert (model is not None) == brute_has_dominating_kt(g, t)
        if model is not None:
            assert len(model) == t
            assert verify_dominating_model(g, model).valid

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=5, min_n=1), st.integers(min_value=1, max_value=4))
    def test_ordinary_against_brute_force(self, g, t):
        assert has_kt_minor(g, t) == brute_has_kt_minor(g, t)


class TestOrdinaryClosedForms:
    # the package decides ordinary K_1, K_2 and K_3 minors by a vertex, an
    # edge and a cycle; the reference is the exhaustive search in helpers

    def test_atlas_matches_reference_search(self):
        count = 0
        for n in range(9):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                for t in (1, 2, 3):
                    assert exact_mod.has_kt_minor(g, t) == has_kt_minor(g, t), (line, t)
                    count += 1
        assert count == 40_797
        assert not any(exact_mod.has_kt_minor(Graph(0, ()), t) for t in (1, 2, 3))  # not even K_1

    @pytest.mark.parametrize("t", [0, 4])
    def test_t_outside_closed_forms_raises(self, t):
        with pytest.raises(ValueError):
            exact_mod.has_kt_minor(complete(5), t)


class TestInvariantProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=6, min_n=1))
    def test_suffix_of_dominating_model_is_valid(self, g):
        hd, model = dominating_hadwiger_number(g)
        for k in range(len(model)):
            assert verify_dominating_model(g, model[k:]).valid

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=6, min_n=1))
    def test_clique_singletons_any_order_valid(self, g):
        omega, w = clique_number(g)
        vs = set_to_list(w)
        for perm in itertools.islice(itertools.permutations(vs), 6):
            assert verify_dominating_model(g, tuple(1 << v for v in perm)).valid

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=6, min_n=1))
    def test_omega_le_hd_le_hadwiger(self, g):
        omega, _ = clique_number(g)
        hd, _ = dominating_hadwiger_number(g)
        assert omega <= hd <= hadwiger_number(g)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6, min_n=2))
    def test_edge_addition_monotone(self, g):
        hd, _ = dominating_hadwiger_number(g)
        non_edges = [
            (u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)
        ]
        for u, v in non_edges[:3]:
            adj = list(g.adj)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            assert dominating_hadwiger_number(Graph(g.n, tuple(adj)))[0] >= hd

    @settings(max_examples=80, deadline=None)
    @given(random_graphs(max_n=6, min_n=1), st.integers(min_value=1, max_value=3))
    def test_t_le_3_equivalence(self, g, t):
        assert (has_dominating_kt(g, t) is not None) == has_kt_minor(g, t)

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=7, min_n=4), st.integers(min_value=3, max_value=5))
    def test_found_model_is_normal_form(self, g, t):
        # past the clique shortcut, T_2, ..., T_t partition N(T_1) minus T_1
        model = has_dominating_kt(g, t)
        if model is None or clique_number(g)[0] >= t:
            return
        rest = 0
        for s in model[1:]:
            rest |= s
        assert rest == neighbors_of_set(g, model[0]) & ~model[0]


class TestDominatingDecisionsPinned:
    # digests over the atlas graphs with 1 <= n <= 7, taken from the search
    # that walked every later branch set freely over its candidate mask; any
    # cut or normal form must leave every decision and every h_d unchanged

    @staticmethod
    def atlas():
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                yield line, parse_graph6(line)

    def test_decisions_pinned(self):
        h = hashlib.md5()
        count = 0
        for line, g in self.atlas():
            for t in range(1, g.n + 1):
                h.update(f"{line} {t} {has_dominating_kt(g, t) is not None}\n".encode())
                count += 1
        assert count == 8475
        assert h.hexdigest() == "68fc1c306ca8c9a5a368a9a71eb35c18"

    def test_hd_pinned(self):
        h = hashlib.md5()
        for line, g in self.atlas():
            h.update(f"{line} {dominating_hadwiger_number(g)[0]}\n".encode())
        assert h.hexdigest() == "4e30b55f6354ec4bdbdc93dd0402a61a"


class TestDeadStateMemo:
    def test_atlas_models_pinned(self):
        # (graph6, h_d, model) over all 1,252 graphs with 1 <= n <= 7; the
        # digest was taken from the rooted partition search, whose models
        # are in normal form (h_d as pinned by TestDominatingDecisionsPinned)
        h = hashlib.md5()
        count = 0
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                hd, model = dominating_hadwiger_number(parse_graph6(line))
                h.update(f"{line} {hd} {model}\n".encode())
                count += 1
        assert count == 1252
        assert h.hexdigest() == "7a4835019b1efb057a5f7059db55ab6f"

    @pytest.mark.parametrize("n, seed", [(12, 1), (12, 2), (13, 1), (13, 3)])
    def test_shared_memo_probe_matches_fresh_search(self, monkeypatch, n, seed):
        g = random_2k2_free(n, 0.4, seed)
        probes = []
        fresh = exact_mod.has_dominating_kt

        def recording(graph, t, *args, **kwargs):
            found = fresh(graph, t, *args, **kwargs)
            probes.append((t, found))
            return found

        monkeypatch.setattr(exact_mod, "has_dominating_kt", recording)
        hd, model = dominating_hadwiger_number(g)
        monkeypatch.undo()
        assert len(probes) >= 3 and probes[-1] == (hd + 1, None)
        assert probes[-2] == (hd, model)
        for t, found in probes:
            assert has_dominating_kt(g, t) == found

    def test_deadline_then_full_search(self):
        g = random_2k2_free(13, 0.4, 3)
        with pytest.raises(SearchDeadlineExceeded):
            has_dominating_kt(g, 9, deadline=Deadline(1e-4))
        assert dominating_hadwiger_number(g) == (8, (33, 66, 4612, 272, 8, 128, 1024, 2048))
        assert has_dominating_kt(g, 9) is None

    @staticmethod
    def brute_splits(g: Graph, m: int, r: int) -> bool:
        """Whether ``m`` is a union of r disjoint connected sets, each with a
        neighbour of every vertex of ``m`` that comes after it."""
        if r == 1:
            return is_connected_set(g, m)
        s = m
        while s:
            rest = m & ~s
            if rest and is_connected_set(g, s) and rest & ~neighbors_of_set(g, s) == 0:
                if TestDeadStateMemo.brute_splits(g, rest, r - 1):
                    return True
            s = (s - 1) & m
        return False

    def test_dead_entries_are_sound(self):
        # every dead[m] = r left by the probes of an h_d computation must
        # be a mask that does not split into r sets, or a shared memo could
        # cut a model in a later probe
        entries = 0
        for n in range(3, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                dead = bytearray(1 << n)
                t = clique_number(g)[0] + 1
                while t <= n and has_dominating_kt(g, t, _dead=dead) is not None:
                    t += 1
                for m, r in enumerate(dead):
                    if r:
                        assert not self.brute_splits(g, m, r), (line, m, r)
                        entries += 1
        # 18,838 before the domination edge bound, whose shorter walks
        # record one dead mask fewer; 18,860 before the excess cut at every
        # level of the partition walk; 19,993 before the ω cap on the
        # singleton bound, 23,566 before the T_1 walk's excess cut
        assert entries == 18_837

    def test_invalid_model_raises_without_assert(self, monkeypatch):
        # the model check must hold under ``python -O`` too, so it may not be an assert
        bad = exact_mod.ModelReport(False, "domination", 1, 2, 0, "forced failure")
        monkeypatch.setattr(exact_mod, "verify_dominating_model", lambda g, m: bad)
        with pytest.raises(RuntimeError, match="forced failure"):
            has_dominating_kt(C5, 3)
        with pytest.raises(RuntimeError, match="forced failure"):
            dominating_hadwiger_number(complete(3))  # no probe runs; the clique model is checked


class TestDeepSearch:
    # the graphs of the benchmark's hd-dense and hd-sparse lists, whose
    # searches go many sets deep; the digest of "label hd model" was taken
    # from the rooted partition search, whose models are in normal form
    GRAPHS = (
        ("2k2(14,.3,5)", lambda: random_2k2_free(14, 0.3, 5)),
        ("2k2(14,.3,1)", lambda: random_2k2_free(14, 0.3, 1)),
        ("2k2(14,.3,2)", lambda: random_2k2_free(14, 0.3, 2)),
        ("2k2(14,.4,3)", lambda: random_2k2_free(14, 0.4, 3)),
        ("2k2(13,.4,2)", lambda: random_2k2_free(13, 0.4, 2)),
        ("2k2(14,.2,4)", lambda: random_2k2_free(14, 0.2, 4)),
        ("gnp(16,.25,3)", lambda: random_gnp(16, 0.25, 3)),
        ("gnp(16,.3,5)", lambda: random_gnp(16, 0.3, 5)),
        ("gnp(16,.2,1)", lambda: random_gnp(16, 0.2, 1)),
        ("gnp(15,.3,2)", lambda: random_gnp(15, 0.3, 2)),
        ("gnp(14,.35,1)", lambda: random_gnp(14, 0.35, 1)),
        ("subdivided K5", lambda: one_subdivision_complete(5)),
    )

    def test_hd_models_pinned(self):
        h = hashlib.md5()
        values = []
        for label, make in self.GRAPHS:
            hd, model = dominating_hadwiger_number(make())
            values.append(hd)
            h.update(f"{label} {hd} {model}\n".encode())
        assert values == [8, 7, 7, 9, 8, 8, 5, 5, 5, 5, 5, 3]
        assert h.hexdigest() == "1c912127c3d81bd7bafb6ec5c9111cad"

    def test_mycielski_m5_pinned(self):
        # M5 (n = 23, χ = 5, ω = 2): at most two branch sets are single
        # vertices, so the domination edge bound asks C(r - 2, 2) edges more
        # than the K_r bound; with the K_r bound alone the t = 8 refutation
        # took 109-123 s on a 2-core host, against 0.6-1.3 s
        g = family("mycielski", [5])
        assert dominating_hadwiger_number(g, cap=23) == (7, (8323, 4425728, 4172, 1328640, 48, 256, 2097152))


class TestSingletonCliqueBound:
    # single-vertex branch sets are pairwise adjacent, so a K_h model has at
    # most classes(V) singletons and h <= (n + classes(V)) // 2

    @staticmethod
    def classes(g: Graph) -> int:
        return exact_mod._greedy_class_count(g.adj, g.full_mask, g.n)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=7, min_n=1))
    def test_bound_is_sound(self, g):
        assert dominating_hadwiger_number(g)[0] <= hadwiger_number(g) <= (g.n + self.classes(g)) // 2

    def test_atlas_hadwiger_pinned(self):
        # (graph6, h) over all 1,252 graphs with 1 <= n <= 7; the digest was
        # taken from the search before the bound, and a cut that dropped a
        # model would lower some h
        h = hashlib.md5()
        count = 0
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                h.update(f"{line} {hadwiger_number(parse_graph6(line))}\n".encode())
                count += 1
        assert count == 1252
        assert h.hexdigest() == "bfa73a5b1ab9ac5bd23a6934e680efb6"

    def test_bound_on_deep_search_graphs(self):
        # h_d as pinned by TestDeepSearch; the ordinary h of the sparse
        # G(n,p) graphs is too slow to compute here
        pinned = (8, 7, 7, 9, 8, 8, 5, 5, 5, 5, 5, 3)
        for (label, make), hd in zip(TestDeepSearch.GRAPHS, pinned, strict=True):
            g = make()
            assert hd <= (g.n + self.classes(g)) // 2, label

    def test_walk_stays_cut(self, monkeypatch):
        walk = exact_mod._connected_sets_with_neighbors
        yields = 0

        def counting(*args):
            nonlocal yields
            for pair in walk(*args):
                yields += 1
                yield pair

        monkeypatch.setattr(exact_mod, "_connected_sets_with_neighbors", counting)
        assert dominating_hadwiger_number(random_2k2_free(14, 0.3, 1))[0] == 7
        assert yields <= 60_000  # 287,099 without the bound

    def test_omega_cap_cuts_dense_walk(self, monkeypatch):
        walk = exact_mod._connected_sets_with_neighbors
        yields = 0

        def counting(*args):
            nonlocal yields
            for pair in walk(*args):
                yields += 1
                yield pair

        monkeypatch.setattr(exact_mod, "_connected_sets_with_neighbors", counting)
        assert dominating_hadwiger_number(random_2k2_free(14, 0.4, 3))[0] == 9
        assert yields <= 1_200  # 4,201 with the greedy class count alone

    def test_cap_bounds_clique_of_mask(self, monkeypatch):
        # the cap handed to the bound must be at least ω(G[m]) at every call,
        # whatever path of chosen sets reached m, or the dead memo could
        # record a mask that splits
        bound = exact_mod._largest_set
        graph = None
        calls = tight = 0

        def checking(adj, m, rest, cap):
            nonlocal calls, tight
            omega = clique_number(induced_subgraph(graph, m)[0])[0]
            assert cap >= omega, (graph, m, rest, cap)
            calls += 1
            tight += cap == omega < rest
            return bound(adj, m, rest, cap)

        monkeypatch.setattr(exact_mod, "_largest_set", checking)
        graphs = [g for _, g in TestDominatingDecisionsPinned.atlas()]
        graphs += [make() for _, make in TestDeepSearch.GRAPHS]
        for graph in graphs:
            dominating_hadwiger_number(graph)
        assert calls > 1_000 and tight > 100, (calls, tight)


class TestEdgeBound:
    # the r branch sets of a K_r model are disjoint and pairwise adjacent, so
    # the mask they are drawn from induces at least C(r, 2) edges

    def test_edge_count_matches_induced_subgraph(self):
        # n = 17, 40 and 70 pass the default cap, and at n = 70 a mask is
        # wider than one 64-bit word
        rng = random.Random(12)
        graphs = [
            parse_graph6(line) for n in (0, 1, 2, 6) for line in (DATA / f"graphs{n}.g6").read_text().split()
        ]
        graphs += [
            random_gnp(n, p, seed) for n in (9, 13, 16, 17, 40, 70) for p in (0.2, 0.5, 0.8) for seed in (1, 2)
        ]
        for g in graphs:
            count = exact_mod._edge_counter(g.adj)
            for m in (0, g.full_mask, *(rng.getrandbits(g.n) for _ in range(8))):
                assert count(m) == induced_subgraph(g, m)[0].edge_count()

    @staticmethod
    def count_walk(monkeypatch) -> list[int]:
        walk = exact_mod._connected_sets_with_neighbors
        yields = [0]

        def counting(*args):
            for pair in walk(*args):
                yields[0] += 1
                yield pair

        monkeypatch.setattr(exact_mod, "_connected_sets_with_neighbors", counting)
        return yields

    def test_dominating_walk_stays_cut(self, monkeypatch):
        yields = self.count_walk(monkeypatch)
        assert dominating_hadwiger_number(random_gnp(16, 0.3, 5))[0] == 5
        assert yields[0] <= 110_000  # 313,684 without the bound

    def test_ordinary_walk_stays_cut(self, monkeypatch):
        yields = self.count_walk(monkeypatch)
        assert hadwiger_number(one_subdivision_complete(5)) == 5
        assert yields[0] <= 200_000  # 627,081 without the bound

    def test_dominating_deadline_fires(self):
        # the deadline reads the clock once per 256 ticks, so it must tick per
        # walked set, not per recursive call; this refutation walks 2,656
        # sets (gnp(16,.25,3) at t = 6, used here before the domination edge
        # bound, now walks only 237, too few to reach a clock read)
        with pytest.raises(SearchDeadlineExceeded):
            has_dominating_kt(random_2k2_free(14, 0.3, 1), 8, deadline=Deadline(1e-4))

    @pytest.mark.parametrize("make, t, found", [
        (lambda: random_2k2_free(14, 0.3, 1), 8, False),
        (lambda: random_gnp(16, 0.25, 3), 5, True),
    ])
    def test_budgeted_search_ticks_once_per_walked_set(self, monkeypatch, make, t, found):
        # a refutation whose walk is mostly sets of later branch sets, and a
        # found probe: a budgeted deadline ticks once per set walked at
        # either level, so its counter equals the walker's yields
        g = make()
        yields = self.count_walk(monkeypatch)
        deadline = Deadline(1e9)
        assert (has_dominating_kt(g, t, deadline=deadline) is not None) == found
        assert deadline.counter == yields[0] > 1_000


class TestExcessCut:
    # a mask R that splits into r >= 4 sets has e(R) - |R| >= r(r - 3)/2, and
    # the largest e(X) - |X| over the sets X inside W is the 2-core excess
    # of G[W], so the T_1 walk does not grow a set S once G - S falls short

    @staticmethod
    def brute_excess(g: Graph) -> list[int]:
        """max(e(X) - |X|) over every X inside W, for every W, from the
        induced subgraphs."""
        best = [induced_subgraph(g, x)[0].edge_count() - x.bit_count() for x in range(1 << g.n)]
        for v in range(g.n):
            for w in range(1 << g.n):
                if w >> v & 1:
                    best[w] = max(best[w], best[w ^ 1 << v])
        return best

    @staticmethod
    def core_excess(g: Graph, w: int, count) -> int:
        """e(C) - |C| for the 2-core C of G[w], 0 if C is empty."""
        core = exact_mod._two_core(g.adj, w)
        return count(core) - core.bit_count()

    def test_core_excess_matches_brute_force_on_atlas(self):
        count = 0
        for n in range(7):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                edges = exact_mod._edge_counter(g.adj)
                for w, best in enumerate(self.brute_excess(g)):
                    core = exact_mod._two_core(g.adj, w)
                    assert core & ~w == 0 and all((g.adj[v] & core).bit_count() >= 2 for v in set_to_list(core)), (line, w)
                    assert self.core_excess(g, w, edges) == best, (line, w)
                    count += 1
        assert count == 11_291

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.floats(0.05, 0.7), st.integers(0, 10**6))
    def test_core_excess_matches_brute_force_on_gnp(self, n, p, seed):
        g = random_gnp(n, p, seed)
        best = self.brute_excess(g)
        edges = exact_mod._edge_counter(g.adj)
        assert [self.core_excess(g, w, edges) for w in range(1 << n)] == best

    def test_growth_test_shortcut_only_skips_peels(self):
        # the test tries e(W) - |W| before it peels, W = V - S; it must be
        # true exactly when the 2-core excess of G[W] reaches need
        count = 0
        for n in range(8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                edges = exact_mod._edge_counter(g.adj)
                sets = [0, *enumerate_connected_sets(g)]
                for need in (2, 5, 9):
                    grows = exact_mod._growth_test(g, need, edges)
                    for s in sets:
                        excess = self.core_excess(g, g.full_mask & ~s, edges)
                        assert grows(s) == (excess >= need), (line, need, s)
                        count += 1
        assert count == 259_035

    def test_growth_test_counts_a_core_only_when_peeled(self):
        # a peel that deletes no vertex leaves e(W) - |W|, which the test has
        # just counted, so it counts edges a second time only when the 2-core
        # of G[W] is smaller than W
        rng = random.Random(31)
        calls = tests = peels = 0
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                edges = exact_mod._edge_counter(g.adj)

                def counting(m):
                    nonlocal calls
                    calls += 1
                    return edges(m)

                m = rng.getrandbits(n)
                need = rng.randint(1, 4)
                grows = exact_mod._growth_test(g, need, counting, m)
                for s in (0, *enumerate_connected_sets(g, m)):
                    w = m & ~s
                    before = calls
                    grows(s)
                    peeled = edges(w) - w.bit_count() < need and exact_mod._two_core(g.adj, w) != w
                    assert calls - before == 1 + peeled, (line, m, s, need)
                    tests += 1
                    peels += peeled
        assert tests > 5_000 and 0 < peels < tests, (tests, peels)

    def test_t1_walk_stays_cut(self, monkeypatch):
        yields = TestEdgeBound.count_walk(monkeypatch)
        assert has_dominating_kt(random_gnp(16, 0.25, 3), 6) is None
        assert yields[0] <= 1_000  # 14,645 without the cut

    def test_growth_test_on_a_base_mask_is_sound(self):
        # inside a base mask m, the test of S may be false only if every X
        # inside m - S has e(X) - |X| < need, and it is true exactly when the
        # 2-core excess of G[m - S] reaches need
        rng = random.Random(30)
        tested = cut = 0
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                edges = exact_mod._edge_counter(g.adj)
                best = self.brute_excess(g)
                for _ in range(3):
                    m = rng.getrandbits(n)
                    need = rng.randint(0, 6)
                    grows = exact_mod._growth_test(g, need, edges, m)
                    for s in (0, *enumerate_connected_sets(g, m)):
                        w = m & ~s
                        grown = grows(s)
                        assert grown == (self.core_excess(g, w, edges) >= need), (line, m, s, need)
                        assert grown or best[w] < need, (line, m, s, need)
                        tested += 1
                        cut += not grown
        assert (tested, cut) == (39_886, 33_514)

    def test_partition_walks_stay_cut(self, monkeypatch):
        # a refutation whose walk is mostly sets of later branch sets, which
        # the excess cut at every level of the partition walk shortens
        yields = TestEdgeBound.count_walk(monkeypatch)
        assert has_dominating_kt(random_2k2_free(14, 0.3, 1), 8) is None
        # 3,408 with the K_r edge bound in place of the domination edge
        # bound, 8,488 with the cut on the T_1 walk alone
        assert yields[0] == 2_656

    def test_refutes_before_any_walk(self, monkeypatch):
        # a path has no cycle, so its 2-core is empty and no R reaches 2
        yields = TestEdgeBound.count_walk(monkeypatch)
        assert has_dominating_kt(path(12), 5) is None
        assert yields[0] == 0


class TestDominationEdgeBound:
    # each vertex of T_j has a neighbour in each of T_1, ..., T_{j-1} and each
    # T_j is connected, so a dominating model of r sets inside R, at most c
    # of them one-vertex sets, has e(R) - |R| >= r(r - 3)/2 + C(r - min(r, c), 2)

    @staticmethod
    def need(r: int, c: int) -> int:
        k = r - min(r, c)
        return r * (r - 3) // 2 + k * (k - 1) // 2

    def test_closed_form_is_least_over_set_sizes(self):
        # the least sum of (|T_j| - 1) + |T_j|(j - 1) over every size vector
        # of r sets covering R with at most c one-vertex sets, for every
        # feasible (r, |R|, c) with r <= 7, |R| <= 13 and c <= r
        cases = 0
        for r in range(1, 8):
            for size in range(r, 14):
                for c in range(r + 1):
                    least = None
                    for cuts in itertools.combinations(range(1, size), r - 1):
                        sizes = [b - a for a, b in zip((0, *cuts), (*cuts, size))]
                        if sizes.count(1) <= c:
                            edges = sum(k - 1 + k * j for j, k in enumerate(sizes))
                            least = edges if least is None else min(least, edges)
                    if least is not None:
                        assert least - size == self.need(r, c), (r, size, c)
                        cases += 1
        assert cases == 238

    def test_refused_masks_do_not_split_on_atlas(self):
        # the split test refuses R for r sets when e(R) - |R| < need(r, cap)
        # with a cap >= ω(G[R]); need falls as the cap grows, so every mask it
        # can refuse is refused at cap = ω(G[R]).  A refusal where e(R) - |R|
        # >= r(r - 3)/2, the K_r edge bound, is new, and that R may not split
        # (a disconnected R never splits, so only connected ones are tried)
        refused = sharper = 0
        for n in range(1, 8):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                edges = exact_mod._edge_counter(g.adj)
                omega = [0] * (1 << n)
                for m in range(1, 1 << n):
                    low = m & -m
                    omega[m] = max(omega[m ^ low], 1 + omega[m & g.adj[low.bit_length() - 1]])
                    if not is_connected_set(g, m):
                        continue
                    excess = edges(m) - m.bit_count()
                    for r in range(2, m.bit_count() + 1):
                        if excess < self.need(r, omega[m]):
                            refused += 1
                            if excess >= r * (r - 3) // 2:
                                assert not TestDeadStateMemo.brute_splits(g, m, r), (line, m, r)
                                sharper += 1
        assert (refused, sharper) == (88_041, 226)


class TestNoReferenceCycles:
    def test_searches_leave_no_cyclic_garbage(self):
        # a recursive closure that keeps its own cell alive is freed only by
        # the cyclic collector; every search must free its closures itself
        graphs = [
            parse_graph6(line)
            for n in range(1, 7)
            for line in (DATA / f"graphs{n}.g6").read_text().split()
        ]
        assert len(graphs) == 208
        p4 = path_template(4)
        calls = (
            clique_number,
            chromatic_number,
            lambda g: has_dominating_kt(g, 3),
            lambda g: has_kt_minor(g, 4),
            lambda g: find_induced(g, p4),
        )
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                clique_number.cache_clear()
                chromatic_number.cache_clear()
                for g in graphs:
                    call(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
