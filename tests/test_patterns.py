import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import verify_embedding

import domminor.patterns as patterns_mod
from domminor.cli import main
from domminor.extraction import extract_ordinary_minor
from domminor.generators import complete, random_2k2_free
from domminor.graphs import Graph, complement, emit_graph6, from_edge_list, mask_of, parse_graph6
from domminor.patterns import (
    BANNER,
    cycle_template,
    find_2k2,
    find_banner,
    find_induced,
    find_induced_cycle,
    induced_c5_iter,
    is_2k2_free,
    path_template,
)

DATA = Path(__file__).parent / "data"

C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
P4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
K4 = from_edge_list(4, list(itertools.combinations(range(4), 2)))
TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)])
OCTAHEDRON = from_edge_list(
    6, [(u, v) for u, v in itertools.combinations(range(6), 2) if v - u != 3]
)
# Figure-1 style 7-vertex host: outer 5-cycle 0..4, center 5 adjacent to all
# but 1, pendant 6 on the center.
T_GRAPH = from_edge_list(
    7,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2), (5, 3), (5, 4), (6, 5)],
)
PETERSEN = from_edge_list(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def brute_induced(host: Graph, t: Graph) -> bool:
    """Oracle: exhaust all vertex tuples for an induced copy."""
    for combo in itertools.permutations(range(host.n), t.n):
        if all(
            t.has_edge(i, j) == host.has_edge(combo[i], combo[j])
            for i in range(t.n)
            for j in range(i + 1, t.n)
        ):
            return True
    return False


def random_graphs(max_n=8):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return from_edge_list(n, chosen)

    return st.composite(build)()


class TestGenericEngine:
    def test_2k2_in_itself_is_identity(self):
        assert find_induced(TWO_K2, TWO_K2) == (0, 1, 2, 3)

    def test_no_2k2_in_c5(self):
        # oracle: every 4-subset of C5 checked directly
        for sub in itertools.combinations(range(5), 4):
            edges = [(u, v) for u, v in itertools.combinations(sub, 2) if C5.has_edge(u, v)]
            degs = sorted(sum(1 for e in edges if w in e) for w in sub)
            assert not (len(edges) == 2 and degs == [1, 1, 1, 1])
        assert find_induced(C5, TWO_K2) is None

    def test_banner_in_t_graph(self):
        emb = find_induced(T_GRAPH, BANNER)
        assert emb == (0, 1, 2, 5, 6)
        assert verify_embedding(T_GRAPH, BANNER, emb)

    def test_returned_embeddings_verify(self):
        for host in [C5, C6, K4, T_GRAPH, PETERSEN]:
            for t in [TWO_K2, BANNER, cycle_template(4), cycle_template(5), path_template(4)]:
                emb = find_induced(host, t)
                if emb is not None:
                    assert verify_embedding(host, t, emb)


class TestSpecializedScans:
    def test_p4_has_no_2k2(self):
        assert find_2k2(P4) is None

    def test_c6_witness(self):
        emb = find_2k2(C6)
        assert emb == (0, 1, 3, 4)
        assert verify_embedding(C6, TWO_K2, emb)

    def test_octahedron_2k2_free(self):
        assert find_2k2(OCTAHEDRON) is None

    def test_banner_host_identity(self):
        assert find_banner(BANNER) == (0, 1, 2, 3, 4)

    def test_banner_absent_in_c4(self):
        assert find_banner(C4) is None

    def test_banner_found_in_t(self):
        assert find_banner(T_GRAPH) is not None

    def test_cycle_search(self):
        assert find_induced_cycle(C5, 5) == (0, 1, 2, 3, 4)
        assert find_induced_cycle(K4, 4) is None
        emb = find_induced_cycle(PETERSEN, 5)
        assert verify_embedding(PETERSEN, cycle_template(5), emb)

    def test_cycle_length_validated(self):
        with pytest.raises(ValueError):
            find_induced_cycle(C5, 3)

    def test_c5_iter_canonical(self):
        assert list(induced_c5_iter(C5)) == [(0, 1, 2, 3, 4)]
        assert list(induced_c5_iter(K4)) == []
        # Petersen has 12 5-cycles, all induced (girth 5)
        found = list(induced_c5_iter(PETERSEN))
        assert len(found) == 12
        assert found == sorted(found)
        for tup in found:
            assert verify_embedding(PETERSEN, cycle_template(5), tup)
        assert find_induced_cycle(PETERSEN, 5) is not None


def is_split(g):
    """``domminor analyze``'s split verdict: no induced 2K2, C4 or C5."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", emit_graph6(g)]) == 0
    return json.loads(out.getvalue())["is_split"]


class TestSplitRecognition:
    def test_k4_plus_pendant(self):
        g = from_edge_list(5, list(itertools.combinations(range(4), 2)) + [(0, 4)])
        assert is_split(g)

    def test_c4_c5_not_split(self):
        assert not is_split(C4)
        assert not is_split(C5)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=12))
    def test_agrees_with_degree_sequence_criterion(self, g):
        # Hammer-Simeone: with degrees d1 >= ... >= dn and
        # m = max{i : d_i >= i - 1}, the graph is split iff
        # sum_{i<=m} d_i == m(m-1) + sum_{i>m} d_i.
        d = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        m = 0
        for i in range(1, g.n + 1):
            if d[i - 1] >= i - 1:
                m = i
        lhs = sum(d[:m])
        rhs = m * (m - 1) + sum(d[m:])
        assert is_split(g) == (lhs == rhs)


class TestCrossChecks:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=7))
    def test_find_2k2_agrees_with_generic(self, g):
        assert (find_2k2(g) is None) == (find_induced(g, TWO_K2) is None)

    @settings(max_examples=150, deadline=None)
    @given(random_graphs(max_n=7))
    def test_2k2_free_iff_complement_c4_free(self, g):
        lhs = is_2k2_free(g)
        rhs = find_induced_cycle(complement(g), 4) is None
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=7))
    def test_generic_engine_against_brute_force(self, g):
        for t in [TWO_K2, path_template(4), cycle_template(4)]:
            assert (find_induced(g, t) is not None) == brute_induced(g, t)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=8))
    def test_c5_iter_against_subset_scan(self, g):
        expected = set()
        for sub in itertools.combinations(range(g.n), 5):
            degs = [sum(1 for u in sub if u != v and g.has_edge(u, v)) for v in sub]
            if degs == [2, 2, 2, 2, 2]:
                expected.add(frozenset(sub))
        got = [frozenset(t) for t in induced_c5_iter(g)]
        assert len(got) == len(set(got))
        assert set(got) == expected


class TestCorpusInvariants:
    def _corpus(self, n):
        return [parse_graph6(line) for line in (DATA / f"graphs{n}.g6").read_text().split()]

    def test_2k2_scan_agreement_all_n_le_7(self):
        for n in range(8):
            for g in self._corpus(n):
                assert (find_2k2(g) is None) == (find_induced(g, TWO_K2) is None)

    def test_first_c5_is_the_least_induced_c5(self):
        # the extractor partitions around the iterator's first C5, while
        # ``domminor analyze`` reports find_induced_cycle's: they are one C5
        count = 0
        for n in range(9):
            for g in self._corpus(n):
                first = next(induced_c5_iter(g), None)
                assert find_induced_cycle(g, 5) == first
                count += first is not None
        assert count == 3580

    def test_2k2_complement_duality_all_n_le_7(self):
        for n in range(8):
            for g in self._corpus(n):
                assert is_2k2_free(g) == (find_induced_cycle(complement(g), 4) is None)

    def test_scanner_from_every_start_edge(self):
        # from (0, 0) the scanner gives the lexicographically least induced
        # 2K2; from any edge it gives the first edge at or after it that has
        # a partner, with that edge's least partner
        count = 0
        for n in range(8):
            for g in self._corpus(n):
                edges = list(g.edges())
                partner = {}
                for a in edges:
                    outside = g.full_mask & ~mask_of(a) & ~g.adj[a[0]] & ~g.adj[a[1]]
                    partner[a] = next((b for b in edges if not mask_of(b) & ~outside), None)
                emb = find_induced(g, TWO_K2)
                assert patterns_mod._scan_2k2(g.n, g.adj, 0, 0) == emb
                assert find_2k2(g) == emb
                for start in [(0, 0)] + edges:
                    first = next((a + partner[a] for a in edges if a >= start and partner[a]), None)
                    assert patterns_mod._scan_2k2(g.n, g.adj, *start) == first
                    count += 1
        assert count == 13595

    def test_find_induced_is_lex_least(self):
        # the witness is the first induced tuple of itertools.permutations,
        # i.e. the lexicographically least one, or None when there is none
        templates = [TWO_K2, path_template(4), cycle_template(4), cycle_template(5), BANNER]
        pairs = [[(i, j, t.has_edge(i, j)) for i, j in itertools.combinations(range(t.n), 2)] for t in templates]
        count = 0
        for n in range(8):
            for g in self._corpus(n):
                for t, t_pairs in zip(templates, pairs):
                    want = next(
                        (
                            vs
                            for vs in itertools.permutations(range(n), t.n)
                            if all(g.has_edge(vs[i], vs[j]) == e for i, j, e in t_pairs)
                        ),
                        None,
                    )
                    assert find_induced(g, t) == want
                    count += 1
        assert count == 6265


class TestFirstVertexCut:
    DENSITIES = (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)

    @staticmethod
    def _first_vertex_tests(monkeypatch):
        """Count ``_partner``'s u = v calls, the first vertices tried, and
        those it refuses; every other call has u < v."""
        partner = patterns_mod._partner
        counts = {"tried": 0, "skipped": 0}

        def counting(full, adj, u, v):
            found = partner(full, adj, u, v)
            if u == v:
                counts["tried"] += 1
                counts["skipped"] += found is None
            return found

        monkeypatch.setattr(patterns_mod, "_partner", counting)
        return counts

    def test_skips_pinned_on_criterion_1(self, monkeypatch):
        # the P4 searches of the ordinary extractor on criterion 1's first
        # 156 graphs: most first vertices have an edgeless non-neighbourhood
        graphs = [random_2k2_free(5 + i % 26, self.DENSITIES[i % 6], i) for i in range(156)]
        counts = self._first_vertex_tests(monkeypatch)
        for g in graphs:
            extract_ordinary_minor(g)
        assert counts == {"tried": 1976, "skipped": 1431}

    def test_complete_host_never_enters_position_1(self, monkeypatch):
        # in K_30 every N[v] is everything, so each first vertex is refused
        # and no row of the host is read outside _partner
        partner = patterns_mod._partner
        inside = False
        outside_reads = 0

        class Rows(tuple):
            def __getitem__(self, i):
                nonlocal outside_reads
                outside_reads += not inside
                return tuple.__getitem__(self, i)

        def tracked(*args):
            nonlocal inside
            inside = True
            try:
                return partner(*args)
            finally:
                inside = False

        monkeypatch.setattr(patterns_mod, "_partner", tracked)
        counts = self._first_vertex_tests(monkeypatch)
        k30 = complete(30)
        assert find_induced(Graph(30, Rows(k30.adj)), path_template(4)) is None
        assert counts == {"tried": 30, "skipped": 30} and outside_reads == 0

    def test_cut_only_where_two_non_neighbours_meet(self, monkeypatch):
        # vertex 0 of P4, C5 and 2K2 has two adjacent non-neighbours; that of
        # the banner and of C4 has not, so the cut stays off there
        counts = self._first_vertex_tests(monkeypatch)
        for t, used in ((P4, True), (C5, True), (TWO_K2, True), (BANNER, False), (C4, False)):
            before = counts["tried"]
            find_induced(PETERSEN, t)
            assert (counts["tried"] > before) == used, t
