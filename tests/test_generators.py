import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domminor.exact import chromatic_number, clique_number
from domminor.generators import (
    SplitMix64,
    banner,
    complete,
    complete_multipartite,
    cycle,
    family,
    family_names,
    one_subdivision_complete,
    path,
    petersen,
    random_2k2_free,
    random_gnp,
    t_graph,
    two_k2,
)
from domminor.graphs import Graph, GraphConstructionError, complement
from domminor.patterns import (
    BANNER,
    find_2k2,
    find_banner,
    find_induced,
    find_induced_cycle,
    is_2k2_free,
)


class TestFamilies:
    def test_counts(self):
        assert cycle(6).edge_count() == 6
        assert path(4).edge_count() == 3
        assert complete(5).edge_count() == 10
        assert complete_multipartite([2, 2, 2]).edge_count() == 12
        assert petersen().n == 10 and petersen().edge_count() == 15
        assert banner().n == 5 and banner().edge_count() == 5
        assert two_k2().edge_count() == 2

    def test_subdivision_k4(self):
        g = one_subdivision_complete(4)
        assert g.n == 4 + 6 and g.edge_count() == 12
        # triangle-free: subdivision vertices have degree 2 and branch
        # vertices form an independent set
        assert find_induced(g, two_k2()) is not None  # sanity: sparse
        assert clique_number(g)[0] == 2

    def test_t_graph_contains_banner_and_c5(self):
        g = t_graph()
        assert g.n == 7
        emb = find_banner(g)
        assert emb == (0, 1, 2, 5, 6)
        assert find_induced_cycle(g, 5) is not None

    def test_c4_complement_is_two_k2(self):
        g = complement(cycle(4))
        assert g.edge_count() == 2
        emb = find_induced(g, two_k2())
        assert emb is not None and sorted(emb) == [0, 1, 2, 3]
        assert sorted(two_k2().edges()) == [(0, 1), (2, 3)]

    def test_family_dispatch(self):
        assert family("cycle", [5]) == cycle(5)
        assert family("petersen") == petersen()
        assert family("complete-multipartite", [2, 2, 2]) == complete_multipartite([2, 2, 2])
        assert "cycle" in family_names()

    def test_mycielski(self):
        # M_1 = K_1, M_2 = K_2 and M_3 = C_5; each later M_k keeps M_{k-1} on
        # 0..n-1, adds a shadow n + v adjacent to the neighbours of v, and
        # 2n adjacent to every shadow; each is triangle-free with χ = k
        assert [family("mycielski", [k]) for k in (1, 2, 3)] == [complete(1), complete(2), cycle(5)]
        for k in (4, 5):
            g, h = family("mycielski", [k]), family("mycielski", [k - 1])
            n = h.n
            low = (1 << n) - 1
            assert g.n == 2 * n + 1 and g.adj[2 * n] == low << n
            for v in range(n):
                assert g.adj[v] == h.adj[v] | h.adj[v] << n
                assert g.adj[n + v] == h.adj[v] | 1 << 2 * n
        assert [(g.n, g.edge_count()) for g in (family("mycielski", [k]) for k in (4, 5))] == [(11, 20), (23, 71)]
        for k in range(2, 6):
            g = family("mycielski", [k])
            assert clique_number(g)[0] == 2 and chromatic_number(g)[0] == k
        with pytest.raises(ValueError):
            family("mycielski", [0])

    def test_family_errors(self):
        with pytest.raises(ValueError, match="unknown family"):
            family("moebius")
        with pytest.raises(ValueError, match="parameter"):
            family("cycle", [])
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            complete_multipartite([0, 2])

    def test_family_table_errors(self):
        # the random families are rows of the same table and need their seed
        assert family("gnp", [8, 0.5], 3) == random_gnp(8, 0.5, 3)
        assert family("2k2-free", ["8", ".5"], 3) == random_2k2_free(8, 0.5, 3)
        with pytest.raises(ValueError, match="--seed"):
            family("gnp", [8, 0.5])
        with pytest.raises(ValueError, match="at least one part size"):
            family("complete-multipartite", [])
        with pytest.raises(ValueError, match="integer n and number p, got 'x'"):
            family("gnp", ["8", "x"], 3)


class TestRandom:
    def test_extremes(self):
        assert random_gnp(6, 0.0, 7).edge_count() == 0
        assert random_gnp(6, 1.0, 7).edge_count() == 15

    def test_reproducible(self):
        a = random_gnp(12, 0.4, 99)
        b = random_gnp(12, 0.4, 99)
        assert a == b
        assert random_gnp(12, 0.4, 100) != a

    def test_p_validated(self):
        with pytest.raises(ValueError):
            random_gnp(5, 1.5, 0)

    def test_n_validated(self):
        with pytest.raises(GraphConstructionError):
            random_gnp(-1, 0.5, 0)

    def test_gnp_pinned(self):
        # digest of the graphs drawn pair by pair through a 53-bit threshold
        # comparison, in combinations(range(n), 2) order
        h = hashlib.md5()
        for n in range(31):
            for p in (0.0, 0.08, 0.15, 0.25, 0.4, 0.5, 0.6, 0.8, 1.0):
                for seed in range(4):
                    g = random_gnp(n, p, seed)
                    h.update(f"{g.n} {g.adj}\n".encode())
        assert h.hexdigest() == "df77ff8857e3e529764be0444dfc0058"

    def test_splitmix_frozen_stream(self):
        # frozen first outputs for seed 1234567; pins cross-platform
        # reproducibility of every seeded corpus
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973
        assert rng.next_u64() == 9817491932198370423

    def test_2k2_free_outputs(self):
        for seed in range(40):
            g = random_2k2_free(10, 0.3, seed)
            assert g.n == 10
            assert is_2k2_free(g)

    def test_2k2_free_reproducible(self):
        assert random_2k2_free(14, 0.25, 5) == random_2k2_free(14, 0.25, 5)

    def test_n4_never_two_k2_itself(self):
        for seed in range(30):
            g = random_2k2_free(4, 0.5, seed)
            assert find_induced(g, two_k2()) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=5, max_value=16))
    def test_2k2_free_property(self, seed, n):
        assert is_2k2_free(random_2k2_free(n, 0.35, seed))

    def test_2k2_free_postcondition_raises_without_assert(self, monkeypatch):
        # the final re-check must hold under ``python -O`` too, so it may not be an assert
        import domminor.generators as gen

        answers = iter([None, "witness"])
        monkeypatch.setattr(gen, "find_2k2", lambda g: next(answers))
        with pytest.raises(RuntimeError, match="2K2"):
            random_2k2_free(6, 0.5, 1)

    def test_banner_pattern_matches_family(self):
        assert banner() == BANNER and find_banner(banner()) == (0, 1, 2, 3, 4)


def reference_gnp(n, p, seed):
    """G(n, p) drawn pair by pair with ``next_u64``, one call per pair."""
    rng = SplitMix64(seed)
    threshold = int(p * (1 << 53))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() >> 11 < threshold:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


class TestLaneDraws:
    SEEDS = (0, 1, 1234567, 2**64 - 1)

    def test_draws_equal_scalar_calls(self):
        # below, at and above one block of 1,024 lanes, and several blocks
        for seed in self.SEEDS:
            for count in (0, 1, 2, 1023, 1024, 1025, 5000):
                lanes, scalar = SplitMix64(seed), SplitMix64(seed)
                assert list(lanes.draws(count)) == [scalar.next_u64() for _ in range(count)], (seed, count)
                assert lanes.state == scalar.state, (seed, count)

    def test_next_u64_continues_after_draws(self):
        # the draws are reserved when asked for, read or not
        for seed in self.SEEDS:
            scalar = SplitMix64(seed)
            want = [scalar.next_u64() for _ in range(1500)]
            lanes = SplitMix64(seed)
            first = lanes.draws(1200)
            rest = [lanes.next_u64() for _ in range(300)]
            assert list(first) + rest == want, seed

    def test_gnp_across_blocks(self):
        # C(100, 2) = 4,950 pairs span five blocks; n = 30 stays in one
        for p in (0.1, 0.5, 0.93):
            for seed in (0, 77, 2**64 - 1):
                assert random_gnp(100, p, seed) == reference_gnp(100, p, seed), (p, seed)


def reference_2k2_free(n, p, seed):
    """The repair loop as first written: the same draws, but ``find_2k2``
    restarted on the whole graph after every added edge."""
    g = random_gnp(n, p, seed)
    rng = SplitMix64(seed ^ 0xD2B74407B1CE6E93)
    w = find_2k2(g)
    while w is not None:
        a1, a2, b1, b2 = w
        u, v = ((a1, b1), (a1, b2), (a2, b1), (a2, b2))[rng.below(4)]
        adj = list(g.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        g = Graph(n, tuple(adj))
        w = find_2k2(g)
    return g


class TestResumedRepair:
    DENSITIES = (0.08, 0.15, 0.25, 0.4, 0.6, 0.8)

    def test_matches_restarting_reference(self):
        for n in range(4, 31):
            for p in self.DENSITIES:
                for seed in (0, 7, 2_000_003):
                    assert random_2k2_free(n, p, seed) == reference_2k2_free(n, p, seed), (n, p, seed)

    def test_partner_searches_stay_cut(self, monkeypatch):
        # every edge the loop tests for a 2K2 partner after a repair, dirty
        # edges and resumed scans alike; the full checks before and after the
        # loop are not counted
        import domminor.generators as gen
        import domminor.patterns as pat

        nxt, partner = gen._next_witness, pat._partner
        searches = 0
        inside = False

        def counting_partner(*args):
            nonlocal searches
            searches += inside
            return partner(*args)

        def tracked(*args):
            nonlocal inside
            inside = True
            try:
                return nxt(*args)
            finally:
                inside = False

        monkeypatch.setattr(pat, "_partner", counting_partner)
        monkeypatch.setattr(gen, "_partner", counting_partner)
        monkeypatch.setattr(gen, "_next_witness", tracked)
        for i in range(1560):
            random_2k2_free(5 + i % 26, self.DENSITIES[i % 6], i)
        assert searches <= 330_000  # 808,005 when each scan restarted at the least of three edges

    def test_corpus_pinned(self):
        # criterion 1's first 20 parameter cycles and a small (n, p, seed)
        # grid; both digests were taken from the loop that restarted
        # find_2k2 after every added edge
        h = hashlib.md5()
        for i in range(1560):
            g = random_2k2_free(5 + i % 26, self.DENSITIES[i % 6], i)
            h.update(f"{g.n} {g.adj}\n".encode())
        assert h.hexdigest() == "7ce2be2f002ba6eac720ea0a79a89570"
        h = hashlib.md5()
        for n in range(4, 25, 4):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for seed in range(5):
                    g = random_2k2_free(n, p, seed)
                    h.update(f"{g.n} {g.adj}\n".encode())
        assert h.hexdigest() == "5a0a082f2ba383289d338ab8c597e94f"

    def test_resumed_witness_matches_full_scan(self, monkeypatch):
        import domminor.generators as gen

        resumed = gen._next_witness
        steps = 0

        def checked(n, adj, dirty, frontier):
            nonlocal steps
            found, dirty = resumed(n, adj, dirty, frontier)
            full = find_2k2(Graph(n, tuple(adj)))
            assert found == full, (n, adj, frontier)
            steps += 1
            return found, dirty

        monkeypatch.setattr(gen, "_next_witness", checked)
        for i in range(300):
            random_2k2_free(5 + i % 26, self.DENSITIES[i % 6], 3_000_000 + i)
        assert steps == 16750
