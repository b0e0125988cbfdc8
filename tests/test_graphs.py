import hashlib
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_invariants

from domminor.graphs import (
    DEFAULT_GRAPH6_CAP,
    Graph,
    Graph6ParseError,
    Graph6RangeError,
    GraphConstructionError,
    bits,
    complement,
    connected_components,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    graph_memo,
    induced_subgraph,
    is_connected_set,
    mask_of,
    parse_edge_list,
    parse_graph6,
    relabel_mask,
    set_to_list,
    to_dot,
)

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
DATA = Path(__file__).parent / "data"


def g6_reference_decode(s: str) -> tuple[int, set[tuple[int, int]]]:
    """Independent string-of-bits decoder, straight off the format description."""
    raw = [ord(c) - 63 for c in s]
    if raw[0] == 63:  # '~'
        n = (raw[1] << 12) | (raw[2] << 6) | raw[3]
        payload = raw[4:]
    else:
        n = raw[0]
        payload = raw[1:]
    bitstring = "".join(format(x, "06b") for x in payload)
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[k] == "1":
                edges.add((i, j))
            k += 1
    return n, edges


def graphs_strategy(max_n=9):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
        return from_edge_list(n, chosen)

    return st.composite(build)()


class TestConstruction:
    def test_single_edge(self):
        g = from_edge_list(2, [(0, 1)])
        assert g.n == 2 and g.has_edge(0, 1) and g.edge_count() == 1

    def test_c5(self):
        g = from_edge_list(5, C5_EDGES)
        assert g.edge_count() == 5
        assert all(g.degree(v) == 2 for v in range(5))
        check_invariants(g)

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphConstructionError, match="out of range"):
            from_edge_list(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            from_edge_list(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1


class TestValueSemantics:
    def test_equal_graphs_hash_equal_and_share_one_memo_entry(self):
        computed = []

        @graph_memo
        def edge_count(g):
            computed.append(g)
            return g.edge_count()

        g = from_edge_list(5, C5_EDGES)
        twin = parse_graph6(emit_graph6(g))
        assert twin == g and twin is not g and hash(twin) == hash(g)
        assert edge_count(g) == edge_count(twin) == 5
        assert computed == [g]
        assert edge_count.cache_info() == (1, 1, 1)

    def test_pickle_round_trip(self):
        g = from_edge_list(5, C5_EDGES)
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and hash(back) == hash(g)

    def test_fields_cannot_be_assigned(self):
        g = from_edge_list(5, C5_EDGES)
        with pytest.raises(AttributeError):
            g.n = 3
        with pytest.raises(AttributeError):
            g.adj = ()
        assert g == from_edge_list(5, C5_EDGES)


class TestGraph6:
    def test_k2_parses(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_edgeless_two(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.edge_count() == 0

    def test_dhc_is_c5(self):
        g = parse_graph6("Dhc")
        assert g.n == 5
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in C5_EDGES)

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert g.n == 0
        assert emit_graph6(g) == "?"

    def test_emit_known_values(self):
        assert emit_graph6(from_edge_list(2, [(0, 1)])) == "A_"
        assert emit_graph6(from_edge_list(5, C5_EDGES)) == "Dhc"

    def test_agrees_with_reference_decoder(self):
        for s in ["A_", "A?", "Dhc", "D~{", "C]", "G?ABCo", "I???????w"]:
            g = parse_graph6(s)
            n, edges = g6_reference_decode(s)
            assert g.n == n
            assert set(g.edges()) == edges

    def test_long_form_round_trip(self):
        g = from_edge_list(70, [(0, 69), (1, 2)])
        s = emit_graph6(g)
        assert s.startswith("~")
        h = parse_graph6(s)
        assert h == g

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_").n == 2

    def test_cap_enforced(self):
        g = from_edge_list(70, [(0, 1)])
        with pytest.raises(Graph6ParseError, match="above cap"):
            parse_graph6(emit_graph6(g), cap=64)

    def test_malformed_header(self):
        with pytest.raises(Graph6ParseError) as ei:
            parse_graph6("!abc")
        assert ei.value.offset == 0

    def test_truncated_payload(self):
        with pytest.raises(Graph6ParseError, match="truncated"):
            parse_graph6("D")

    def test_trailing_bytes(self):
        with pytest.raises(Graph6ParseError, match="after bit payload"):
            parse_graph6("A_1")

    def test_non_ascii_rejected_at_its_offset(self):
        # replacing the character with '?', a valid payload byte, would parse
        # a different graph
        with pytest.raises(Graph6ParseError, match="non-ASCII") as ei:
            parse_graph6("Dh\u00e9")
        assert ei.value.offset == 2

    def test_malformed_payload_byte_offset(self):
        with pytest.raises(Graph6ParseError, match="payload byte") as ei:
            parse_graph6("D h")
        assert ei.value.offset == 1
        long_form = emit_graph6(from_edge_list(70, [(0, 1)]))
        with pytest.raises(Graph6ParseError, match="payload byte") as ei:
            parse_graph6(long_form[:9] + " " + long_form[10:])
        assert ei.value.offset == 9

    def test_atlas_parses_as_pinned(self):
        # sha256 of every parsed (n, adj) over the vendored atlas, pinned
        # from the decoder that mapped each set bit to its (i, j) by a walk
        # from the first column
        h = hashlib.sha256()
        count = 0
        for n in range(9):
            for line in (DATA / f"graphs{n}.g6").read_text().split():
                g = parse_graph6(line)
                h.update(f"{g.n} {list(g.adj)}\n".encode())
                count += 1
        assert count == 13599
        assert h.hexdigest() == "fd1d71894939b2b35d1307d04e7bbf92cd41e4a164ca2a8bda63af4a369f8010"

    def test_eight_byte_form_rejected(self):
        with pytest.raises(Graph6ParseError, match="8-byte"):
            parse_graph6("~~?????@??")

    def test_emit_range_error(self):
        g = Graph(258048, tuple([0] * 258048))
        with pytest.raises(Graph6RangeError):
            emit_graph6(g)

    @settings(max_examples=200, deadline=None)
    @given(graphs_strategy())
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g


class TestEdgeListText:
    def test_round_trip(self):
        g = from_edge_list(5, C5_EDGES)
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_comments_ignored(self):
        g = parse_edge_list("# a cycle\n3 3\n0 1\n# middle\n1 2\n2 0\n")
        assert g.edge_count() == 3

    def test_bad_header(self):
        with pytest.raises(GraphConstructionError):
            parse_edge_list("3\n0 1\n")

    @pytest.mark.parametrize("text", ["x 1\n0 1\n", "2 1\n0 q\n"])
    def test_non_integer_token(self, text):
        with pytest.raises(GraphConstructionError, match="non-integer"):
            parse_edge_list(text)

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphConstructionError, match="promises"):
            parse_edge_list("3 2\n0 1\n")

    def test_vertex_cap(self):
        # the header is checked against the graph6 cap before the rows are
        # allocated, so a huge n costs nothing
        assert parse_edge_list(f"{DEFAULT_GRAPH6_CAP} 0\n").n == DEFAULT_GRAPH6_CAP
        with pytest.raises(GraphConstructionError, match=f"vertex count {DEFAULT_GRAPH6_CAP + 1} above cap"):
            parse_edge_list(f"{DEFAULT_GRAPH6_CAP + 1} 0\n")
        assert parse_edge_list("3 1\n0 1\n", cap=3).n == 3
        with pytest.raises(GraphConstructionError, match="above cap 2"):
            parse_edge_list("3 1\n0 1\n", cap=2)

    def test_dot_contains_edges(self):
        dot = to_dot(from_edge_list(2, [(0, 1)]))
        assert "0 -- 1;" in dot


class TestSetAlgebra:
    def test_induced_path_from_cycle(self):
        g = from_edge_list(5, C5_EDGES)
        sub, verts = induced_subgraph(g, mask_of([0, 1, 2]))
        assert verts == (0, 1, 2)
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_induced_full_is_identity(self):
        g = from_edge_list(5, C5_EDGES)
        sub, verts = induced_subgraph(g, g.full_mask)
        assert sub == g and verts == (0, 1, 2, 3, 4)

    def test_induced_k2_from_k4(self):
        k4 = from_edge_list(4, list(itertools.combinations(range(4), 2)))
        sub, verts = induced_subgraph(k4, mask_of([0, 2]))
        assert sub.n == 2 and sub.has_edge(0, 1) and verts == (0, 2)

    def test_induced_empty(self):
        g = from_edge_list(3, [(0, 1)])
        sub, verts = induced_subgraph(g, 0)
        assert sub.n == 0 and verts == ()

    def test_relabel_mask(self):
        g = from_edge_list(5, C5_EDGES)
        _, verts = induced_subgraph(g, mask_of([1, 3, 4]))
        assert relabel_mask(0b101, verts) == mask_of([1, 4])

    def test_complement_c4_is_2k2(self):
        c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g = complement(c4)
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_complement_involution(self):
        g = from_edge_list(6, [(0, 1), (2, 5), (3, 4), (1, 4)])
        assert complement(complement(g)) == g

    def test_complement_k3(self):
        k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert complement(k3).edge_count() == 0

    def test_connected_set_cases(self):
        g = from_edge_list(5, C5_EDGES)
        assert is_connected_set(g, mask_of([0, 1, 2]))
        assert not is_connected_set(g, mask_of([0, 2]))
        assert is_connected_set(g, mask_of([3]))
        assert not is_connected_set(g, 0)

    def test_components(self):
        g = from_edge_list(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [0b00011, 0b01100, 0b10000]


class TestOracles:
    @settings(max_examples=150, deadline=None)
    @given(graphs_strategy(max_n=8), st.integers(min_value=0, max_value=255))
    def test_connected_set_agrees_with_union_find(self, g, raw):
        s = raw & g.full_mask
        members = set_to_list(s)
        parent = {v: v for v in members}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u in members:
            for v in members:
                if u < v and g.has_edge(u, v):
                    parent[find(u)] = find(v)
        roots = {find(v) for v in members}
        expected = len(roots) == 1
        assert is_connected_set(g, s) == expected

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy(max_n=8))
    def test_invariants_hold_after_every_constructor(self, g):
        check_invariants(g)
        check_invariants(complement(g))
        check_invariants(parse_graph6(emit_graph6(g)))
        sub, _ = induced_subgraph(g, g.full_mask >> 1)
        check_invariants(sub)

    def test_bits_roundtrip(self):
        assert set_to_list(mask_of([5, 1, 9])) == [1, 5, 9]
        assert list(bits(0)) == []
