"""Helpers shared across tests: crafted extraction hosts and the reference
ordinary minor search.

Each host builder returns a 2K2-free graph with chi > omega routed to one
deep branch of the extractor; the routing facts are asserted in
test_extraction and reused by the acceptance suite's branch-coverage check.
``perturbed_host`` turns them into a seeded corpus around those branches.

``has_kt_minor`` and ``hadwiger_number`` decide ordinary K_t minors for
every t by exhaustive search.  The package decides them only for t <= 3, by
closed forms (:func:`domminor.exact.has_kt_minor`); this search is the
oracle those closed forms and the ordinary-side acceptance checks compare
against.  ``is_proper_coloring`` checks the colorings that
:func:`domminor.exact.chromatic_number` returns, ``verify_embedding`` the
witnesses of :mod:`domminor.patterns`, ``check_invariants`` the graphs that
:mod:`domminor.graphs` builds, and ``branches`` names the branches a
:class:`~domminor.extraction.Trace` recorded.
"""

import itertools

from domminor import exact
from domminor.generators import SplitMix64, complete_multipartite, cycle, random_2k2_free
from domminor.extraction import Trace
from domminor.graphs import Graph, GraphConstructionError, bits, complement, from_edge_list
from domminor.patterns import is_2k2_free


def join(g: Graph, h: Graph) -> Graph:
    """Complete join; h's vertices are shifted above g's."""
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return from_edge_list(g.n + h.n, edges)


def wheel5() -> Graph:
    """C5 plus a hub complete to the rim; chi=4, omega=3."""
    return from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])


def singleton_class_host() -> Graph:
    """Rim 0..4, vertex 5 adjacent to all of the rim but 0, hub 6 complete to
    the rim only. Routes to the singleton miss-class branch."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, i) for i in (1, 2, 3, 4)]
    edges += [(6, i) for i in range(5)]
    return from_edge_list(7, edges)


def forced_k4_host() -> Graph:
    """Rim 0..4, low-degree vertex 5 seeing {0, 2}, plus the four apex
    vertices 6..9 (a K4) that both banner orientations force, joined to a
    5-cycle. Routes through the apex-pair outcome twice into the K4 prefix."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5, 0), (5, 2)]
    edges += [(6, 5), (6, 2), (6, 4)]
    edges += [(7, 1), (7, 2), (7, 4)]
    edges += [(8, 0), (8, 1), (8, 3)]
    edges += [(9, 0), (9, 5), (9, 3)]
    edges += list(itertools.combinations([6, 7, 8, 9], 2))
    return join(from_edge_list(10, edges), from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]))


def c5_blowup(m: int, extra: tuple = ()) -> Graph:
    """Rim 0..4; miss-class i is the m vertices 5+m*i .. 5+m*i+m-1, adjacent
    to every rim vertex except i; classes are cliques, classes two apart are
    complete, consecutive classes are joined by the complement of the
    index-aligned perfect matching."""
    edges = [(i, (i + 1) % 5) for i in range(5)]

    def y(i, a):
        return 5 + m * (i % 5) + a

    for i in range(5):
        for a in range(m):
            for jj in range(5):
                if jj != i:
                    edges.append((y(i, a), jj))
            for b in range(a + 1, m):
                edges.append((y(i, a), y(i, b)))
            for b in range(m):
                edges.append((y(i, a), y(i + 2, b)))
                if a != b:
                    edges.append((y(i, a), y(i + 1, b)))
    edges += list(extra)
    return from_edge_list(5 + 5 * m, edges)


def pentagon() -> Graph:
    return from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])


def final_host(m: int) -> Graph:
    """Matched blowup joined to a 5-cycle; routes to the (2m+2)-set prefix."""
    return join(c5_blowup(m), pentagon())


def complete_neighbor_host() -> Graph:
    """m=2 blowup with one matched non-edge turned into an edge, so one class
    vertex becomes complete to the next class; joined to a 5-cycle."""
    return join(c5_blowup(2, extra=((5, 7),)), pentagon())


def pendant_class_host() -> Graph:
    """m=2 blowup where class vertex 5 is made complete to both consecutive
    classes and then receives a pendant vertex; the pendant sits on the
    anticomplete side with an edge into a miss-class."""
    base = c5_blowup(2, extra=((5, 7), (5, 13)))
    edges = list(base.edges()) + [(base.n, 5)]
    return from_edge_list(base.n + 1, edges)


def perturbed_host(seed: int) -> Graph:
    """A crafted host with 1-8 random vertex-pair flips, each kept only if
    the graph stays 2K2-free; half the time joined with a small random
    2K2-free graph (a join of 2K2-free graphs is 2K2-free).

    Random 2K2-free graphs almost never reach the C5-partition branches;
    these graphs reach each of them on a sizeable share of seeds.  The
    stream is ``SplitMix64(seed)``, so a seed always gives the same graph.
    """
    rng = SplitMix64(seed)
    hosts = (
        lambda: c5_blowup(2), lambda: c5_blowup(3), lambda: c5_blowup(4),
        lambda: final_host(2), lambda: final_host(3), complete_neighbor_host,
        singleton_class_host, forced_k4_host, pendant_class_host,
        lambda: complete_multipartite([2, 2, 2, 2]), lambda: complement(cycle(7)),
    )
    g = hosts[rng.below(len(hosts))]()
    adj = list(g.adj)
    for _ in range(1 + rng.below(8)):
        u, v = rng.below(g.n), rng.below(g.n)
        if u == v:
            continue
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if not is_2k2_free(Graph(g.n, tuple(adj))):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    g = Graph(g.n, tuple(adj))
    if rng.below(2):
        g = join(g, random_2k2_free(1 + rng.below(6), (0.2, 0.4, 0.6)[rng.below(3)], rng.next_u64()))
    return g


def is_proper_coloring(g: Graph, colors: tuple[int, ...], k: int) -> bool:
    if len(colors) != g.n:
        return False
    if any(not 0 <= c < k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def verify_embedding(host: Graph, t: Graph, vs: tuple[int, ...]) -> bool:
    """Re-check a witness of the template ``t`` against the induced-copy
    definition from scratch."""
    if len(vs) != t.n or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < host.n for v in vs):
        return False
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if t.has_edge(i, j) != host.has_edge(vs[i], vs[j]):
                return False
    return True


def check_invariants(g: Graph) -> None:
    """Assert symmetry, irreflexivity and clean high bits."""
    full = g.full_mask
    if len(g.adj) != g.n:
        raise GraphConstructionError("adjacency row count does not match n")
    for v in range(g.n):
        row = g.adj[v]
        if row & ~full:
            raise GraphConstructionError(f"row {v} has bits beyond n")
        if row >> v & 1:
            raise GraphConstructionError(f"self-loop at vertex {v}")
        for u in bits(row):
            if not (g.adj[u] >> v & 1):
                raise GraphConstructionError(f"asymmetric pair ({v}, {u})")


def branches(trace: Trace) -> set[str]:
    return {e["branch"] for e in trace.events}


def has_kt_minor(g: Graph, t: int) -> bool:
    """Exact ordinary K_t minor decision for any t >= 1 (exhaustive search).

    Ordinary-model validity is order-insensitive, so the search enumerates
    families with strictly increasing set minima: each new set lives above
    the previous set's least vertex.  Sets come from the package's
    connected-set walker, looked up at call time so that a test can count
    its yields.  The walk is cut by the singleton-clique bound of
    ``exact._largest_set``, given ``cap=rest``, which leaves the greedy
    class count as the only bound on the singletons.  Each walked S is also
    tested by the K_r edge bound on the next call's ``avail`` (``avail &
    ~s`` minus every vertex up to the least of S): the ``rest`` sets drawn
    from it are disjoint and pairwise adjacent, so they need C(rest, 2)
    edges between them.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > g.n:
        return False
    omega, _ = exact.clique_number(g)
    if omega >= t:
        return True
    adj = g.adj
    count = exact._edge_counter(adj)

    def rec(avail: int, nbr_masks: list[int], remaining: int) -> bool:
        if remaining == 0:
            return True
        rest = remaining - 1
        limit = exact._largest_set(adj, avail, rest, cap=rest)
        if limit < 1:
            return False
        pairs = rest * (rest - 1) // 2
        for s, nb in exact._connected_sets_with_neighbors(g, avail, limit):
            for nm in nbr_masks:
                if s & nm == 0:
                    break
            else:
                nxt = avail & ~s & ~((s & -s) - 1)  # the next set lies above min(s)
                if pairs and count(nxt) < pairs:
                    continue
                nbr_masks.append(nb)
                if rec(nxt, nbr_masks, rest):
                    return True
                nbr_masks.pop()
        return False

    try:
        return rec(g.full_mask, [], t)
    finally:
        del rec  # the closure refers to itself; free it without the cyclic collector


def hadwiger_number(g: Graph) -> int:
    """Largest t with an ordinary K_t minor, probed upward from omega."""
    if g.n == 0:
        raise ValueError("Hadwiger number of the empty graph is undefined")
    t, _ = exact.clique_number(g)
    while t < g.n and has_kt_minor(g, t + 1):
        t += 1
    return t
