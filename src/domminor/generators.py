"""Deterministic graph families and seeded random generators.

Randomness is driven by a pinned splitmix64 stream so that every corpus is
reproducible from (family, params, seed) alone, on any platform.
"""

from __future__ import annotations

import struct
from itertools import chain, combinations
from typing import Iterator

from .graphs import Graph, GraphConstructionError, from_edge_list
from .patterns import BANNER, _partner, _scan_2k2, find_2k2

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The lanes of SplitMix64.draws: _ONES holds 1 in every 128-bit lane, _RAMP
# holds (k + 1) * gamma in lane k, and _LANES holds the low 64 bits of every
# lane.
_BLOCK = 1024
_ONES = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
_RAMP = int.from_bytes(b"".join(((k + 1) * _GAMMA).to_bytes(16, "little") for k in range(_BLOCK)), "little")
_LANES = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")


def _block(state: int, size: int) -> tuple[int, ...]:
    """The ``size`` (at most ``_BLOCK``) draws of ``next_u64`` from ``state``.

    Each step of splitmix's finaliser runs once over every lane; a right
    shift is masked back to 64 bits per lane, which drops the bits it moved
    in from the lane above, and a product is reduced the same way.
    """
    low = (1 << 128 * size) - 1
    lanes = _LANES & low
    z = (state * (_ONES & low) + (_RAMP & low)) & lanes
    z = ((z ^ (z >> 30) & lanes) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ (z >> 27) & lanes) * 0x94D049BB133111EB) & lanes
    z ^= (z >> 31) & lanes
    return struct.unpack(f"<{2 * size}Q", z.to_bytes(16 * size, "little"))[::2]


class SplitMix64:
    """Pinned 64-bit generator (splitmix64); identical streams everywhere.

    Draw k after the state s depends on s + k * gamma alone (Steele, Lea and
    Flood, *Fast splittable pseudorandom number generators*, OOPSLA 2014), so
    :meth:`draws` computes many at once; :meth:`next_u64` is the scalar
    reference.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def draws(self, count: int) -> Iterator[int]:
        """An iterator over the next ``count`` values of :meth:`next_u64`.

        The state moves past all ``count`` at once, so a later ``next_u64``
        continues the stream after them whether or not they are read.  They
        are computed ``_BLOCK`` (1,024) at a time, when the iterator reaches
        them, so memory stays bounded and time linear in ``count``.  A block
        is one int: lane k, its bits 128k to 128k + 127, starts at the
        block's state + (k + 1) * gamma, splitmix's xor-shift-multiply steps
        run once over all lanes (see :func:`_block`), and ``struct`` reads
        the low 64 bits of each lane out.  A lane is twice as wide as a
        draw, so no product of a draw and a 64-bit constant spills into the
        next lane.
        """
        state = self.state
        self.state = (state + count * _GAMMA) & _MASK64
        return chain.from_iterable(
            _block((state + k * _GAMMA) & _MASK64, min(_BLOCK, count - k)) for k in range(0, count, _BLOCK)
        )


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return from_edge_list(n, list(combinations(range(n), 2)))


def complete_multipartite(sizes: list[int]) -> Graph:
    """Parts are consecutive vertex blocks in the given order."""
    if not sizes:
        raise ValueError("complete-multipartite needs at least one part size")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for s in sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for a, b in combinations(range(len(sizes)), 2)
        for u in bounds[a]
        for v in bounds[b]
    ]
    return from_edge_list(start, edges)


def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return from_edge_list(10, edges)


def banner() -> Graph:
    """4-cycle 0-1-2-3 plus pendant 4 attached at 3; roles (b1,b2,b3,b;b')=(0..4)."""
    return BANNER


def t_graph() -> Graph:
    """The 7-vertex host: outer 5-cycle 0..4, center 5 adjacent to all of the
    cycle except 1, pendant 6 on the center. Contains an induced banner on
    (0, 1, 2, 5; 6) and the outer cycle is an induced C5."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(5, 0), (5, 2), (5, 3), (5, 4), (6, 5)]
    return from_edge_list(7, edges)


def two_k2() -> Graph:
    return from_edge_list(4, [(0, 1), (2, 3)])


def one_subdivision_complete(k: int) -> Graph:
    """1-subdivision of K_k: branch vertices 0..k-1 first, then one
    subdivision vertex per pair (i, j) in lexicographic order."""
    if k < 1:
        raise ValueError("one_subdivision_complete needs k >= 1")
    edges = []
    nxt = k
    for i, j in combinations(range(k), 2):
        edges.append((i, nxt))
        edges.append((j, nxt))
        nxt += 1
    return from_edge_list(nxt, edges)


def mycielski(k: int) -> Graph:
    """The Mycielski graph M_k, triangle-free with chromatic number k
    (Mycielski, *Sur le coloriage des graphs*, Colloq. Math. 3, 1955).

    M_1 = K_1, M_2 = K_2, M_3 is the 5-cycle 0..4, and M_{k+1} is the
    Mycielskian of M_k: on n vertices, it adds a shadow n + v of each vertex
    v, adjacent to the neighbours of v, and a vertex 2n adjacent to every
    shadow.  M_4 is the Grötzsch graph and M_5 has 23 vertices.
    """
    if k < 1:
        raise ValueError("mycielski needs k >= 1")
    g = complete(k) if k < 3 else cycle(5)
    for _ in range(k - 3):
        n = g.n
        edges = list(g.edges())
        edges += [(u, v + n) for u, v in edges] + [(v, u + n) for u, v in edges]
        edges += [(v + n, 2 * n) for v in range(n)]
        g = from_edge_list(2 * n + 1, edges)
    return g


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------

def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each pair decided independently from the seeded stream.

    Pairs are drawn in ``combinations(range(n), 2)`` order, from one
    :meth:`SplitMix64.draws` of C(n, 2) values computed in 128-bit lanes;
    a pair is an edge when the top 53 bits of its draw fall below
    ``p * 2**53``, which is exact for p in {0, 1}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 0:
        raise GraphConstructionError("vertex count must be non-negative")
    draws = SplitMix64(seed).draws(n * (n - 1) // 2)
    limit = int(p * (1 << 53)) << 11  # d >> 11 < t exactly when d < t << 11
    adj = [0] * n
    for i in range(n):
        row = adj[i]
        bit_i = 1 << i
        # zip reads a draw only after range(i + 1, n) yields a j
        for j, d in zip(range(i + 1, n), draws):
            if d < limit:
                row |= 1 << j
                adj[j] |= bit_i
        adj[i] = row
    return Graph(n, tuple(adj))


def _next_witness(
    n: int, adj: list[int], dirty: int, frontier: int
) -> tuple[tuple[int, int, int, int] | None, int]:
    """``find_2k2``'s witness of the graph ``(n, adj)`` during a repair loop,
    and the dirty set left after the search.

    Edges are numbered ``u * n + v`` (``u < v``), which is lexicographic
    order.  The caller guarantees that every edge numbered below
    ``frontier`` has no 2K2 partner unless its bit is set in ``dirty``.  So
    the least dirty edge with a partner is the witness's first edge; a dirty
    edge found partnerless is unflagged.  If none has a partner, the scan
    resumes at the frontier.
    """
    full = (1 << n) - 1
    while dirty:
        low = dirty & -dirty
        u, v = divmod(low.bit_length() - 1, n)
        pair = _partner(full, adj, u, v)
        if pair is not None:
            return (u, v, *pair), dirty
        dirty ^= low
    return _scan_2k2(n, adj, *divmod(frontier, n)), 0


def random_2k2_free(n: int, p: float, seed: int) -> Graph:
    """A 2K2-free graph: sample G(n, p), then repair every 2K2 witness by
    adding one random cross edge between its two edges until none remain.

    Each repair strictly increases the edge count, so the loop terminates; the
    result is re-verified 2K2-free. The repair biases toward denser graphs.

    The witness repaired is always ``find_2k2``'s, found without rescanning
    edges already known to be partnerless.  The loop keeps a frontier M, the
    first edge of the last witness a scan found, and a set of dirty edges
    before M; every edge before M that is not dirty has no 2K2 partner.  An
    added edge ``uv`` only shrinks non-neighbourhoods, so the only edges
    that can gain a partner are ``uv`` itself and the edges avoiding N[u]
    and N[v], whose new partner is ``uv``; those before M are flagged dirty.
    The next witness is the least dirty edge that has a partner, or else the
    first witness of a scan resumed at M (see :func:`_next_witness`).
    """
    g = random_gnp(n, p, seed)
    # each repair adds a non-edge of the sample, so there are no more repairs
    # than non-edges; the picks are the draws below(4) would make
    picks = SplitMix64(seed ^ 0xD2B74407B1CE6E93).draws(n * (n - 1) // 2 - g.edge_count())
    full = g.full_mask
    adj = list(g.adj)
    found = find_2k2(g)
    frontier = dirty = 0
    while found is not None:
        a1, a2, b1, b2 = found
        if a1 * n + a2 > frontier:  # a scan's witness; a dirty one lies below M
            frontier = a1 * n + a2
        u, v = ((a1, b1), (a1, b2), (a2, b1), (a2, b2))[next(picks) % 4]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        dirty |= 1 << (u * n + v if u < v else v * n + u)
        clear = full & ~adj[u] & ~adj[v]
        rows = clear & ((2 << frontier // n) - 1)
        while rows:
            low = rows & -rows
            rows ^= low
            x = low.bit_length() - 1
            dirty |= (adj[x] & clear & -(low << 1)) << x * n
        dirty &= (1 << frontier) - 1
        found, dirty = _next_witness(n, adj, dirty, frontier)
    g = Graph(n, tuple(adj))
    if find_2k2(g) is not None:
        raise RuntimeError("repair loop returned a graph that still contains a 2K2")
    return g


# name -> (builder, parameter kinds, seeded).  A kind is "integer <name>" or
# "number <name>", one per parameter, or "integer sizes..." for any number of
# integers.  A seeded builder gets the seed after its parameters.
_FAMILIES = {
    "cycle": (cycle, ("integer n",), False),
    "path": (path, ("integer n",), False),
    "complete": (complete, ("integer n",), False),
    "complete-multipartite": (lambda *sizes: complete_multipartite(list(sizes)), ("integer sizes...",), False),
    "petersen": (petersen, (), False),
    "banner": (banner, (), False),
    "t-graph": (t_graph, (), False),
    "two-k2": (two_k2, (), False),
    "one-subdivision-complete": (one_subdivision_complete, ("integer k",), False),
    "mycielski": (mycielski, ("integer k",), False),
    "gnp": (random_gnp, ("integer n", "number p"), True),
    "2k2-free": (random_2k2_free, ("integer n", "number p"), True),
}


def family(name: str, params: list | tuple = (), seed: int | None = None) -> Graph:
    """Build a named family graph.  ``params`` may be numbers or the strings of
    a command line, parsed by kind; the random families require ``seed``."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {family_names()}")
    build, kinds, seeded = _FAMILIES[name]
    if seeded and seed is None:
        raise ValueError(f"family {name!r} requires an explicit --seed")
    many = any(k.endswith("...") for k in kinds)
    if not many and len(params) != len(kinds):
        raise ValueError(f"family {name!r} takes {len(kinds)} parameter(s), got {len(params)}")
    args = []
    for kind, x in zip(kinds * len(params) if many else kinds, params):
        try:
            args.append((float if kind.startswith("number") else int)(x) if isinstance(x, str) else x)
        except ValueError:
            usage = " and ".join(kinds) if any(k.startswith("number") for k in kinds) else "integer parameters"
            raise ValueError(f"family {name!r} takes {usage}, got {x!r}") from None
    return build(*args, seed) if seeded else build(*args)


def family_names() -> list[str]:
    return sorted(_FAMILIES)
