"""Bitset graph core: construction, set algebra, graph6 / edge-list / DOT I/O.

Graphs are simple and undirected.  Vertices are the integers ``0..n-1`` and
every vertex set (neighborhoods, branch sets, pattern witnesses, ...) is a
plain Python int used as a bitmask: bit ``v`` set means vertex ``v`` is in the
set.  ``Graph.adj[v]`` is the open neighborhood ``N(v)`` as such a mask.

A ``Graph`` is a ``NamedTuple``: immutable after construction, safe to share
between workers, and equal and hashed as the tuple ``(n, adj)``, in C, which
makes it a cheap key for the per-graph memo (``graph_memo``).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

DEFAULT_GRAPH6_CAP = 512  # largest vertex count parsed, in graph6 or edge-list text

# Distinct graphs each memoised function (``graph_memo``) remembers.  Of the
# 904 chi calls on the first 156 graphs of the 2K2-free sweep, 332 hit at
# size 16, 352 at 64 and 364 at 128; of the 22,681 in an all-checks hunt over
# the n <= 8 atlas, 8,522, 8,794 and 8,876.  An entry is a small graph and
# its answer.
GRAPH_MEMO_SIZE = 64

_G6_LONG_MAX = 258047  # largest n encodable in the 3-byte extended header


class GraphError(Exception):
    """Base class for graph construction and serialization errors."""


class GraphConstructionError(GraphError):
    pass


class Graph6ParseError(GraphError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph6RangeError(GraphError):
    """Vertex count outside the supported graph6 encoding range."""


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_to_list(mask: int) -> list[int]:
    return list(bits(mask))


class Graph(NamedTuple):
    """Simple undirected graph as a tuple of neighborhood bitmasks.  Its
    equality and hash are those of the tuple ``(n, adj)``."""

    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)


class MemoInfo(NamedTuple):
    hits: int
    misses: int
    size: int


_R = TypeVar("_R")
_MISSING = object()


def graph_memo(fn: Callable[..., _R]) -> Callable[..., _R]:
    """Remember ``fn(g, ...)`` for the last :data:`GRAPH_MEMO_SIZE` distinct
    graphs ``g``, least recently used evicted first.

    For functions whose answer depends on the graph alone: the key is ``g``
    (equal ``n`` and ``adj`` give an equal key), so any further arguments,
    such as a deadline, are used on a miss and ignored on a hit.  Every
    answer is remembered, ``None`` included; an exception is not.  The
    answers are shared, so they must be immutable.  ``cache_info()`` gives
    the hits, misses and current size, and ``cache_clear()`` forgets all.
    """
    memo: dict[Graph, _R] = {}
    hits = misses = 0

    @functools.wraps(fn)
    def wrapper(g: Graph, *args, **kwargs) -> _R:
        nonlocal hits, misses
        answer = memo.pop(g, _MISSING)
        if answer is _MISSING:
            misses += 1
            answer = fn(g, *args, **kwargs)
            if len(memo) >= GRAPH_MEMO_SIZE:
                del memo[next(iter(memo))]
        else:
            hits += 1
        memo[g] = answer  # last in the dict is most recently used
        return answer

    def cache_info() -> MemoInfo:
        return MemoInfo(hits, misses, len(memo))

    def cache_clear() -> None:
        nonlocal hits, misses
        memo.clear()
        hits = misses = 0

    wrapper.cache_info = cache_info
    wrapper.cache_clear = cache_clear
    return wrapper


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicate edges collapse."""
    if n < 0:
        raise GraphConstructionError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"endpoint out of range in edge ({u}, {v})")
        if u == v:
            raise GraphConstructionError(f"self-loop ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def parse_graph6(text: str, cap: int = DEFAULT_GRAPH6_CAP) -> Graph:
    """Decode one graph6 line (short header n < 63 or 3-byte form up to 258047).

    The 8-byte header form is rejected, as is any n above ``cap``.
    """
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[10:]
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    try:
        raw = data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError(f"non-ASCII character {data[exc.start]!r}", exc.start) from None

    pos = 0
    first = raw[pos]
    if first == 126:  # '~'
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6ParseError("8-byte graph6 header form is not supported", 1)
        if len(raw) < 4:
            raise Graph6ParseError("truncated extended header", len(raw))
        n = 0
        for k in range(1, 4):
            b = raw[k]
            if not 63 <= b <= 126:
                raise Graph6ParseError(f"malformed header byte {b!r}", k)
            n = (n << 6) | (b - 63)
        pos = 4
    else:
        if not 63 <= first <= 126:
            raise Graph6ParseError(f"malformed header byte {first!r}", 0)
        n = first - 63
        pos = 1

    if n > cap:
        raise Graph6ParseError(f"vertex count {n} above cap {cap}", 0)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - pos < nbytes:
        raise Graph6ParseError(
            f"truncated bit payload: need {nbytes} bytes, have {len(raw) - pos}", len(raw)
        )
    if len(raw) - pos > nbytes:
        raise Graph6ParseError("unexpected bytes after bit payload", pos + nbytes)

    # the bits run down the columns of the upper triangle: (0, 1), (0, 2),
    # (1, 2), (0, 3), ...; padding bits past the last column are ignored
    adj = [0] * n
    i, j = 0, 1
    for k in range(pos, pos + nbytes):
        b = raw[k]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"malformed payload byte {b!r}", k)
        group = b - 63
        for shift in (5, 4, 3, 2, 1, 0):
            if group >> shift & 1 and j < n:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(adj))


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` in graph6; inverse of :func:`parse_graph6`."""
    n = g.n
    if n > _G6_LONG_MAX:
        raise Graph6RangeError(f"n={n} above graph6 3-byte range {_G6_LONG_MAX}")
    if n < 63:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))

    out = []
    group = 0
    nfill = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            nfill += 1
            if nfill == 6:
                out.append(chr(63 + group))
                group = 0
                nfill = 0
    if nfill:
        out.append(chr(63 + (group << (6 - nfill))))
    return head + "".join(out)


# ---------------------------------------------------------------------------
# edge-list text and DOT
# ---------------------------------------------------------------------------

def parse_edge_list(text: str, cap: int = DEFAULT_GRAPH6_CAP) -> Graph:
    """Parse the plain text format: first line ``n m``, then m ``u v`` lines.

    Lines starting with ``#`` are comments.  An ``n`` above ``cap`` is
    rejected before anything is allocated, as in :func:`parse_graph6`.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphConstructionError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphConstructionError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphConstructionError(f"non-integer 'n m' header {lines[0]!r}") from None
    if n > cap:
        raise GraphConstructionError(f"vertex count {n} above cap {cap}")
    if len(lines) - 1 != m:
        raise GraphConstructionError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphConstructionError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphConstructionError(f"non-integer edge line {ln!r}") from None
    return from_edge_list(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# set algebra over one graph
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on mask ``s`` plus the sorted-order vertex bijection.

    The returned tuple ``vertices`` lists the original ids in ascending order;
    new vertex ``i`` corresponds to original vertex ``vertices[i]``.
    """
    s &= g.full_mask
    verts = []
    new_bit = [0] * g.n  # original vertex -> its bit in the subgraph
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        new_bit[v] = 1 << len(verts)
        verts.append(v)
    adj = []
    for v in verts:
        row = 0
        nbrs = g.adj[v] & s
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= new_bit[low.bit_length() - 1]
        adj.append(row)
    return Graph(len(verts), tuple(adj)), tuple(verts)


def relabel_mask(mask: int, vertices: tuple[int, ...]) -> int:
    """Map a subgraph-coordinate mask back through an induced-subgraph bijection."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << vertices[low.bit_length() - 1]
    return out


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple(~g.adj[v] & full & ~(1 << v) for v in range(g.n)))


def neighbors_of_set(g: Graph, s: int) -> int:
    """Union of open neighborhoods of the vertices in ``s``."""
    adj = g.adj
    out = 0
    while s:
        low = s & -s
        s ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _reach(g: Graph, start: int, within: int) -> int:
    """The vertices of ``within`` reachable from ``start`` inside it (one BFS)."""
    seen = frontier = start
    while frontier:
        frontier = neighbors_of_set(g, frontier) & within & ~seen
        seen |= frontier
    return seen


def is_connected_set(g: Graph, s: int) -> bool:
    """True iff ``s`` is non-empty and induces a connected subgraph."""
    return s != 0 and _reach(g, s & -s, s) == s


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    remaining = g.full_mask
    comps = []
    while remaining:
        comp = _reach(g, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps

