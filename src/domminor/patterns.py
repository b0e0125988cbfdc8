"""Induced-subgraph detection for the fixed patterns the extraction consumes.

Every search returns a role-labeled :class:`Embedding` or ``None``, and the
returned embedding is always the lexicographically least assignment under the
pattern's role order, so downstream traces are reproducible vertex by vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph, bits, from_edge_list, graph_memo, mask_of


@dataclass(frozen=True)
class Pattern:
    """A template graph whose vertices carry distinct role names."""

    template: Graph
    roles: tuple[str, ...]

    def __post_init__(self):
        if len(self.roles) != self.template.n:
            raise ValueError("role count must equal template vertex count")
        if len(set(self.roles)) != len(self.roles):
            raise ValueError("role names must be distinct")


@dataclass(frozen=True)
class Embedding:
    """An injective role -> host vertex assignment of an induced copy."""

    roles: tuple[str, ...]
    vertices: tuple[int, ...]

    def vertex(self, role: str) -> int:
        return self.vertices[self.roles.index(role)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.roles, self.vertices))

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)


# Banner (b1, b2, b3, b; b'): 4-cycle b1-b2-b3-b-b1 with pendant b' on b.
_BANNER_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]


@functools.cache
def banner_pattern() -> Pattern:
    return Pattern(from_edge_list(5, _BANNER_EDGES), ("b1", "b2", "b3", "b", "bp"))


@functools.cache
def two_k2_pattern() -> Pattern:
    return Pattern(from_edge_list(4, [(0, 1), (2, 3)]), ("a1", "a2", "b1", "b2"))


@functools.cache
def cycle_pattern(length: int) -> Pattern:
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Pattern(from_edge_list(length, edges), tuple(f"c{i}" for i in range(length)))


@functools.cache
def path_pattern(length: int) -> Pattern:
    edges = [(i, i + 1) for i in range(length - 1)]
    return Pattern(from_edge_list(length, edges), tuple(f"p{i}" for i in range(length)))


def verify_embedding(host: Graph, pattern: Pattern, emb: Embedding) -> bool:
    """Re-check an embedding against the induced-copy definition from scratch."""
    vs = emb.vertices
    if len(vs) != pattern.template.n or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < host.n for v in vs):
        return False
    t = pattern.template
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if t.has_edge(i, j) != host.has_edge(vs[i], vs[j]):
                return False
    return True


def find_induced(host: Graph, pattern: Pattern) -> Embedding | None:
    """Lexicographically least induced copy of ``pattern`` in ``host``.

    Position i's candidates are the still-free host vertices adjacent to the
    image of every earlier template neighbour of i and non-adjacent to the
    image of every earlier non-neighbour.  Candidates are tried low bit
    first, so complete assignments are reached in lexicographic order and the
    first one is the least; the last position takes its least candidate.
    """
    t = pattern.template
    k = t.n
    if k == 0:
        return Embedding(pattern.roles, ())
    adj = host.adj
    earlier = [[(j, t.has_edge(i, j)) for j in range(i)] for i in range(k)]
    assignment = [0] * k
    last = k - 1

    def extend(i: int, free: int) -> bool:
        cand = free
        for j, edge in earlier[i]:
            cand &= adj[assignment[j]] if edge else ~adj[assignment[j]]
        if i == last:
            if not cand:
                return False
            assignment[i] = (cand & -cand).bit_length() - 1
            return True
        while cand:
            low = cand & -cand
            cand ^= low
            assignment[i] = low.bit_length() - 1
            if extend(i + 1, free ^ low):
                return True
        return False

    try:
        found = extend(0, host.full_mask)
    finally:
        del extend  # the closure refers to itself; free it without the cyclic collector
    return Embedding(pattern.roles, tuple(assignment)) if found else None


def _partner(full: int, adj: Sequence[int], u: int, v: int) -> tuple[int, int] | None:
    """Least edge ``(w, x)``, ``w < x``, avoiding N[u] and N[v] for the edge
    ``uv`` of the graph ``adj`` on vertex mask ``full``; ``None`` if none."""
    rest = full & ~adj[u] & ~adj[v]  # u and v are each other's neighbours
    free = rest
    # no neighbour of w in rest lies below w: that vertex would have had w as
    # a neighbour in rest and been returned first; so the last vertex of rest
    # needs no test
    while free & (free - 1):
        low = free & -free
        free ^= low
        nbrs = adj[low.bit_length() - 1] & rest
        if nbrs:
            return low.bit_length() - 1, (nbrs & -nbrs).bit_length() - 1
    return None


def _scan_2k2(n: int, adj: Sequence[int], u0: int, v0: int) -> tuple[int, int, int, int] | None:
    """First 2K2 witness ``(u, v, w, x)`` of the graph ``(n, adj)`` whose
    first edge ``(u, v)`` is at or after ``(u0, v0)`` in lexicographic order.

    Edges are scanned as ``(u, v)`` with ``u < v``; the partner ``(w, x)`` of
    the first edge that has one is its :func:`_partner`.
    """
    full = (1 << n) - 1
    for u in range(u0, n):
        later = adj[u] >> (u + 1) << (u + 1)
        if u == u0:
            later &= ~((1 << v0) - 1)
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            pair = _partner(full, adj, u, v)
            if pair is not None:
                return u, v, *pair
    return None


@graph_memo
def find_2k2(host: Graph) -> Embedding | None:
    """Fast scan for two disjoint edges with no edge between them.

    Returns roles (a1, a2, b1, b2) with edges a1a2, b1b2, a1 the least vertex
    of any witness, each edge sorted; or ``None``.  Answers, ``None``
    included, are remembered for the last ``GRAPH_MEMO_SIZE`` (64) distinct
    graphs, keyed by the graph (see :func:`~domminor.graphs.graph_memo`).
    """
    found = _scan_2k2(host.n, host.adj, 0, 0)
    if found is None:
        return None
    return Embedding(("a1", "a2", "b1", "b2"), found)


def is_2k2_free(host: Graph) -> bool:
    return find_2k2(host) is None


def find_banner(host: Graph) -> Embedding | None:
    return find_induced(host, banner_pattern())


def find_induced_cycle(host: Graph, length: int) -> Embedding | None:
    """Least induced cycle of the given length (cyclically ordered roles)."""
    if length < 4:
        raise ValueError("induced cycle search requires length >= 4")
    return find_induced(host, cycle_pattern(length))


def induced_c5_iter(host: Graph) -> Iterator[tuple[int, ...]]:
    """Enumerate every induced 5-cycle once, in canonical tuple order.

    Canonical form: (v0, v1, v2, v3, v4) cyclic, v0 the least vertex on the
    cycle, v1 < v4 (the two cycle-neighbors of v0). Tuples come out in
    lexicographic order.
    """
    adj = host.adj
    full = host.full_mask
    for v0 in range(host.n):
        later = full & ~((1 << (v0 + 1)) - 1)
        n0 = adj[v0]
        for v1 in bits(n0 & later):
            # v2 adjacent to v1, not v0
            for v2 in bits(adj[v1] & later & ~n0 & ~(1 << v1)):
                block2 = n0 | adj[v1]
                # v3 adjacent to v2, not v0, v1
                for v3 in bits(adj[v2] & later & ~block2 & ~(1 << v2)):
                    # v4 adjacent to v3 and v0, not v1, v2; reflection: v4 > v1
                    cand = adj[v3] & n0 & later & ~adj[v1] & ~adj[v2]
                    cand &= ~((1 << (v1 + 1)) - 1)
                    cand &= ~mask_of((v2, v3))
                    for v4 in bits(cand):
                        yield (v0, v1, v2, v3, v4)


def has_induced_c5(host: Graph) -> bool:
    return next(induced_c5_iter(host), None) is not None
