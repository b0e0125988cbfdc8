"""Induced-subgraph detection for the fixed patterns the extraction consumes.

A pattern is a template :class:`Graph`.  Every search returns its witness as a
tuple of host vertices in template order, or ``None``, and the returned tuple
is always the lexicographically least one, so downstream traces are
reproducible vertex by vertex.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from .graphs import Graph, bits, from_edge_list, graph_memo, mask_of

# Banner (b1, b2, b3, b; b') = (0, 1, 2, 3; 4): 4-cycle b1-b2-b3-b-b1 with pendant b' on b.
BANNER = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])


@functools.cache
def cycle_template(length: int) -> Graph:
    return from_edge_list(length, [(i, (i + 1) % length) for i in range(length)])


@functools.cache
def path_template(length: int) -> Graph:
    return from_edge_list(length, [(i, i + 1) for i in range(length - 1)])


def find_induced(host: Graph, t: Graph) -> tuple[int, ...] | None:
    """Lexicographically least induced copy of the template ``t`` in ``host``:
    host vertex i of the tuple plays template vertex i.  The empty template
    gives ``()``, which is falsy, so test the answer with ``is not None``.

    Position i's candidates are the still-free host vertices adjacent to the
    image of every earlier template neighbour of i and non-adjacent to the
    image of every earlier non-neighbour.  Candidates are tried low bit
    first, so complete assignments are reached in lexicographic order and the
    first one is the least; the last position takes its least candidate.
    """
    k = t.n
    if k == 0:
        return ()
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
    return tuple(assignment) if found else None


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
def find_2k2(host: Graph) -> tuple[int, int, int, int] | None:
    """Fast scan for two disjoint edges with no edge between them.

    Returns ``(a1, a2, b1, b2)`` with edges a1a2, b1b2, a1 the least vertex
    of any witness, each edge sorted; or ``None``.  Answers, ``None``
    included, are remembered for the last ``GRAPH_MEMO_SIZE`` (64) distinct
    graphs, keyed by the graph (see :func:`~domminor.graphs.graph_memo`).
    """
    return _scan_2k2(host.n, host.adj, 0, 0)


def is_2k2_free(host: Graph) -> bool:
    return find_2k2(host) is None


def find_banner(host: Graph) -> tuple[int, ...] | None:
    """Least induced banner ``(b1, b2, b3, b, b')``; see :data:`BANNER`."""
    return find_induced(host, BANNER)


def find_induced_cycle(host: Graph, length: int) -> tuple[int, ...] | None:
    """Least induced cycle of the given length, in cyclic order."""
    if length < 4:
        raise ValueError("induced cycle search requires length >= 4")
    return find_induced(host, cycle_template(length))


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
