"""Exact invariants and minor search: the ground-truth oracles.

Provides the dominating / ordinary minor-model verifiers, exact chromatic,
clique and independence numbers, connected-set enumeration, an exhaustive
search for dominating K_t minors, and closed forms that decide ordinary K_t
minors for t <= 3.  Everything here is exact; the exponential searches carry
an explicit vertex cap that errs loudly.

A minor model is an ordered tuple of vertex-set bitmasks (T_1, ..., T_t).
A *dominating* model requires, for i < j, every vertex of T_j to have a
neighbor in T_i; the *ordinary* model only requires some vertex of T_j to.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator, NamedTuple

from .graphs import (
    Graph, _reach, bits, complement, connected_components, graph_memo, induced_subgraph, is_connected_set, mask_of,
    neighbors_of_set, set_to_list,
)

DEFAULT_SEARCH_CAP = 16

MinorModel = tuple[int, ...]


class CapacityError(Exception):
    """Exact search requested beyond the configured vertex cap."""


class SearchDeadlineExceeded(Exception):
    """The instant of a cooperative :class:`Deadline` passed."""


class Deadline:
    """Cheap cooperative deadline, an instant the calls sharing it all stop
    at (``None``: never): ``tick`` reads the clock once every 256 ticks."""

    __slots__ = ("at", "counter")

    def __init__(self, seconds: float | None):
        self.at = None if seconds is None else time.monotonic() + seconds
        self.counter = 0

    def tick(self) -> None:
        if self.at is None:
            return
        self.counter += 1
        if self.counter & 0xFF == 0 and time.monotonic() > self.at:
            raise SearchDeadlineExceeded


_UNBUDGETED = Deadline(None)  # never stops, and its tick returns at once; shared


# ---------------------------------------------------------------------------
# model verification
# ---------------------------------------------------------------------------

class ModelReport(NamedTuple):
    """Verdict of a model check; indices are 1-based (T_1, ..., T_t)."""

    valid: bool
    condition: str | None = None
    set_index: int | None = None
    other_index: int | None = None
    witness: int | None = None
    message: str = "valid"

    def __bool__(self) -> bool:
        return self.valid


_VALID = ModelReport(True)  # immutable, so every passing check shares it


def _structural_report(g: Graph, model: MinorModel) -> ModelReport | None:
    full = g.full_mask
    seen = 0
    for idx, t in enumerate(model, start=1):
        if t == 0:
            return ModelReport(False, "nonempty", idx, None, None, f"T_{idx} is empty")
        if t & ~full:
            v = next(bits(t & ~full))
            return ModelReport(False, "range", idx, None, v, f"T_{idx} contains out-of-range vertex {v}")
        if t & seen:
            v = next(bits(t & seen))
            j = next(i for i, s in enumerate(model[: idx - 1], start=1) if s >> v & 1)
            return ModelReport(False, "disjoint", j, idx, v, f"vertex {v} lies in both T_{j} and T_{idx}")
        seen |= t
    for idx, t in enumerate(model, start=1):
        if not is_connected_set(g, t):
            return ModelReport(False, "connected", idx, None, None, f"T_{idx} does not induce a connected subgraph")
    return None


def verify_dominating_model(g: Graph, model: MinorModel) -> ModelReport:
    """Check the dominating-model conditions, reporting the first violation."""
    bad = _structural_report(g, model)
    if bad is not None:
        return bad
    # the vertices of T_j with no neighbor in T_i are T_j & ~N(T_i)
    nbrs = [neighbors_of_set(g, t) for t in model[:-1]]
    for j in range(1, len(model)):
        for i in range(j):
            bad = model[j] & ~nbrs[i]
            if bad:
                v = (bad & -bad).bit_length() - 1
                return ModelReport(
                    False, "domination", i + 1, j + 1, v,
                    f"vertex {v} in T_{j + 1} has no neighbor in T_{i + 1}",
                )
    return _VALID


def verify_ordinary_model(g: Graph, model: MinorModel) -> ModelReport:
    """Check the ordinary (some-vertex) minor-model conditions."""
    bad = _structural_report(g, model)
    if bad is not None:
        return bad
    for j in range(1, len(model)):
        nj = neighbors_of_set(g, model[j])
        for i in range(j):
            if nj & model[i] == 0:
                return ModelReport(
                    False, "linkage", i + 1, j + 1, None,
                    f"no edge between T_{i + 1} and T_{j + 1}",
                )
    return _VALID


def model_to_lists(model: MinorModel) -> list[list[int]]:
    return [set_to_list(t) for t in model]


def model_from_lists(lists: list[list[int]]) -> MinorModel:
    """The model whose branch sets are the given vertex lists; raises
    ``ValueError`` unless ``lists`` is a list of lists of non-negative ints
    (``bool`` is not an int here)."""
    if not isinstance(lists, list) or not all(isinstance(part, list) for part in lists):
        raise ValueError("a model is a list of lists of vertex ids")
    for part in lists:
        for v in part:
            if type(v) is not int or v < 0:
                raise ValueError(f"vertex id {v!r} is not a non-negative integer")
    return tuple(mask_of(part) for part in lists)


# ---------------------------------------------------------------------------
# clique / independence / chromatic numbers
# ---------------------------------------------------------------------------

def _greedy_class_count(adj: tuple[int, ...], p: int, enough: int) -> int:
    """The class count of a greedy colouring of the vertex set ``p``, an
    upper bound on any clique inside ``p``, or ``enough`` if that is less:
    the colouring stops once it has that many classes."""
    classes = 0
    while p and classes < enough:
        classes += 1
        avail = p
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(1 << v) & ~adj[v]
            p &= ~(1 << v)
    return classes


@functools.cache
def _edge_layout(n: int) -> tuple[int, int, int, int]:
    """(width, diag, spread, ones) of :func:`_edge_counter` on n vertices."""
    width = n + 1
    diag = sum(1 << i * width for i in range(n))
    spread = sum(1 << k * n for k in range(n))
    return width, diag, spread, (1 << n) - 1


def _edge_counter(adj: tuple[int, ...]) -> Callable[[int], int]:
    """``count(m)``: the number of edges of the subgraph induced by a vertex
    set ``m`` inside the n vertices of ``adj``, in a constant number of
    big-int operations.

    The adjacency matrix is one int, row i at bit i(n + 1), so each row has
    a spare bit above its n.  With diag = sum of 2^(i(n + 1)), spread = sum
    of 2^(kn) for k < n and ones = 2^n - 1, e(G[m]) is half the popcount of
    matrix & m*diag & ((m*spread) & diag)*ones.  No product carries, since
    each is a sum of shifted copies of a number below 2^n, and the copies
    sit in disjoint bit ranges, so the sum is their OR:

    - m*diag has m in every row, at bits [i(n + 1), i(n + 1) + n);
    - m*spread has copy k of m at bits [kn, kn + n).  Bit i(n + 1) = i + in
      is bit i of copy i, and of no other copy: j + kn = i + in with j, i
      < n forces j = i.  So (m*spread) & diag is the sum of 2^(i(n + 1))
      over the i in m;
    - times ones, each of those terms fills the n low bits of its row, and
      the spare bit keeps rows apart: a row mask of the i in m.

    The AND leaves adj[i] & m in row i for each i in m, and 0 elsewhere,
    so every edge of G[m] is counted once from each end.
    """
    width, diag, spread, ones = _edge_layout(len(adj))
    matrix = 0
    for row in reversed(adj):
        matrix = matrix << width | row

    def count(m: int) -> int:
        return (matrix & m * diag & (m * spread & diag) * ones).bit_count() >> 1

    return count


def _core_excess(adj: tuple[int, ...], w: int, count: Callable[[int], int]) -> int:
    """e(C) - |C| for the 2-core C of the subgraph induced by ``w``, 0 if C
    is empty: the largest e(X) - |X| over the vertex sets X inside ``w``
    (see :func:`has_dominating_kt`).  ``count`` is the graph's
    :func:`_edge_counter`, which gives e(C) in one step.

    The peel deletes vertices of degree at most 1 in ascending order, and
    visits again the one neighbour of each vertex it deletes, whose degree
    fell.
    """
    m = w
    while m:
        low = m & -m
        m ^= low
        nb = adj[low.bit_length() - 1] & w
        if nb & (nb - 1) == 0:
            w ^= low
            m |= nb
    return count(w) - w.bit_count()


@graph_memo
def clique_number(g: Graph, _ub: int | None = None) -> tuple[int, int]:
    """Exact maximum clique as (omega, vertex mask), deterministic witness.

    The witness is the lexicographically least maximum clique.  Answers are
    remembered for the last ``GRAPH_MEMO_SIZE`` (64) distinct graphs, keyed
    by the graph (see :func:`~domminor.graphs.graph_memo`).

    The lexicographic branch and bound runs on its own stack, one frame per
    clique vertex, so no clique is too large for it.  It stops as soon as
    its clique is as large as an upper bound on omega, the class count of a
    proper colouring (omega <= chi), so nothing larger exists; the best
    clique changes only at a leaf, so that is where the stop is tested.  The
    search only updates its best clique on a strict gain, so the first
    clique of that size it meets is the one the unstopped search would
    return; the stop skips only the proof of optimality.  ``_ub`` is that
    bound, given by :func:`chromatic_number`, which has DSATUR's count
    (Brelaz 1979) at hand.  Without it the bound is the class count of one
    greedy colouring in index order, which costs less than a DSATUR run.  It
    is used only on a memo miss.
    """
    if g.n == 0:
        return 0, 0
    stop = _greedy_class_count(g.adj, g.full_mask, g.n) if _ub is None else _ub
    adj = g.adj
    best_size = 0
    best_mask = 0
    frames = []  # the open frames: (clique, its size, candidates not yet tried)
    r_mask, r_size, p = 0, 0, g.full_mask  # the frame entered next
    while True:
        if not p:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
                if best_size == stop:
                    break
        # the candidate count is the cheap bound, the greedy colouring the tight one
        elif (r_size + p.bit_count() > best_size
              and r_size + _greedy_class_count(adj, p, best_size - r_size + 1) > best_size):
            frames.append((r_mask, r_size, p))
        while frames:  # enter the next candidate of the innermost open frame
            r_mask, r_size, p = frames[-1]
            if p and r_size + p.bit_count() > best_size:
                b = p & -p
                frames[-1] = (r_mask, r_size, p ^ b)
                r_mask, r_size, p = r_mask | b, r_size + 1, p & adj[b.bit_length() - 1]
                break
            frames.pop()
        else:
            break
    return best_size, best_mask


def independence_number(g: Graph) -> tuple[int, int]:
    """Exact independence number via the complement's clique number."""
    return clique_number(complement(g))


def _k_colorable(g: Graph, k: int, deadline: Deadline) -> list[int] | None:
    """A proper colouring of ``g`` with the colours 0..k-1, or ``None``:
    DSATUR (Brelaz 1979) with backtracking, on its own stack (one entry per
    coloured vertex), ticking ``deadline`` once per vertex coloured.

    The next vertex is the uncoloured one of largest (saturation, degree,
    -index).  It tries its free colours in ascending order, at most one of
    them not used yet; a vertex with none free undoes the last colouring.
    The first descent is DSATUR's greedy colouring, so with k at least its
    class count nothing is undone.
    """
    n = g.n
    adj = g.adj
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of the colours of each vertex's coloured neighbours
    # (saturation, degree, n - u) packed into one int per vertex, each field
    # below 2^width; a coloured vertex's key is -1
    width = n.bit_length()
    field = (1 << width) - 1
    sat_step = 1 << 2 * width
    key = [row.bit_count() << width | n - u for u, row in enumerate(adj)]
    uncolored = g.full_mask
    kmask = (1 << k) - 1
    allowed = 1 & kmask  # the colours in use and the next one, if below k
    stack = []  # (v, its key, allowed before it, the neighbours it newly saturated)
    tick = deadline.tick
    while True:
        tick()
        if not uncolored:
            return colors
        v_key = max(key)
        v = n - (v_key & field)
        free = ~forbidden[v] & allowed  # none once the neighbours hold all k
        while not free:
            if not stack:
                return None
            v, v_key, allowed, touched = stack.pop()
            c_bit = 1 << colors[v]
            colors[v] = -1
            key[v] = v_key
            uncolored |= 1 << v
            while touched:
                low = touched & -touched
                touched ^= low
                u = low.bit_length() - 1
                forbidden[u] ^= c_bit
                key[u] -= sat_step
            free = ~forbidden[v] & allowed & -(c_bit << 1)  # the colours above the one undone
        c_bit = free & -free
        colors[v] = c_bit.bit_length() - 1
        key[v] = -1
        uncolored ^= 1 << v
        touched = 0
        nbrs = adj[v] & uncolored
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            u = low.bit_length() - 1
            if not forbidden[u] & c_bit:
                forbidden[u] |= c_bit
                key[u] += sat_step
                touched |= low
        stack.append((v, v_key, allowed, touched))
        if c_bit << 1 > allowed:  # v took the next colour
            allowed = (allowed << 1 | 1) & kmask


@graph_memo
def chromatic_number(g: Graph, deadline: Deadline | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper witness coloring.

    Per connected component: DSATUR's greedy colouring, the first descent
    of :func:`_k_colorable` with as many colours as vertices, bounds chi
    from above; it runs unbudgeted, since it never backtracks.  Then the
    same search tries k colours for k from the clique number upward, under
    ``deadline``, and the first success is chi.

    Answers are remembered for the last ``GRAPH_MEMO_SIZE`` (64) distinct
    graphs, keyed by the graph alone (see
    :func:`~domminor.graphs.graph_memo`): ``deadline`` bounds only a
    computation, so a remembered answer is returned whatever the deadline,
    and a call that raises :class:`SearchDeadlineExceeded` is not remembered.
    """
    if g.n == 0:
        return 0, ()
    deadline = deadline or _UNBUDGETED
    colors = [0] * g.n
    k = 0
    for comp in connected_components(g):
        if comp == g.full_mask:
            sub, verts = g, range(g.n)
        else:
            sub, verts = induced_subgraph(g, comp)
        sub_colors = _k_colorable(sub, sub.n, _UNBUDGETED)
        sub_k = max(sub_colors) + 1
        for kk in range(clique_number(sub, _ub=sub_k)[0], sub_k):
            attempt = _k_colorable(sub, kk, deadline)
            if attempt is not None:
                sub_colors, sub_k = attempt, kk
                break
        for i, v in enumerate(verts):
            colors[v] = sub_colors[i]
        k = max(k, sub_k)
    return k, tuple(colors)


# ---------------------------------------------------------------------------
# connected-set enumeration
# ---------------------------------------------------------------------------

def _connected_sets_with_neighbors(
    g: Graph, within: int, max_size: int, root: int | None = None,
    grows: Callable[[int], bool] | None = None,
) -> Iterator[tuple[int, int]]:
    """``(S, N(S))`` for every connected subset S of ``within`` with at most
    ``max_size`` vertices, where N(S) is the OR of ``adj[v]`` over S.

    The walk is min-rooted growth, one size at a time, and each set is
    expanded once.  The frames of one size are kept in a list, in walk
    order; a frame is ``(S, N(S), frontier, keep)``.  The frontier holds the
    vertices S may still take.  ``keep`` holds the vertices the sets below S
    may take: those of ``within`` outside S, minus the earlier roots and the
    siblings tried before, so no set is reached twice.  A frame yields its
    children in ascending order, and a child's N is its parent's N OR
    ``adj[v]``.  Meanwhile the children below ``max_size`` with a non-empty
    frontier are collected, in order, as the frames of the next size.

    The sets come in the order ``enumerate_connected_sets`` documents, that
    of a depth-first walk of each size from scratch: in an ordered tree,
    depth-first pre-order restricted to one depth is the level order with
    ordered children.  ``within`` must lie inside the vertex set.

    Given ``root``, a one-vertex mask inside ``within``, only the sets that
    contain it are walked: the first size holds ``root`` alone, in place of
    every vertex of ``within`` as the least vertex of its sets.

    Given ``grows``, a test on a set, a frame's S is grown only if
    ``grows(S)`` is true, tested just before its children would come, so at
    most once per walk; S itself is still yielded, and sets of ``max_size``
    vertices or with an empty frontier are not tested.  Every set walked
    below S contains S, so a test that fails for S and all its supersets
    skips only unwanted sets.
    """
    if max_size < 1:
        return
    adj = g.adj
    level = []
    keep = within
    roots = within if root is None else root
    while roots:
        s0 = roots & -roots
        roots ^= s0
        keep &= ~s0  # unrooted, the root is the set's least vertex
        nb0 = adj[s0.bit_length() - 1]
        yield s0, nb0
        if max_size > 1 and nb0 & keep:
            level.append((s0, nb0, nb0 & keep, keep))
    for size in range(2, max_size + 1):
        frames, level = level, []
        last = size == max_size
        for s, nb, fr, keep in frames:
            if grows is not None and not grows(s):
                continue
            while fr:
                low = fr & -fr
                fr ^= low
                keep ^= low
                child = s | low
                row = adj[low.bit_length() - 1]
                child_nb = nb | row
                yield child, child_nb
                if not last:
                    front = (fr | row) & keep
                    if front:
                        level.append((child, child_nb, front, keep))


def enumerate_connected_sets(g: Graph, within: int | None = None, max_size: int | None = None) -> Iterator[int]:
    """Yield every non-empty connected subset of ``within`` exactly once.

    Order: by size ascending; within a size, min-rooted depth-first growth
    order with ascending extensions (deterministic for a fixed graph).
    """
    w = g.full_mask if within is None else within & g.full_mask
    limit = w.bit_count() if max_size is None else min(max_size, w.bit_count())
    for s, _ in _connected_sets_with_neighbors(g, w, limit):
        yield s


# ---------------------------------------------------------------------------
# dominating K_t minor search; ordinary K_t minors for t <= 3
# ---------------------------------------------------------------------------

def _require_valid(g: Graph, model: MinorModel) -> None:
    report = verify_dominating_model(g, model)
    if not report.valid:
        raise RuntimeError(f"search returned an invalid dominating model: {report.message}")


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise CapacityError(
            f"exact minor search on n={g.n} exceeds cap {cap}; raise the cap explicitly to proceed"
        )


def _largest_set(adj: tuple[int, ...], m: int, rest: int, cap: int) -> int:
    """The most vertices the next branch set drawn from ``m`` may take when
    ``rest`` more sets follow it inside ``m``, given ``cap`` >= ω(G[m]).

    This is the singleton-clique bound, which caps both walks of
    :func:`has_dominating_kt`.  Any two single-vertex branch sets of a model
    are adjacent, so the singletons inside ``m`` form a clique of G[m] and
    number at most ω(G[m]): at most ``cap``, and at most the class count of
    a greedy colouring of ``m``, which stops at min(rest, cap) classes.
    Every other set has two or more vertices.  So the ``rest`` sets need
    ``rest + max(0, rest - singletons)`` vertices.
    """
    limit = m.bit_count() - rest
    if rest >= 2:
        limit -= rest - _greedy_class_count(adj, m, min(rest, cap))
    return limit


def _growth_test(
    g: Graph, need: int, count: Callable[[int], int], base: int | None = None,
) -> Callable[[int], bool]:
    """A test of a connected or empty vertex set S inside the base mask
    (default V): false only when every R inside base - S has e(R) - |R| <
    ``need``, which then holds for every superset of S too.

    With W = base - S, the 2-core of G[W] is peeled only when e(W) - |W|,
    one step of the graph's :func:`_edge_counter` ``count``, falls short of
    ``need``.  That is exact for X = W, so at most the 2-core excess, the
    largest e(X) - |X| over X inside W: the test is true as often as the
    peel alone.
    """
    adj = g.adj
    full = g.full_mask if base is None else base

    def grows(s: int) -> bool:
        w = full & ~s
        return count(w) - w.bit_count() >= need or _core_excess(adj, w, count) >= need

    return grows


def has_dominating_kt(
    g: Graph,
    t: int,
    cap: int = DEFAULT_SEARCH_CAP,
    deadline: Deadline | None = None,
    *,
    _dead: bytearray | None = None,
) -> MinorModel | None:
    """A verified dominating K_t model, or ``None`` after exhaustive search.

    The search looks only for models in normal form, where T_2, ..., T_t
    partition R = N(T_1) minus T_1.  Every dominating K_t model grows into
    one.  Take an uncovered x in R and let j be the largest index such that x
    is adjacent to T_1, ..., T_{j-1}; add x to T_{j-1}, or to T_t if x is
    adjacent to every set.  The set x joins stays connected, since x is
    adjacent to it.  Domination still holds: x has a neighbour in every
    earlier set, and every vertex of a later set already had one in the set
    x joins.  The union grows, so the process ends, with R covered (R grows
    too when x joins T_1).

    So T_1 is walked freely over connected sets, and ``part(R, r)`` splits R
    into r connected sets, each dominating everything after it: the next set
    S is kept only if ``R & ~S & ~N(S) == 0``.  Let u be the vertex of R with
    the fewest neighbours in R.  S meets N_R[u], since u lies in S or in a
    later set, which needs a neighbour of u in S.  So S is walked once from
    each root x in N_R[u], inside R minus the earlier roots.  The walker
    hands over N(S) with each set S, grown along with S.

    A mask R is split into r sets only if |R| >= r, R is connected and G[R]
    has at least C(r, 2) + |R| - r edges: the r sets are disjoint, connected
    and pairwise adjacent, so they need |R| - r edges inside them and one
    edge between each pair.  Edges are counted by :func:`_edge_counter`, in
    a constant number of big-int operations per mask; the counter is built
    once per call, after the clique shortcut.  At both levels, the size of
    the set walked is capped by the singleton-clique bound of
    :func:`_largest_set`, given a cap on ω of the mask walked.  The T_1
    walk passes ω(G).  ``part(m, r, cap)`` gets ω(G) - [T_1 is one vertex]
    and passes cap - [S is one vertex] on to the mask after S.  That is an
    upper bound on ω(G[m]):

    - every vertex of m is adjacent to every set chosen before it, since
      R lies inside N(T_1) and each chosen S passed the ``nxt & ~nb`` test;
    - so a clique inside m, together with the chosen singletons (each a
      vertex of an earlier such mask), is a clique of G, and ω(G[m]) <=
      ω(G) - (the number of those singletons);
    - so cap >= ω(G[m]) is a fact about the mask m alone, whichever path
      reached it, and the cut it gives drops only splits that do not exist;
    - so ``dead[m] = r`` stays true for every t, every probe and every path
      that reaches m.

    The T_1 walk is cut by the same edge bound.  With r = t - 1 >= 4, a mask
    R that splits has e(R) - |R| >= need = r(r - 3)/2.  Every T_1 walked
    below a set S contains S, so its R lies inside W = V - S.  The largest
    e(X) - |X| over X inside W is e(C) - |C| for the 2-core C of G[W], or 0
    if C is empty (:func:`_core_excess`).  Deleting a vertex of degree at
    most 1 never lowers e(X) - |X|, so X loses nothing when peeled to its
    own 2-core, which lies inside C.  And for Y inside a set Z of minimum
    degree 2 or more, the edges meeting Z - Y number at least half their
    degree sum, so at least |Z - Y|: e(Y) - |Y| <= e(Z) - |Z|.  So once the
    2-core excess of G - S falls below need, no set below S passes, and the
    walker does not grow S (:func:`_growth_test`); the test refutes at S
    empty before any walk.  The peel runs only when e(W) - |W|, exact and
    at most the 2-core excess, falls short.  For r <= 3, need <= 0 and the
    test is off.

    Every level of ``part(m, r)`` is cut the same way, on the base mask m.
    With rest = r - 1 >= 4, the mask m - S' after a set S' splits into rest
    sets only if e(m - S') - |m - S'| >= rest(rest - 3)/2.  Every S' walked
    below S contains S, so m - S' lies inside m - S, and the largest
    e(X) - |X| over X inside m - S is the 2-core excess of G[m - S].  So
    once that falls below rest(rest - 3)/2, no set below S passes, and the
    walker does not grow S.  Both walks test each split inline: the size,
    the dead memo, the edge bound, then connectivity.

    Dead states are memoised: ``dead[R]`` is the smallest r for which R is
    proven not to split (0: unknown), and a mask that fails the cuts is
    recorded too.  Failure is monotone in r, since merging the last two sets
    of a split gives one with a set fewer.  So the facts hold for every t:
    ``dominating_hadwiger_number`` shares one memo across its probes through
    ``_dead``.  The memo is a ``bytearray`` of 2^n bytes (64 KiB at the
    default cap).  The memo and the cuts skip only subtrees that fail, so the
    returned model is the first normal-form model of the walk order.  A
    budgeted deadline ticks once per walked set; an unbudgeted one (``None``
    or ``Deadline(None)``) is never called.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_cap(g, cap)
    if t > g.n:
        return None
    omega, cmask = clique_number(g)
    if omega >= t:
        model = tuple(1 << v for v in set_to_list(cmask)[:t])
        return model
    tick = None if deadline is None or deadline.at is None else deadline.tick
    dead = bytearray(1 << g.n) if _dead is None else _dead
    adj = g.adj
    count = _edge_counter(adj)
    walk = _connected_sets_with_neighbors
    chosen: list[int] = []

    def part(m: int, r: int, cap: int) -> bool:
        # m passed the split test for r sets and cap >= ω(G[m]); on success
        # ``chosen`` ends with the r sets
        if r == 1:
            chosen.append(m)
            return True
        rest = r - 1
        need = rest * (rest - 3) // 2  # the least e(R) - |R| of an R that splits into rest sets
        limit = _largest_set(adj, m, rest, cap)
        grows = _growth_test(g, need, count, m) if rest >= 4 else None
        u, fewest, left = 0, m.bit_count(), m
        while left:
            low = left & -left
            left ^= low
            degree = (adj[low.bit_length() - 1] & m).bit_count()
            if degree < fewest:
                u, fewest = low, degree
        roots = adj[u.bit_length() - 1] & m | u
        within = m
        while roots:
            x = roots & -roots
            roots ^= x
            for s, nb in walk(g, within, limit, x, grows):
                if tick is not None:
                    tick()
                nxt = m & ~s
                if nxt & ~nb:
                    continue
                size = nxt.bit_count()
                if size < rest or 0 < dead[nxt] <= rest:
                    continue
                if count(nxt) < need + size or _reach(g, nxt & -nxt, nxt) != nxt:
                    dead[nxt] = rest
                    continue
                chosen.append(s)
                if part(nxt, rest, cap - (s & (s - 1) == 0)):
                    return True
                chosen.pop()
            within ^= x
        dead[m] = r
        return False

    rest = t - 1
    need = rest * (rest - 3) // 2
    full = g.full_mask
    grows = None
    if rest >= 4:
        grows = _growth_test(g, need, count)
        if not grows(0):
            return None
    model = None
    try:
        for s, nb in walk(g, full, _largest_set(adj, full, rest, omega), None, grows):
            if tick is not None:
                tick()
            r_mask = nb & ~s
            size = r_mask.bit_count()
            if size < rest or 0 < dead[r_mask] <= rest:
                continue
            if count(r_mask) < need + size or _reach(g, r_mask & -r_mask, r_mask) != r_mask:
                dead[r_mask] = rest
                continue
            chosen.append(s)
            if part(r_mask, rest, omega - (s & (s - 1) == 0)):
                model = tuple(chosen)
                break
            chosen.pop()
    finally:
        del part  # the closure refers to itself; free it without the cyclic collector
    if model is not None:
        _require_valid(g, model)
    return model


def has_kt_minor(g: Graph, t: int) -> bool:
    """Whether ``g`` has an ordinary K_t minor, for t in {1, 2, 3}.

    Each is a closed form: a K_1 minor iff ``g`` has a vertex, a K_2 minor
    iff it has an edge, and a K_3 minor iff it has a cycle, that is iff it
    has more than n - c edges, c being its number of components (a forest
    has exactly n - c).  Raises ``ValueError`` for any other t.
    """
    if t == 1:
        return g.n > 0
    if t == 2:
        return any(g.adj)
    if t == 3:
        return g.edge_count() > g.n - len(connected_components(g))
    raise ValueError("ordinary K_t minors are decided only for t in {1, 2, 3}")


def dominating_hadwiger_number(g: Graph, cap: int = DEFAULT_SEARCH_CAP) -> tuple[int, MinorModel]:
    """Largest t admitting a dominating K_t minor, probed upward from omega."""
    if g.n == 0:
        raise ValueError("dominating Hadwiger number of the empty graph is undefined")
    _check_cap(g, cap)
    omega, cmask = clique_number(g)
    t = omega
    best: MinorModel = tuple(1 << v for v in set_to_list(cmask))
    dead = bytearray(1 << g.n)
    while t < g.n:
        nxt = has_dominating_kt(g, t + 1, cap=cap, _dead=dead)
        if nxt is None:
            break
        t += 1
        best = nxt
    _require_valid(g, best)
    return t, best
