"""Constructive extraction of dominating clique minors from 2K2-free graphs.

The module has two entry points, ``extract_dominating(g, trace=None)`` and
``extract_ordinary_minor(g, trace=None)``; the steps below are private.
Given a 2K2-free graph G, :func:`extract_dominating` returns a verified
dominating minor model with exactly chi(G) branch sets.  The algorithm is a
recursive case analysis; every reduction branch (one helper, ``_reduce``)
removes a structured vertex set U with chi(G[U]) <= c, puts c explicit
branch sets in front that dominate everything kept, recurses on G - U, and
appends the result.  "Dominates everything kept" is one mask: the kept
vertices X with no neighbor in a set T are X & ~N(T).

chi(G) is computed once, at the root.  The recursion carries the number of
sets still owed (``need``): a step that prepends c sets owes need - c to
G - U, which has chromatic number at least chi(G) - c, and a step whose
prefix already covers ``need`` recurses no further.  Every case analysis
tests the clique against ``need``, never against a residual chi.

Branches (trace names in parentheses):

* omega(G) >= need, which holds for every {2K2, C4, C5}-free (split)
  graph: maximum clique as singletons ("split_graph" when G is split,
  "clique" otherwise).
* C5-free with an induced banner: the banner step must complete, since the
  alternative would force an induced C5 ("banner_completed").
* C5-free, banner-free, with an induced C4: two-pair reduction over the
  4-cycle ("c4_reduction").
* some vertex sees 1..3 vertices of some induced C5: normalize, run the
  banner step twice; if both return apex structure, a forced K4 appears and a
  4-set prefix is built ("low_degree_c5", "low_degree_k4", "banner_structure").
* otherwise every vertex is complete, anticomplete, or misses exactly one
  vertex of every induced C5; the five miss-classes Y_1..Y_5 around a chosen
  C5 are analyzed ("y_empty", "y_small", "independent_side_edge",
  "y_complete_neighbor") until the fully regular shape remains, which yields
  a (2m+2)-set prefix ("final_construction").

An ordinary (non-dominating) clique minor of the same order is produced by
:func:`extract_ordinary_minor` on the same recursion with a one-step case
analysis: remove an induced P4 with the pair split (v1v2, v3v4) in front
("p4_removal"), until the pairs cover the sets owed or a P4-free graph's
maximum clique ends it ("clique").  Both extractors write the same kind of
trace.

Each recursion step is sound by construction and additionally checked once,
in ``_reduce``: its prefix must pass the run's exact verifier and dominate
every vertex the step keeps (an error names the branch), and the final model
always passes the exact verifier.  Structural facts the analysis forces
(e.g. the K4 in the low-degree branch) are asserted; a violation raises
:class:`InternalContradictionError`, never a wrong model.
More than ``DEFAULT_C5_CAP`` induced C5s raise :class:`EnumerationCapError`,
a limit (``CapacityError``), not an extraction fault.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .exact import (
    CapacityError,
    MinorModel,
    chromatic_number,
    clique_number,
    verify_dominating_model,
    verify_ordinary_model,
)
from .graphs import (
    Graph,
    bits,
    induced_subgraph,
    mask_of,
    neighbors_of_set,
    relabel_mask,
    set_to_list,
)
from .patterns import (
    find_2k2,
    find_banner,
    find_induced,
    find_induced_cycle,
    induced_c5_iter,
    path_template,
)

DEFAULT_C5_CAP = 1_000_000


class ExtractionError(Exception):
    pass


class Not2K2FreeError(ExtractionError):
    """Input violates the 2K2-free precondition; carries the 4-vertex witness."""

    def __init__(self, witness: tuple[int, int, int, int]):
        a1, a2, b1, b2 = witness
        super().__init__(
            f"graph is not 2K2-free: edges ({a1},{a2}) and ({b1},{b2}) are "
            "disjoint with no edge between them"
        )
        self.witness = witness


class InternalContradictionError(ExtractionError):
    """A structural fact the analysis forces was violated.

    Unreachable on 2K2-free inputs; raised instead of emitting an unverified
    model, with the violated invariant named and a witness context attached.
    """

    def __init__(self, invariant: str, context: dict, depth: int):
        super().__init__(f"forced structural invariant violated: {invariant} (depth {depth}, {context})")
        self.invariant = invariant
        self.context = context
        self.depth = depth


class EnumerationCapError(CapacityError):
    """The induced-C5 enumeration exceeded ``DEFAULT_C5_CAP`` embeddings."""


class Trace:
    """Collects one event per branch taken; JSONL-serializable."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[dict] = []

    def record(self, depth: int, branch: str, **extra) -> None:
        self.events.append({"depth": depth, "branch": branch, **extra})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(e) + "\n" for e in self.events)


class Structure(NamedTuple):
    """The banner step's apex pair: b4, b5 extend the banner to its forced host."""

    b4: int
    b5: int


class _Ctx:
    """One extraction run: its trace, its case analysis
    (``branch(g, need, ctx, depth)``) and the verifier its models and
    prefixes must pass: the dominating ones unless
    :func:`extract_ordinary_minor` passes ``_p4_branch``, whose models are
    ordinary ones."""

    __slots__ = ("trace", "branch", "verify")

    def __init__(self, trace: Trace | None = None, branch=None):
        self.trace = trace
        self.branch = branch or _branch
        self.verify = verify_ordinary_model if self.branch is _p4_branch else verify_dominating_model

    def record(self, depth: int, branch: str, **extra) -> None:
        if self.trace is not None:
            self.trace.record(depth, branch, **extra)


# ---------------------------------------------------------------------------
# recursion plumbing
# ---------------------------------------------------------------------------

def _reduce(
    g: Graph, prefix: MinorModel, removed: int, need: int, ctx: _Ctx, depth: int, branch: str, **extra
) -> MinorModel:
    """One reduction step: ``prefix`` in front of need - len(prefix) sets of
    a model of G - ``removed``; once the prefix covers ``need``, no subgraph
    is built and nothing is recursed on.

    Any need <= chi(G) is met, by induction: every branch removes a set U with
    chi(G[U]) <= c = len(prefix), so chi(G - U) >= chi(G) - c >= need - c and
    no residual chi is needed.  This is the one check of a step: the prefix
    must pass the run's verifier, and each prefix set T must lie in
    ``removed`` and dominate every kept vertex (T & keep | keep & ~N(T) is
    empty), or :class:`InternalContradictionError` names ``branch``.  Then
    every residual set has a neighbor in every prefix set and meets none, so
    prefix + residual is a model, and G - ``removed`` is smaller than G.  The
    trace event names the branch and records the prefix and the removed set.
    """
    report = ctx.verify(g, prefix)
    if not report.valid:
        raise InternalContradictionError(
            f"the {branch} prefix must itself be a model", {"report": report.message}, depth
        )
    keep = g.full_mask & ~removed
    for t in prefix:
        bad = keep & (t | ~neighbors_of_set(g, t))
        if bad:
            raise InternalContradictionError(
                f"the {branch} prefix must dominate every kept vertex and meet none",
                {"vertex": (bad & -bad).bit_length() - 1, "set": set_to_list(t)},
                depth,
            )
    rest = need - len(prefix)
    residual: MinorModel = ()
    if rest > 0:
        sub, verts = induced_subgraph(g, keep)
        residual = tuple(relabel_mask(t, verts) for t in _extract(sub, ctx, depth + 1, rest))
    if ctx.trace is not None:
        ctx.trace.record(depth, branch, **extra, prefix=[set_to_list(t) for t in prefix], removed=set_to_list(removed))
    return prefix + residual


def _pair_kept(g: Graph, d1: int, d2: int) -> int:
    """What a (D1, D2) prefix keeps: the vertices outside both with a neighbor in each."""
    return neighbors_of_set(g, d1) & neighbors_of_set(g, d2) & ~(d1 | d2)


def _attached(g: Graph, cmask: int) -> tuple[int, int]:
    """Split the vertices outside ``cmask`` into (anticomplete to it, attached to it)."""
    outside = g.full_mask & ~cmask
    near = neighbors_of_set(g, cmask)
    return outside & ~near, outside & near


def _require(ok: bool, invariant: str, context: dict, depth: int) -> None:
    if not ok:
        raise InternalContradictionError(invariant, context, depth)


# ---------------------------------------------------------------------------
# banner step
# ---------------------------------------------------------------------------

def _apex_or_complete(
    g: Graph, banner: tuple[int, int, int, int, int], need: int, ctx: _Ctx, depth: int
) -> MinorModel | int:
    """One orientation of the banner step: the apex, or a model.

    Looks for an apex adjacent to exactly {b, b1} among the banner and to
    nothing in {b2, b3, bp}.  If none exists, the graph splits: everything
    anticomplete to {b1, b, bp} or to {b2, b3} can be removed alongside the
    banner at a cost of two colors, so the reduced graph finishes the model.
    """
    b1, b2, b3, b, bp = banner
    vb = mask_of(banner)
    cands = g.adj[b] & g.adj[b1] & ~g.adj[b2] & ~g.adj[b3] & ~vb & g.full_mask
    if cands:
        _require(
            cands & g.adj[bp] == 0,
            "banner apex candidates must avoid the pendant (a 2K2 would exist)",
            {"banner": banner, "candidates": set_to_list(cands & g.adj[bp])},
            depth,
        )
        return (cands & -cands).bit_length() - 1
    d1 = mask_of((b1, b, bp))
    d2 = mask_of((b2, b3))
    removed = g.full_mask & ~_pair_kept(g, d1, d2)
    return _reduce(g, (d1, d2), removed, need, ctx, depth, "banner_completed", banner=list(banner))


def _banner_step(
    g: Graph, banner: tuple[int, int, int, int, int], need: int, ctx: _Ctx, depth: int
) -> MinorModel | Structure:
    """A model from either orientation of the banner, or the apex pair both force."""
    b1, b2, b3, b, bp = banner
    b5 = _apex_or_complete(g, banner, need, ctx, depth)
    if not isinstance(b5, int):
        return b5
    b4 = _apex_or_complete(g, (b3, b2, b1, b, bp), need, ctx, depth)
    if not isinstance(b4, int):
        return b4
    _require(
        b4 != b5 and g.has_edge(b4, b5),
        "the two banner apexes must be adjacent (a 2K2 would exist)",
        {"banner": banner, "b4": b4, "b5": b5},
        depth,
    )
    ctx.record(depth, "banner_structure", banner=list(banner), b4=b4, b5=b5)
    return Structure(b4=b4, b5=b5)


def _banner_model(
    g: Graph, banner: tuple[int, ...], need: int, ctx: _Ctx, depth: int, invariant: str, context: dict
) -> MinorModel:
    """The banner step where its apex pair cannot exist, so it must return a
    model: in a C5-free host the pair would force an induced C5, and after
    the low-degree phase every vertex sees 0, 4 or 5 vertices of every
    induced C5, while an apex would see 1..3.  A pair raises ``invariant``."""
    out = _banner_step(g, banner, need, ctx, depth)
    if isinstance(out, Structure):
        raise InternalContradictionError(invariant, context | {"banner": list(banner)}, depth)
    return out


# ---------------------------------------------------------------------------
# C4 reduction (C5-free, banner-free hosts)
# ---------------------------------------------------------------------------

def _c4_reduction(
    g: Graph, c4: tuple[int, int, int, int], need: int, ctx: _Ctx, depth: int
) -> MinorModel:
    v1, v2, v3, v4 = c4
    cmask = mask_of(c4)
    iso, h = _attached(g, cmask)
    for v in bits(h):
        _require(
            (g.adj[v] & cmask).bit_count() >= 2,
            "in a banner-free host every attached vertex meets the 4-cycle twice",
            {"vertex": v, "c4": c4},
            depth,
        )
    for d1, d2 in (
        (mask_of((v1, v2)), mask_of((v3, v4))),
        (mask_of((v1, v4)), mask_of((v2, v3))),
    ):
        if _pair_kept(g, d1, d2) == h:
            return _reduce(g, (d1, d2), cmask | iso, need, ctx, depth, "c4_reduction", c4=list(c4))
    raise InternalContradictionError(
        "one opposite-pair split of the 4-cycle must dominate everything kept "
        "(otherwise an induced C5 exists)",
        {"c4": c4},
        depth,
    )


# ---------------------------------------------------------------------------
# clique base case
# ---------------------------------------------------------------------------

def _clique_model(need: int, omega: int, cmask: int, ctx: _Ctx, depth: int, branch: str) -> MinorModel:
    """The maximum clique ``cmask`` as omega singleton branch sets, traced as ``branch``.

    Meets a budget of ``need`` sets only if omega >= need.  Callers reach it
    where that was tested, or where the graph is perfect, so that omega =
    chi >= need; the check guards that.
    """
    _require(
        omega >= need,
        "the clique covers the budget of sets",
        {"omega": omega, "need": need},
        depth,
    )
    if ctx.trace is not None:
        ctx.trace.record(depth, branch, clique=set_to_list(cmask))
    return tuple(1 << v for v in bits(cmask))


# ---------------------------------------------------------------------------
# low-degree C5 branch
# ---------------------------------------------------------------------------

def _cycle_symmetries(c: tuple[int, ...]):
    for r in range(5):
        rot = c[r:] + c[:r]
        yield rot
        yield (rot[0],) + tuple(reversed(rot[1:]))


def _normalize_low_degree(
    g: Graph, c5: tuple[int, ...], x: int, depth: int
) -> tuple[int, ...]:
    """Rotate/reflect so x is adjacent to positions {0, 2} or {0, 2, 4}."""
    for sym in _cycle_symmetries(c5):
        pos = {i for i, v in enumerate(sym) if g.has_edge(x, v)}
        if pos == {0, 2} or pos == {0, 2, 4}:
            return sym
    raise InternalContradictionError(
        "a vertex with 1..3 neighbors on an induced C5 must see two at distance "
        "two (anything else forces a 2K2)",
        {"c5": c5, "x": x, "neighbors": set_to_list(g.adj[x] & mask_of(c5))},
        depth,
    )


def _low_degree_c5(
    g: Graph, c5: tuple[int, ...], x: int, need: int, ctx: _Ctx, depth: int
) -> MinorModel:
    c = _normalize_low_degree(g, c5, x, depth)
    ctx.record(depth, "low_degree_c5", c5=list(c), x=x)
    cmask = mask_of(c)

    banner1 = (x, c[0], c[1], c[2], c[3])
    out1 = _banner_step(g, banner1, need, ctx, depth)
    if not isinstance(out1, Structure):
        return out1
    z, y = out1.b4, out1.b5
    _require(
        not g.has_edge(x, c[4]),
        "the chosen low-degree vertex must see exactly two cycle vertices once "
        "an apex pair exists (global minimality)",
        {"c5": list(c), "x": x},
        depth,
    )
    banner2 = (x, c[2], c[1], c[0], c[4])
    out2 = _banner_step(g, banner2, need, ctx, depth)
    if not isinstance(out2, Structure):
        return out2
    u, w = out2.b4, out2.b5

    quad = (y, z, u, w)
    _require(
        len(set(quad)) == 4,
        "the four apex vertices must be distinct",
        {"quad": quad},
        depth,
    )
    for a in range(4):
        for b in range(a + 1, 4):
            _require(
                g.has_edge(quad[a], quad[b]),
                "the four apex vertices must induce a K4",
                {"pair": (quad[a], quad[b])},
                depth,
            )
    _require(
        g.has_edge(c[3], u) and g.has_edge(c[3], w),
        "the cycle vertex opposite the first banner must see both later apexes",
        {"v4": c[3], "u": u, "w": w},
        depth,
    )
    _require(
        g.has_edge(c[4], y) and g.has_edge(c[4], z),
        "the cycle vertex opposite the second banner must see both first apexes",
        {"v5": c[4], "y": y, "z": z},
        depth,
    )

    d = (
        mask_of((x, c[0], c[4])),
        mask_of((c[1], c[2], c[3])),
        mask_of((z, u)),
        mask_of((y, w)),
    )
    smask = mask_of((x, y, z, u, w))
    iso, h = _attached(g, cmask)
    pool = h & ~smask
    sieved = 0
    for dk in d:
        sieved |= pool & ~neighbors_of_set(g, dk)
    return _reduce(
        g, d, iso | cmask | smask | sieved, need, ctx, depth, "low_degree_k4", c5=list(c), x=x, quad=list(quad)
    )


# ---------------------------------------------------------------------------
# C5 partition and its side branches
# ---------------------------------------------------------------------------

def _build_partition(
    g: Graph, c5: tuple[int, ...], need: int, ctx: _Ctx, depth: int
) -> MinorModel:
    """Sort the vertices around the induced C5 ``c5`` into the anticomplete
    side, the complete side and the five miss-classes, take the first side
    branch whose shape fits, and otherwise the final construction."""
    c = tuple(c5)
    cmask = mask_of(c)
    iso, h = _attached(g, cmask)

    j = h
    y = [0] * 5
    for v in bits(h):
        misses = [i for i in range(5) if not g.has_edge(v, c[i])]
        _require(
            len(misses) <= 1,
            "after the low-degree phase every attached vertex misses at most one cycle vertex",
            {"vertex": v, "misses": misses},
            depth,
        )
        if misses:
            y[misses[0]] |= 1 << v
            j &= ~(1 << v)
    ymask = y[0] | y[1] | y[2] | y[3] | y[4]

    # each miss-class must be a clique; a non-edge a, b spawns the banner
    # a c[i+3] b c[i+1] with pendant c[i], induced because a and b miss only
    # c[i] and the cycle is induced
    for i in range(5):
        for a in bits(y[i]):
            non = y[i] & ~g.adj[a] & ~(1 << a)
            if non:
                b = (non & -non).bit_length() - 1
                banner = (a, c[(i + 3) % 5], b, c[(i + 1) % 5], c[i])
                return _banner_model(
                    g, banner, need, ctx, depth, "each miss-class must be a clique", {"class": i, "pair": (a, b)}
                )

    # all classes empty: remove cycle plus anticomplete side, three-set prefix
    if ymask == 0:
        prefix = (mask_of((c[0], c[1], c[2])), 1 << c[3], 1 << c[4])
        return _reduce(g, prefix, cmask | iso, need, ctx, depth, "y_empty", c5=list(c))

    # a singleton class, or an empty class right after a non-empty one
    for a in range(5):
        if y[a] == 0:
            continue
        ya = y[a]
        if ya.bit_count() == 1:
            yv = (ya & -ya).bit_length() - 1
            prefix = (
                mask_of((yv, c[(a + 1) % 5], c[(a + 2) % 5])),
                mask_of((c[(a + 3) % 5], c[(a + 4) % 5])),
                1 << c[a],
            )
            variant = "singleton"
        elif y[(a + 1) % 5] == 0:
            yv = (ya & -ya).bit_length() - 1
            prefix = (
                mask_of((yv, c[a], c[(a - 1) % 5])),
                mask_of((c[(a + 2) % 5], c[(a + 3) % 5])),
                1 << c[(a + 1) % 5],
            )
            variant = "next_empty"
        else:
            continue
        return _reduce(
            g, prefix, cmask | iso | (1 << yv), need, ctx, depth, "y_small", variant=variant, c5=list(c), klass=a
        )

    # every vertex on the complete side misses at most one vertex per class
    for v in bits(j):
        for i in range(5):
            missed = y[i] & ~g.adj[v]
            _require(
                missed.bit_count() <= 1,
                "a fully attached vertex misses at most one vertex of each class "
                "(two misses give a 2K2)",
                {"vertex": v, "class": i, "missed": set_to_list(missed)},
                depth,
            )

    # classes two apart are complete; consecutive classes miss at most one each
    for i in range(5):
        for a in bits(y[i]):
            far = y[(i + 2) % 5] & ~g.adj[a]
            _require(
                far == 0,
                "classes two apart on the cycle must be complete to each other",
                {"class": i, "vertex": a, "missed": set_to_list(far)},
                depth,
            )
            near = y[(i + 1) % 5] & ~g.adj[a]
            _require(
                near.bit_count() <= 1,
                "a class vertex misses at most one vertex of the next class",
                {"class": i, "vertex": a, "missed": set_to_list(near)},
                depth,
            )

    # An edge between the anticomplete side and a miss-class: the class vertex
    # v is then forced to be complete to both consecutive classes, because a
    # missed partner y+ would close the induced 5-cycle (u, v, c_{i+1}, c_i,
    # y+) on which c_{i+2} sees exactly three vertices, contradicting the
    # low-degree scan.  Likewise u picks up every fully attached vertex and
    # every class vertex that v misses (else a 2K2 appears with (c_i, .)), so
    # {v, u} dominates everything outside C, I and v's own removals.  Four
    # prefix sets then suffice, and C + I + {v, w1, w2} is 4-colorable.
    for u in bits(iso):
        hit = g.adj[u] & ymask
        if hit == 0:
            continue
        v = (hit & -hit).bit_length() - 1
        i = next(k for k in range(5) if y[k] >> v & 1)
        for di in (1, 4):
            gap = y[(i + di) % 5] & ~g.adj[v]
            _require(
                gap == 0,
                "a class vertex with an anticomplete-side neighbor must be "
                "complete to both consecutive classes (a missed partner would "
                "close a 5-cycle the low-degree scan had to catch)",
                {"u": u, "v": v, "class": i, "missed": set_to_list(gap)},
                depth,
            )
        w1 = y[(i - 1) % 5] & -y[(i - 1) % 5]
        w2 = y[(i + 2) % 5] & -y[(i + 2) % 5]
        w1v = w1.bit_length() - 1
        w2v = w2.bit_length() - 1
        prefix = (
            mask_of((v, u)),
            mask_of((c[(i + 2) % 5], c[(i + 3) % 5])),
            mask_of((c[(i + 4) % 5], w2v)),
            mask_of((c[(i + 1) % 5], w1v)),
        )
        return _reduce(
            g, prefix, cmask | iso | (1 << v) | w1 | w2, need, ctx, depth, "independent_side_edge",
            c5=list(c), u=u, v=v, klass=i,
        )

    # a class vertex complete to a consecutive class collapses three classes
    for a in range(5):
        for yv in bits(y[a]):
            for direction in (1, -1):
                if y[(a + direction) % 5] & ~g.adj[yv]:
                    continue
                nb = y[(a + direction) % 5]
                far = y[(a + 3 * direction) % 5]
                ynb = (nb & -nb).bit_length() - 1
                yfar = (far & -far).bit_length() - 1
                cnb = c[(a + direction) % 5]
                cfar = c[(a + 3 * direction) % 5]
                prefix = (
                    mask_of((yv, cnb)),
                    mask_of((ynb, cfar)),
                    mask_of((yfar, c[a])),
                )
                smask = mask_of((c[a], cnb, cfar, yv, ynb, yfar))
                return _reduce(
                    g, prefix, smask | iso, need, ctx, depth, "y_complete_neighbor",
                    c5=list(c), klass=a, direction=direction, vertex=yv,
                )

    sizes = [y[i].bit_count() for i in range(5)]
    _require(
        len(set(sizes)) == 1 and sizes[0] >= 2,
        "all five classes must share one size of at least two",
        {"sizes": sizes},
        depth,
    )
    m = sizes[0]

    # non-adjacency between consecutive classes is now a perfect matching;
    # no fully attached vertex may avoid both partners of a matched pair
    for i in range(5):
        for yv in bits(y[i]):
            prev = y[(i - 1) % 5] & ~g.adj[yv]
            nxt = y[(i + 1) % 5] & ~g.adj[yv]
            _require(
                prev.bit_count() == 1 and nxt.bit_count() == 1,
                "every class vertex has exactly one non-neighbor in each "
                "consecutive class",
                {"class": i, "vertex": yv},
                depth,
            )
            p = (prev & -prev).bit_length() - 1
            q = (nxt & -nxt).bit_length() - 1
            offenders = j & ~g.adj[p] & ~g.adj[q]
            _require(
                offenders == 0,
                "no fully attached vertex avoids both matched partners of a "
                "class vertex (it would see only three vertices of some induced C5)",
                {"class": i, "vertex": yv, "offenders": set_to_list(offenders)},
                depth,
            )

    ctx.record(depth, "c5_partition", c5=list(c), m=m)
    return _final_construction(g, c, iso, y, m, need, ctx, depth)


# ---------------------------------------------------------------------------
# final (2m+2)-set construction
# ---------------------------------------------------------------------------

def _final_construction(
    g: Graph, c: tuple[int, ...], iso: int, y: list[int], m: int, need: int, ctx: _Ctx, depth: int
) -> MinorModel:
    """The (2m+2)-set prefix of the fully regular decomposition around an
    induced 5-cycle.

    ``c`` lists the 5 cycle vertices in cyclic order; ``iso`` is the set
    anticomplete to the cycle; ``y[i]`` the vertices adjacent to all cycle
    vertices except ``c[i]``.  All five classes are cliques of one common
    size ``m >= 2``, classes two apart are complete to each other, and
    between consecutive classes non-adjacency is a perfect matching
    (:func:`_build_partition` checked each), so every vertex of y[1] has one
    non-neighbor in y[0] and one in y[2].  The prefix covers c[0..3] and
    y[0..3], which go with ``iso``; the complete side, c[4] and y[4] are kept.
    """
    y2 = set_to_list(y[1])
    y1 = [(y[0] & ~g.adj[v]).bit_length() - 1 for v in y2]
    y3 = [(y[2] & ~g.adj[v]).bit_length() - 1 for v in y2]
    y4 = set_to_list(y[3])

    p, r = divmod(m, 2)
    d: list[int] = []
    if r == 0:
        d.append(mask_of((c[1], c[2], c[3])))
    else:
        d.append(mask_of((c[1], c[2], y4[m - 1])))
        d.append(mask_of((c[3], y2[m - 1])))
    for jj in range(p):
        d.append(mask_of((y2[2 * jj], y2[2 * jj + 1])))
    for jj in range(p):
        d.append(mask_of((y4[2 * jj], y4[2 * jj + 1])))
    for ell in range(m):
        d.append(mask_of((y1[ell], y3[ell])))
    d.append(1 << c[0])

    removed = mask_of(c[:4]) | y[0] | y[1] | y[2] | y[3] | iso
    return _reduce(
        g, tuple(d), removed, need, ctx, depth, "final_construction",
        m=m, parity="even" if r == 0 else "odd", c5=list(c),
    )


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _scan_c5s(g: Graph) -> tuple[tuple[int, ...] | None, tuple[tuple[int, ...], int] | None]:
    """First induced C5 plus the globally minimal low-degree (cycle, vertex)
    pair; more than ``DEFAULT_C5_CAP`` induced C5s raise
    :class:`EnumerationCapError`."""
    cap = DEFAULT_C5_CAP
    first = None
    best = None
    full = g.full_mask
    count = 0
    for tup in induced_c5_iter(g):
        count += 1
        if count > cap:
            raise EnumerationCapError(
                f"more than {cap} induced C5 embeddings (extraction.DEFAULT_C5_CAP)"
            )
        if first is None:
            first = tup
        cmask = mask_of(tup)
        for x in bits(full & ~cmask):
            dcount = (g.adj[x] & cmask).bit_count()
            if 1 <= dcount <= 3:
                key = (dcount, tup, x)
                if best is None or key < best:
                    best = key
    if best is None:
        return first, None
    return first, (best[1], best[2])


def _extract(g: Graph, ctx: _Ctx, depth: int, need: int) -> MinorModel:
    """``need`` sets of a model of ``g``, for any need <= chi(g) (see :func:`_reduce`).

    The case analysis returns at least ``need`` sets (a :func:`_reduce` prefix
    with the residual it owes, or a clique of size omega >= need) and the
    last ``need`` of them are kept.  Levels are not re-verified one by one:
    :func:`_reduce` checks each level's prefix and its domination of the kept
    vertices; a model short of ``need`` stays short, and the root's check
    ``len(model) == chi`` with the run's verifier refuses it.
    """
    if g.n == 0:
        ctx.record(depth, "empty")
        return ()
    model = ctx.branch(g, need, ctx, depth)
    return model[len(model) - need:]


def _branch(g: Graph, need: int, ctx: _Ctx, depth: int) -> MinorModel:
    """The dominating case analysis on a non-empty graph; returns at least ``need`` sets."""
    omega, cmask = clique_number(g)
    if omega >= need:
        # the two labels differ only in the trace, so untraced runs skip the searches
        split = ctx.trace is not None and find_induced_cycle(g, 4) is None and find_induced_cycle(g, 5) is None
        return _clique_model(need, omega, cmask, ctx, depth, "split_graph" if split else "clique")

    first_c5, low = _scan_c5s(g)

    if first_c5 is None:
        b = find_banner(g)
        if b is not None:
            return _banner_model(
                g, b, need, ctx, depth, "the banner step cannot produce an apex pair in a C5-free host", {}
            )
        c4 = find_induced_cycle(g, 4)
        if c4 is not None:
            return _c4_reduction(g, c4, need, ctx, depth)
        # {2K2, C4, C5}-free, hence split and perfect: omega = chi >= need returned above
        raise InternalContradictionError(
            "split graphs are perfect, so the clique covers the budget of sets",
            {"omega": omega, "need": need},
            depth,
        )

    if low is not None:
        return _low_degree_c5(g, low[0], low[1], need, ctx, depth)

    return _build_partition(g, first_c5, need, ctx, depth)


def _extract_verified(g: Graph, ctx: _Ctx) -> MinorModel:
    """The shell of both extractors: the 2K2-free precondition, the recursion,
    then the run's verifier on the whole model."""
    w = find_2k2(g)
    if w is not None:
        raise Not2K2FreeError(w)
    chi, _ = chromatic_number(g)
    model = _extract(g, ctx, 0, chi)
    report = ctx.verify(g, model)
    if len(model) != chi or not report.valid:
        raise InternalContradictionError(
            "final model failed verification",
            {"chi": chi, "sets": len(model), "report": report.message},
            0,
        )
    return model


def extract_dominating(g: Graph, trace: Trace | None = None) -> MinorModel:
    """A verified dominating minor model with exactly chi(g) branch sets.

    Raises :class:`Not2K2FreeError` (with witness) if the input is not
    2K2-free, and :class:`InternalContradictionError` if any structural fact
    the analysis relies on fails, rather than ever returning an unverified
    model.
    """
    return _extract_verified(g, _Ctx(trace))


# ---------------------------------------------------------------------------
# ordinary (non-dominating) extraction via induced-P4 removal
# ---------------------------------------------------------------------------

def _p4_branch(g: Graph, need: int, ctx: _Ctx, depth: int) -> MinorModel:
    """The ordinary case analysis: an induced P4 v1v2v3v4 goes with everything
    anticomplete to {v1, v2} or to {v3, v4} (a 2-chromatic chunk) and the two
    pairs go in front; P4-free graphs are perfect, so a maximum clique ends it."""
    p4 = find_induced(g, path_template(4))
    if p4 is None:
        omega, cmask = clique_number(g)
        return _clique_model(need, omega, cmask, ctx, depth, "clique")
    v1, v2, v3, v4 = p4
    d1, d2 = mask_of((v1, v2)), mask_of((v3, v4))
    removed = g.full_mask & ~_pair_kept(g, d1, d2)
    return _reduce(g, (d1, d2), removed, need, ctx, depth, "p4_removal", p4=list(p4))


def extract_ordinary_minor(g: Graph, trace: Trace | None = None) -> MinorModel:
    """An ordinary clique-minor model with chi(g) sets, for any 2K2-free graph.

    Runs the recursion of :func:`extract_dominating` with the induced-P4 step
    as its case analysis: each level removes an induced P4 together with
    everything anticomplete to one of its end pairs, prepending the two
    pairs; the P4-free base case is a maximum clique.  ``trace`` gets one
    event per level: ``p4_removal`` at every level but the last, and at the
    last ``clique`` (``empty`` for the empty graph), or a ``p4_removal``
    whose two pairs already cover the sets still owed; then every set of
    the model is a pair from some level's prefix.
    The result passes the ordinary verifier but generally not the dominating
    one.
    """
    return _extract_verified(g, _Ctx(trace, _p4_branch))
