"""Constructive edge coloring within the minimum-degree bound, with a
full audit trail.

The recursion colors a connected graph G on n vertices with minimum
degree d using at most n - d colors. Let K be a maximal clique consisting
only of minimum-degree vertices (greedy over ascending ids, so the choice
is deterministic). Deleting K splits the rest into components G_1..G_t,
ordered so the lead component touches the largest part of K. Each
component is colored recursively with its own disjoint palette, every
K-to-G_i edge gets one fresh color c_i, and the edges inside K get:

- the lead cross color c_1, when every K vertex touches the lead
  component (full attachment), or, failing that, when every component's
  minimum degree sits exactly at d - |K| + 1 (the reused-color branch);
- a fresh color of their own, when some component has minimum degree at
  least d - |K| + 2;
- a fresh color after contracting K into a single vertex and recursing on
  the contracted graph, when only one K vertex touches each component
  (lift: an edge from K to w takes the color of the contracted edge to w).

The induction measure is n - d: every recursive call must strictly
decrease it, a contraction must keep d and lower the measure, and every
level must stay within its color budget. Each level checks these where
they arise, once, raising ConstructionError on a violation, and records
the measures in the trace; the final coloring is checked for rainbow
connectivity by rainbow.failing_pair and the outcome stored at the trace
root.
A violation of any of these checks is surfaced as a finding (with a
reproducer), never repaired silently: the reused-color branch in
particular is executed exactly as stated so that instances where it fails
verification show up as findings.

Each level is one generator (_level), written as the recursive descent
it stands for: it takes the clique and the decomposition, yields each
child's arguments after that child's measure check and is sent back the
child's trace, then writes its own edges and checks its color budget.
_construct runs the generators on one explicit stack, so the depth is
not bounded by Python's recursion limit (on a path it is one level per
vertex), and the checks run, and the first one to fail, in the order a
recursive descent would run them.

Every level works in one id space, the root graph's vertex ids: a level
is a vertex mask over bit rows in those ids, and no level builds a
Graph. A component is its mask over the same rows; a contraction
rewrites the rows in the same ids, the representative min(K) standing
for K. Degrees, the clique, the components and their attachments are
popcounts and masked floods over the rows, in one decomposition that
decompose(g) runs on the level of all of G; it is the library's only
clique-and-components split. The trace records each level in those ids
too, with the labels of the original input. trace_records writes it
flat, as `construct --trace` and a finding's trace show it: a list of
one record per level in preorder, each with the index of its parent's
record (None at the root) in place of nested children, so the JSON
nests no deeper on a path than on a clique.

Each level writes its own edges once its children are done, keyed by
root ids, at an absolute palette base: its parent's base plus the colors
of the siblings colored before it. So the levels of a component tree
share one edge -> color dict, which is the root's coloring as it is
(its keys are ordered and its colors nonnegative, as a Coloring's must
be), and is verified. A contraction child writes into a dict of
its own, and its parent lifts every edge from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Generator, Sequence

from .graphs import Graph, _bit_positions, _flood, is_connected
from .rainbow import Coloring, FailingPair, failing_pair

__all__ = [
    "Case",
    "ComponentRecord",
    "DecompositionRecord",
    "ContractionInfo",
    "AuditTrace",
    "ConstructionError",
    "decompose",
    "construct_coloring",
    "run_construction",
    "trace_records",
]


class Case(Enum):
    BASE = "base"
    FULL_ATTACHMENT = "full_attachment"
    NEW_CLIQUE_COLOR = "new_clique_color"
    REUSED_CLIQUE_COLOR = "reused_clique_color"
    CONTRACTION = "contraction"


@dataclass(frozen=True)
class ComponentRecord:
    """One component of G minus the clique, in root ids."""

    vertices: tuple[int, ...]
    size: int
    min_degree: int
    attachment: tuple[int, ...]  # clique vertices with a neighbor inside


@dataclass(frozen=True)
class DecompositionRecord:
    clique: tuple[int, ...]
    k: int
    components: tuple[ComponentRecord, ...]  # lead component first
    k1: int
    t: int
    case: Case


@dataclass(frozen=True)
class ContractionInfo:
    min_degree_after: int
    measure_after: int
    merged_label: str


@dataclass
class AuditTrace:
    """Recursion tree of the construction.

    vertices are the level's root ids, ascending, like its clique,
    components and attachments; labels names each root id in terms of
    the original input (below a contraction, the merged vertex by the
    set it replaced). verification is populated at the root only.
    """

    case: Case
    n: int
    min_degree: int
    budget: int
    colors_used: int
    vertices: tuple[int, ...]
    labels: Sequence[str]
    decomposition: DecompositionRecord | None = None
    children: tuple["AuditTrace", ...] = ()
    contraction: ContractionInfo | None = None
    verification: str | FailingPair | None = None


class ConstructionError(RuntimeError):
    """A structural invariant (measure decrease, color budget, degree
    bound) failed mid-construction, at the level where it arises. trace
    is the failing level's trace when it exceeded its color budget, None
    for every other check."""

    def __init__(self, message: str, trace: AuditTrace | None = None):
        super().__init__(message)
        self.trace = trace


def _whole(g: Graph) -> tuple[tuple[int, ...], int]:
    """G's bit rows and the mask of all its vertices: the root level, and
    the one read of the rows outside graphs.py."""
    return g._rows, (1 << g.n) - 1


def _greedy_clique(
    rows: Sequence[int], verts: tuple[int, ...], mask: int
) -> tuple[int, tuple[int, ...], int]:
    """The minimum degree of the level on mask (verts its vertices,
    ascending) and its greedy maximal clique of minimum-degree vertices
    over ascending ids, as root ids and as a vertex mask."""
    degrees = [(rows[v] & mask).bit_count() for v in verts]
    delta = min(degrees)
    clique: list[int] = []
    cmask = 0
    for v, d in zip(verts, degrees):
        # adjacent to every member so far: its row covers the clique mask
        if d == delta and rows[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return delta, tuple(clique), cmask


def _decompose(
    rows: Sequence[int], mask: int, delta: int, clique: tuple[int, ...], cmask: int
) -> tuple[DecompositionRecord, list[int]]:
    """The decomposition of the level on mask by the clique that
    _greedy_clique chose, in root ids, with each component's vertex mask
    in record order.

    The components of the level minus the clique come from masked floods
    over the rows; a component's inner degrees and its clique attachment
    are popcounts and tests of rows masked by the component, with no set
    built per component.
    """
    k = len(clique)
    if mask == cmask:
        raise ConstructionError(
            "deleting the clique removed every vertex of a non-complete graph"
        )
    comps = []
    left = mask ^ cmask
    while left:
        # blocks come out by minimum vertex id, lowest remaining vertex first
        block = _flood(rows, left & -left, left)
        left ^= block
        vertices = _bit_positions(block)
        # block is a component of the level minus K, so a vertex's neighbors
        # inside it are its neighbors in the induced subgraph on block
        dmin = min([(rows[w] & block).bit_count() for w in vertices])
        attachment = tuple([u for u in clique if rows[u] & block])
        comps.append((ComponentRecord(vertices, len(vertices), dmin, attachment), block))
    comps.sort(key=lambda c: (-len(c[0].attachment), c[0].vertices[0]))

    floor = delta - k + 1
    for c, _ in comps:
        if c.min_degree < floor:
            raise ConstructionError(
                f"component {c.vertices} has minimum degree {c.min_degree}"
                f" below the guaranteed floor {floor}"
            )

    lead = comps[0][0]
    k1 = len(lead.attachment)
    t = len(comps)
    if k1 == k:
        case = Case.FULL_ATTACHMENT
    elif k1 > 1 and any(c.min_degree >= delta - k + 2 for c, _ in comps):
        case = Case.NEW_CLIQUE_COLOR
    elif k1 > 1:
        case = Case.REUSED_CLIQUE_COLOR
    else:
        if k < 2:
            raise ConstructionError(
                "contraction case reached with a single-vertex clique"
            )
        case = Case.CONTRACTION
    rec = DecompositionRecord(clique, k, tuple([c for c, _ in comps]), k1, t, case)
    return rec, [block for _, block in comps]


def decompose(g: Graph) -> DecompositionRecord:
    """Delete G's greedy minimum-degree clique, split the rest into
    components and classify the level: the construction's own
    decomposition, run on the level of all of G.

    The clique is maximal among the minimum-degree vertices, chosen
    greedily over ascending ids: any minimum-degree vertex left out is
    non-adjacent to some earlier member. G must not be complete: the
    clique would remove every vertex, a ConstructionError; so on a
    connected G, 1 <= k <= d. Connectivity is not checked: the
    construction checks it once, at its entry. Components are ordered
    by attachment size (descending), ties by minimum vertex id. Every
    component's minimum degree is checked against the floor d - k + 1
    that clique maximality guarantees.
    """
    rows, mask = _whole(g)
    return _decompose(rows, mask, *_greedy_clique(rows, tuple(range(g.n)), mask))[0]


def _level(
    rows: Sequence[int], mask: int, labels: Sequence[str], colors: dict, base: int
) -> Generator[tuple, AuditTrace, AuditTrace]:
    """One level of the construction on the vertex mask over rows, run by
    _construct: it yields each child level's arguments in record order,
    is sent back the child's finished trace, and returns its own.

    labels name the vertices by root id, and the trace records the level
    in root ids with those labels. A component child shares the level's
    rows, labels and colors and takes its component's mask. A
    contraction child gets rows rewritten in the same ids: rep = min(K)
    keeps its id and takes K's outside neighbours, the other members of
    K leave the mask, and rep's label names the merged set; it colors a
    dict of its own, from which every edge outside K is lifted (an edge
    from K to w takes the color of the contracted edge rep-w). A child's
    palette starts at base plus the colors of the siblings before it;
    the level's own edges, keyed by (u, v) with u < v, take fresh colors
    past every child's palette.
    """
    verts = _bit_positions(mask)
    n = len(verts)
    delta, clique, cmask = _greedy_clique(rows, verts, mask)
    if delta == n - 1:
        # complete: the base case
        rec, case = None, Case.BASE
    else:
        rec, blocks = _decompose(rows, mask, delta, clique, cmask)
        case = rec.case
    trace = AuditTrace(case, n, delta, n - delta, 0, verts, labels, decomposition=rec)
    if rec is None:
        # K is every vertex, and its edges are all the edges: one color,
        # none on a single vertex
        clique_color = base
        trace.colors_used = min(n - 1, 1)
    elif case is Case.CONTRACTION:
        rep = clique[0]
        rep_bit = 1 << rep
        outside = 0
        for u in clique:
            outside |= rows[u]
        outside &= mask ^ cmask
        # rep takes K's outside neighbours, and they take rep in place of K
        sub_rows = list(rows)
        for w in _bit_positions(outside):
            sub_rows[w] = rows[w] & ~cmask | rep_bit
        sub_rows[rep] = outside
        sub_mask = mask ^ cmask | rep_bit
        delta_star = min([(sub_rows[v] & sub_mask).bit_count() for v in _bit_positions(sub_mask)])
        if delta_star < delta:
            # with single-vertex attachments the outside keeps its degrees and
            # the merged vertex collects one disjoint neighborhood per clique
            # member, so the minimum degree cannot drop
            raise ConstructionError(
                f"contraction lowered the minimum degree: {delta_star} < {delta}"
            )
        measure = sub_mask.bit_count() - delta_star
        if measure >= trace.budget:
            raise ConstructionError(
                f"measure did not decrease under contraction: {measure} >= {trace.budget}"
            )
        merged_label = "merged(" + ",".join([labels[v] for v in clique]) + ")"
        sub_labels = list(labels)
        sub_labels[rep] = merged_label
        trace.contraction = ContractionInfo(delta_star, measure, merged_label)
        sub_colors: dict[tuple[int, int], int] = {}
        child = yield sub_rows, sub_mask, sub_labels, sub_colors, base
        trace.children = (child,)
        # K's edges take one fresh color; every other edge is lifted
        clique_color = base + child.colors_used
        for u in verts:
            a = rep if cmask >> u & 1 else u
            # -(2 << u) masks the ids above u, so each edge comes once
            for v in _bit_positions(rows[u] & mask & -(2 << u)):
                b = rep if cmask >> v & 1 else v
                if a != b:
                    colors[u, v] = sub_colors[(a, b) if a < b else (b, a)]
        trace.colors_used = child.colors_used + 1
    else:
        for comp, block in zip(rec.components, blocks):
            measure = comp.size - comp.min_degree
            if measure >= trace.budget:
                raise ConstructionError(
                    f"measure did not decrease: component {comp.vertices} has"
                    f" n-d = {measure}, parent has {trace.budget}"
                )
            child = yield rows, block, labels, colors, base + trace.colors_used
            trace.colors_used += child.colors_used
            trace.children += (child,)
        # the edges from K to the i-th component take fresh color top + i
        top = base + trace.colors_used
        for i, block in enumerate(blocks):
            for u in clique:
                for w in _bit_positions(rows[u] & block):
                    colors[(u, w) if u < w else (w, u)] = top + i
        if case is Case.NEW_CLIQUE_COLOR:
            clique_color = top + rec.t
            trace.colors_used += rec.t + 1
        else:
            # full attachment and the reused-color branch both put the lead
            # cross color on the clique edges
            clique_color = top
            trace.colors_used += rec.t
    # the clique ascends, so every pair is already ordered
    for e in combinations(clique, 2):
        colors[e] = clique_color
    if trace.colors_used > trace.budget:
        raise ConstructionError(
            f"color budget exceeded: {trace.colors_used} > {trace.budget}"
            f" on vertices {tuple([labels[v] for v in verts])}",
            trace,
        )
    return trace


def _construct(
    g: Graph, labels: tuple[str, ...]
) -> tuple[dict[tuple[int, int], int], AuditTrace]:
    """The recursion as one loop over an explicit stack of level
    generators.

    The top level runs until it yields a child's arguments, and the child
    is pushed; a level that returns is popped, and its trace is sent to
    the level below, which runs on. The checks therefore run in the order
    of a recursive descent, at any depth. Returns the root's coloring and
    trace.
    """
    rows, mask = _whole(g)
    colors: dict[tuple[int, int], int] = {}
    stack = [_level(rows, mask, labels, colors, 0)]
    sent = None
    while True:
        try:
            child = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return colors, done.value
            sent = done.value
        else:
            stack.append(_level(*child))
            sent = None


def construct_coloring(g: Graph) -> tuple[Coloring, AuditTrace]:
    """Color a connected graph with at most n - min_degree colors.

    Returns the coloring and the audit trace; the root trace node records
    the rainbow verifier's outcome on the finished coloring. Structural
    invariant failures raise ConstructionError; a coloring that misses an
    edge of g raises ValueError.
    """
    if g.n < 1:
        raise ValueError("construction requires at least one vertex")
    if not is_connected(g):
        raise ValueError("construction requires a connected graph")
    labels = tuple(str(v) for v in range(g.n))
    colors, trace = _construct(g, labels)
    failing = failing_pair(g, colors)
    trace.verification = "pass" if failing is None else failing
    return colors, trace


def run_construction(
    g: Graph,
) -> tuple[dict | None, Coloring | None, AuditTrace | None]:
    """Run the construction and report a finding on any failure, None on a
    clean pass (coloring verified rainbow connected and within budget),
    together with the coloring and trace when the run produced them.

    A finding is the JSON-ready dict {"kind", "detail", "failing_pair"?,
    "trace"?}: kind "verification-failed", with the failing pair and the
    trace records, or "structural" for a broken invariant, with the
    failing level's trace records when it overspent its color budget.
    A coloring over budget raises ConstructionError at the root level, so
    it is reported as structural."""
    try:
        coloring, trace = construct_coloring(g)
    except ConstructionError as exc:
        finding = {"kind": "structural", "detail": str(exc)}
        if exc.trace is not None:
            finding["trace"] = trace_records(exc.trace)
        return finding, None, None
    if isinstance(trace.verification, FailingPair):
        pair = trace.verification
        finding = {
            "kind": "verification-failed",
            "detail": f"no rainbow path between {pair.u} and {pair.v}",
            "failing_pair": pair,
            "trace": trace_records(trace),
        }
        return finding, coloring, trace
    return None, coloring, trace


def trace_records(trace: AuditTrace) -> list[dict]:
    """JSON-ready flat rendering: one record per level in preorder (a
    parent before its children, children in record order), each with
    parent, the index of its parent's record (None at the root). Root
    ids are replaced by the original-input labels carried on each level.
    The tree is walked on an explicit stack, so a trace of any depth
    renders."""
    records: list[dict] = []
    stack: list[tuple[AuditTrace, int | None]] = [(trace, None)]
    while stack:
        node, parent = stack.pop()
        labels = node.labels
        out: dict = {
            "parent": parent,
            "case": node.case.value,
            "n": node.n,
            "min_degree": node.min_degree,
            "budget": node.budget,
            "colors_used": node.colors_used,
            "vertices": [labels[v] for v in node.vertices],
        }
        rec = node.decomposition
        if rec is not None:
            out["clique"] = [labels[v] for v in rec.clique]
            out["k"] = rec.k
            out["k1"] = rec.k1
            out["t"] = rec.t
            out["components"] = [
                {
                    "vertices": [labels[v] for v in c.vertices],
                    "size": c.size,
                    "min_degree": c.min_degree,
                    "attachment": [labels[v] for v in c.attachment],
                }
                for c in rec.components
            ]
        if node.contraction is not None:
            out["contraction"] = {
                "min_degree_after": node.contraction.min_degree_after,
                "measure_after": node.contraction.measure_after,
                "merged": node.contraction.merged_label,
            }
        if isinstance(node.verification, FailingPair):
            out["verification"] = {"failing_pair": node.verification}
        elif node.verification is not None:
            out["verification"] = node.verification
        index = len(records)
        records.append(out)
        stack.extend([(child, index) for child in reversed(node.children)])
    return records
