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
decrease it, and every level must stay within its color budget. Both are
checked at run time and recorded in the trace; the final coloring is
handed to the rainbow verifier and the outcome stored at the trace root.
A violation of any of these checks is surfaced as a finding (with a
reproducer), never repaired silently: the reused-color branch in
particular is executed exactly as stated so that instances where it fails
verification show up as findings.

The recursion runs as one loop over an explicit stack of levels, so its
depth is not bounded by Python's recursion limit (on a path it is one
level per vertex). The checks run in the order a recursive descent would
run them, so the first check to fail is the same. Colorings stay plain
edge -> color dicts until the root, where one EdgeColoring is built and
verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .graphs import (
    Graph,
    contract_set,
    delete_vertices,
    components,
    is_complete,
    is_connected,
    to_graph6,
)
from .rainbow import (
    EdgeColoring,
    FailingPair,
    edge_adjacency,
    edge_color_bits,
    first_failing_pair,
)

__all__ = [
    "Case",
    "ComponentRecord",
    "DecompositionRecord",
    "ContractionInfo",
    "AuditTrace",
    "ConstructionError",
    "Finding",
    "min_degree_clique",
    "decompose",
    "construct_coloring",
    "run_construction",
    "trace_to_dict",
    "iter_trace",
    "measure_violations",
]


class Case(Enum):
    BASE = "base"
    FULL_ATTACHMENT = "full_attachment"
    NEW_CLIQUE_COLOR = "new_clique_color"
    REUSED_CLIQUE_COLOR = "reused_clique_color"
    CONTRACTION = "contraction"


@dataclass(frozen=True)
class ComponentRecord:
    """One component of G minus the clique, in the ids of that graph."""

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

    vertex_labels names each local vertex in terms of the original input
    (contraction nodes label the merged vertex with the set it replaced),
    so traces stay checkable against the graph the user supplied.
    verification is populated at the root only.
    """

    case: Case
    n: int
    min_degree: int
    budget: int
    colors_used: int
    vertex_labels: tuple[str, ...]
    decomposition: DecompositionRecord | None = None
    children: tuple["AuditTrace", ...] = ()
    contraction: ContractionInfo | None = None
    verification: str | FailingPair | None = None


class ConstructionError(RuntimeError):
    """A structural invariant (measure decrease, color budget, degree
    bound) failed mid-construction. Carries whatever context exists."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


@dataclass(frozen=True)
class Finding:
    """A graph on which the construction did not deliver: either its
    coloring failed verification or an internal invariant broke."""

    kind: str  # "verification-failed" | "structural"
    graph6: str
    failing_pair: FailingPair | None
    trace: AuditTrace | None
    detail: str


def _greedy_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The minimum degree and the greedy maximal clique of minimum-degree
    vertices over ascending ids."""
    degrees = list(map(g.degree, range(g.n)))
    delta = min(degrees)
    clique: list[int] = []
    for v, d in enumerate(degrees):
        if d == delta and all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return delta, tuple(clique)


def min_degree_clique(g: Graph) -> tuple[int, ...]:
    """Greedy maximal clique of minimum-degree vertices, ascending ids:
    the clique that decompose(g) deletes.

    Maximality holds against all minimum-degree vertices: anything
    skipped was non-adjacent to some earlier member. For a connected,
    non-complete graph the size is between 1 and the minimum degree;
    other graphs are rejected.
    """
    if not is_connected(g):
        raise ValueError("clique selection requires a connected graph")
    if is_complete(g):
        raise ValueError("complete graph: base case, no decomposition clique")
    delta, clique = _greedy_clique(g)
    if not 1 <= len(clique) <= delta:
        raise ConstructionError(
            f"clique size {len(clique)} outside [1, {delta}]", {"clique": clique}
        )
    return clique


def decompose(g: Graph) -> DecompositionRecord:
    """Delete G's greedy minimum-degree clique (see min_degree_clique),
    split the rest into components and classify the level.

    G must not be complete. Its connectivity is not checked: the
    construction checks it once, at its entry. Components are ordered by
    attachment size (descending), ties by minimum vertex id. Every
    component's minimum degree is checked against the floor d - k + 1
    that clique maximality guarantees.

    The one reader of G's bit rows outside graphs.py: a component's
    inner degrees and its clique attachment are popcounts and tests of
    rows masked by the component, with no set built per component.
    """
    delta, clique = _greedy_clique(g)
    k = len(clique)
    if g.n == k:
        raise ConstructionError(
            "deleting the clique removed every vertex of a non-complete graph"
        )
    rows = g._rows
    comps = []
    for block in components(g, skip=clique).blocks:
        inside = sum([1 << w for w in block])
        # block is a component of G - K, so a vertex's neighbors inside it
        # are its neighbors in the induced subgraph G[block]
        dmin = min([(rows[w] & inside).bit_count() for w in block])
        attachment = tuple([u for u in clique if rows[u] & inside])
        comps.append(ComponentRecord(block, len(block), dmin, attachment))
    comps.sort(key=lambda c: (-len(c.attachment), c.vertices[0]))

    floor = delta - k + 1
    for c in comps:
        if c.min_degree < floor:
            raise ConstructionError(
                f"component {c.vertices} has minimum degree {c.min_degree}"
                f" below the guaranteed floor {floor}",
                {"clique": clique},
            )

    k1 = len(comps[0].attachment)
    t = len(comps)
    if set(comps[0].attachment) == set(clique):
        case = Case.FULL_ATTACHMENT
    elif k1 > 1 and any(c.min_degree >= delta - k + 2 for c in comps):
        case = Case.NEW_CLIQUE_COLOR
    elif k1 > 1:
        case = Case.REUSED_CLIQUE_COLOR
    else:
        if k < 2:
            raise ConstructionError(
                "contraction case reached with a single-vertex clique",
                {"clique": clique},
            )
        case = Case.CONTRACTION
    return DecompositionRecord(clique, k, tuple(comps), k1, t, case)


class _Level:
    """One level of the construction: a frame on the explicit stack.

    Setting a level up reads its graph once, for the clique decomposition,
    the child graphs and the level's own edges. The children come from
    delete_vertices and contract_set, which build them from this graph's
    bit rows without the validating constructor. The frame keeps no graph
    afterwards, so a deep recursion does not hold one graph per level.
    Colorings are plain dicts keyed by (u, v) with u < v.
    """

    def __init__(self, g: Graph, labels: tuple[str, ...]) -> None:
        if is_complete(g):
            rec, case, delta = None, Case.BASE, g.n - 1
        else:
            # the clique holds minimum-degree vertices only
            rec = decompose(g)
            case, delta = rec.case, g.degree(rec.clique[0])
        # colors_used counts the children's palettes until finish()
        self.trace = AuditTrace(case, g.n, delta, g.n - delta, 0, labels, decomposition=rec)
        self.colors: dict[tuple[int, int], int] = {}
        # children not handed out yet: graph, labels, the child's ids in
        # this graph (None for the contracted graph, see lift) and the
        # component whose measure is checked when the child is handed out
        self.todo: list[
            tuple[Graph, tuple[str, ...], tuple[int, ...] | None, ComponentRecord | None]
        ] = []
        self.kept: tuple[int, ...] | None = None  # of the child handed out last
        # contraction only: each edge outside the clique, with the edge of
        # the contracted graph whose color it takes
        self.lift: list[tuple[tuple[int, int], tuple[int, int]]] = []
        # this level's own edges, each with the index of its fresh color
        # past the children's palettes, and the number of fresh colors
        self.own: dict[tuple[int, int], int] = {}
        self.fresh = 0
        if rec is None:
            self.own = dict.fromkeys(g.edge_list(), 0)
            self.fresh = 1 if self.own else 0
        elif rec.case is Case.CONTRACTION:
            self._contraction(g, rec)
        else:
            self._components(g, rec)

    def _components(self, g: Graph, rec: DecompositionRecord) -> None:
        labels = self.trace.vertex_labels
        everything = set(range(g.n))
        for idx, comp in enumerate(rec.components):
            inside = set(comp.vertices)
            sub, kept = delete_vertices(g, everything - inside)
            self.todo.append((sub, tuple([labels[v] for v in kept]), kept, comp))
            for u in comp.attachment:
                for w in g.neighbors(u):
                    if w in inside:
                        self.own[(u, w) if u < w else (w, u)] = idx
        if rec.case is Case.NEW_CLIQUE_COLOR:
            clique_color = rec.t
            self.fresh = rec.t + 1
        else:
            # full attachment and the reused-color branch both put the lead
            # cross color on the clique edges
            clique_color = 0
            self.fresh = rec.t
        for u, v in combinations(rec.clique, 2):
            self.own[(u, v) if u < v else (v, u)] = clique_color

    def _contraction(self, g: Graph, rec: DecompositionRecord) -> None:
        trace = self.trace
        res = contract_set(g, rec.clique)
        delta_star = min(res.graph.degree(v) for v in range(res.graph.n))
        if delta_star < trace.min_degree:
            # with single-vertex attachments the outside keeps its degrees and
            # the merged vertex collects one disjoint neighborhood per clique
            # member, so the minimum degree cannot drop
            raise ConstructionError(
                f"contraction lowered the minimum degree: {delta_star} < {trace.min_degree}",
                {"decomposition": rec},
            )
        measure = res.graph.n - delta_star
        if measure >= trace.budget:
            raise ConstructionError(
                f"measure did not decrease under contraction: {measure} >= {trace.budget}",
                {"decomposition": rec},
            )
        labels = trace.vertex_labels
        merged_label = "merged(" + ",".join(labels[v] for v in rec.clique) + ")"
        child_labels: list[str] = [""] * res.graph.n
        for old in range(g.n):
            nid = res.origin_map[old]
            child_labels[nid] = merged_label if nid == res.merged_vertex else labels[old]
        trace.contraction = ContractionInfo(delta_star, measure, merged_label)
        self.todo.append((res.graph, tuple(child_labels), None, None))
        for u, v in g.edge_list():
            a, b = res.origin_map[u], res.origin_map[v]
            if a == b:
                self.own[(u, v)] = 0  # inside the clique: one fresh color
            else:
                self.lift.append(((u, v), (a, b) if a < b else (b, a)))
        self.fresh = 1

    def next_child(self) -> tuple[Graph, tuple[str, ...]] | None:
        """The next child to color, after its measure check; None once
        every child has been handed out."""
        if not self.todo:
            return None
        sub, labels, self.kept, comp = self.todo.pop(0)
        if comp is not None:
            measure = comp.size - comp.min_degree
            if measure >= self.trace.budget:
                raise ConstructionError(
                    f"measure did not decrease: component {comp.vertices} has"
                    f" n-d = {measure}, parent has {self.trace.budget}",
                    {"decomposition": self.trace.decomposition},
                )
        return sub, labels

    def add_child(self, colors: dict[tuple[int, int], int], trace: AuditTrace) -> None:
        """Take in the coloring of the child handed out last, its palette
        offset past the colors of the children before it."""
        offset = self.trace.colors_used
        kept, out = self.kept, self.colors
        if kept is None:
            for e, sub_e in self.lift:
                out[e] = colors[sub_e] + offset
        else:
            # kept is increasing, so translated edges stay ordered
            for (a, b), c in colors.items():
                out[kept[a], kept[b]] = c + offset
        self.trace.colors_used += trace.colors_used
        self.trace.children += (trace,)

    def finish(self) -> tuple[dict[tuple[int, int], int], AuditTrace]:
        """This level's coloring and trace, its fresh colors past every
        child's palette."""
        trace = self.trace
        for e, idx in self.own.items():
            self.colors[e] = trace.colors_used + idx
        trace.colors_used += self.fresh
        if trace.colors_used > trace.budget:
            raise ConstructionError(
                f"color budget exceeded: {trace.colors_used} > {trace.budget}"
                f" on vertices {trace.vertex_labels}",
                {"trace": trace},
            )
        return self.colors, trace


def _construct(
    g: Graph, labels: tuple[str, ...]
) -> tuple[dict[tuple[int, int], int], AuditTrace]:
    """The recursion as one loop over an explicit stack of levels.

    The top level either hands out its next child, which is pushed, or,
    with every child done, is popped and passes its coloring to the level
    below. The checks therefore run in the order of a recursive descent,
    at any depth. Returns the root's coloring and trace.
    """
    stack = [_Level(g, labels)]
    while True:
        top = stack[-1]
        child = top.next_child()
        if child is not None:
            stack.append(_Level(*child))
            continue
        stack.pop()
        colors, trace = top.finish()
        if not stack:
            return colors, trace
        stack[-1].add_child(colors, trace)


def construct_coloring(g: Graph) -> tuple[EdgeColoring, AuditTrace]:
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
    coloring = EdgeColoring(colors)
    failing = first_failing_pair(edge_adjacency(g), edge_color_bits(g, coloring))
    trace.verification = "pass" if failing is None else failing
    return coloring, trace


def run_construction(
    g: Graph,
) -> tuple[Finding | None, EdgeColoring | None, AuditTrace | None]:
    """Run the construction and report a Finding on any failure, None on a
    clean pass (coloring verified rainbow connected and within budget),
    together with the coloring and trace when the run produced them.
    A coloring over budget raises ConstructionError at the root level, so
    it is reported as structural."""
    try:
        coloring, trace = construct_coloring(g)
    except ConstructionError as exc:
        trace = exc.context.get("trace")
        return Finding("structural", to_graph6(g), None, trace, str(exc)), None, None
    if isinstance(trace.verification, FailingPair):
        pair = trace.verification
        detail = f"no rainbow path between {pair.u} and {pair.v}"
        finding = Finding("verification-failed", to_graph6(g), pair, trace, detail)
        return finding, coloring, trace
    return None, coloring, trace


def iter_trace(trace: AuditTrace):
    """Depth-first (parent, child) pairs over the recursion tree, parents
    before their children and siblings in order."""
    stack = [(trace, child) for child in reversed(trace.children)]
    while stack:
        parent, child = stack.pop()
        yield parent, child
        stack.extend((child, grandchild) for grandchild in reversed(child.children))


def measure_violations(trace: AuditTrace) -> list[str]:
    """Strict-decrease violations of the n - min_degree measure, plus any
    node over its color budget. Empty on a sound trace."""
    pairs = list(iter_trace(trace))
    problems = []
    for parent, child in pairs:
        if child.budget >= parent.budget:
            problems.append(
                f"child measure {child.budget} did not decrease below"
                f" parent measure {parent.budget}"
            )
    for node in [trace] + [child for _, child in pairs]:
        if node.colors_used > node.budget:
            problems.append(
                f"node with {node.n} vertices used {node.colors_used} colors,"
                f" budget {node.budget}"
            )
        if node.contraction is not None:
            if node.contraction.measure_after >= node.budget:
                problems.append(
                    f"contraction measure {node.contraction.measure_after}"
                    f" did not decrease below {node.budget}"
                )
            if node.contraction.min_degree_after < node.min_degree:
                problems.append("contraction lowered the minimum degree")
    return problems


def trace_to_dict(trace: AuditTrace) -> dict:
    """JSON-ready nested rendering; local ids are replaced by the
    original-input labels carried on each node."""
    labels = trace.vertex_labels
    out: dict = {
        "case": trace.case.value,
        "n": trace.n,
        "min_degree": trace.min_degree,
        "budget": trace.budget,
        "colors_used": trace.colors_used,
        "vertices": list(labels),
    }
    rec = trace.decomposition
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
    if trace.contraction is not None:
        out["contraction"] = {
            "min_degree_after": trace.contraction.min_degree_after,
            "measure_after": trace.contraction.measure_after,
            "merged": trace.contraction.merged_label,
        }
    if trace.children:
        out["children"] = [trace_to_dict(c) for c in trace.children]
    if trace.verification is not None:
        if isinstance(trace.verification, FailingPair):
            out["verification"] = {
                "failing_pair": [trace.verification.u, trace.verification.v]
            }
        else:
            out["verification"] = trace.verification
    return out
