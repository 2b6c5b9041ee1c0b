"""Exact rainbow connection number by iterative deepening.

For q = lower bound, lower bound + 1, ... search canonical colorings with
at most q colors for one that rainbow-connects the graph. Canonical means
restricted growth over the lexicographic edge order: edge i may use a
color at most one above the largest color on earlier edges, which removes
color relabelings without losing any coloring up to renaming. The
exhausted search at q - 1 doubles as the optimality certificate for a hit
at q.

Two bookkeeping devices cut the search without changing its tree. Both
rest on one path primitive, _paths_within: a DFS over the edge-indexed
adjacency that lists every simple s-t path with at most a given number
of edges. A rainbow path with q colors has at most q edges, so a pair
fails exactly when all of those paths repeat a color.

- Prune tables: for each pair at distance q, its shortest paths (the
  paths of at most q edges). A partial coloring in which all of them
  repeat a color is cut off.
- Leaf-verdict reuse: when a leaf fails on a pair, its paths are kept
  with the largest edge index at which one of them first repeats a
  color. Later leaves that kept the colors of those edges fail too,
  without a rainbow check; others test the kept paths first and run the
  full check only when one of them is rainbow.

Node and wall-time budgets cap each call so corpus sweeps never hang; a
budgeted give-up is reported as such, never as unsatisfiability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, bfs_distances, diameter, is_connected
from .rainbow import Adjacency, EdgeColoring, edge_adjacency, first_failing_pair

__all__ = [
    "Budget",
    "SearchStats",
    "DecisionStatus",
    "DecisionResult",
    "ExactStatus",
    "ExactResult",
    "rc_lower_bound",
    "rc_decision",
    "rc_exact",
]


@dataclass(frozen=True)
class Budget:
    """Caps on a single search; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    seconds: float


class DecisionStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class DecisionResult:
    status: DecisionStatus
    coloring: EdgeColoring | None
    nodes: int


class ExactStatus(Enum):
    EXACT = "exact"
    # budget ran out after at least one color count was fully refuted; the
    # reported value (last refuted count + 1) is a proven lower bound
    LOWER_BOUND_ONLY = "lower-bound-only"
    # budget ran out before refuting anything beyond the starting bound
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class ExactResult:
    status: ExactStatus
    value: int
    witness: EdgeColoring | None
    stats: SearchStats

    @property
    def exact(self) -> bool:
        return self.status is ExactStatus.EXACT


def rc_lower_bound(g: Graph) -> int:
    """max(diameter, 1): every rainbow path between a diametral pair needs
    at least diameter distinct colors. Non-complete graphs have diameter
    at least 2, so this already exceeds 1 exactly when it should."""
    if not is_connected(g):
        raise ValueError("lower bound requires a connected graph")
    return max(diameter(g), 1)


def _distance_table(g: Graph) -> list[list[int]]:
    """dist[s][t], -1 when t is unreachable from s."""
    return [bfs_distances(g, s) for s in range(g.n)]


# leaf-verdict reuse skips a failing pair with more short paths than this
_LEAF_PATH_CAP = 512


def _paths_within(
    adjacency: Adjacency,
    s: int,
    dist_to_t: list[int],
    limit: int,
    cap: int,
) -> list[tuple[int, ...]] | None:
    """Every simple path from s to t with at most limit edges, each as a
    sorted tuple of edge indices; None when more than cap exist.

    t is the vertex with dist_to_t[t] == 0, and s != t. The DFS over the
    edge-indexed adjacency enters a vertex only if t is still within
    limit from it, so for limit = dist(s, t) it walks exactly the
    shortest paths.
    """
    out: list[tuple[int, ...]] = []
    on_path = [False] * len(adjacency)
    on_path[s] = True
    path: list[int] = []  # edge indices from s to the top of the stack
    stack = [(s, iter(adjacency[s]))]
    while stack:
        v, untried = stack[-1]
        slack = limit - len(stack)  # how far t may still be from the next vertex
        for w, e in untried:
            d = dist_to_t[w]
            if d > slack or on_path[w]:
                continue
            if d == 0:
                out.append(tuple(sorted(path + [e])))
                if len(out) > cap:
                    return None
                continue
            on_path[w] = True
            path.append(e)
            stack.append((w, iter(adjacency[w])))
            break
        else:
            stack.pop()
            on_path[v] = False
            if stack:
                path.pop()
    return out


def _dead_from(paths: list[tuple[int, ...]], assignment: list[int]) -> int | None:
    """None when one of the paths is rainbow under assignment; otherwise
    the largest, over the paths, first edge index at which a path repeats
    a color (-1 for no paths). The paths stay non-rainbow for as long as
    edges 0..dead_from keep their colors."""
    dead_from = -1
    for p in paths:
        seen = 0
        for e in p:
            b = 1 << assignment[e]
            if seen & b:
                if e > dead_from:
                    dead_from = e
                break
            seen |= b
        else:
            return None
    return dead_from


class _PruneTables:
    """Fail-fast bookkeeping for pairs at distance exactly q.

    A pair at distance q can only be rainbow-connected along one of its
    length-q shortest paths; once every such path contains two assigned
    edges of equal color, no completion of the partial coloring can
    succeed. The paths come from _paths_within with limit q, the same
    primitive the leaf check uses. Tracking is capped per pair and in
    total; skipped pairs just weaken the prune, never its soundness.
    """

    PER_PAIR_CAP = 512
    TOTAL_CAP = 8192

    def __init__(
        self, adjacency: Adjacency, m: int, q: int, dist: list[list[int]]
    ):
        n = len(adjacency)
        self.path_edges: list[tuple[int, ...]] = []
        self.path_pair: list[int] = []
        self.edge_paths: list[list[int]] = [[] for _ in range(m)]
        self.alive: list[int] = []
        self.dead_at: list[int] = []
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                if dist[u][v] != q:
                    continue
                paths = _paths_within(adjacency, u, dist[v], q, self.PER_PAIR_CAP)
                if paths is None or total + len(paths) > self.TOTAL_CAP:
                    continue
                pair_id = len(self.alive)
                self.alive.append(len(paths))
                for p in paths:
                    pid = len(self.path_edges)
                    self.path_edges.append(p)
                    self.path_pair.append(pair_id)
                    self.dead_at.append(-1)
                    for e in p:
                        self.edge_paths[e].append(pid)
                total += len(paths)


def rc_decision(
    g: Graph,
    q: int,
    budget: Budget | None = None,
    prune: bool = True,
    *,
    distances: list[list[int]] | None = None,
) -> DecisionResult:
    """Find a rainbow-connecting coloring with at most q colors, or prove
    none exists. Unsatisfiability is reported only after the canonical
    space is exhausted (pruned subtrees are provably solution-free).

    distances is g's all-pairs distance table, for callers that decide
    several q on one graph; it is computed here when not given.
    """
    if q < 1:
        raise ValueError("color count must be at least 1")
    if distances is None:
        distances = _distance_table(g)
    if distances and -1 in distances[0]:
        raise ValueError("decision search requires a connected graph")
    edges = g.edge_list()
    m = len(edges)
    if m == 0:
        return DecisionResult(DecisionStatus.SAT, EdgeColoring({}), 0)

    budget = budget or Budget()
    deadline = (
        time.monotonic() + budget.max_seconds
        if budget.max_seconds is not None
        else None
    )

    if prune and max(map(max, distances)) > q:
        # some pair is farther apart than q; no q-coloring can give it a
        # rainbow path, so the whole space is solution-free
        return DecisionResult(DecisionStatus.UNSAT, None, 0)
    adjacency = edge_adjacency(g)
    tables = _PruneTables(adjacency, m, q, distances) if prune else None

    assignment = [-1] * m
    next_color = [0] * m
    max_plus = [0] * (m + 1)  # colors allowed at depth i: 0..min(max_plus[i], q-1)
    killed: list[list[int]] = [[] for _ in range(m)]
    nodes = 0
    i = 0
    # Leaf-verdict reuse. failing_paths holds every simple path with at
    # most q edges between the vertices of the last failing pair (a longer
    # path cannot be rainbow with q colors), and all of them repeat a color
    # within edges 0..dead_from. low is the lowest depth assigned since
    # the last leaf; while low > dead_from the pair still fails.
    failing_paths: list[tuple[int, ...]] | None = None
    dead_from = -1
    low = m

    def unassign(depth: int) -> None:
        if tables is not None:
            for pid in killed[depth]:
                tables.dead_at[pid] = -1
                tables.alive[tables.path_pair[pid]] += 1
            killed[depth].clear()
        assignment[depth] = -1

    while True:
        if i == m:
            if failing_paths is not None and low <= dead_from:
                verdict = _dead_from(failing_paths, assignment)
                if verdict is None:
                    failing_paths = None
                else:
                    dead_from = verdict
            if failing_paths is None:
                failing = first_failing_pair(adjacency, [1 << c for c in assignment])
                if failing is None:
                    coloring = EdgeColoring(dict(zip(edges, assignment)))
                    return DecisionResult(DecisionStatus.SAT, coloring, nodes)
                failing_paths = _paths_within(
                    adjacency, failing.u, distances[failing.v], q, _LEAF_PATH_CAP
                )
                if failing_paths is not None:
                    verdict = _dead_from(failing_paths, assignment)
                    if verdict is None:
                        raise RuntimeError(
                            f"pair ({failing.u}, {failing.v}) failed the leaf"
                            " check but has a rainbow path"
                        )
                    dead_from = verdict
            low = m
            i -= 1
            unassign(i)
            continue
        c = next_color[i]
        if c > min(max_plus[i], q - 1):
            next_color[i] = 0
            if i == 0:
                return DecisionResult(DecisionStatus.UNSAT, None, nodes)
            i -= 1
            unassign(i)
            continue
        next_color[i] = c + 1
        nodes += 1
        if budget.max_nodes is not None and nodes > budget.max_nodes:
            return DecisionResult(DecisionStatus.BUDGET_EXHAUSTED, None, nodes)
        if (
            deadline is not None
            and nodes & 1023 == 1  # clock checked on the first node, then sparsely
            and time.monotonic() > deadline
        ):
            return DecisionResult(DecisionStatus.BUDGET_EXHAUSTED, None, nodes)

        assignment[i] = c
        if i < low:
            low = i
        dead_pair = False
        if tables is not None:
            for pid in tables.edge_paths[i]:
                if tables.dead_at[pid] >= 0:
                    continue
                for e in tables.path_edges[pid]:
                    if e != i and assignment[e] == c:
                        tables.dead_at[pid] = i
                        killed[i].append(pid)
                        pair = tables.path_pair[pid]
                        tables.alive[pair] -= 1
                        if tables.alive[pair] == 0:
                            dead_pair = True
                        break
        if dead_pair:
            unassign(i)
            continue
        max_plus[i + 1] = max(max_plus[i], c + 1)
        i += 1


def _remaining(budget: Budget, used_nodes: int, started: float) -> Budget | None:
    """Budget left for the next deepening level; None when spent."""
    max_nodes = None
    if budget.max_nodes is not None:
        max_nodes = budget.max_nodes - used_nodes
        if max_nodes <= 0:
            return None
    max_seconds = None
    if budget.max_seconds is not None:
        max_seconds = budget.max_seconds - (time.monotonic() - started)
        if max_seconds <= 0:
            return None
    return Budget(max_nodes, max_seconds)


def rc_exact(
    g: Graph, budget: Budget | None = None, prune: bool = True
) -> ExactResult:
    """Rainbow connection number with an optimal witness coloring.

    Exact status means a passing witness at the value plus a fully
    exhausted search one color below (or the value equals the lower
    bound). Budget exhaustion yields a lower bound instead.
    """
    started = time.monotonic()
    distances = _distance_table(g)
    if distances and -1 in distances[0]:
        raise ValueError("rc is defined for connected graphs only")
    budget = budget or Budget()
    if g.m == 0:
        # single vertex: the empty coloring is vacuously rainbow connected
        return ExactResult(
            ExactStatus.EXACT,
            0,
            EdgeColoring({}),
            SearchStats(0, time.monotonic() - started),
        )
    lb = max(max(map(max, distances)), 1)  # rc_lower_bound, from the table
    total_nodes = 0
    last_refuted: int | None = None
    q = lb
    while True:
        level_budget = _remaining(budget, total_nodes, started)
        if level_budget is None:
            break
        res = rc_decision(g, q, level_budget, prune, distances=distances)
        total_nodes += res.nodes
        if res.status is DecisionStatus.SAT:
            return ExactResult(
                ExactStatus.EXACT,
                q,
                res.coloring,
                SearchStats(total_nodes, time.monotonic() - started),
            )
        if res.status is DecisionStatus.UNSAT:
            last_refuted = q
            q += 1
            # a connected graph always admits the all-distinct coloring
            if q > g.m:
                raise RuntimeError("deepening ran past the trivial upper bound")
            continue
        break

    stats = SearchStats(total_nodes, time.monotonic() - started)
    if last_refuted is not None:
        return ExactResult(ExactStatus.LOWER_BOUND_ONLY, last_refuted + 1, None, stats)
    return ExactResult(ExactStatus.BUDGET_EXHAUSTED, lb, None, stats)
