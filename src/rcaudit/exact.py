"""Exact rainbow connection number by iterative deepening.

For q = lower bound, lower bound + 1, ... search canonical colorings with
at most q colors for one that rainbow-connects the graph. Canonical means
restricted growth over the lexicographic edge order: edge i may use a
color at most one above the largest color on earlier edges, which removes
color relabelings without losing any coloring up to renaming. The
exhausted search at q - 1 doubles as the optimality certificate for a hit
at q.

Pruning rests on one path primitive, _paths_within: a DFS over the
edge-indexed adjacency that lists every simple s-t path with at most a
given number of edges. A rainbow path with q colors has at most q edges,
so a pair fails exactly when all of those paths repeat a color. The
prune tables hold such path sets, and a partial coloring in which every
path of one pair repeats a color is cut off:

- Preloaded pairs: every pair at distance q, whose paths of at most q
  edges are its shortest paths.
- Learned pairs: when a leaf fails on a pair, its paths are added to
  the tables (a learned nogood), each dead at the edge where it first
  repeats a color. A learned pair never fails at a later leaf of the
  same level: the tables cut it off first.

Each dead path keeps one blame word, a bitset of two edges: the edge
it died at and its partner, the earlier edge of the same color. The
blame of a pair all of whose paths are dead is the OR of their words.
Each depth collects the blamed earlier depths of its failed colors (a
conflict set), and when every color at a depth has failed, the search
jumps straight back to the deepest depth in the set (conflict-directed
backjumping, Prosser 1993); a failing leaf jumps to the deepest depth
its learned pair blames. Pairs with more than _PATH_CAP short paths
are not learned and blame every depth, which steps back one depth.

Both cuts and the jumps only skip solution-free subtrees, so the first
satisfying leaf in canonical order, and with it every value and
witness, is the one the plain canonical search (prune=False) finds.

Node and wall-time budgets cap each call so corpus sweeps never hang;
rc_exact fixes one deadline for all of its levels and the witness
search. When a budget stops the deepening at level q, a seeded repair
search (_seeded_witness) still looks for a q-coloring: every level below
q is refuted or lies below max(diameter, 1), so a coloring that passes
the leaves' full check proves rc = q. Its random generator is seeded with
the crc32 of the graph's graph6 string, so reruns repeat it in any
process. A give-up it does not close is reported as such, never as
unsatisfiability.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, distance_table, to_graph6
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
    """Caps on a single search; None means unlimited.

    max_nodes caps the exhaustive search only. max_seconds also caps the
    seeded witness search that runs once the exhaustive search gives up.
    Both are checked before a node is counted, the clock before the
    first node and then every 1024 nodes, so a give-up counts only the
    nodes it expanded.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class SearchStats:
    """Work of one rc_exact call, summed over its deepening levels."""

    nodes: int
    seconds: float
    leaf_checks: int = 0  # full first_failing_pair calls
    learned_pairs: int = 0  # failing leaf pairs added to the prune tables
    witness_checks: int = 0  # first_failing_pair calls of the seeded witness search
    jumps: int = 0  # conflict-directed jumps that skip at least one depth


class DecisionStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class DecisionResult:
    status: DecisionStatus
    coloring: EdgeColoring | None
    nodes: int
    leaf_checks: int = 0
    learned_pairs: int = 0
    jumps: int = 0


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


def _lower_bound(distances: list[list[int]]) -> int:
    """max(diameter, 1), read from a connected graph's distance table."""
    return max(max(map(max, distances)), 1)


def rc_lower_bound(g: Graph) -> int:
    """max(diameter, 1): every rainbow path between a diametral pair needs
    at least diameter distinct colors. Non-complete graphs have diameter
    at least 2, so this already exceeds 1 exactly when it should."""
    if g.n == 0:
        raise ValueError("lower bound of the empty graph is undefined")
    distances = distance_table(g)
    if -1 in distances[0]:
        raise ValueError("lower bound requires a connected graph")
    return _lower_bound(distances)


# a pair with more paths of at most q edges than this is neither
# preloaded into the prune tables nor learned from a failing leaf
_PATH_CAP = 512


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
    shortest paths. A neighbor of t reached with one edge to spare has
    no way on but its edge to t, which is looked up instead of scanned.
    """
    out: list[tuple[int, ...]] = []
    into_t = dict(adjacency[dist_to_t.index(0)])  # neighbor of t -> edge to t
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
            if d == 0 or slack == 1:
                # w is t, or a neighbor of t with no edge to spare after it
                out.append(tuple(sorted(path + ([e] if d == 0 else [e, into_t[w]]))))
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


class _PruneTables:
    """Fail-fast bookkeeping: for each tracked pair, every path of at most
    q edges between its ends, and how many of them are still alive.

    A path dies at the depth of its first edge whose color repeats an
    earlier edge of the path, its partner. Its blame word is 0 while it
    is alive and 1 << depth | 1 << partner once dead; the partner is the
    lower bit, so the highest bit names the depth whose unassignment
    revives the path. Once every path of a pair is dead, no completion
    of the partial coloring can rainbow-connect the pair, and the colors
    at the blamed depths are the whole reason (conflict()). The
    tables start with the pairs at distance exactly q (their paths come
    from _paths_within with limit q, which walks exactly the shortest
    paths); learn() adds a pair that failed at a leaf. Preloading is
    capped per pair (_PATH_CAP) and in total; skipped pairs just weaken
    the prune, never its soundness.
    """

    TOTAL_CAP = 8192

    def __init__(self, m: int):
        self.path_edges: list[tuple[int, ...]] = []
        self.path_pair: list[int] = []
        self.edge_paths: list[list[int]] = [[] for _ in range(m)]
        self.alive: list[int] = []
        self.blame: list[int] = []
        self.pair_paths: list[range] = []  # path ids of each pair

    def preload(self, adjacency: Adjacency, q: int, dist: list[list[int]]) -> None:
        """Track every pair at distance exactly q, within the caps."""
        n = len(adjacency)
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                if dist[u][v] != q:
                    continue
                paths = _paths_within(adjacency, u, dist[v], q, _PATH_CAP)
                if paths is None or total + len(paths) > self.TOTAL_CAP:
                    continue
                self._add_pair(paths)
                total += len(paths)

    def _add_pair(self, paths: list[tuple[int, ...]]) -> int:
        """Track one pair's paths, all alive; returns the pair's id."""
        first = len(self.path_edges)
        pair_id = len(self.alive)
        self.alive.append(len(paths))
        self.pair_paths.append(range(first, first + len(paths)))
        self.path_edges.extend(paths)
        self.path_pair.extend([pair_id] * len(paths))
        self.blame.extend([0] * len(paths))
        edge_paths = self.edge_paths
        for pid, p in enumerate(paths, first):
            for e in p:
                edge_paths[e].append(pid)
        return pair_id

    def conflict(self, pair_id: int) -> int:
        """The depths whose colors kill every path of a dead pair, as a
        bitset: the OR of its paths' blame words."""
        blame = self.blame
        depths = 0
        for pid in self.pair_paths[pair_id]:
            depths |= blame[pid]
        return depths

    def learn(
        self, u: int, v: int, paths: list[tuple[int, ...]], assignment: list[int]
    ) -> int:
        """Add pair (u, v), which fails under the full assignment, with all
        its paths of at most q edges. Each path is blamed on its first
        repeated-color edge and on the earlier edge of that color, its
        partner; returns the pair's conflict(). After the distance
        shortcut every pair has a path of at most q edges, so paths is
        not empty."""
        pair_id = self._add_pair(paths)
        for pid, p in zip(self.pair_paths[pair_id], paths):
            seen = 0
            for e in p:
                b = 1 << assignment[e]
                if seen & b:
                    break
                seen |= b
            else:
                raise RuntimeError(
                    f"pair ({u}, {v}) failed the leaf check but has a rainbow path"
                )
            partner = next(f for f in p if assignment[f] == assignment[e])
            self.blame[pid] = 1 << e | 1 << partner
        self.alive[pair_id] = 0
        return self.conflict(pair_id)


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
    space is exhausted (skipped subtrees are provably solution-free).

    The pruned search backjumps on conflicts (Prosser's CBJ). Each depth
    keeps a conflict set: the earlier depths whose colors its failed
    colors depend on. A color fails when a tracked pair loses its last
    path; the pair's conflict(), minus the depth itself, joins the set.
    A leaf fails on a pair; the learned pair's conflict() is the leaf's
    set (every depth for a pair above _PATH_CAP, which is a plain step
    back). Once every color at a depth has failed, no coloring that keeps
    the colors of its set can be completed: the search jumps to the
    set's deepest depth j, merges the rest of the set into j's, and
    tries j's next color. An empty set proves the level UNSAT.

    That holds for the canonical color range too. The colors above
    top[i] appear on no edge before depth i, and neither does top[i]
    when it is a fresh color. Swapping one of them with top[i] in a
    whole coloring leaves every earlier depth's color, and so the
    conflict set, as it was; so a coloring that gives depth i a color
    above top[i] fails whenever the fresh color top[i] fails.

    prune=False runs the plain canonical search: no prune tables, no
    distance shortcut, no learning, and every failure steps back one
    depth. It visits a superset of the pruned search's nodes and reaches
    the same verdict and the same first satisfying leaf.

    budget caps the nodes and seconds of this call, both checked before
    a node is counted (see Budget): BUDGET_EXHAUSTED reports only the
    nodes expanded, 0 when the budget was spent on arrival.

    distances is g's all-pairs distance table, for callers that decide
    several q on one graph; it is computed here when not given.
    """
    if q < 1:
        raise ValueError("color count must be at least 1")
    if distances is None:
        distances = distance_table(g)
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

    if prune and _lower_bound(distances) > q:
        # some pair is farther apart than q; no q-coloring can give it a
        # rainbow path, so the whole space is solution-free
        return DecisionResult(DecisionStatus.UNSAT, None, 0)
    adjacency = edge_adjacency(g)
    tables = _PruneTables(m)
    if prune:
        tables.preload(adjacency, q, distances)
    edge_paths, path_edges = tables.edge_paths, tables.path_edges
    path_pair, alive, blame = tables.path_pair, tables.alive, tables.blame
    max_nodes = budget.max_nodes

    assignment = [-1] * m
    next_color = [0] * (m + 1)
    top = [0] * (m + 1)  # colors allowed at depth i: 0..top[i]
    # per depth, as a bitset: the earlier depths its failed colors depend on
    conflicts = [0] * (m + 1)
    every_depth = (1 << m) - 1
    # failing leaf pairs with more than _PATH_CAP short paths: not
    # learned, and not enumerated again when they fail once more
    over_cap: set[tuple[int, int]] = set()
    nodes = leaf_checks = learned = jumps = 0
    i = 0

    def done(status: DecisionStatus, coloring: EdgeColoring | None = None) -> DecisionResult:
        return DecisionResult(status, coloring, nodes, leaf_checks, learned, jumps)

    def unassign(depth: int) -> None:
        # a path that died at depth contains its edge and blames it highest
        for pid in edge_paths[depth]:
            if blame[pid] >> depth == 1:
                blame[pid] = 0
                alive[path_pair[pid]] += 1
        assignment[depth] = -1

    def backjump(depth: int, culprits: int) -> int:
        """Every color at depth failed (at depth m: the full coloring),
        and so does every coloring that keeps the colors of culprits, a
        nonempty set of earlier depths. Unassigns down to the deepest
        culprit j, merges the other culprits into j's set, returns j."""
        nonlocal jumps
        j = culprits.bit_length() - 1
        if j < depth - 1:
            jumps += 1
        for d in range(depth - 1, j - 1, -1):
            unassign(d)
        conflicts[j] |= culprits ^ (1 << j)
        return j

    while True:
        if i == m:
            leaf_checks += 1
            failing = first_failing_pair(adjacency, [1 << c for c in assignment])
            if failing is None:
                return done(DecisionStatus.SAT, EdgeColoring(dict(zip(edges, assignment))))
            culprits = every_depth
            pair = (failing.u, failing.v)
            if prune and pair not in over_cap:
                paths = _paths_within(
                    adjacency, failing.u, distances[failing.v], q, _PATH_CAP
                )
                if paths is None:
                    over_cap.add(pair)
                else:
                    # every leaf that keeps these depths' colors fails on this pair
                    culprits = tables.learn(failing.u, failing.v, paths, assignment)
                    learned += 1
            i = backjump(m, culprits)
            continue
        c = next_color[i]
        if c > top[i]:
            if not conflicts[i]:
                return done(DecisionStatus.UNSAT)
            i = backjump(i, conflicts[i])
            continue
        if (max_nodes is not None and nodes >= max_nodes) or (
            deadline is not None
            and nodes & 1023 == 0  # clock read before the first node, then sparsely
            and time.monotonic() > deadline
        ):
            return done(DecisionStatus.BUDGET_EXHAUSTED)
        next_color[i] = c + 1
        nodes += 1

        assignment[i] = c
        dead_pair = -1
        for pid in edge_paths[i]:
            if blame[pid]:
                continue
            for e in path_edges[pid]:
                if e != i and assignment[e] == c:
                    blame[pid] = 1 << i | 1 << e
                    pair_id = path_pair[pid]
                    alive[pair_id] -= 1
                    if alive[pair_id] == 0:
                        dead_pair = pair_id
                    break
            if dead_pair >= 0:
                break
        if dead_pair >= 0:
            conflicts[i] |= tables.conflict(dead_pair) ^ (1 << i)
            unassign(i)
            continue
        # canonical order: a new color is one above the largest so far
        top[i + 1] = c + 1 if c == top[i] and c < q - 1 else top[i]
        i += 1
        next_color[i] = 0
        conflicts[i] = 0


# repair steps of the seeded witness search
_WITNESS_STEPS = 30


def _seeded_witness(
    g: Graph,
    q: int,
    distances: list[list[int]],
    deadline: float | None,
) -> tuple[EdgeColoring | None, int]:
    """Look for a rainbow-connecting coloring with colors 0..q-1 by seeded
    repair; returns it (or None) and the number of full checks made.

    Start from random colors; at each step, take the first failing pair
    u, v, walk one random shortest u-v path down the distance table, and
    give its edges distinct random colors. q is at least the diameter,
    so every shortest path fits. The deadline is checked before every
    step.
    """
    rng = random.Random(zlib.crc32(to_graph6(g).encode()))
    adjacency = edge_adjacency(g)
    colors = [rng.randrange(q) for _ in range(g.m)]
    checks = 0
    for _ in range(_WITNESS_STEPS):
        if deadline is not None and time.monotonic() >= deadline:
            break
        checks += 1
        failing = first_failing_pair(adjacency, [1 << c for c in colors])
        if failing is None:
            return EdgeColoring(dict(zip(g.edge_list(), colors))), checks
        dist_to_v = distances[failing.v]
        path = []
        w = failing.u
        while dist_to_v[w]:
            w, e = rng.choice(
                [(x, e) for x, e in adjacency[w] if dist_to_v[x] < dist_to_v[w]]
            )
            path.append(e)
        for e, c in zip(path, rng.sample(range(q), len(path))):
            colors[e] = c
    return None, checks


def rc_exact(
    g: Graph,
    budget: Budget | None = None,
    prune: bool = True,
    *,
    distances: list[list[int]] | None = None,
) -> ExactResult:
    """Rainbow connection number with an optimal witness coloring.

    Exact status means a passing witness at the value plus a fully
    exhausted search one color below (or the value equals the lower
    bound). When the budget stops the deepening, the seeded witness
    search (pruned search only) tries the level where it stopped; a miss
    yields a lower bound instead. Under a budget the witness can thus
    differ from the plain search's first satisfying leaf.

    distances is g's all-pairs distance table (see distance_table), for
    callers that already built it; it is computed here when not given.
    """
    started = time.monotonic()
    budget = budget or Budget()
    deadline = None if budget.max_seconds is None else started + budget.max_seconds
    if distances is None:
        distances = distance_table(g)
    if distances and -1 in distances[0]:
        raise ValueError("rc is defined for connected graphs only")
    if g.m == 0:
        # single vertex: the empty coloring is vacuously rainbow connected
        return ExactResult(
            ExactStatus.EXACT,
            0,
            EdgeColoring({}),
            SearchStats(0, time.monotonic() - started),
        )
    lb = _lower_bound(distances)
    total_nodes = leaf_checks = learned_pairs = witness_checks = jumps = 0
    last_refuted: int | None = None
    q = lb

    def stats() -> SearchStats:
        return SearchStats(
            total_nodes,
            time.monotonic() - started,
            leaf_checks,
            learned_pairs,
            witness_checks,
            jumps,
        )

    while True:
        # what is left of the budget; a spent one gives up before any node
        level_budget = Budget(
            None if budget.max_nodes is None else budget.max_nodes - total_nodes,
            None if deadline is None else deadline - time.monotonic(),
        )
        res = rc_decision(g, q, level_budget, prune, distances=distances)
        total_nodes += res.nodes
        leaf_checks += res.leaf_checks
        learned_pairs += res.learned_pairs
        jumps += res.jumps
        if res.status is DecisionStatus.SAT:
            return ExactResult(ExactStatus.EXACT, q, res.coloring, stats())
        if res.status is DecisionStatus.UNSAT:
            last_refuted = q
            q += 1
            # a connected graph always admits the all-distinct coloring
            if q > g.m:
                raise RuntimeError("deepening ran past the trivial upper bound")
            continue
        break

    if prune:
        # the budget stopped the deepening at level q
        witness, witness_checks = _seeded_witness(g, q, distances, deadline)
        if witness is not None:
            return ExactResult(ExactStatus.EXACT, q, witness, stats())
    if last_refuted is not None:
        return ExactResult(ExactStatus.LOWER_BOUND_ONLY, last_refuted + 1, None, stats())
    return ExactResult(ExactStatus.BUDGET_EXHAUSTED, lb, None, stats())
