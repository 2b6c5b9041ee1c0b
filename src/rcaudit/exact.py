"""Exact rainbow connection number by iterative deepening.

For q = lower bound, lower bound + 1, ... search canonical colorings with
at most q colors for one that rainbow-connects the graph. Canonical means
restricted growth over a fail-first edge order (Haralick and Elliott
1980; see _search_order): edge i may use a color at most one above the
largest color on earlier edges, which removes color relabelings without
losing any coloring up to renaming. The order depends on no color, so
this and every cut below stay sound. The exhausted search at q - 1
doubles as the optimality certificate for a hit at q.

Each edge tries its allowed colors fewest-used-first (_value_order):
by how many earlier edges at its two ends carry the color, ties to the
lower color (least-constraining value; Haralick and Elliott 1980, Frost
and Dechter 1995). A rainbow path repeats no color, so a color rare at
the edge's ends leaves the most 2-edge paths through it rainbow. This
value order is a permutation of the allowed colors that depends only on
the colors of earlier edges. Restricted growth and the backjump argument (see
_search_level) speak of which colors an edge may take, never of the
order it tries them, so every verdict stays the same, and only the
first satisfying leaf can change.

Pruning rests on prune tables of tracked pairs. A rainbow path with q
colors has at most q edges, so a pair fails exactly when all of those
paths repeat a color, and a partial coloring in which every path of one
tracked pair repeats a color is cut off. The tracked pairs are:

- Preloaded pairs: every pair at distance q, whose paths of at most q
  edges are its shortest paths. A pair of k paths is skipped when
  k > _PATH_CAP or the level's total would pass _PRELOAD_CAP; a skipped
  pair only weakens the prune, never its soundness.
- Learned pairs: when a leaf fails on a pair, it is added (a learned
  nogood) with every path dead, so it never fails at a later leaf of the
  same level: the tables cut it off first.

Pair ids follow preload order, then learn order, and each pair counts
its live paths. _prune_tables picks one of two kinds of tables:

- Path tables, at q != 2: one path primitive, _paths_within, a DFS over
  the edge-indexed adjacency, lists each pair's paths as sorted edge
  tuples. A path is listed at each of its edges but its first in search
  order: it can die only where an earlier edge of it holds the depth's
  color, so the scan for that edge stops at the depth's own. A dead
  path's blame word holds the edge it died at and its partner, the
  earlier edge of the same color; the higher bit names the depth whose
  unassignment revives it.
- Mask tables, at q = 2: the paths of a pair u, v at distance 2 are
  u-w-v for its common neighbors w, so none is listed. Per color, each
  vertex keeps the mask of its neighbors over edges of that color;
  giving edge (a, b) color c kills a path of the tracked pair (x, b) for
  each x in a's mask for c, and of (a, y) for each y in b's. A preloaded
  pair starts with popcount(N(u) & N(v)) live paths, and a learned one
  (at distance 2, since adjacent pairs never fail) with none.

Once every path of a pair is dead, no completion of the partial coloring
rainbow-connects the pair, and the colors at its blame, the edges of
all of its dead paths, are the whole reason. When several pairs die at
one edge the lowest id is charged, which the path scan does too, since
a pair's paths are contiguous; so both kinds give one search tree at
q = 2. Each depth collects the blamed earlier depths of its failed
colors (a conflict set), and when every color at a depth has failed,
the search jumps straight back to the deepest depth in the set
(conflict-directed backjumping, Prosser 1993); a failing leaf jumps to
the deepest depth its learned pair blames. Pairs with more than
_PATH_CAP short paths are not learned and blame every depth, which
steps back one depth.

A leaf checks only the pairs that can fail there. Adjacent pairs have
their edge, and every tracked pair still has a live path, which is
rainbow once every edge is assigned; the leaf check skips both (see
first_failing_pair's known), which leaves its answer, the
lexicographically first failing pair, as the full check gives it.

Both cuts and the jumps only skip solution-free subtrees, so the first
satisfying leaf in canonical order, and with it every value and
witness, is the one a plain restricted-growth search in the same edge
and color order finds.

Many levels end at the first leaf: no color fails on the way down and
the leaf passes. Their tables cut nothing, so before each level a
first descent (_first_descent) makes that dive with no table, giving
each depth the first color of the same value order, and checks the
whole coloring with rainbow's coloring verdict. When it passes, the
level is recorded as the search would record it, SAT after m nodes and
one leaf check; otherwise _search_level runs.

rc_exact is the one entry. It checks the graph and takes its lower
bound, max(diameter, 1), from the graph itself when it is 1 (complete)
or 2 (every closed 2-ball covers the graph); only a higher bound reads
the all-pairs distance table. It builds one search state, the order,
the ranked edge ends and the adjacency relabeled by it with per vertex
its neighbor mask, at the first level it searches, runs every level
through the first descent and, when that fails, _search_level, and
records each level's verdict and work in stats.levels: a witness at q
plus the UNSAT record of every level below it is the evidence for
rc = q. The descent and mask tables read nothing more. The first
path-table level adds to the state the distance table relabeled by
rank, building g's table then if the bound did not; the seeded witness
search reuses that table or builds it at its first failing pair. So the
table is built at most once per call, and a graph of diameter 2 whose
levels all end in mask tables or the descent builds none.

Node and wall-time budgets cap the deepening so corpus sweeps never
hang; one deadline covers every level. When a budget stops the
deepening at level q, a seeded repair search (_seeded_witness), capped
by its own step count alone, still looks for a q-coloring: every level
below q is refuted or lies below max(diameter, 1), so a coloring that
passes a check of every pair proves rc = q. Its random generator is seeded with
the crc32 of the graph's graph6 string, so reruns repeat it in any
process. A give-up it does not close is reported as such, never as
unsatisfiability.
"""

from __future__ import annotations

import random
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import add

from .graphs import Graph, _bit_positions, _two_balls_cover, distance_table, is_complete, to_graph6
from .rainbow import Adjacency, Coloring, _adjacency, _verdict, edge_adjacency, first_failing_pair

__all__ = [
    "Budget",
    "SearchStats",
    "DecisionStatus",
    "DecisionResult",
    "ExactStatus",
    "ExactResult",
    "rc_lower_bound",
    "rc_exact",
]


@dataclass(frozen=True)
class Budget:
    """Caps on a single search; None means unlimited.

    Both cap the exhaustive search only: the seeded witness search that
    runs once it gives up takes its fixed number of steps whatever is
    left. Both are checked before a node is counted, the clock before
    the first node and then every 1024 nodes, so a give-up counts only
    the nodes it expanded.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None


class DecisionStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class DecisionResult:
    """One deepening level: the search for a coloring with at most q
    colors, its verdict (with the coloring when SAT), and its work."""

    q: int
    status: DecisionStatus
    coloring: Coloring | None
    nodes: int
    leaf_checks: int = 0  # first_failing_pair calls at the search's leaves
    learned_pairs: int = 0  # failing leaf pairs added to the prune tables
    jumps: int = 0  # conflict-directed jumps that skip at least one depth


@dataclass(frozen=True)
class SearchStats:
    """Work of one rc_exact call: one record per deepening level searched,
    in order of q from max(diameter, 1), and the seeded witness search's
    first_failing_pair calls. Every level but the last is UNSAT. The
    other counters are sums over the levels."""

    levels: tuple[DecisionResult, ...]
    witness_checks: int = 0

    nodes = property(lambda self: sum(r.nodes for r in self.levels))
    leaf_checks = property(lambda self: sum(r.leaf_checks for r in self.levels))
    learned_pairs = property(lambda self: sum(r.learned_pairs for r in self.levels))
    jumps = property(lambda self: sum(r.jumps for r in self.levels))


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
    witness: Coloring | None
    stats: SearchStats


def _bound_and_table(g: Graph) -> tuple[int, list[list[int]] | None]:
    """max(diameter, 1) of g once g is known to be nonempty and connected,
    and g's distance table when the bound needed it.

    A complete graph has bound 1 and one whose closed 2-balls all cover
    it has bound 2, both read off the graph with no table; only a bound
    above 2 comes from the table, which also shows connectivity.
    """
    if g.n == 0:
        raise ValueError("rc of the empty graph is undefined")
    if is_complete(g):
        return 1, None
    if _two_balls_cover(g):
        return 2, None
    distances = distance_table(g)
    if distances is None:
        raise ValueError("rc is defined for connected graphs only")
    return max(map(max, distances)), distances


def rc_lower_bound(g: Graph) -> int:
    """max(diameter, 1): every rainbow path between a diametral pair needs
    at least diameter distinct colors. Non-complete graphs have diameter
    at least 2, so this already exceeds 1 exactly when it should."""
    return _bound_and_table(g)[0]


# a pair with more paths of at most q edges than this is neither
# preloaded into the prune tables nor learned from a failing leaf, so a
# leaf that fails on it steps back one depth. Fewest-used-first colors
# reach leaves that fail on such pairs again and again where the cap is
# low: at 512, gen cex --delta 10 --t 3 took 25 s for 2,000 nodes, 1,378
# of them failing leaves, against 0.4 s and 396 nodes at 2,048
_PATH_CAP = 2048
# paths preloaded at one level, over all pairs at distance q
_PRELOAD_CAP = 8192


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


def _search_order(
    g: Graph,
) -> tuple[list[int], list[tuple[int, int]], Adjacency, list[int], list[tuple[int, int]]]:
    """g's vertices ranked by (degree, sum of neighbor degrees, label), its
    edges in lexicographic order of their ranked ends, its adjacency
    relabeled by rank, neighbors ascending, per ranked vertex the mask of
    its ranked neighbors, and the ranked ends of each edge: vertex r is
    order[r], and edge i is edges[i] with ranked ends pairs[i]."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    degree = list(map(len, nbrs))
    order = sorted(range(g.n), key=lambda v: (degree[v], sum(map(degree.__getitem__, nbrs[v])), v))
    rank = sorted(range(g.n), key=order.__getitem__)
    # the ranked edges (a, b), a < b, in order, off the ranked neighbor masks
    ranked = [sum([1 << rank[w] for w in nbrs[v]]) for v in order]
    pairs = [(a, b) for a, row in enumerate(ranked) for b in _bit_positions(row & -(2 << a))]
    edges = [(u, v) if u < v else (v, u) for u, v in ((order[a], order[b]) for a, b in pairs)]
    return order, edges, _adjacency(g.n, pairs), ranked, pairs


class _SearchState:
    """What the levels of one graph's search read, built once per graph.

    Every level reads g's edges in search order, the ranked ends of each
    (ends[i] = (a, b), a < b, for edge i), its adjacency relabeled by
    rank, and per ranked vertex the mask of its neighbors. Path tables
    also read g's distance table relabeled by rank: ranked_distances
    builds it at the first path-table level, and g's own table with it
    unless it was given, so a graph whose levels all run on mask tables
    or end in the first descent builds neither.
    """

    __slots__ = (
        "g", "order", "edge_order", "ends", "adjacency", "neighbors", "distances", "_ranked"
    )

    def __init__(self, g: Graph, distances: list[list[int]] | None) -> None:
        self.g = g
        self.order, self.edge_order, self.adjacency, self.neighbors, self.ends = _search_order(g)
        self.distances = distances
        self._ranked: list[list[int]] | None = None

    def ranked_distances(self) -> list[list[int]]:
        """g's distance table relabeled by rank."""
        if self._ranked is None:
            if self.distances is None:
                self.distances = distance_table(self.g)
            order, distances = self.order, self.distances
            self._ranked = [[row[w] for w in order] for row in (distances[v] for v in order)]
        return self._ranked


# a level's prune tables on its assignment list: assign(i, c) colors
# depth i and returns 0, or undoes itself and returns the blame of the
# lowest pair id it left without a live path; unassign(j, i) clears
# depths i - 1 down to j; learn(u, v) adds a failing leaf pair u < v and
# returns its blame (None above _PATH_CAP); known[u] masks the higher v
# the leaf check may skip: neighbors, and tracked pairs, which keep a live path
_Tables = tuple[Callable, Callable, Callable, list[int]]


def _prune_tables(state: _SearchState, q: int, assignment: list[int]) -> _Tables:
    return (_mask_tables if q == 2 else _path_tables)(state, q, assignment)


def _path_tables(state: _SearchState, q: int, assignment: list[int]) -> _Tables:
    edges, adjacency, neighbors = state.edge_order, state.adjacency, state.neighbors
    distances = state.ranked_distances()

    # per tracked path its edges, its pair and its blame word (0 while
    # alive); per edge the paths that can die there; per pair its path
    # ids and the number of them still alive
    path_edges: list[tuple[int, ...]] = []
    path_pair: list[int] = []
    blame: list[int] = []
    edge_paths: list[list[int]] = [[] for _ in edges]
    pair_paths: list[range] = []
    alive: list[int] = []
    known = neighbors.copy()
    # pairs above _PATH_CAP, met at preload or at a failing leaf, not
    # enumerated again
    over_cap: set[tuple[int, int]] = set()

    def add_pair(u: int, v: int, paths: list[tuple[int, ...]]) -> int:
        first = len(path_edges)
        pair_id = len(alive)
        alive.append(len(paths))
        pair_paths.append(range(first, first + len(paths)))
        path_edges.extend(paths)
        path_pair.extend([pair_id] * len(paths))
        blame.extend([0] * len(paths))
        for pid, p in enumerate(paths, first):
            for e in p[1:]:
                edge_paths[e].append(pid)
        known[u] |= 1 << v
        return pair_id

    def pair_blame(pair_id: int) -> int:
        depths = 0
        for pid in pair_paths[pair_id]:
            depths |= blame[pid]
        return depths

    total = 0
    for u in range(len(adjacency)):
        for v in range(u + 1, len(adjacency)):
            if distances[u][v] != q:
                continue
            # a pair is preloaded only within both caps, so its listing
            # stops past the smaller; a stop past _PATH_CAP spares learn
            # listing it again
            room = min(_PATH_CAP, _PRELOAD_CAP - total)
            paths = _paths_within(adjacency, u, distances[v], q, room)
            if paths is None:
                if room == _PATH_CAP:
                    over_cap.add((u, v))
                continue
            add_pair(u, v, paths)
            total += len(paths)

    def assign(i: int, c: int) -> int:
        assignment[i] = c
        for pid in edge_paths[i]:
            if blame[pid]:
                continue
            # the path's edges are sorted and the later ones unassigned, so
            # the first edge of color c is i itself unless the path dies here
            for e in path_edges[pid]:
                if assignment[e] == c:
                    break
            if e != i:
                blame[pid] = 1 << i | 1 << e
                pair_id = path_pair[pid]
                alive[pair_id] -= 1
                if not alive[pair_id]:
                    # pair_blame(pair_id) and unassign(i, i + 1), inline
                    depths = 0
                    for pid in pair_paths[pair_id]:
                        depths |= blame[pid]
                    for pid in edge_paths[i]:
                        if blame[pid] >> i == 1:
                            blame[pid] = 0
                            alive[path_pair[pid]] += 1
                    assignment[i] = -1
                    return depths
        return 0

    def unassign(j: int, depth: int) -> None:
        for d in range(depth - 1, j - 1, -1):
            # a path that died at d contains its edge and blames it highest
            for pid in edge_paths[d]:
                if blame[pid] >> d == 1:
                    blame[pid] = 0
                    alive[path_pair[pid]] += 1
            assignment[d] = -1

    def learn(u: int, v: int) -> int | None:
        # levels start at q >= diameter, so every pair has a path of at
        # most q edges; each dies at its first edge that repeats a color
        if (u, v) in over_cap:
            return None
        paths = _paths_within(adjacency, u, distances[v], q, _PATH_CAP)
        if paths is None:
            over_cap.add((u, v))
            return None
        pair_id = add_pair(u, v, paths)
        for pid, p in zip(pair_paths[pair_id], paths):
            seen = 0
            for e in p:
                b = 1 << assignment[e]
                if seen & b:
                    break
                seen |= b
            else:
                raise RuntimeError(f"pair {(u, v)} failed the leaf check but has a rainbow path")
            partner = next(f for f in p if assignment[f] == assignment[e])
            blame[pid] = 1 << e | 1 << partner
        alive[pair_id] = 0
        return pair_blame(pair_id)

    return assign, unassign, learn, known


def _mask_tables(state: _SearchState, q: int, assignment: list[int]) -> _Tables:
    ends, adjacency, neighbors = state.ends, state.adjacency, state.neighbors
    # per vertex its edges as depths
    incident = [0] * len(adjacency)
    for a, row in enumerate(adjacency):
        for _, e in row:
            incident[a] |= 1 << e
    # cm[c][v]: v's neighbors over the assigned edges of color c; per
    # vertex its lower tracked partners and, by partner vertex, the pair
    # ids; per pair its ends and live paths
    cm = [[0] * len(adjacency) for _ in range(q)]
    tracked = [0] * len(adjacency)
    pair_id = [[0] * len(adjacency) for _ in adjacency]
    pairs: list[tuple[int, int]] = []
    alive: list[int] = []
    known = neighbors.copy()

    def add_pair(u: int, v: int, count: int) -> int:
        # only the higher end v tracks the pair: for a middle vertex w,
        # the edge {u, w} comes before {w, v} in the edge order whichever
        # of u, v, w is lowest, so the path u-w-v dies, and revives, only
        # at {w, v}, where it is looked up through tracked[v] and
        # pair_id[v][u]
        p = len(alive)
        pair_id[v][u] = p
        pairs.append((u, v))
        alive.append(count)
        tracked[v] |= 1 << u
        known[u] |= 1 << v
        return p

    def pair_blame(p: int) -> int:
        # the edges of u and of v that meet a common neighbor
        u, v = pairs[p]
        meet = 0
        for w in _bit_positions(neighbors[u] & neighbors[v]):
            meet |= incident[w]
        return (incident[u] | incident[v]) & meet

    # the diameter is at most 2: distance 2 means nonadjacent
    total = 0
    higher = (1 << len(adjacency)) - 1
    for u, row in enumerate(neighbors):
        higher ^= 1 << u
        for v in _bit_positions(higher & ~row):
            count = (row & neighbors[v]).bit_count()
            if count <= _PATH_CAP and total + count <= _PRELOAD_CAP:
                add_pair(u, v, count)
                total += count

    def assign(i: int, c: int) -> int:
        assignment[i] = c
        a, b = ends[i]
        row = cm[c]
        # the paths x-a-b and a-b-y whose other edge has color c
        xs = row[a] & tracked[b]
        ys = row[b] & tracked[a]
        row[a] |= 1 << b
        row[b] |= 1 << a
        dead = -1
        for mask, ids in ((xs, pair_id[b]), (ys, pair_id[a])):
            for w in _bit_positions(mask):
                p = ids[w]
                alive[p] -= 1
                if not alive[p] and (dead < 0 or p < dead):
                    dead = p
        if dead < 0:
            return 0
        unassign(i, i + 1)
        return pair_blame(dead)

    def unassign(j: int, depth: int) -> None:
        for i in range(depth - 1, j - 1, -1):
            # i leaves cm first, so the same paths as at assign(i) revive
            a, b = ends[i]
            row = cm[assignment[i]]
            assignment[i] = -1
            row[a] ^= 1 << b
            row[b] ^= 1 << a
            for mask, ids in ((row[a] & tracked[b], pair_id[b]), (row[b] & tracked[a], pair_id[a])):
                for w in _bit_positions(mask):
                    alive[ids[w]] += 1

    def learn(u: int, v: int) -> int | None:
        if (neighbors[u] & neighbors[v]).bit_count() > _PATH_CAP:
            return None
        return pair_blame(add_pair(u, v, 0))

    return assign, unassign, learn, known


def _value_order(at_a: list[int], at_b: list[int], top: int) -> Sequence[int]:
    """The colors 0..top an edge may take, in the order it tries them:
    fewest uses at its two ends first, ties to the lower color. at_a and
    at_b count per color the assigned edges at the two ends, which are
    the earlier edges there."""
    if top == 0:
        return (0,)
    if top == 1:
        return (1, 0) if at_a[1] + at_b[1] < at_a[0] + at_b[0] else (0, 1)
    uses = list(map(add, at_a, at_b))
    return sorted(range(top + 1), key=uses.__getitem__)


def _first_descent(state: _SearchState, q: int) -> Coloring | None:
    """The coloring of the first leaf a level at q reaches when no color
    fails on the way, if it rainbow-connects g; None otherwise.

    Every depth takes the first color of _value_order under restricted
    growth, with no prune table, and the whole coloring is checked once
    by rainbow's coloring verdict, _verdict, on the ranked graph: the
    2-path pass, then the search on the pairs it leaves. Colors never
    change along the dive, so a path dead at some depth is still dead at
    the leaf. If the leaf coloring rainbow-connects g, no tracked pair
    ever lost all of its paths and no assign failed, so _search_level
    follows the same dive to the same leaf and is SAT there after m
    nodes and one leaf check, learning nothing and jumping nowhere;
    conversely, a level that is SAT after m nodes made exactly this
    dive. Recording that result in its place leaves every value, witness
    and level record as it was.
    """
    n = len(state.adjacency)
    uses = [[0] * q for _ in range(n)]
    colors: list[int] = []
    top = 0
    for a, b in state.ends:
        at_a, at_b = uses[a], uses[b]
        c = _value_order(at_a, at_b, top)[0]
        at_a[c] += 1
        at_b[c] += 1
        colors.append(c)
        if c == top and c < q - 1:
            top += 1
    ranked = dict(zip(state.ends, colors))
    if _verdict(n, ranked, [1 << c for c in colors], lambda: state.adjacency):
        return None
    return dict(zip(state.edge_order, colors))


def _search_level(
    state: _SearchState, q: int, max_nodes: int | None, deadline: float | None
) -> DecisionResult:
    """Find a rainbow-connecting coloring of the ranked graph of state
    with at most q colors, or prove none exists, under what is left of
    rc_exact's budget: at most max_nodes nodes (None: no cap), until
    deadline. The graph is connected with at least one edge and diameter
    at most q, and the budget is not spent on arrival. UNSAT is reported
    only once the canonical space is exhausted; BUDGET_EXHAUSTED counts
    only the nodes expanded.

    The search backjumps on conflicts (Prosser's CBJ; see the module
    docstring for the conflict sets). Once every color at a depth has
    failed, no coloring that keeps the colors of its set can be
    completed: the search jumps to the set's deepest depth j, merges the
    rest of the set into j's, and tries j's next color. An empty set
    proves the level UNSAT. That holds for the canonical color range
    too. The colors above top[i] appear on no edge before depth i, and
    neither does top[i] when it is a fresh color. Swapping one of them
    with top[i] in a whole coloring leaves every earlier depth's color,
    and so the conflict set, as it was; so a coloring that gives depth i
    a color above top[i] fails whenever the fresh color top[i] fails.

    Depth i tries the colors 0..top[i] in _value_order, fewest-used-
    first by their count on the earlier edges at its two ends, ties to
    the lower color; the order is computed when the search descends into
    i, and a jump back to i keeps it, since it depends only on the colors
    of the depths below i. Both arguments above speak of the set of
    colors a depth may take, never of their order, so they hold for any
    order that is a function of the earlier colors: every verdict is the
    one ascending colors give, and only the first satisfying leaf can
    change. The driver keeps per vertex and color the number of assigned
    edges, updated on assign and on unassign, so the order reads two
    rows of q counts, and sorts only when more than two colors are
    allowed.

    One driver runs every level on the tables of _prune_tables: mask
    tables at q = 2, path tables elsewhere; the module docstring says
    why both give one search tree at q = 2.
    """
    edges, ends, adjacency = state.edge_order, state.ends, state.adjacency
    m = len(edges)
    assignment = [-1] * m
    assign, unassign, learn, known = _prune_tables(state, q, assignment)
    # per ranked vertex and color, the assigned edges of that color there
    uses = [[0] * q for _ in adjacency]
    next_color = [0] * (m + 1)  # per depth, the index in tries of its next color
    top = [0] * (m + 1)  # colors allowed at depth i: 0..top[i]
    tries: list[Sequence[int]] = [(0,)] * (m + 1)  # per depth, those colors in the order tried
    # per depth, as a bitset: the earlier depths its failed colors depend on
    conflicts = [0] * (m + 1)
    every_depth = (1 << m) - 1
    nodes = leaf_checks = learned = jumps = 0
    # the budget is checked at the node cap (cap) and, with a deadline,
    # before the first node and then every 1024 nodes (the clock is read)
    cap = (1 << 63) if max_nodes is None else max_nodes
    check_at = 0 if deadline is not None else cap
    i = 0

    def done(status: DecisionStatus, coloring: Coloring | None = None) -> DecisionResult:
        return DecisionResult(q, status, coloring, nodes, leaf_checks, learned, jumps)

    def backjump(depth: int, culprits: int) -> int:
        """Every color at depth failed (at depth m: the full coloring),
        and so does every coloring that keeps the colors of culprits, a
        nonempty set of earlier depths. Unassigns down to the deepest
        culprit j, merges the other culprits into j's set, returns j."""
        nonlocal jumps
        j = culprits.bit_length() - 1
        if j < depth - 1:
            jumps += 1
        for d in range(j, depth):
            a, b = ends[d]
            c = assignment[d]
            uses[a][c] -= 1
            uses[b][c] -= 1
        unassign(j, depth)
        conflicts[j] |= culprits ^ (1 << j)
        return j

    while True:
        if i == m:
            leaf_checks += 1
            failing = first_failing_pair(adjacency, [1 << c for c in assignment], known)
            if failing is None:
                return done(DecisionStatus.SAT, dict(zip(edges, assignment)))
            # every leaf that keeps the blamed depths' colors fails on this pair
            culprits = learn(failing.u, failing.v)
            if culprits is None:
                culprits = every_depth
            else:
                learned += 1
            i = backjump(m, culprits)
            continue
        k = next_color[i]
        if k > top[i]:
            if not conflicts[i]:
                return done(DecisionStatus.UNSAT)
            i = backjump(i, conflicts[i])
            continue
        if nodes >= check_at:
            if nodes >= cap or (deadline is not None and time.monotonic() > deadline):
                return done(DecisionStatus.BUDGET_EXHAUSTED)
            check_at = min(cap, nodes + 1024) if deadline is not None else cap
        next_color[i] = k + 1
        nodes += 1

        c = tries[i][k]
        blamed = assign(i, c)
        if blamed:
            conflicts[i] |= blamed ^ (1 << i)
            continue
        a, b = ends[i]
        uses[a][c] += 1
        uses[b][c] += 1
        # canonical order: a new color is one above the largest so far
        top[i + 1] = t = c + 1 if c == top[i] and c < q - 1 else top[i]
        i += 1
        next_color[i] = 0
        conflicts[i] = 0
        if i < m:
            a, b = ends[i]
            tries[i] = _value_order(uses[a], uses[b], t)


# repair steps of the seeded witness search
_WITNESS_STEPS = 30


def _seeded_witness(
    g: Graph,
    q: int,
    distances: list[list[int]] | None,
) -> tuple[Coloring | None, int]:
    """Look for a rainbow-connecting coloring with colors 0..q-1 by seeded
    repair; returns it (or None) and the number of checks made.

    Start from random colors; at each step, take the first failing pair
    u, v, walk one random shortest u-v path down g's distance table
    (distances, or built at the first failing pair when None), and give
    its edges distinct random colors. q is at least the diameter, so
    every shortest path fits. _WITNESS_STEPS caps the steps; no budget
    and no clock cuts them short.
    """
    rng = random.Random(zlib.crc32(to_graph6(g).encode()))
    adjacency = edge_adjacency(g)
    colors = [rng.randrange(q) for _ in range(g.m)]
    bits = [1 << c for c in colors]
    checks = 0
    for _ in range(_WITNESS_STEPS):
        checks += 1
        failing = first_failing_pair(adjacency, bits)
        if failing is None:
            return dict(zip(g.edge_list(), colors)), checks
        if distances is None:
            distances = distance_table(g)
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
            bits[e] = 1 << c
    return None, checks


def rc_exact(g: Graph, budget: Budget | None = None) -> ExactResult:
    """Rainbow connection number with an optimal witness coloring.

    Exact status means a passing witness at the value plus a fully
    exhausted search one color below (or the value equals the lower
    bound). Without a budget the witness is the decision search's first
    satisfying leaf at the value. When the budget stops the deepening, the
    seeded witness search tries the level where it stopped; a miss yields
    a lower bound instead.

    g's distance table is built at most once, and only when something
    reads it: a lower bound above 2, a path-table level the first descent
    does not solve, or a witness search that walks a path.
    """
    budget = budget or Budget()
    deadline = None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    lb, distances = _bound_and_table(g)
    levels: list[DecisionResult] = []

    def result(
        status: ExactStatus, value: int, witness: Coloring | None, checks: int = 0
    ) -> ExactResult:
        return ExactResult(status, value, witness, SearchStats(tuple(levels), checks))

    if g.m == 0:
        # single vertex: the empty coloring is vacuously rainbow connected
        return result(ExactStatus.EXACT, 0, {})
    q = lb
    state: _SearchState | None = None  # built by the first level searched
    left = budget.max_nodes  # the nodes the next level may expand
    while (left is None or left > 0) and (deadline is None or time.monotonic() < deadline):
        state = state or _SearchState(g, distances)
        # the first descent stands in for the level's first m nodes, so it
        # runs only when they fit the node allowance; the clock was just
        # read, and the dive reads it no more than a level's first 1,024
        # nodes do
        dive = left is None or left >= g.m
        coloring = _first_descent(state, q) if dive else None
        if coloring is None:
            level = _search_level(state, q, left, deadline)
        else:
            level = DecisionResult(q, DecisionStatus.SAT, coloring, g.m, leaf_checks=1)
        levels.append(level)
        if level.status is DecisionStatus.SAT:
            return result(ExactStatus.EXACT, q, level.coloring)
        if level.status is DecisionStatus.BUDGET_EXHAUSTED:
            break
        left = None if left is None else left - level.nodes
        q += 1
        # a connected graph always admits the all-distinct coloring
        if q > g.m:
            raise RuntimeError("deepening ran past the trivial upper bound")

    # the budget stopped the deepening at level q; every level below it
    # is refuted or lies below lb
    if state is not None:
        distances = state.distances
    witness, checks = _seeded_witness(g, q, distances)
    if witness is not None:
        return result(ExactStatus.EXACT, q, witness, checks)
    status = ExactStatus.LOWER_BOUND_ONLY if q > lb else ExactStatus.BUDGET_EXHAUSTED
    return result(status, q, None, checks)
