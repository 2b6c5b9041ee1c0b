"""Independent brute-force references used to check the package.

Everything here is deliberately naive: exhaustive simple-path
enumeration, a certificate check that walks every witness edge by edge,
exhaustive coloring enumeration with no symmetry breaking, a
restricted-growth search with no pruning that counts each color's uses
at an edge's ends by scanning every earlier edge, a queue breadth-first
search per vertex for the diameter, union-find components, induced
subgraphs rebuilt from the edge list, degree sums over every nonadjacent
pair, and the seeded repair loop with a full check of every pair at each
step.
Set-bit positions come from the lowest-set-bit loop, distance rows from
the layers of a flood over neighbor masks, and the exact search's order
from sorting its edges as 4-tuples; these three read g through has_edge
and degree only, which go through no set-bit iteration.
None of it shares code with the search paths it validates: it imports
nothing from rcaudit.exact or rcaudit.rainbow, and reads a coloring as
a plain dict from edges (a, b), a < b, to colors.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from itertools import product

from rcaudit import Graph, to_graph6

Coloring = dict[tuple[int, int], int]


def all_simple_paths(g: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """Every simple s-t path, by DFS with an explicit visited set."""
    out: list[tuple[int, ...]] = []

    def walk(v: int, used: set[int], acc: list[int]) -> None:
        if v == t:
            out.append(tuple(acc))
            return
        for w in g.neighbors(v):
            if w not in used:
                used.add(w)
                acc.append(w)
                walk(w, used, acc)
                acc.pop()
                used.remove(w)

    walk(s, {s}, [s])
    return out


def path_is_rainbow(coloring: Coloring, path: tuple[int, ...]) -> bool:
    colors = [coloring[(a, b) if a < b else (b, a)] for a, b in zip(path, path[1:])]
    return len(set(colors)) == len(colors)


def has_rainbow_path_brute(g: Graph, coloring: Coloring, s: int, t: int) -> bool:
    return any(path_is_rainbow(coloring, p) for p in all_simple_paths(g, s, t))


def certificate_violation(
    g: Graph, coloring: Coloring, witnesses: dict[tuple[int, int], tuple[int, ...]]
) -> str | None:
    """The first violation of a rainbow certificate, or None when it holds:
    every pair u < v, and no other key, has a witness from u to v that is
    a simple path over edges of g and repeats no color."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    for pair in pairs:
        if pair not in witnesses:
            return f"pair {pair} has no witness"
    extra = sorted(set(witnesses) - set(pairs))
    if extra:
        return f"unexpected witness for pair {extra[0]}"
    for pair in pairs:
        path = witnesses[pair]
        if len(path) < 2 or (path[0], path[-1]) != pair:
            return f"pair {pair}: witness endpoints do not match"
        if len(set(path)) != len(path):
            return f"pair {pair}: witness repeats a vertex"
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return f"pair {pair}: ({a}, {b}) is not an edge"
        if not path_is_rainbow(coloring, path):
            return f"pair {pair}: witness repeats a color"
    return None


def first_failing_pair_brute(
    g: Graph, coloring: Coloring
) -> tuple[int, int] | None:
    """Lexicographically first pair with no rainbow path, None if rainbow
    connected."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not has_rainbow_path_brute(g, coloring, u, v):
                return (u, v)
    return None


def first_pair_without_rainbow_walk(
    g: Graph, colors: Coloring
) -> tuple[int, int] | None:
    """Lexicographically first pair u < v that no walk with pairwise
    distinct edge colors joins, None if there is none; colors maps each
    edge (a, b), a < b, to its color. A shortest such walk is a rainbow
    path, so this is the first pair with no rainbow path. From each u in
    turn, a queue search over (vertex, frozenset of colors used) states
    runs until every v > u is reached or no state is left."""
    for u in range(g.n):
        wanted = set(range(u + 1, g.n))
        start = (u, frozenset())
        seen = {start}
        queue = deque([start])
        while queue and wanted:
            v, used = queue.popleft()
            for w in g.neighbors(v):
                c = colors[(v, w) if v < w else (w, v)]
                state = (w, used | {c})
                if c not in used and state not in seen:
                    seen.add(state)
                    queue.append(state)
                    wanted.discard(w)
        if wanted:
            return u, min(wanted)
    return None


def seeded_repair_full_scan(
    g: Graph, q: int
) -> tuple[Coloring | None, int]:
    """The seeded witness search's repair loop, up to 30 checks, with
    every pair checked from scratch at each one; returns the passing
    coloring (or None) and the number of checks made.

    The generator is seeded with the crc32 of g's graph6 string and
    draws, in this order: a color in 0..q-1 per edge of g.edge_list();
    then per step that fails on its first pair u, v, one choice per edge
    of a shortest u-v path, walked from u among the neighbors one step
    closer to v (ascending, as (neighbor, edge position) pairs), and a
    sample of distinct colors for the path's edges, in walk order.
    """
    edges = g.edge_list()
    position = {e: i for i, e in enumerate(edges)}
    rng = random.Random(zlib.crc32(to_graph6(g).encode()))
    colors = [rng.randrange(q) for _ in edges]
    for check in range(1, 31):
        coloring = dict(zip(edges, colors))
        failing = first_pair_without_rainbow_walk(g, coloring)
        if failing is None:
            return coloring, check
        u, v = failing
        dist = {v: 0}
        queue = [v]
        for x in queue:  # the loop also visits vertices appended meanwhile
            for y in g.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        path = []
        w = u
        while dist[w]:
            w, e = rng.choice([
                (x, position[(w, x) if w < x else (x, w)])
                for x in g.neighbors(w)
                if dist[x] < dist[w]
            ])
            path.append(e)
        for e, c in zip(path, rng.sample(range(q), len(path))):
            colors[e] = c
    return None, 30


def _pair_paths_as_edges(
    g: Graph, edges: list[tuple[int, int]]
) -> list[list[tuple[int, ...]]]:
    """Per vertex pair, every simple path as positions in edges."""
    edge_index = {e: i for i, e in enumerate(edges)}
    table = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            paths = []
            for p in all_simple_paths(g, u, v):
                paths.append(
                    tuple(
                        edge_index[(a, b) if a < b else (b, a)]
                        for a, b in zip(p, p[1:])
                    )
                )
            table.append(paths)
    return table


def naive_rc(g: Graph) -> int:
    """Smallest q for which some (unrestricted) q-coloring rainbow-connects
    the graph: try every one of the q**m colorings. Assumes g connected."""
    m = g.m
    if m == 0:
        return 0
    pair_paths = _pair_paths_as_edges(g, g.edge_list())
    q = 1
    while True:
        for assignment in product(range(q), repeat=m):
            ok = True
            for paths in pair_paths:
                if not any(
                    len({assignment[e] for e in p}) == len(p) for p in paths
                ):
                    ok = False
                    break
            if ok:
                return q
        q += 1
        assert q <= m, "no coloring found up to the trivial bound"


def plain_canonical_search(
    g: Graph, q: int, edge_order: list[tuple[int, int]]
) -> tuple[Coloring | None, int]:
    """Restricted-growth search for a rainbow-connecting q-coloring, with
    no pruning: edge i of edge_order tries the colors 0..min(1 + the
    largest earlier color, q - 1), each try one node, those on the fewest
    earlier edges that share an end with edge i first and ties in
    ascending order; every full coloring is checked against every pair's
    simple paths. Returns the first coloring that passes, or None, and
    the nodes tried.
    """
    pair_paths = _pair_paths_as_edges(g, edge_order)
    m = len(edge_order)
    colors = [0] * m
    nodes = 0
    touching = [
        [j for j in range(i) if set(edge_order[j]) & set(edge_order[i])] for i in range(m)
    ]

    def rainbow_connected() -> bool:
        return all(
            any(len({colors[e] for e in p}) == len(p) for p in paths)
            for paths in pair_paths
        )

    def extend(i: int, largest: int) -> bool:
        nonlocal nodes
        if i == m:
            return rainbow_connected()
        uses = [colors[j] for j in touching[i]]
        allowed = range(min(largest + 1, q - 1) + 1)
        for c in sorted(allowed, key=lambda c: (uses.count(c), c)):
            nodes += 1
            colors[i] = c
            if extend(i + 1, max(largest, c)):
                return True
        return False

    found = extend(0, -1)
    return (dict(zip(edge_order, colors)) if found else None), nodes


def diameter(g: Graph) -> int:
    """Largest distance between two vertices of a connected g, by a queue
    breadth-first search from every vertex over g.neighbors."""
    far = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = [s]
        for v in queue:  # the loop also visits vertices appended meanwhile
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) < g.n:
            raise ValueError("diameter of a disconnected graph is undefined")
        far = max(far, *dist.values())
    return far


def union_find_components(n: int, edges) -> list[tuple[int, ...]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=min)


def induced_subgraph(g: Graph, kept) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced by the vertices kept, built by Graph() from
    the edges of g with both ends kept, and the id map: new id i is the
    i-th smallest kept id."""
    ids = tuple(sorted(set(kept)))
    new_id = {v: i for i, v in enumerate(ids)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edge_list() if u in new_id and v in new_id]
    return Graph(len(ids), edges), ids


def degree_stats_brute(g: Graph) -> tuple[int, int | None]:
    """Minimum degree, and the minimum of deg(u) + deg(v) over every
    nonadjacent pair (None when there is none), counted off the edge
    list."""
    edges = set(g.edge_list())
    degree = [0] * g.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    sums = [
        degree[u] + degree[v]
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in edges
    ]
    return min(degree), min(sums, default=None)


def bit_positions_by_lowest_bit(row: int) -> list[int]:
    """Positions of the set bits of row >= 0, ascending, by peeling off
    the lowest set bit, row & -row, until none is left."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def _edges_by_has_edge(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


def distance_rows_by_layers(g: Graph) -> list[list[int]]:
    """Per source s, the distance from s to every vertex, -1 where s does
    not reach it, read off the layers of a breadth-first flood over
    neighbor masks: layer 0 is s, and layer d + 1 is the OR of the masks
    of layer d's vertices less every vertex of an earlier layer."""
    masks = [0] * g.n
    for u, v in _edges_by_has_edge(g):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    table = []
    for s in range(g.n):
        dist = [-1] * g.n
        layer = seen = 1 << s
        d = 0
        while layer:
            reach = 0
            for v in range(g.n):
                if layer >> v & 1:
                    dist[v] = d
                    reach |= masks[v]
            layer = reach & ~seen
            seen |= layer
            d += 1
        table.append(dist)
    return table


def search_order_by_sorting(g: Graph) -> tuple[list[int], list[tuple[int, int]], tuple]:
    """The exact search's vertex order, edge order and ranked adjacency,
    by sorting: vertices ranked by (degree, sum of neighbor degrees,
    label); edges (u, v), u < v, sorted as 4-tuples (lower rank, higher
    rank, u, v); and per ranked vertex its (ranked neighbor, edge index)
    pairs, added to both ends in edge order, so neighbors come ascending."""
    edges = _edges_by_has_edge(g)
    degree = [g.degree(v) for v in range(g.n)]
    around = [0] * g.n
    for u, v in edges:
        around[u] += degree[v]
        around[v] += degree[u]
    order = sorted(range(g.n), key=lambda v: (degree[v], around[v], v))
    rank = sorted(range(g.n), key=order.__getitem__)
    ranked = sorted(
        (rank[u], rank[v], u, v) if rank[u] < rank[v] else (rank[v], rank[u], u, v)
        for u, v in edges
    )
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (a, b, _, _) in enumerate(ranked):
        rows[a].append((b, i))
        rows[b].append((a, i))
    return order, [(u, v) for _, _, u, v in ranked], tuple(map(tuple, rows))
