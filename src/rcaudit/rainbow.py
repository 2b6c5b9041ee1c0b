"""Rainbow-connectivity checking.

A path is rainbow when its edges carry pairwise distinct colors; a
colored graph is rainbow connected when every vertex pair has a rainbow
path. One search, _search, runs breadth first from a source over
(vertex, used-color-set) states, recording each state's parent and
stopping once every target is reached. Three entry points answer three
questions with it, each scanning the sources in order and answering
with the lexicographically first pair that has no rainbow path:

- first_failing_pair, the solver's verdict: the exact solver calls it at
  each leaf it reaches and at each step of its seeded witness search. It
  works on the graph's edge-indexed adjacency (edge_adjacency, built
  once per graph) and one color bit per edge, and walks back no witness.
- failing_pair, a coloring's verdict: the construction checks its
  finished coloring with it. It first settles every pair joined by an
  edge or a rainbow 2-path with no search (_two_path_cover, on per-color
  neighbor masks), which on a graph of diameter 2 is usually every pair,
  and runs first_failing_pair's scan only on the pairs left. The exact
  solver's level search checks its first dive with the same verdict
  (_verdict, on the solver's relabeled graph). The checks
  at the solver's leaves skip that pass: their colorings fail often,
  and on the pairs the pass leaves, so it costs them more than it saves.
- is_rainbow_connected, the certificate, in a scan of its own: it walks
  each pair's witness back from its source's parent map, for
  `rcaudit verify`.

States are expanded in nondecreasing color-set size. They do not track
visited vertices: any repeated vertex on a distinct-color walk could be
cut out, giving a shorter distinct-color walk, so the first walk
reaching a target is necessarily a simple path. Color sets are Python
ints used as bit sets over a dense re-indexing of the color ids, which
handles any number of colors with one representation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

from .graphs import Graph, GraphFormatError, _bit_positions

__all__ = [
    "FailingPair",
    "edge_adjacency",
    "edge_color_bits",
    "first_failing_pair",
    "failing_pair",
    "is_rainbow_connected",
    "parse_coloring",
    "coloring_to_text",
]

# per vertex, (neighbor, edge index) pairs with neighbors ascending
Adjacency = tuple[tuple[tuple[int, int], ...], ...]
# a search state: (vertex, bit set of the colors used to reach it)
State = tuple[int, int]
# a search's parent map: the state each state was first reached from
Parents = dict[State, State | None]
# an edge coloring: each key is an edge (u, v) with u < v, each color is
# nonnegative. Nothing checks that contract; the library's own colorings
# keep it. parse_coloring is the checked way in from text (it rejects
# non-edges, loops among them, negative colors and duplicates, and orders
# each key), and edge_color_bits checks that a coloring is total on its
# graph.
Coloring = dict[tuple[int, int], int]
# a rainbow certificate: one witness path per vertex pair (u, v), u < v
Certificate = dict[tuple[int, int], tuple[int, ...]]


class FailingPair(NamedTuple):
    """Vertex pair with no rainbow path; u < v."""

    u: int
    v: int


def edge_adjacency(g: Graph) -> Adjacency:
    """Per vertex, its (neighbor, edge index) pairs, neighbors ascending.

    Edge indices are positions in g.edge_list(); the per-edge color bits
    that the searches below take are listed in that order. That list is
    sorted, which is what puts each vertex's neighbors in ascending order
    (see _adjacency).
    """
    return _adjacency(g.n, g.edge_list())


def _adjacency(n: int, edges: Sequence[tuple[int, int]]) -> Adjacency:
    """Per vertex of 0..n-1, its (neighbor, edge index) pairs over the
    sorted edge list edges, pairs (u, v) with u < v. Each edge is added
    to its ends in list order; the sort puts a vertex x's edges (u, x),
    ascending in u < x, before its edges (x, v), ascending in v, so its
    neighbors come out ascending."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        rows[u].append((v, i))
        rows[v].append((u, i))
    return tuple(map(tuple, rows))


def edge_color_bits(g: Graph, coloring: Coloring) -> list[int]:
    """One color bit per edge of g.edge_list(), the color ids re-indexed
    densely. Raises ValueError unless coloring colors exactly the edges
    of g, naming the lexicographically first edge it misses or, failing
    that, the first non-edge it colors."""
    edges = g.edge_list()
    for e in edges:
        if e not in coloring:
            raise ValueError(f"coloring is not total: edge {e} has no color")
    if len(coloring) > len(edges):
        extra = min(e for e in coloring if not g.has_edge(*e))
        raise ValueError(f"coloring assigns a color to non-edge {extra}")
    index = {c: i for i, c in enumerate(sorted(set(coloring.values())))}
    return [1 << index[coloring[e]] for e in edges]


def _two_path_cover(n: int, colors: Coloring) -> list[int] | None:
    """Per vertex u of a graph on n vertices colored by colors (a total
    coloring), the mask of the vertices u reaches by an edge or by a
    rainbow 2-path, u's own bit included; None when every mask holds
    every vertex, that is, when every pair has an edge or a rainbow
    2-path.

    Per vertex and color it keeps the mask of the neighbors over edges
    of that color. A 2-path u-w-x is rainbow when its edges differ in
    color, so u reaches through its neighbor w, over an edge of color c,
    exactly w's neighbors over the other colors: w's row less its mask
    for c, which holds u. One walk over the edges gives each edge (a, b)
    of color c that mask at both ends: a gets b's row less b's mask for
    c, and b gets the mirror.
    """
    by_color: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), c in colors.items():
        masks = by_color[a]
        masks[c] = masks.get(c, 0) | 1 << b
        masks = by_color[b]
        masks[c] = masks.get(c, 0) | 1 << a
    # the per-color masks of a vertex are disjoint, so they sum to its row
    rows = [sum(masks.values()) for masks in by_color]
    cover = [row | 1 << u for u, row in enumerate(rows)]
    for (a, b), c in colors.items():
        cover[a] |= rows[b] ^ by_color[b][c]
        cover[b] |= rows[a] ^ by_color[a][c]
    return None if cover.count((1 << n) - 1) == n else cover


def _search(
    adjacency: Adjacency,
    bits: list[int],
    source: int,
    targets: Sequence[int],
) -> tuple[Parents, dict[int, State]]:
    """Breadth-first search over (vertex, color-set) states from source.

    Returns the parent of every state seen, and for each target reached
    the first state that reached it. A target is marked when a state
    first reaches it (the queue is FIFO, so that state is also the first
    one at the target to be expanded), and the search stops once every
    target is reached. Neighbors are expanded in ascending order, so the
    result is deterministic.
    """
    wanted = [False] * len(adjacency)
    for t in targets:
        wanted[t] = True
    left = len(targets)
    start = (source, 0)
    parent: Parents = {start: None}
    first: dict[int, State] = {}
    queue = [start]
    for state in queue:  # the loop also visits states appended meanwhile
        v, mask = state
        for w, e in adjacency[v]:
            b = bits[e]
            if mask & b:
                continue
            nxt = (w, mask | b)
            if nxt in parent:
                continue
            parent[nxt] = state
            queue.append(nxt)
            if wanted[w]:
                wanted[w] = False
                first[w] = nxt
                left -= 1
                if not left:
                    return parent, first
    return parent, first


def _walk_back(parent: Parents, state: State | None) -> tuple[int, ...]:
    """The vertices of the walk that first reached state, from the source."""
    path = []
    while state is not None:
        path.append(state[0])
        state = parent[state]
    return tuple(reversed(path))


def first_failing_pair(
    adjacency: Adjacency,
    bits: list[int],
    known: list[int] | None = None,
) -> FailingPair | None:
    """Lexicographically first vertex pair with no rainbow path, or None
    when the coloring is rainbow connected.

    adjacency comes from edge_adjacency(g) and bits[i] is the color bit of
    edge i (distinct colors must have distinct single bits). Each source
    in turn is searched for its higher-numbered vertices: the search
    stops once it has reached every one, and the scan stops at the first
    source that cannot. No witness is walked back here.

    known, when given, holds per vertex u a mask of higher vertices v
    whose pair (u, v) the caller knows to have a rainbow path (the bits
    of u and of lower vertices are ignored); those pairs are not
    searched for, and a source left with no target is not searched.
    Fewer targets only let a source's search stop sooner, once the rest
    are reached, so it leaves unreached exactly the targets the full
    search leaves unreached. The answer is therefore the full scan's,
    provided every pair in known does have a rainbow path: such a pair
    is never unreached.
    """
    n = len(adjacency)
    for s in range(n - 1):
        targets: Sequence[int] = range(s + 1, n)
        if known is not None:
            # the bits of s + 1 .. n - 1 that known[s] leaves
            left = ((1 << n) - (2 << s)) & ~known[s]
            if not left:
                continue
            targets = _bit_positions(left)
        first = _search(adjacency, bits, s, targets)[1]
        if len(first) < len(targets):
            return FailingPair(s, next(t for t in targets if t not in first))
    return None


def failing_pair(g: Graph, coloring: Coloring) -> FailingPair | None:
    """What first_failing_pair(edge_adjacency(g), edge_color_bits(g,
    coloring)) returns, with the same errors for a coloring that is not
    total on g (see _verdict)."""
    bits = edge_color_bits(g, coloring)
    return _verdict(g.n, coloring, bits, lambda: edge_adjacency(g))


def _verdict(
    n: int, colors: Coloring, bits: list[int], adjacency: Callable[[], Adjacency]
) -> FailingPair | None:
    """What first_failing_pair(adjacency(), bits) returns, for a graph on
    n vertices with a total coloring given twice: colors by edge, and
    bits[i] as the color bit of edge i of adjacency().

    Pairs joined by an edge or a rainbow 2-path (_two_path_cover) are
    settled first, with no search. The rainbow search runs only when a
    pair is left, on adjacency() built only then, and as
    first_failing_pair's known it skips the settled pairs, which have
    rainbow paths, so its answer is the full scan's.
    """
    cover = _two_path_cover(n, colors)
    if cover is None:
        return None
    return first_failing_pair(adjacency(), bits, cover)


def is_rainbow_connected(g: Graph, coloring: Coloring) -> Certificate | FailingPair:
    """Certificate with a witness per pair, or the failing pair that
    first_failing_pair returns, on any graph. Use failing_pair when only
    the verdict is needed. The scan is first_failing_pair's; each
    target's witness is walked back from its source's parent map."""
    bits = edge_color_bits(g, coloring)
    adjacency = edge_adjacency(g)
    witnesses: Certificate = {}
    n = g.n
    for s in range(n - 1):
        targets = range(s + 1, n)
        parent, first = _search(adjacency, bits, s, targets)
        for t in targets:
            if t not in first:
                return FailingPair(s, t)
            witnesses[(s, t)] = _walk_back(parent, first[t])
    return witnesses


def parse_coloring(text: str, g: Graph) -> Coloring:
    """Parse the "u v color" line format against a host graph. Non-edges
    (loops among them), negative colors and duplicate assignments, in
    either order of the ends, are errors; each key is stored as (u, v)
    with u < v. Totality is checked by the verifier, not here."""
    colors: Coloring = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"coloring: line {lineno}: expected 'u v color', got {stripped!r}"
            )
        try:
            u, v, c = (int(p) for p in parts)
        except ValueError:
            raise GraphFormatError(
                f"coloring: line {lineno}: expected integers, got {stripped!r}"
            ) from None
        if not g.has_edge(u, v):
            raise GraphFormatError(
                f"coloring: line {lineno}: ({u}, {v}) is not an edge"
            )
        if c < 0:
            raise GraphFormatError(f"coloring: line {lineno}: negative color {c}")
        key = (u, v) if u < v else (v, u)
        if key in colors:
            raise GraphFormatError(
                f"coloring: line {lineno}: duplicate assignment for edge {u} {v}"
            )
        colors[key] = c
    return colors


def coloring_to_text(coloring: Coloring) -> str:
    lines = [f"{u} {v} {c}" for (u, v), c in sorted(coloring.items())]
    return "\n".join(lines) + ("\n" if lines else "")
