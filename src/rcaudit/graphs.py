"""Immutable simple graphs plus the structural operations the toolkit
builds on: graph6/edge-list codecs, degree statistics, connected
components, vertex deletion, set contraction, and distances.

Every traversal goes through one breadth-first search, bfs_distances:
components, connectivity, the diameter, the contraction-set check and
the all-pairs distance table all read its distance lists.

Vertices are dense 0-based ids. Operations that drop or merge vertices
return explicit id maps so downstream traces can always name vertices of
the original input. Everything is deterministic: components are ordered
by minimum vertex id, edge lists lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeStats",
    "ComponentPartition",
    "ContractionResult",
    "parse_graph6",
    "to_graph6",
    "parse_edge_list",
    "to_edge_list",
    "degree_stats",
    "bfs_distances",
    "distance_table",
    "components",
    "delete_vertices",
    "contract_set",
    "diameter",
    "is_connected",
    "is_complete",
]

_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list text."""


class Graph:
    """Finite simple undirected graph on vertex ids 0..n-1.

    Instances are immutable after construction and safe to share across
    concurrent tasks; every operation in this module is a pure function.
    """

    __slots__ = ("n", "edges", "_adj", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(normalized)
        self._adj = tuple(frozenset(s) for s in adj)
        self._nbrs = tuple(tuple(sorted(s)) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._nbrs[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self.n else False

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeStats:
    """Minimum degree, and the minimum of deg(u)+deg(v) over nonadjacent
    pairs. The latter is None for complete graphs, where no nonadjacent
    pair exists; callers must skip bound checks instead of substituting a
    numeric default."""

    min_degree: int
    min_degree_sum: int | None


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components as sorted vertex blocks, ordered by minimum
    vertex id, plus the vertex -> block position map."""

    blocks: tuple[tuple[int, ...], ...]
    block_index: tuple[int, ...]


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of merging a vertex set into one vertex.

    origin_map sends every original vertex to its id in the contracted
    graph; all merged vertices map to merged_vertex.
    """

    graph: Graph
    merged_vertex: int
    origin_map: tuple[int, ...]


def _g6_data_value(ch: str, offset: int) -> int:
    code = ord(ch)
    if not 63 <= code <= 126:
        raise GraphFormatError(
            f"graph6: invalid byte 0x{code:02x} at offset {offset}"
        )
    return code - 63


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.

    Accepts the optional '>>graph6<<' header. Rejects truncated bit
    vectors, trailing bytes, and nonzero padding, naming the byte offset
    within the payload.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("graph6: empty input")

    if s[0] == "~":
        # large n: 18 bits in 3 bytes after "~", or 36 bits in 6 after "~~"
        start, width = (2, 6) if s[1:2] == "~" else (1, 3)
        data_start = start + width
        size_chars = s[start:data_start]
        if len(size_chars) < width:
            raise GraphFormatError("graph6: truncated size field")
        n = 0
        for k, ch in enumerate(size_chars):
            n = (n << 6) | _g6_data_value(ch, start + k)
    else:
        n = _g6_data_value(s[0], 0)
        data_start = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = s[data_start:]
    if len(data) < nbytes:
        raise GraphFormatError(
            f"graph6: truncated adjacency data at offset {data_start + len(data)}"
            f" (need {nbytes} bytes, found {len(data)})"
        )
    if len(data) > nbytes:
        raise GraphFormatError(
            f"graph6: trailing garbage at offset {data_start + nbytes}"
        )

    values = [_g6_data_value(ch, data_start + k) for k, ch in enumerate(data)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if values[k // 6] >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    # padding bits past the triangle must be zero
    while k < 6 * nbytes:
        if values[k // 6] >> (5 - k % 6) & 1:
            raise GraphFormatError(
                f"graph6: nonzero padding at offset {data_start + k // 6}"
            )
        k += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        head = "~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")

    nbits = n * (n - 1) // 2
    values = [0] * ((nbits + 5) // 6)
    k = 0
    for j in range(1, n):
        for i in range(j):
            if g.has_edge(i, j):
                values[k // 6] |= 1 << (5 - k % 6)
            k += 1
    return head + "".join(chr(63 + v) for v in values)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first token is the vertex count,
    followed by whitespace-separated endpoint pairs. Loops, duplicate
    edges, and out-of-range endpoints are errors naming the line."""
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            tokens.append((lineno, tok))
    if not tokens:
        raise GraphFormatError("edge list: empty input")

    def as_int(lineno: int, tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise GraphFormatError(
                f"edge list: line {lineno}: expected integer, got {tok!r}"
            ) from None

    n = as_int(*tokens[0])
    if n < 0:
        raise GraphFormatError("edge list: negative vertex count")
    rest = tokens[1:]
    if len(rest) % 2:
        raise GraphFormatError(
            f"edge list: line {rest[-1][0]}: dangling endpoint {rest[-1][1]!r}"
        )
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for (ln, tu), (_, tv) in zip(rest[0::2], rest[1::2]):
        u, v = as_int(ln, tu), as_int(ln, tv)
        if u == v:
            raise GraphFormatError(f"edge list: line {ln}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"edge list: line {ln}: endpoint out of range in edge {u} {v}"
            )
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphFormatError(f"edge list: line {ln}: duplicate edge {u} {v}")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


def degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise ValueError("degree statistics of the empty graph are undefined")
    delta = min(g.degree(v) for v in range(g.n))
    if is_complete(g):
        return DegreeStats(delta, None)
    sigma = min(
        g.degree(u) + g.degree(v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    )
    return DegreeStats(delta, sigma)


def bfs_distances(
    g: Graph, source: int, skip: Container[int] = ()
) -> list[int]:
    """Breadth-first distances from source, -1 for every vertex it does
    not reach. Vertices in skip are never entered, so the result is the
    distance in g minus skip (source itself must not be in skip)."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    for v in queue:  # the loop also visits vertices appended meanwhile
        d = dist[v] + 1
        for w in g.neighbors(v):
            if dist[w] < 0 and w not in skip:
                dist[w] = d
                queue.append(w)
    return dist


def components(g: Graph, skip: Container[int] = ()) -> ComponentPartition:
    """Components of g minus skip; skipped vertices get block index -1."""
    block_index = [-1] * g.n
    blocks: list[tuple[int, ...]] = []
    for start in range(g.n):
        if block_index[start] >= 0 or start in skip:
            continue
        dist = bfs_distances(g, start, skip)
        # vertices below start are skipped or in earlier blocks
        block = tuple(v for v in range(start, g.n) if dist[v] >= 0)
        for v in block:
            block_index[v] = len(blocks)
        blocks.append(block)
    return ComponentPartition(tuple(blocks), tuple(block_index))


def delete_vertices(g: Graph, remove: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the remaining vertices with compacted ids.

    Returns (subgraph, kept) where kept[new_id] = original id.
    """
    rset = set(remove)
    bad = [v for v in rset if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertex {min(bad)} not in graph")
    kept = tuple(v for v in range(g.n) if v not in rset)
    new_id = {old: i for i, old in enumerate(kept)}
    edges = [
        (new_id[u], new_id[v])
        for u, v in g.edges
        if u not in rset and v not in rset
    ]
    return Graph(len(kept), edges), kept


def contract_set(g: Graph, merge: Iterable[int]) -> ContractionResult:
    """Contract a connected vertex set into one vertex, dropping loops and
    merging parallel edges. The merged vertex's neighbors are exactly the
    outside neighbors of the set."""
    mset = set(merge)
    if not mset:
        raise ValueError("cannot contract the empty set")
    bad = [v for v in mset if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertex {min(bad)} not in graph")
    # the set must induce a connected subgraph
    reach = bfs_distances(g, min(mset), skip=set(range(g.n)) - mset)
    if any(reach[v] < 0 for v in mset):
        raise ValueError("contraction set does not induce a connected subgraph")

    rep = min(mset)
    survivors = sorted((set(range(g.n)) - mset) | {rep})
    new_id = {old: i for i, old in enumerate(survivors)}
    origin = tuple(
        new_id[rep] if v in mset else new_id[v] for v in range(g.n)
    )
    edges = set()
    for u, v in g.edges:
        a, b = origin[u], origin[v]
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    return ContractionResult(Graph(len(survivors), edges), new_id[rep], origin)


def distance_table(g: Graph) -> list[list[int]]:
    """All-pairs distances: dist[s][t], -1 when t is unreachable from s.
    g is connected exactly when the first row (if any) has no -1."""
    return [bfs_distances(g, s) for s in range(g.n)]


def diameter(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if not is_connected(g):
        raise ValueError("diameter of a disconnected graph is undefined")
    return max(max(bfs_distances(g, s)) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or -1 not in bfs_distances(g, 0)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2
