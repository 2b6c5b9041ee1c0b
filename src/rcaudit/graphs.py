"""Immutable simple graphs plus the structural operations the toolkit
builds on: graph6 codecs, an edge-list parser, degree statistics of
the graph or of an induced vertex set, and distances.

A Graph keeps its adjacency only as integer bit rows, one int per
vertex, plus the edge count read from them; degrees, neighbors and
edges are derived from the rows on demand. A tuple of ints is not
tracked by CPython's cyclic garbage collector once it has seen it, so a
held corpus leaves it one object per graph (the Graph) to walk at every
collection, where per-vertex sets would add one per vertex.

Every loop over the vertices of a mask runs on one kernel,
_bit_positions (byte tables up to 64 bits), and every traversal is a
flood over the bit rows: a breadth-first search whose frontier is a
vertex mask and whose next frontier is the OR of the frontier's rows,
less the vertices already reached or excluded. Connectivity, and the
construction's split of a level into components (construct.py), read
_flood's reach mask; bfs_distances floods inline, setting each layer's
distances in the pass that ORs its rows. The exact solver's lower bound
asks _two_balls_cover, one flood step per vertex, whether the diameter
is at most 2, so that it builds no distance table for such a graph.
Nothing builds an induced subgraph: the construction runs every level,
contractions included, on vertex masks over one graph's rows (see
construct.py), and degree_stats reads an induced vertex set's degrees
off the rows masked by that set. Graph() validates, for input from
outside; the graph6 decoder and the exhaustive enumeration
(generators.iter_connected_graphs) build through the unchecked
_graph_from_rows. Both fill a Graph's fields from its rows through
_fill.

Both graph6 codecs work on one layout of the adjacency bits, the upper
triangle packed column by column: column j, the low j bits of row j
(the edges ij with i < j), sits at bit offset j(j-1)/2, so bit k of the
packing is graph6's k-th adjacency bit, and each data byte carries the
next 6 of them, lowest first. to_graph6 packs the rows into an int
and cuts bytes off its low end; parse_graph6 joins the data bytes into
the packing's binary numeral and reads each row's low part off its
column's slice.

Vertices are dense 0-based ids. Everything is deterministic: edge lists
are sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Graph",
    "GraphFormatError",
    "DegreeStats",
    "parse_graph6",
    "to_graph6",
    "parse_edge_list",
    "degree_stats",
    "bfs_distances",
    "distance_table",
    "is_connected",
    "is_complete",
]

_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list text."""


class Graph:
    """Finite simple undirected graph on vertex ids 0..n-1.

    Adjacency is one int per vertex: bit v of _rows[u] marks the edge
    uv, and no container the garbage collector must walk is held (see
    the module docstring). The rows are the only stored adjacency: m,
    degrees, neighbors, edge_list() and edges are read off them.

    Instances are immutable after construction and safe to share across
    concurrent tasks; every operation in this module is a pure function.
    """

    __slots__ = ("n", "m", "_rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _fill(self, rows)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """All edges as (u, v) with u < v."""
        return frozenset(self.edge_list())

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return _bit_positions(self._rows[v])

    def has_edge(self, u: int, v: int) -> bool:
        """False when either end is not a vertex."""
        return 0 <= u < self.n and 0 <= v < self.n and self._rows[u] >> v & 1 == 1

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [
            (u, v) for u, row in enumerate(self._rows) for v in _bit_positions(row & -(2 << u))
        ]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# byte k's table, k < 8, maps a byte b to 8k plus each set-bit position of b, ascending
_LOW_BYTE, *_HIGH_BYTES = [
    [tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256)] for k in range(8)
]


def _bit_positions(row: int) -> tuple[int, ...]:
    """Positions of the set bits of row >= 0, ascending; every loop over a
    vertex mask runs on it. Below 2^64 it joins, from the low byte up to
    the highest nonzero one, the tuple byte k's table holds for byte k's
    value (below 2^8, one lookup in _LOW_BYTE); a wider row peels off
    its lowest set bit until none is left."""
    if row < 256:
        return _LOW_BYTE[row]
    if row < 1 << 64:
        out = _LOW_BYTE[row & 255]
        for table in _HIGH_BYTES:
            row >>= 8
            if not row:
                break
            out += table[row & 255]
        return out
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return tuple(out)


def _fill(g: Graph, rows: Sequence[int]) -> Graph:
    """Set every field of g from its bit rows."""
    g.n = len(rows)
    g.m = sum(map(int.bit_count, rows)) // 2
    g._rows = tuple(rows)
    return g


def _graph_from_rows(rows: Sequence[int]) -> Graph:
    """A Graph straight from its bit rows, without Graph()'s checks.

    The rows must be symmetric, loop-free and inside range(len(rows)),
    as rows derived from a Graph's own rows are; the result equals
    Graph(len(rows), its edges) field by field.
    """
    return _fill(Graph.__new__(Graph), rows)


def _flood(rows: tuple[int, ...], frontier: int, allowed: int) -> int:
    """The vertex mask frontier plus every vertex a breadth-first flood
    from it reaches through the mask allowed: the flood's reach mask."""
    reached = frontier
    while frontier:
        reach = 0
        for v in _bit_positions(frontier):
            reach |= rows[v]
        frontier = reach & allowed & ~reached
        reached |= frontier
    return reached


@dataclass(frozen=True)
class DegreeStats:
    """Minimum degree, and the minimum of deg(u)+deg(v) over nonadjacent
    pairs. The latter is None for complete graphs, where no nonadjacent
    pair exists; callers must skip bound checks instead of substituting a
    numeric default."""

    min_degree: int
    min_degree_sum: int | None


# a data byte's value as 6 bits, first bit first
_G6_BITS = [format(v, "06b") for v in range(64)]
# the data byte of a 6-bit chunk whose lowest bit comes first
_G6_CHARS = [chr(63 + int(b[::-1], 2)) for b in _G6_BITS]


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

    The data bytes, each checked at its own offset, are joined into the
    binary numeral of the column-major packing (see the module
    docstring). Column j's slice of it is row j's low part, and each of
    its bits i sets bit j of row i. Padding past the triangle sits in
    the last byte.
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

    # the data bits reversed: bit k of the packed triangle is bits[-1 - k],
    # so column j's slice reads as its binary numeral
    values = [_g6_data_value(ch, data_start + k) for k, ch in enumerate(data)]
    bits = "".join([_G6_BITS[v] for v in values])[::-1]
    # the padding past the triangle fits in the last byte
    if "1" in bits[:len(bits) - nbits]:
        raise GraphFormatError(
            f"graph6: nonzero padding at offset {data_start + nbytes - 1}"
        )
    rows = [0] * n
    end = len(bits)
    for j in range(1, n):
        col = int(bits[end - j:end], 2)
        end -= j
        rows[j] = col
        for i in _bit_positions(col):
            rows[i] |= 1 << j
    return _graph_from_rows(rows)


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header).

    The rows are packed column by column (see the module docstring), and
    the data bytes read the packing 6 bits at a time from its low end,
    each chunk's lowest bit first. The packing is cut into 3-byte words
    of 4 chunks each as it grows, rather than built whole and shifted
    once per chunk, so the work stays linear in the bit count.
    """
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        head = "~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")

    # the packing's low end, column by column; whole 24-bit words (4 data
    # bytes each) are cut off it once it reaches 3072 bits, and all of it
    # at the last column, so no int grows past 3072 bits plus one column
    rows = g._rows
    out = []
    low = width = 0
    for j in range(1, n):
        low |= (rows[j] & ((1 << j) - 1)) << width
        width += j
        if width >= 3072 or j == n - 1:
            words = width // 24 if j < n - 1 else -(-width // 24)
            data = low.to_bytes(-(-width // 24) * 3, "little")
            for i in range(0, 3 * words, 3):
                w = int.from_bytes(data[i:i + 3], "little")
                out += (_G6_CHARS[w & 63], _G6_CHARS[w >> 6 & 63],
                        _G6_CHARS[w >> 12 & 63], _G6_CHARS[w >> 18])
            low >>= 24 * words
            width -= 24 * words
    nbytes = (n * (n - 1) // 2 + 5) // 6
    return head + "".join(out[:nbytes])


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


def degree_stats(g: Graph, vertices: Iterable[int] | None = None) -> DegreeStats:
    """Minimum degree and minimum nonadjacent degree sum of g or, given
    vertices, of the subgraph they induce, read off g's rows masked by
    the set: degrees count only neighbors in the set, and only pairs
    inside it are compared. An empty set or an id outside g is a
    ValueError."""
    every = 0
    for v in range(g.n) if vertices is None else vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph")
        every |= 1 << v
    rows = [row & every for row in g._rows]
    # sigma's start; as the degree of a vertex outside the set it is above
    # every real degree, so min passes it over and the loop skips the vertex
    unused = 2 * g.n
    degree = [r.bit_count() if every >> u & 1 else unused for u, r in enumerate(rows)]
    if not every:
        raise ValueError("degree statistics of the empty graph are undefined")
    delta = min(degree)
    if delta == every.bit_count() - 1:
        # complete: no nonadjacent pair
        return DegreeStats(delta, None)
    # per vertex u, the degrees of the vertices outside its closed
    # neighborhood row; no pair with u beats degree[u] + delta
    sigma = unused
    for u, row in enumerate(rows):
        du = degree[u]
        if du + delta >= sigma:
            continue
        for w in _bit_positions(every ^ (row | 1 << u)):
            if du + degree[w] < sigma:
                sigma = du + degree[w]
    return DegreeStats(delta, sigma)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Breadth-first distances from source, -1 for every vertex it does
    not reach."""
    rows, dist = g._rows, [-1] * g.n
    layer, left, d = 1 << source, (1 << g.n) - 1, 0
    while layer:
        left ^= layer
        reach = 0
        for v in _bit_positions(layer):
            dist[v] = d
            reach |= rows[v]
        layer, d = reach & left, d + 1
    return dist


def distance_table(g: Graph) -> list[list[int]] | None:
    """All-pairs distances dist[s][t] of a connected g; None when the
    first row has a -1, before any other row is built."""
    rows = [bfs_distances(g, 0)] if g.n else []
    if rows and -1 in rows[0]:
        return None
    return rows + [bfs_distances(g, s) for s in range(1, g.n)]


def _two_balls_cover(g: Graph) -> bool:
    """Whether every vertex's closed 2-ball, itself and the rows of its
    closed neighborhood ORed, covers every vertex: on a nonempty g, true
    exactly when g is connected with diameter at most 2. Stops at the
    first vertex whose ball falls short, after 2m row ORs at most."""
    rows, every = g._rows, (1 << g.n) - 1
    for u, row in enumerate(rows):
        ball = row | 1 << u
        for w in _bit_positions(row):
            ball |= rows[w]
        if ball != every:
            return False
    return True


def is_connected(g: Graph) -> bool:
    every = (1 << g.n) - 1
    return g.n <= 1 or _flood(g._rows, 1, every) == every


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2
