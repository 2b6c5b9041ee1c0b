"""Graph generators: the attachment counterexample family, named
families, random connected graphs, and exhaustive small corpora.

The counterexample family separates two degree-sum quantities. Take t
disjoint cliques on d+4 vertices each, hang two nonadjacent attachment
vertices off every clique (each joined to 2t clique vertices), and join
every attachment vertex to one shared low-degree clique on d-2t+1
vertices. Minimum degree lands on the shared clique (degree d),
attachments get d+1, and the whole graph's minimum nonadjacent degree
sum is 2(d+1), achieved by attachment pairs. Removing the shared clique
leaves one component per copy whose own minimum degree sum is 4t: that
is strictly below 2(d+1) - 2(k-1) = 4t+2 (refuting the claim that
component degree sums stay within 2(k-1) of the whole graph's) while
exactly meeting the corrected floor 2(d+1) - 2k = 4t.

Every structural fact is recounted on the generated graph, never assumed
from the formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from operator import getitem
from typing import Iterator, Sequence

from .construct import ConstructionError, decompose
from .graphs import (
    Graph,
    _bit_positions,
    _flood,
    _graph_from_rows,
    degree_stats,
    is_connected,
)

__all__ = [
    "CounterexampleParams",
    "FamilyFacts",
    "InequalityReport",
    "gen_counterexample",
    "counterexample_inequalities",
    "gen_named",
    "gen_random_connected",
    "iter_connected_graphs",
    "random_corpus",
]


@dataclass(frozen=True)
class CounterexampleParams:
    """Family parameters: target minimum degree and copy count.

    Needs 2*copies <= min_degree so the shared clique is nonempty and the
    attachment degree stays below the block degrees. seed switches the
    attachment choice from first-by-id to uniformly random.
    """

    min_degree: int
    copies: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.min_degree < 2:
            raise ValueError("min_degree must be at least 2")
        if self.copies < 1:
            raise ValueError("copies must be at least 1")
        if 2 * self.copies > self.min_degree:
            raise ValueError(
                f"copies must satisfy 2*copies <= min_degree"
                f" (got copies={self.copies}, min_degree={self.min_degree})"
            )


@dataclass(frozen=True)
class FamilyFacts:
    """Recounted facts of a generated family instance. roles[v] is
    'block:i', 'attach:i:j' (j in 1..2), or 'clique'."""

    n: int
    clique_size: int
    min_degree_sum: int
    component_pair_degree_sum: int
    roles: tuple[str, ...]


@dataclass(frozen=True)
class InequalityReport:
    """Degree-sum comparison after removing the shared clique.

    component_sums holds each component's minimum nonadjacent degree sum
    s_i. The refuted claim asserts s_i >= min_degree_sum - 2(k-1); the
    corrected one asserts s_i >= min_degree_sum - 2k.
    """

    min_degree_sum: int
    clique_size: int
    refuted_bound: int
    corrected_bound: int
    component_sums: tuple[int, ...]
    refuted_claim_violated: bool
    corrected_claim_holds: bool
    corrected_claim_tight: bool


def gen_counterexample(params: CounterexampleParams) -> tuple[Graph, FamilyFacts]:
    d, t = params.min_degree, params.copies
    block = d + 4
    k = d - 2 * t + 1
    attach_base = t * block
    clique_base = attach_base + 2 * t
    n = clique_base + k

    rng = random.Random(params.seed) if params.seed is not None else None
    edges: list[tuple[int, int]] = []
    roles: list[str] = [""] * n

    for i in range(t):
        start = i * block
        for u, v in combinations(range(start, start + block), 2):
            edges.append((u, v))
        for v in range(start, start + block):
            roles[v] = f"block:{i + 1}"
        for j in (0, 1):
            a = attach_base + 2 * i + j
            roles[a] = f"attach:{i + 1}:{j + 1}"
            if rng is None:
                targets = range(start, start + 2 * t)
            else:
                targets = rng.sample(range(start, start + block), 2 * t)
            edges.extend((a, w) for w in targets)
            edges.extend((a, c) for c in range(clique_base, clique_base + k))
    for u, v in combinations(range(clique_base, clique_base + k), 2):
        edges.append((u, v))
    for v in range(clique_base, clique_base + k):
        roles[v] = "clique"

    g = Graph(n, edges)

    # recount everything the formulas predict
    if not is_connected(g):
        raise RuntimeError("generated family instance is disconnected")
    for v in range(n):
        deg = g.degree(v)
        if roles[v] == "clique" and deg != d:
            raise RuntimeError(f"clique vertex {v} has degree {deg}, expected {d}")
        if roles[v].startswith("attach") and deg != d + 1:
            raise RuntimeError(f"attachment {v} has degree {deg}, expected {d + 1}")
        if roles[v].startswith("block") and deg < d + 3:
            raise RuntimeError(f"block vertex {v} has degree {deg} < {d + 3}")
    stats = degree_stats(g)
    if stats.min_degree != d:
        raise RuntimeError(f"minimum degree {stats.min_degree}, expected {d}")
    if stats.min_degree_sum != 2 * (d + 1):
        raise RuntimeError(
            f"minimum degree sum {stats.min_degree_sum}, expected {2 * (d + 1)}"
        )
    # each copy's component once the shared clique is gone: its block and
    # its two attachments
    for i in range(t):
        attach = attach_base + 2 * i
        copy = [*range(i * block, (i + 1) * block), attach, attach + 1]
        pair_sum = degree_stats(g, copy).min_degree_sum
        if pair_sum != 4 * t:
            raise RuntimeError(
                f"copy {i + 1} has minimum degree sum {pair_sum}, expected {4 * t}"
            )

    facts = FamilyFacts(
        n=n,
        clique_size=k,
        min_degree_sum=stats.min_degree_sum,
        component_pair_degree_sum=pair_sum,
        roles=tuple(roles),
    )
    return g, facts


def counterexample_inequalities(
    g: Graph, params: CounterexampleParams, facts: FamilyFacts
) -> InequalityReport:
    """Remove the shared clique, recompute each component's minimum
    nonadjacent degree sum, and compare against both claims. The clique
    and the components are the construction's own (decompose), and any
    mismatch with params or facts is a ValueError."""
    clique = tuple([v for v, r in enumerate(facts.roles) if r == "clique"])
    try:
        rec = decompose(g)
    except ConstructionError as exc:
        raise ValueError(f"facts do not match the graph: {exc}") from None
    if rec.clique != clique or rec.k != facts.clique_size:
        raise ValueError(
            f"facts do not match the graph: the construction deletes clique"
            f" {rec.clique}, the facts name {clique} of size {facts.clique_size}"
        )
    if rec.t != params.copies:
        raise ValueError(
            f"structure mismatch: expected {params.copies} components after"
            f" clique removal, found {rec.t}"
        )
    sums = []
    expect_size = params.min_degree + 4 + 2
    for comp in rec.components:
        if comp.size != expect_size:
            raise ValueError(
                f"structure mismatch: component of size {comp.size},"
                f" expected {expect_size}"
            )
        stats = degree_stats(g, comp.vertices)
        if stats.min_degree_sum is None:
            raise ValueError("structure mismatch: component is complete")
        sums.append(stats.min_degree_sum)

    sigma = degree_stats(g).min_degree_sum
    if sigma != facts.min_degree_sum:
        raise ValueError("facts do not match the graph: degree sum differs")
    k = facts.clique_size
    refuted = sigma - 2 * (k - 1)
    corrected = sigma - 2 * k
    return InequalityReport(
        min_degree_sum=sigma,
        clique_size=k,
        refuted_bound=refuted,
        corrected_bound=corrected,
        component_sums=tuple(sums),
        refuted_claim_violated=any(s < refuted for s in sums),
        corrected_claim_holds=all(s >= corrected for s in sums),
        corrected_claim_tight=all(s == corrected for s in sums),
    )


def gen_named(family: str, *sizes: int) -> Graph:
    """Standard families in canonical layout: path, cycle, complete,
    complete_bipartite (two sizes), star (total vertex count, center 0)."""
    if family == "path":
        (n,) = _expect_sizes(family, sizes, 1)
        if n < 1:
            raise ValueError("path needs at least 1 vertex")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        (n,) = _expect_sizes(family, sizes, 1)
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        (n,) = _expect_sizes(family, sizes, 1)
        if n < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        return Graph(n, combinations(range(n), 2))
    if family == "complete_bipartite":
        a, b = _expect_sizes(family, sizes, 2)
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite needs two positive sizes")
        return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    if family == "star":
        (n,) = _expect_sizes(family, sizes, 1)
        if n < 1:
            raise ValueError("star needs at least 1 vertex")
        return Graph(n, [(0, v) for v in range(1, n)])
    raise ValueError(f"unknown family {family!r}")


def _expect_sizes(family: str, sizes: Sequence[int], want: int) -> Sequence[int]:
    if len(sizes) != want:
        raise ValueError(f"{family} takes {want} size argument(s), got {len(sizes)}")
    return sizes


def gen_random_connected(n: int, p: float, seed: int | None = None) -> Graph:
    """Rejection-sampled connected graph: resample the p-biased edge set
    until connected, deterministic given the seed. After 1000
    disconnected samples the edge probability is taken to be too low for
    n, and ValueError is raised."""
    if n < 1:
        raise ValueError("need at least 1 vertex")
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(1000):
        edges = [e for e in pairs if rng.random() < p]
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise ValueError(
        "1000 consecutive samples were disconnected; increase the edge probability"
    )


def iter_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on exactly n vertices, in ascending
    edge-mask order over the lexicographic pair list.

    The pairs (u, u+1..n-1) of vertex u form one contiguous chunk of the
    mask, vertex 0's chunk lowest, so ascending mask order is
    lexicographic order over the chunks of vertices n-2, n-3, ..., 0.
    The chunks of vertices n-2..1, varied in that nesting, fix the edges
    among vertices 1..n-1; that graph's components are flooded once.
    Innermost, vertex 0's neighbor sets N run in ascending order, and a
    graph is kept when N meets every component. Each kept graph's rows
    are read off the fixed part plus N: N is vertex 0's row, and vertex
    v's row gains bit 0 when v is in N.
    """
    if n < 1:
        raise ValueError("need at least 1 vertex")
    rest = range(1, n)
    # vertex 0's neighbor sets, ascending: mask, per-vertex membership of 1..n-1
    zero = []
    for chunk in range(1 << (n - 1)):
        mask = chunk << 1
        zero.append((mask, tuple([mask >> v & 1 for v in rest])))
    higher = range(n - 2, 0, -1)
    for chunks in product(*[range(1 << (n - 1 - u)) for u in higher]):
        rows = [0] * n
        for u, chunk in zip(higher, chunks):
            rows[u] |= chunk << (u + 1)
            for v in _bit_positions(chunk << (u + 1)):
                rows[v] |= 1 << u
        comps = []
        left = ((1 << n) - 1) ^ 1
        while left:
            comp = _flood(rows, left & -left, left)
            comps.append(comp)
            left ^= comp
        # each vertex's row without and with vertex 0
        row_of = [(r, r | 1) for r in rows[1:]]
        for mask, picks in zero:
            for comp in comps:
                if not mask & comp:
                    break
            else:
                yield _graph_from_rows((mask, *map(getitem, row_of, picks)))


def random_corpus(
    count: int, n_lo: int, n_hi: int, seed: int
) -> list[Graph]:
    """Seeded corpus of connected graphs with sizes drawn from
    [n_lo, n_hi] and edge probability from [0.15, 0.85]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(0.15, 0.85)
        out.append(gen_random_connected(n, p, seed=rng.randrange(2**32)))
    return out
