from __future__ import annotations

import random
from itertools import combinations

import pytest

from rcaudit import AuditTrace, Graph, is_connected

# frozen master seed for every randomized (non-hypothesis) check
MASTER_SEED = 20260808


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def edge_list_text(g: Graph) -> str:
    """g in the plain edge-list format that parse_edge_list reads."""
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edge_list())


def trace_nodes(trace: AuditTrace):
    """Every node of a construction trace in preorder (parents first,
    children in record order), on an explicit stack: a path's trace is
    one level per vertex, deeper than the recursion limit allows."""
    stack = [trace]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def nested_trace(records: list[dict]) -> dict:
    """The nested rendering of trace_records' flat list: each record
    without its parent index, with its children's renderings in record
    order under "children" just before "verification", as the nested
    trace format had them. Its JSON is that format's byte for byte, so
    the digests pinned over it stay valid."""
    nodes = [
        {k: v for k, v in r.items() if k not in ("parent", "verification")}
        for r in records
    ]
    for r, node in zip(records, nodes):
        if r["parent"] is not None:
            nodes[r["parent"]].setdefault("children", []).append(node)
    for r, node in zip(records, nodes):
        if "verification" in r:
            node["verification"] = r["verification"]
    return nodes[0]


def assert_trace_invariants(trace: AuditTrace) -> int:
    """Assert what the corrected proof of rc <= n - d rests on, on every
    node of trace: each child's measure n - d is below its parent's, no
    node uses more colors than its budget, and a contraction keeps d and
    lowers the measure. Returns the number of parent-child steps."""
    steps = 0
    for node in trace_nodes(trace):
        assert node.colors_used <= node.budget
        if node.contraction is not None:
            assert node.contraction.min_degree_after >= node.min_degree
            assert node.contraction.measure_after < node.budget
        for child in node.children:
            assert child.budget < node.budget
            steps += 1
    return steps


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(MASTER_SEED)
