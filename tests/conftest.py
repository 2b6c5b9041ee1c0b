from __future__ import annotations

import random
from itertools import combinations

import pytest

from rcaudit import Graph, is_connected

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


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(MASTER_SEED)
