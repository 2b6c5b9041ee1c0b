from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcaudit import (
    ComponentPartition,
    Graph,
    GraphFormatError,
    components,
    contract_set,
    degree_stats,
    delete_vertices,
    diameter,
    gen_counterexample,
    gen_named,
    is_complete,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from rcaudit.generators import CounterexampleParams
from rcaudit.graphs import bfs_distances

from .conftest import random_graph
from .oracles import union_find_components


@st.composite
def graphs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_adjacency_is_symmetric_and_deduped(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.m == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)

    @given(graphs())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestGraph6:
    def test_hand_decoded_example(self):
        # 'D?{' decodes to n=5 with bits 0000001111 over the column-major
        # upper triangle: exactly the four edges into vertex 4
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edge_list() == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 20), rng.random())
            assert parse_graph6(to_graph6(g)) == g

    @given(graphs(max_n=30))
    @settings(max_examples=60)
    def test_roundtrip_property(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_agrees_with_networkx(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 25), rng.random())
            theirs = nx.from_graph6_bytes(to_graph6(g).encode())
            assert sorted(tuple(sorted(e)) for e in theirs.edges()) == g.edge_list()
            hey = nx.Graph()
            hey.add_nodes_from(range(g.n))
            hey.add_edges_from(g.edges)
            enc = nx.to_graph6_bytes(hey, nodes=range(g.n), header=False)
            assert parse_graph6(enc.decode().strip()) == g

    def test_large_size_form(self):
        g = Graph(70, [(0, 69), (1, 2)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("D?", "truncated"),
            ("D?{?", "trailing garbage"),
            ("D?!", "invalid byte"),
            ("B~", "padding"),
            # the size field is 3 bytes after "~" and 6 bytes after "~~"
            ("~", "truncated size field"),
            ("~??", "truncated size field"),
            ("~~", "truncated size field"),
            ("~~?????", "truncated size field"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_graph6(text)

    def test_error_names_offset(self):
        with pytest.raises(GraphFormatError, match="offset 2"):
            parse_graph6("D?!")


class TestEdgeList:
    def test_path(self):
        g = parse_edge_list("3\n0 1\n1 2")
        assert g == gen_named("path", 3)

    def test_single_vertex(self):
        g = parse_edge_list("1")
        assert g.n == 1 and g.m == 0

    def test_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 2: loop"):
            parse_edge_list("3\n0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            parse_edge_list("3\n0 1\n1 0")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_edge_list("3\n0 3")

    def test_non_integer_rejected(self):
        with pytest.raises(GraphFormatError, match="expected integer"):
            parse_edge_list("3\n0 x")

    def test_roundtrip(self):
        g = gen_named("cycle", 6)
        assert parse_edge_list(to_edge_list(g)) == g


class TestDegreeStats:
    def test_cycle(self):
        stats = degree_stats(gen_named("cycle", 5))
        assert stats.min_degree == 2 and stats.min_degree_sum == 4

    def test_complete_has_no_degree_sum(self):
        stats = degree_stats(gen_named("complete", 4))
        assert stats.min_degree == 3 and stats.min_degree_sum is None

    def test_family_instance(self):
        g, _ = gen_counterexample(CounterexampleParams(min_degree=2, copies=1))
        assert degree_stats(g).min_degree_sum == 6


class TestComponents:
    def test_connected_cycle(self):
        part = components(gen_named("cycle", 4))
        assert part.blocks == ((0, 1, 2, 3),)

    def test_two_disjoint_edges(self):
        part = components(Graph(4, [(0, 1), (2, 3)]))
        assert part.blocks == ((0, 1), (2, 3))
        assert part.block_index == (0, 0, 1, 1)

    def test_path_minus_middle(self):
        g, _ = delete_vertices(gen_named("path", 5), {2})
        part = components(g)
        assert tuple(len(b) for b in part.blocks) == (2, 2)

    @given(graphs(max_n=10))
    @settings(max_examples=80)
    def test_matches_union_find(self, g):
        part = components(g)
        assert list(part.blocks) == union_find_components(g.n, g.edges)

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=60)
    def test_delete_then_components_matches_union_find(self, g, data):
        drop = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)).filter(lambda v: v < g.n)))
        sub, kept = delete_vertices(g, drop)
        part = components(sub)
        assert list(part.blocks) == union_find_components(sub.n, sub.edges)
        assert all(kept[v] not in drop for v in range(sub.n))


class TestDeleteVertices:
    def test_delete_path_endpoint(self):
        sub, kept = delete_vertices(gen_named("path", 3), {0})
        assert sub == gen_named("path", 2)
        assert kept == (1, 2)

    def test_delete_all(self):
        sub, kept = delete_vertices(gen_named("path", 3), {0, 1, 2})
        assert sub.n == 0 and kept == ()

    def test_delete_family_clique(self):
        g, facts = gen_counterexample(CounterexampleParams(min_degree=2, copies=1))
        clique = [v for v, r in enumerate(facts.roles) if r == "clique"]
        sub, _ = delete_vertices(g, clique)
        part = components(sub)
        assert len(part.blocks) == 1 and sub.n == 8

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            delete_vertices(gen_named("path", 3), {5})


class TestContractSet:
    def test_contract_path_edge(self):
        res = contract_set(gen_named("path", 3), {0, 1})
        assert res.graph == gen_named("path", 2)
        assert res.merged_vertex == 0
        assert res.origin_map == (0, 0, 1)

    def test_contract_whole_clique(self):
        res = contract_set(gen_named("complete", 4), {0, 1, 2, 3})
        assert res.graph.n == 1 and res.graph.m == 0

    def test_contract_cycle_edge(self):
        res = contract_set(gen_named("cycle", 5), {0, 1})
        assert res.graph.n == 4 and res.graph.m == 4
        assert not is_complete(res.graph)
        assert diameter(res.graph) == 2  # C4

    def test_rejects_disconnected_set(self):
        with pytest.raises(ValueError, match="connected"):
            contract_set(gen_named("path", 3), {0, 2})

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            contract_set(gen_named("path", 3), set())

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=60)
    def test_merged_neighborhood_is_outside_union(self, g, data):
        if g.n == 0:
            return
        part = components(g)
        block = data.draw(st.sampled_from(part.blocks))
        size = data.draw(st.integers(1, len(block)))
        # grow a connected subset deterministically from the drawn seed vertex
        start = data.draw(st.sampled_from(block))
        chosen = {start}
        frontier = [start]
        while frontier and len(chosen) < size:
            v = frontier.pop(0)
            for w in g.neighbors(v):
                if w not in chosen and len(chosen) < size:
                    chosen.add(w)
                    frontier.append(w)
        res = contract_set(g, chosen)
        expected = {
            res.origin_map[w]
            for v in chosen
            for w in g.neighbors(v)
            if w not in chosen
        }
        assert set(res.graph.neighbors(res.merged_vertex)) == expected
        assert res.graph.n == g.n - len(chosen) + 1


def seeded_graphs(seed: int, count: int = 60):
    """Random graphs on up to 14 vertices, many of them disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.6)), rng


class TestBfsDistances:
    def test_matches_networkx(self):
        disconnected = 0
        for g, _ in seeded_graphs(31):
            theirs = nx.Graph()
            theirs.add_nodes_from(range(g.n))
            theirs.add_edges_from(g.edges)
            disconnected += not nx.is_connected(theirs)
            for s in range(g.n):
                want = [-1] * g.n
                for v, d in nx.single_source_shortest_path_length(theirs, s).items():
                    want[v] = d
                assert bfs_distances(g, s) == want
        assert disconnected > 10

    def test_skip_matches_networkx_on_the_rest(self):
        for g, rng in seeded_graphs(32):
            skip = {v for v in range(g.n) if rng.random() < 0.3}
            rest = nx.Graph()
            rest.add_nodes_from(v for v in range(g.n) if v not in skip)
            rest.add_edges_from(e for e in g.edges if not skip.intersection(e))
            for s in rest.nodes:
                want = [-1] * g.n
                for v, d in nx.single_source_shortest_path_length(rest, s).items():
                    want[v] = d
                assert bfs_distances(g, s, skip) == want

    def test_components_match_union_find(self):
        for g, rng in seeded_graphs(33):
            assert list(components(g).blocks) == union_find_components(g.n, g.edges)
            skip = {v for v in range(g.n) if rng.random() < 0.3}
            kept = [e for e in g.edges if not skip.intersection(e)]
            want = [b for b in union_find_components(g.n, kept) if b[0] not in skip]
            part = components(g, skip)
            assert list(part.blocks) == want
            assert all(part.block_index[v] == -1 for v in skip)


class TestDiameter:
    @pytest.mark.parametrize(
        "family, size, want",
        [("path", 4, 3), ("cycle", 5, 2), ("complete", 6, 1), ("path", 1, 0)],
    )
    def test_known_values(self, family, size, want):
        assert diameter(gen_named(family, size)) == want

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            diameter(Graph(2, []))

    def test_connectivity_predicates(self):
        assert is_connected(gen_named("path", 4))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_complete(gen_named("complete", 3))
        assert not is_complete(gen_named("path", 3))
