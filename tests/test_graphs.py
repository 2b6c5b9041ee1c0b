from __future__ import annotations

import gc
import hashlib
import platform
import random
from itertools import combinations, islice

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcaudit.graphs
from rcaudit import (
    Graph,
    GraphFormatError,
    audit_graph,
    degree_stats,
    gen_counterexample,
    gen_named,
    is_complete,
    is_connected,
    parse_edge_list,
    parse_graph6,
    rc_exact,
    to_graph6,
)
from rcaudit.generators import CounterexampleParams, iter_connected_graphs, random_corpus
from rcaudit.cli import main
from rcaudit.graphs import _bit_positions, _two_balls_cover, bfs_distances, distance_table

from .conftest import MASTER_SEED, edge_list_text, random_graph
from .oracles import (
    bit_positions_by_lowest_bit,
    degree_stats_brute,
    distance_rows_by_layers,
    induced_subgraph,
)

RANDOM_CORPUS_GRAPH6 = "2d032af6362830304ab101f4263614a9530ad5ab94adb49e8b22a522a0316444"


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

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1)

    def test_adjacency_is_symmetric_and_deduped(self):
        g = Graph(3, [(0, 1), (1, 0), (2, 1)])
        assert g.m == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)

    def test_has_edge_is_false_outside_the_vertex_range(self):
        n = 4
        g = gen_named("complete", n)
        assert not g.has_edge(0, -1) and not g.has_edge(-1, 0)
        assert not g.has_edge(0, n) and not g.has_edge(n, 0)
        assert g.has_edge(0, n - 1) and g.has_edge(n - 1, 0)

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="counts objects tracked by CPython's cyclic collector",
    )
    def test_held_graphs_add_one_tracked_object(self):
        # the adjacency is one tuple of int rows, which the collector stops
        # tracking, and no neighbor or edge container is stored; a held
        # graph leaves it the Graph alone
        gc.collect()
        gc.collect()
        before = len(gc.get_objects())
        held = list(islice(iter_connected_graphs(6), 1000))
        gc.collect()
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added <= len(held) + 10, added / len(held)

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
            assert_same_fields(parse_graph6(to_graph6(g)), g)

    @given(graphs(max_n=30))
    @settings(max_examples=60)
    def test_roundtrip_property(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_agrees_with_networkx(self):
        # both directions, on every connected labeled graph with n <= 5, on
        # random graphs, at the sizes around the header forms (one byte up
        # to 62, "~" and 3 bytes from 63), and at n = 100, whose 4,950 bits
        # pass the 3,072 at which to_graph6 first cuts its packing
        rng = random.Random(13)
        corpus = [g for n in range(1, 6) for g in iter_connected_graphs(n)]
        corpus += [random_graph(rng, rng.randint(1, 25), rng.random()) for _ in range(50)]
        corpus += [
            random_graph(rng, n, p) for n in (61, 62, 63, 70, 100) for p in (0.0, 0.3, 1.0)
        ]
        for g in corpus:
            theirs = nx.from_graph6_bytes(to_graph6(g).encode())
            assert theirs.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in theirs.edges()) == g.edge_list()
            hey = nx.Graph()
            hey.add_nodes_from(range(g.n))
            hey.add_edges_from(g.edges)
            enc = nx.to_graph6_bytes(hey, nodes=range(g.n), header=False)
            assert parse_graph6(enc.decode().strip()) == g

    def test_random_corpus_encoding_is_pinned(self):
        # sha256 of the newline-joined lines of the acceptance random
        # corpus; a change to any encoded byte shows here
        lines = "\n".join(to_graph6(g) for g in random_corpus(500, 4, 40, MASTER_SEED))
        assert hashlib.sha256(lines.encode()).hexdigest() == RANDOM_CORPUS_GRAPH6

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
        # each message matched whole, so an offset one byte off fails
        for text, message in [
            ("D?!", r"invalid byte 0x21 at offset 2"),
            ("D?", r"truncated adjacency data at offset 2 \(need 2 bytes, found 1\)"),
            ("D?{?", r"trailing garbage at offset 3"),
            ("D", r"truncated adjacency data at offset 1 \(need 2 bytes, found 0\)"),
        ]:
            with pytest.raises(GraphFormatError, match=f"^graph6: {message}$"):
                parse_graph6(text)

    @pytest.mark.parametrize("n, offset", [(3, 1), (5, 2), (70, 406)])
    def test_padding_error_names_the_last_byte(self, n, offset):
        # the padding bits are the last byte's lowest; setting its lowest
        # bit breaks them at every size form
        s = to_graph6(Graph(n))
        with pytest.raises(GraphFormatError, match=f"nonzero padding at offset {offset}$"):
            parse_graph6(s[:-1] + chr(63 + (ord(s[-1]) - 63 | 1)))


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

    @pytest.mark.parametrize(
        "text, message",
        [
            (" \n\n", "empty input"),
            ("-1", "negative vertex count"),
            ("3\n0 1\n2", "line 3: dangling endpoint '2'"),
        ],
        ids=["empty", "negative-count", "dangling-endpoint"],
    )
    def test_shape_errors(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^edge list: {message}$"):
            parse_edge_list(text)

    def test_roundtrip(self):
        g = gen_named("cycle", 6)
        assert parse_edge_list(edge_list_text(g)) == g


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


def seeded_graphs(seed: int, count: int = 60):
    """Random graphs on up to 14 vertices, many of them disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.6)), rng


def assert_same_fields(built: Graph, checked: Graph) -> None:
    assert built.n == checked.n and built.m == checked.m
    assert built.edge_list() == checked.edge_list()
    assert built._rows == checked._rows
    # degrees and neighbors are read off the rows; both graphs must give
    # those of checked's edge list
    ends: list[list[int]] = [[] for _ in range(checked.n)]
    for u, v in checked.edge_list():
        ends[u].append(v)
        ends[v].append(u)
    for v in range(checked.n):
        assert built.neighbors(v) == checked.neighbors(v) == tuple(sorted(ends[v]))
        assert built.degree(v) == checked.degree(v) == len(ends[v])
    assert built == checked and hash(built) == hash(checked)


class TestRowBuiltGraphs:
    """Graphs built straight from bit rows skip Graph()'s checks; each must
    equal the graph the validating constructor builds from its edges."""

    def test_connected_graphs_match_constructor(self):
        for n in range(1, 7):
            for g in iter_connected_graphs(n):
                checked = Graph(n, g.edge_list())
                assert_same_fields(g, checked)
                assert_same_fields(parse_graph6(to_graph6(g)), checked)

    @given(graphs())
    def test_edges_are_read_off_the_rows(self, g):
        # the rows are the one stored adjacency: edge_list, m and edges are
        # derived from them
        edges = g.edges
        assert isinstance(edges, frozenset)
        assert edges == {e for e in combinations(range(g.n), 2) if g.has_edge(*e)}
        assert g.edge_list() == sorted(edges)
        assert g.m == len(edges)
        again = Graph(g.n, sorted(edges, reverse=True))
        assert g == again and hash(g) == hash(again)


class TestInducedDegreeStats:
    """degree_stats of a vertex set equals the brute-force statistics of
    the subgraph the set induces, rebuilt from the edge list."""

    def test_matches_the_induced_subgraph(self):
        disconnected = complete = 0
        for g, rng in seeded_graphs(41):
            whole = degree_stats(g)
            assert (whole.min_degree, whole.min_degree_sum) == degree_stats_brute(g)
            for _ in range(4):
                kept = [v for v in range(g.n) if rng.random() < 0.6] or [g.n - 1]
                rng.shuffle(kept)
                sub, _ = induced_subgraph(g, kept)
                disconnected += not is_connected(sub)
                stats = degree_stats(g, kept)
                complete += stats.min_degree_sum is None
                assert (stats.min_degree, stats.min_degree_sum) == degree_stats_brute(sub)
        assert disconnected > 20 and complete > 5

    def test_whole_vertex_set_is_the_graph(self):
        for g, _ in seeded_graphs(42, count=20):
            assert degree_stats(g, range(g.n)) == degree_stats(g)
            assert degree_stats(g, [0] * 3 + list(range(g.n))) == degree_stats(g)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            degree_stats(gen_named("path", 3), ())
        with pytest.raises(ValueError, match="empty graph"):
            degree_stats(Graph(0))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_unknown_vertex_rejected(self, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} not in graph"):
            degree_stats(gen_named("path", 3), [0, bad])


class TestBitPositions:
    def test_matches_the_lowest_bit_loop(self):
        # across the byte tables' edges: one lookup below 2^8, joined
        # bytes below 2^64, the lowest-bit loop above
        rows = [0] + [1 << k for k in (0, 7, 8, 63, 64, 65)]
        rows += [(1 << width) - 1 for width in range(1, 131)]
        rng = random.Random(MASTER_SEED + 60)
        rows += [rng.getrandbits(rng.randint(1, 700)) for _ in range(2000)]
        for row in rows:
            got = _bit_positions(row)
            assert type(got) is tuple
            assert list(got) == bit_positions_by_lowest_bit(row), row


class TestBfsDistances:
    def test_rows_match_the_flood_layers(self):
        # the rows bfs_distances fills in one pass per layer are the ones
        # read off a layer-by-layer flood, on every connected graph with
        # n <= 6 and on the random acceptance corpus
        graphs = [g for n in range(1, 7) for g in iter_connected_graphs(n)]
        graphs += random_corpus(500, 4, 40, MASTER_SEED)
        for g in graphs:
            assert distance_table(g) == distance_rows_by_layers(g), to_graph6(g)

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

    @staticmethod
    def networkx_graph(g: Graph) -> nx.Graph:
        theirs = nx.Graph()
        theirs.add_nodes_from(range(g.n))
        theirs.add_edges_from(g.edges)
        return theirs

    def test_empty_and_single_vertex_graphs(self):
        assert is_connected(Graph(0))
        single = Graph(1)
        assert bfs_distances(single, 0) == [0]
        assert is_connected(single) == nx.is_connected(self.networkx_graph(single))

    def test_distance_table_stops_at_a_disconnected_first_row(
        self, monkeypatch, tmp_path, capsys
    ):
        # a path plus isolated vertices: the first BFS row shows -1, so
        # no other row is built and each caller raises its own message;
        # audit_graph checks connectivity by one flood and builds no row
        rows = []
        bfs = rcaudit.graphs.bfs_distances

        def counted(g, source):
            rows.append(source)
            return bfs(g, source)

        monkeypatch.setattr(rcaudit.graphs, "bfs_distances", counted)
        n = 3000
        g = Graph(n, [(v, v + 1) for v in range(n // 2)])
        assert distance_table(g) is None and rows == [0]
        rows.clear()
        with pytest.raises(ValueError, match="^rc is defined for connected graphs only$"):
            rc_exact(g)
        assert rows == [0]
        rows.clear()
        with pytest.raises(ValueError, match="^audit requires a connected graph$"):
            audit_graph(g)
        assert rows == []
        rows.clear()
        path = tmp_path / "g.txt"
        path.write_text(edge_list_text(g))
        assert main(["exact", str(path)]) == 1
        assert rows == [0]
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: rc is defined for connected graphs only\n")
        # a connected graph gets one row per vertex and nothing more
        rows.clear()
        assert len(distance_table(gen_named("path", 5))) == 5 and rows == [0, 1, 2, 3, 4]
        assert distance_table(Graph(0)) == []

    def test_two_balls_cover_is_diameter_at_most_two(self):
        # every closed 2-ball covers g exactly when g is connected with
        # diameter at most 2
        seen = set()
        for g, _ in seeded_graphs(39, 120):
            nxg = self.networkx_graph(g)
            want = nx.is_connected(nxg) and nx.diameter(nxg) <= 2
            assert _two_balls_cover(g) == want
            seen.add((want, is_connected(g)))
        assert seen == {(True, True), (False, True), (False, False)}
        assert _two_balls_cover(Graph(1)) and not _two_balls_cover(Graph(2))

    def test_is_connected_matches_networkx(self):
        seen = set()
        for g, _ in seeded_graphs(38):
            want = nx.is_connected(self.networkx_graph(g))
            assert is_connected(g) == want
            seen.add(want)
        assert seen == {True, False}


class TestDiameter:
    @pytest.mark.parametrize(
        "family, size, want",
        [("path", 4, 3), ("cycle", 5, 2), ("complete", 6, 1), ("path", 1, 0)],
    )
    def test_known_values(self, family, size, want):
        assert max(map(max, distance_table(gen_named(family, size)))) == want

    def test_disconnected_rejected(self):
        assert distance_table(Graph(2, [])) is None

    def test_connectivity_predicates(self):
        assert is_connected(gen_named("path", 4))
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_complete(gen_named("complete", 3))
        assert not is_complete(gen_named("path", 3))
