from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcaudit import (
    FailingPair,
    Graph,
    GraphFormatError,
    coloring_to_text,
    gen_named,
    is_connected,
    is_rainbow_connected,
    parse_coloring,
    parse_graph6,
    to_graph6,
)
from rcaudit.cli import main
from rcaudit.rainbow import Coloring, edge_adjacency, edge_color_bits, first_failing_pair

from .conftest import MASTER_SEED, random_connected_graph, random_graph
from .oracles import (
    all_simple_paths,
    certificate_violation,
    first_failing_pair_brute,
    has_rainbow_path_brute,
    path_is_rainbow,
)


def color_all(g: Graph, color: int = 0) -> Coloring:
    return {e: color for e in g.edges}


def color_distinct(g: Graph) -> Coloring:
    return {e: i for i, e in enumerate(g.edge_list())}


def random_coloring(rng: random.Random, g: Graph, q: int) -> Coloring:
    return {e: rng.randrange(q) for e in g.edges}


class TestRainbowPath:
    # the witness that is_rainbow_connected walks back for one pair

    def test_adjacent_pair_single_edge(self):
        g = gen_named("complete", 3)
        outcome = is_rainbow_connected(g, color_all(g))
        assert outcome[(0, 1)] == (0, 1)

    def test_monochrome_path_has_no_witness(self):
        g = gen_named("path", 3)
        assert is_rainbow_connected(g, color_all(g)) == FailingPair(0, 2)

    def test_alternating_cycle_crosses_in_two_edges(self):
        g = gen_named("cycle", 4)
        coloring = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}
        # brute force says exactly the two-edge routes work
        assert has_rainbow_path_brute(g, coloring, 0, 2)
        path = is_rainbow_connected(g, coloring)[(0, 2)]
        assert path in ((0, 1, 2), (0, 3, 2))
        colors = {coloring[min(a, b), max(a, b)] for a, b in zip(path, path[1:])}
        assert colors == {0, 1}

    def test_huge_color_ids_are_fine(self):
        g = gen_named("path", 3)
        coloring = {(0, 1): 10**9, (1, 2): 7}
        assert is_rainbow_connected(g, coloring)[(0, 2)] == (0, 1, 2)


class TestIsRainbowConnected:
    def test_monochrome_clique_certifies(self):
        for n in (2, 4, 6):
            g = gen_named("complete", n)
            outcome = is_rainbow_connected(g, color_all(g))
            assert isinstance(outcome, dict)
            assert all(len(p) == 2 for p in outcome.values())

    def test_all_distinct_cycle_certifies(self):
        g = gen_named("cycle", 5)
        outcome = is_rainbow_connected(g, color_distinct(g))
        assert isinstance(outcome, dict)

    def test_bad_path_coloring_fails_at_endpoints(self):
        g = gen_named("path", 4)
        coloring = {(0, 1): 0, (1, 2): 1, (2, 3): 0}
        outcome = is_rainbow_connected(g, coloring)
        assert outcome == FailingPair(0, 3)

    def test_disconnected_reports_first_cross_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        outcome = is_rainbow_connected(g, color_distinct(g))
        assert outcome == FailingPair(0, 2)

    def test_partial_coloring_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match="not total"):
            is_rainbow_connected(g, {(0, 1): 0})

    def test_foreign_edge_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match="non-edge"):
            is_rainbow_connected(g, {(0, 1): 0, (1, 2): 0, (0, 2): 0})

    def test_single_vertex_trivially_connected(self):
        outcome = is_rainbow_connected(Graph(1), {})
        assert isinstance(outcome, dict)
        assert outcome == {}

    def test_agrees_with_brute_force(self):
        rng = random.Random(MASTER_SEED)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
            coloring = random_coloring(rng, g, rng.randint(1, max(g.m, 1)))
            outcome = is_rainbow_connected(g, coloring)
            brute = first_failing_pair_brute(g, coloring)
            if brute is None:
                assert isinstance(outcome, dict)
                assert certificate_violation(g, coloring, outcome) is None
            else:
                assert outcome == FailingPair(*brute)
            checked += 1

    def test_witnesses_are_simple_paths(self):
        # the state search tracks colors, not visited vertices; every
        # emitted witness must still be a simple path
        rng = random.Random(MASTER_SEED + 1)
        for _ in range(200):
            n = rng.randint(2, 8)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
            coloring = random_coloring(rng, g, rng.randint(1, max(g.m, 1)))
            outcome = is_rainbow_connected(g, coloring)
            if isinstance(outcome, dict):
                for path in outcome.values():
                    assert len(set(path)) == len(path)

    def test_refinement_keeps_passing(self):
        # splitting any color class into fresh colors preserves the pass
        rng = random.Random(MASTER_SEED + 2)
        passed = 0
        while passed < 60:
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.4, 0.9))
            coloring = random_coloring(rng, g, rng.randint(1, max(g.m, 1)))
            if isinstance(is_rainbow_connected(g, coloring), FailingPair):
                continue
            passed += 1
            split = rng.randrange(1 + max(coloring.values()))
            fresh = 1 + max(coloring.values())
            refined = {}
            for e, c in coloring.items():
                if c == split and rng.random() < 0.5:
                    refined[e] = fresh
                    fresh += 1
                else:
                    refined[e] = c
            outcome = is_rainbow_connected(g, refined)
            assert isinstance(outcome, dict)

    def test_deterministic(self):
        rng = random.Random(MASTER_SEED + 3)
        g = random_connected_graph(rng, 7, 0.5)
        coloring = random_coloring(rng, g, 3)
        first = is_rainbow_connected(g, coloring)
        second = is_rainbow_connected(g, coloring)
        assert first == second


def check(g: Graph, coloring: Coloring) -> FailingPair | None:
    return first_failing_pair(edge_adjacency(g), edge_color_bits(g, coloring))


class TestFirstFailingPair:
    def test_edge_adjacency_follows_edge_list(self):
        g = gen_named("cycle", 4)
        assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert edge_adjacency(g) == (
            ((1, 0), (3, 1)),
            ((0, 0), (2, 2)),
            ((1, 2), (3, 3)),
            ((0, 1), (2, 3)),
        )

    def test_edge_adjacency_matches_neighbor_lists(self):
        # the reference pairs each vertex's ascending neighbors with the
        # edges' positions in edge_list(), looked up in a dict
        rng = random.Random(MASTER_SEED + 5)
        graphs = [Graph(0), Graph(1), Graph(5), Graph(6, [(0, 1), (2, 3), (3, 4)])]
        graphs += [random_graph(rng, rng.randint(0, 14), rng.random()) for _ in range(80)]
        disconnected = 0
        for g in graphs:
            disconnected += g.n > 1 and not is_connected(g)
            index = {e: i for i, e in enumerate(g.edge_list())}
            expected = tuple(
                tuple((w, index[(v, w) if v < w else (w, v)]) for w in g.neighbors(v))
                for v in range(g.n)
            )
            assert edge_adjacency(g) == expected
        assert disconnected > 10

    def test_bits_reindex_sparse_colors(self):
        g = gen_named("path", 4)
        coloring = {(0, 1): 10**18, (1, 2): 5, (2, 3): 10**18}
        assert edge_color_bits(g, coloring) == [2, 1, 2]

    def test_partial_coloring_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(ValueError, match="not total"):
            edge_color_bits(g, {(0, 1): 0})

    def test_errors_name_the_lexicographically_first_edge(self):
        g = gen_named("cycle", 6)
        missing = {(2, 3): 0, (3, 4): 0, (4, 5): 0, (0, 1): 0}
        with pytest.raises(ValueError) as err:
            edge_color_bits(g, missing)
        assert str(err.value) == "coloring is not total: edge (0, 5) has no color"
        extra = dict.fromkeys(g.edge_list(), 0) | {(1, 3): 0, (0, 2): 0}
        with pytest.raises(ValueError) as err:
            edge_color_bits(g, extra)
        assert str(err.value) == "coloring assigns a color to non-edge (0, 2)"

    def test_bad_path_coloring_fails_at_endpoints(self):
        g = gen_named("path", 4)
        coloring = {(0, 1): 0, (1, 2): 1, (2, 3): 0}
        assert check(g, coloring) == FailingPair(0, 3)

    def test_passing_colorings(self):
        g = gen_named("cycle", 5)
        assert check(g, color_distinct(g)) is None
        k = gen_named("complete", 5)
        assert check(k, color_all(k)) is None

    def test_trivial_graphs_pass(self):
        assert first_failing_pair(edge_adjacency(Graph(0)), []) is None
        assert first_failing_pair(edge_adjacency(Graph(1)), []) is None

    def test_disconnected_reports_first_unreachable_pair(self):
        # the monochrome path fails inside its component before any
        # cross-component pair comes up
        g = Graph(4, [(0, 1), (1, 2)])
        assert check(g, color_all(g)) == FailingPair(0, 2)
        assert check(g, color_distinct(g)) == FailingPair(0, 3)
        # the certificate search runs the same scan and agrees
        for coloring in (color_all(g), color_distinct(g)):
            assert is_rainbow_connected(g, coloring) == check(g, coloring)

    def test_agrees_with_brute_force(self):
        rng = random.Random(MASTER_SEED + 4)
        for _ in range(500):
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
            coloring = random_coloring(rng, g, rng.randint(1, max(g.m, 1)))
            brute = first_failing_pair_brute(g, coloring)
            expected = None if brute is None else FailingPair(*brute)
            assert check(g, coloring) == expected


@st.composite
def colored_graphs(draw):
    """A graph with a coloring drawn from a palette of small, sparse or
    huge ids. Mostly connected (random spanning tree plus extra edges,
    relabeled); otherwise just the extra edges, often disconnected."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    edges = set()
    if draw(st.integers(0, 3)):
        edges = {
            tuple(sorted((order[v], order[draw(st.integers(0, v - 1))])))
            for v in range(1, n)
        }
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=12))) if pairs else set()
    g = Graph(n, edges)
    palette = draw(
        st.lists(
            st.one_of(st.integers(0, 4), st.integers(0, 10**6), st.integers(0, 10**30)),
            min_size=1,
            max_size=max(g.m, 1),
            unique=True,
        )
    )
    coloring = {e: draw(st.sampled_from(palette)) for e in g.edge_list()}
    return g, coloring


@given(colored_graphs())
@settings(max_examples=300, deadline=None)
def test_first_failing_pair_matches_certificate_builder(case):
    g, coloring = case
    outcome = is_rainbow_connected(g, coloring)
    got = check(g, coloring)
    if isinstance(outcome, dict):
        assert got is None
        assert certificate_violation(g, coloring, outcome) is None
        # the search reaches each pair by a walk of fewest edges first
        for (s, t), witness in outcome.items():
            rainbow = [p for p in all_simple_paths(g, s, t) if path_is_rainbow(coloring, p)]
            assert len(witness) == min(map(len, rainbow))
    else:
        assert got == outcome


@given(colored_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_known_rainbow_pairs_leave_the_first_failing_pair(case, data):
    # pairs known to have a rainbow path are skipped, and bits of a
    # vertex's own id and of lower ids are ignored; the answer stays the
    # full scan's
    g, coloring = case
    every = (1 << g.n) - 1
    # a full mask leaves a source only its failing pairs as targets
    masks = st.one_of(st.just(every), st.integers(0, every))
    drawn = data.draw(st.lists(masks, min_size=g.n, max_size=g.n))
    known = [
        sum(
            1 << v
            for v in range(g.n)
            if mask >> v & 1 and (v <= u or has_rainbow_path_brute(g, coloring, u, v))
        )
        for u, mask in enumerate(drawn)
    ]
    adjacency, bits = edge_adjacency(g), edge_color_bits(g, coloring)
    assert first_failing_pair(adjacency, bits, known) == first_failing_pair(adjacency, bits)


class TestVerifyCertificate:
    # the certificate check of tests/oracles.py, which shares no code with
    # the search that emits the certificates it checks

    def setup_method(self):
        self.g = gen_named("cycle", 6)
        self.coloring = color_distinct(self.g)
        outcome = is_rainbow_connected(self.g, self.coloring)
        assert isinstance(outcome, dict)
        self.witnesses = outcome

    def check(self, witnesses=None, coloring=None):
        if witnesses is None:
            witnesses = self.witnesses
        return certificate_violation(self.g, coloring or self.coloring, witnesses)

    def test_emitted_certificate_verifies(self):
        assert self.check() is None

    def test_duplicate_color_detected(self):
        # five of the fifteen pairs are adjacent; a longer witness repeats color 0
        bad = {e: 0 for e in self.g.edge_list()}
        assert self.check(coloring=bad) == "pair (0, 2): witness repeats a color"

    def test_missing_pair_detected(self):
        witnesses = dict(self.witnesses)
        del witnesses[(0, 1)]
        assert self.check(witnesses) == "pair (0, 1) has no witness"

    def test_non_edge_step_detected(self):
        got = self.check({**self.witnesses, (0, 2): (0, 2)})
        assert got == "pair (0, 2): (0, 2) is not an edge"

    def test_repeated_vertex_detected(self):
        got = self.check({**self.witnesses, (0, 1): (0, 5, 0, 1)})
        assert got == "pair (0, 1): witness repeats a vertex"


class TestColoringIO:
    def test_text_roundtrip(self):
        g = gen_named("cycle", 4)
        coloring = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}
        text = coloring_to_text(coloring)
        assert parse_coloring(text, g) == coloring

    def test_unknown_edge_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(GraphFormatError, match="not an edge"):
            parse_coloring("0 2 1\n", g)

    def test_duplicate_line_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_coloring("0 1 1\n1 0 2\n", g)

    def test_bad_line_rejected(self):
        g = gen_named("path", 3)
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_coloring("0 1\n", g)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("0 1 -1\n1 2 0\n", "negative color -1"),
            ("0 0 1\n", r"\(0, 0\) is not an edge"),
            ("0 1 1\n1 0 1\n", "line 2: duplicate"),
            ("1 0 2\n2 1 3\n", None),
            ("0 1 x\n", r"^coloring: line 1: expected integers, got '0 1 x'$"),
        ],
        ids=["negative-color", "loop", "reversed-duplicate", "reversed-key", "non-integer"],
    )
    def test_parse_is_the_checked_way_in(self, text, error):
        # a coloring dict is checked by nothing, so the text parser must
        # reject what breaks its contract and order each key
        g = gen_named("path", 3)
        if error is not None:
            with pytest.raises(GraphFormatError, match=error):
                parse_coloring(text, g)
        else:
            assert parse_coloring(text, g) == {(0, 1): 2, (1, 2): 3}

    def test_comments_and_blanks_skipped(self):
        g = gen_named("path", 3)
        coloring = parse_coloring("# a coloring\n\n0 1 0\n1 2 1\n", g)
        assert 1 + max(coloring.values()) == 2

    def test_certificate_jsonl(self, tmp_path, capsys):
        # verify's JSON form: one witness record per pair, pairs in
        # lexicographic order, each listing its path's edge colors
        g = gen_named("path", 3)
        coloring = {(0, 1): 0, (1, 2): 1}
        path = tmp_path / "coloring.txt"
        path.write_text(coloring_to_text(coloring))
        assert main(["verify", "--format", "json", to_graph6(g), str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert records[0] == {"pair": [0, 1], "path": [0, 1], "colors": [0]}
        assert [r["pair"] for r in records] == [[0, 1], [0, 2], [1, 2]]
        assert records[1] == {"pair": [0, 2], "path": [0, 1, 2], "colors": [0, 1]}


@st.composite
def complete_graph_colorings(draw):
    # any coloring of a complete graph is rainbow connected, so it passes
    g = gen_named("complete", draw(st.integers(1, 5)))
    return g, {e: draw(st.integers(0, 20)) for e in g.edge_list()}


@given(complete_graph_colorings())
# a path whose two colors are far apart: the count is not one past the
# largest id
@example((parse_graph6("Bg"), {(0, 1): 10**9, (1, 2): 7}))
@settings(max_examples=40, deadline=None)
def test_num_colors_matches_definition(case):
    # verify's color count is the number of distinct colors, zero with
    # no edge
    g, coloring = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "coloring.txt"
        path.write_text(coloring_to_text(coloring))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", to_graph6(g), str(path)]) == 0
    pairs = g.n * (g.n - 1) // 2
    colors = len(set(coloring.values()))
    assert out.getvalue() == f"rainbow connected: {pairs} pair(s), {colors} color(s)\n"
