from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import contextmanager
from itertools import combinations

import pytest

from rcaudit import (
    AuditTrace,
    Case,
    CounterexampleParams,
    FailingPair,
    Graph,
    audit_corpus,
    construct_coloring,
    decompose,
    degree_stats,
    gen_counterexample,
    gen_named,
    parse_graph6,
    rc_exact,
    run_construction,
    to_graph6,
    trace_records,
)
import rcaudit.construct as construct_module
import rcaudit.graphs as graphs_module
import rcaudit.rainbow as rainbow_module
from rcaudit.construct import ConstructionError
from rcaudit.generators import iter_connected_graphs, random_corpus
from rcaudit.graphs import bfs_distances
from rcaudit.rainbow import edge_adjacency, edge_color_bits, first_failing_pair

from .conftest import (
    MASTER_SEED,
    assert_trace_invariants,
    nested_trace,
    random_connected_graph,
    random_graph,
    trace_nodes,
)
from .oracles import has_rainbow_path_brute, induced_subgraph, union_find_components


# sha256 of the colorings and traces in test_colorings_and_traces_are_pinned
CONSTRUCTION_DIGEST = "4559bbfeaeba5ba7df2ef92697651a789c243cc4afad7a4bf281136ca290c4b3"


def contraction_witness() -> Graph:
    """Two triangles hung off opposite ends of a degree-2 bridge clique:
    each clique vertex reaches exactly one component, forcing the
    contraction branch."""
    return Graph(8, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 4), (1, 5), (5, 6), (5, 7), (6, 7)])


def new_color_witness() -> Graph:
    """Degree-3 triangle clique with two K4 blocks: the lead component sees
    two clique vertices and its minimum degree clears the floor by one."""
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 7)]
    edges += list(combinations([3, 4, 5, 6], 2))
    edges += list(combinations([7, 8, 9, 10], 2))
    return Graph(11, edges)


def reused_color_witness() -> Graph:
    """Degree-4 triangle clique with two K5 blocks entered through
    degree-floor vertices: both components sit exactly at the floor and
    the lead attachment misses clique vertex 2."""
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(0, 3), (1, 3), (3, 4), (3, 5), (1, 6)]
    edges += list(combinations([4, 5, 6, 7, 8], 2))
    edges += [(0, 9), (2, 9), (9, 10), (9, 11), (2, 12)]
    edges += list(combinations([10, 11, 12, 13, 14], 2))
    return Graph(15, edges)


# sha256 of the sorted coloring and the trace of each hand-built witness,
# with its verification outcome; CONSTRUCTION_DIGEST's corpus reaches none
# of the new-color, reused-color or contraction branches
WITNESS_PINS = {
    "contraction_witness": (
        "d8f166b06173de3598e2fb2ebc283ee4cf850d7e853cef89cad181b487a27681",
        "pass",
    ),
    "new_color_witness": (
        "de2d87a34b62904d2d42242a09a5b4b0fc504f7a3bdaa2328f3395f49f168fc0",
        "pass",
    ),
    "reused_color_witness": (
        "66ad42f0959619187edf04fe5457b9abb0de617ab67863f819d28897800c146f",
        FailingPair(2, 3),
    ),
}


@contextmanager
def recursion_limit(limit: int):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def first_member_cliques(monkeypatch) -> None:
    """Patch every level's clique down to its first member: a clique that
    is not maximal, so a component may fall below the degree floor."""
    real = construct_module._greedy_clique

    def first_member_only(rows, verts, mask):
        delta, clique, _ = real(rows, verts, mask)
        return delta, clique[:1], 1 << clique[0]

    monkeypatch.setattr(construct_module, "_greedy_clique", first_member_only)


class TestMinDegreeClique:
    """The greedy minimum-degree clique that decompose deletes."""

    def test_path_picks_lowest_leaf(self):
        assert decompose(gen_named("path", 3)).clique == (0,)

    def test_cycle_picks_greedy_edge(self):
        assert decompose(gen_named("cycle", 4)).clique == (0, 1)

    def test_star_picks_one_leaf(self):
        assert decompose(gen_named("star", 4)).clique == (1,)

    def test_complete_rejected(self):
        # the greedy clique of a complete graph is all of it: a base case
        with pytest.raises(ConstructionError, match="removed every vertex"):
            decompose(gen_named("complete", 4))

    def test_properties_on_random_graphs(self):
        rng = random.Random(MASTER_SEED + 20)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.8))
            if g.m == g.n * (g.n - 1) // 2:
                continue
            clique = decompose(g).clique
            delta = degree_stats(g).min_degree
            assert 1 <= len(clique) <= delta
            assert all(g.degree(v) == delta for v in clique)
            assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))
            for v in range(g.n):
                if v not in clique and g.degree(v) == delta:
                    assert not all(g.has_edge(v, u) for u in clique)


class TestDecompose:
    def test_cycle5_is_full_attachment(self):
        g = gen_named("cycle", 5)
        rec = decompose(g)
        assert rec.case is Case.FULL_ATTACHMENT
        assert rec.t == 1 and rec.k1 == 2
        assert rec.components[0].vertices == (2, 3, 4)

    def test_star_center_survives(self):
        g = gen_named("star", 4)
        rec = decompose(g)
        assert rec.clique == (1,)
        assert rec.case is Case.FULL_ATTACHMENT
        assert rec.t == 1
        assert set(rec.components[0].vertices) == {0, 2, 3}

    def test_contraction_witness_classified(self):
        g = contraction_witness()
        rec = decompose(g)
        assert rec.clique == (0, 1)
        assert rec.case is Case.CONTRACTION
        assert rec.k1 == 1 and rec.t == 2

    def test_new_color_witness_classified(self):
        g = new_color_witness()
        rec = decompose(g)
        assert rec.case is Case.NEW_CLIQUE_COLOR
        assert rec.k1 == 2

    def test_new_color_threshold_is_one_above_the_floor(self):
        # triangle clique of degree-3 vertices; both components sit at
        # d - k + 2 = 2, one above the floor d - k + 1: the lowest
        # minimum degree that takes the fresh clique color
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 7)]
        edges += [(3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
        edges += [(7, 8), (7, 9)] + list(combinations([8, 9, 10, 11], 2))
        g = Graph(12, edges)
        rec = decompose(g)
        d = degree_stats(g).min_degree
        assert (d, rec.clique, rec.k1) == (3, (0, 1, 2), 2)
        assert [c.min_degree for c in rec.components] == [d - rec.k + 2] * 2
        assert rec.case is Case.NEW_CLIQUE_COLOR
        _, trace = construct_coloring(g)
        assert trace.verification == "pass" and trace.colors_used <= trace.budget

    def test_reused_color_witness_classified(self):
        g = reused_color_witness()
        rec = decompose(g)
        assert rec.case is Case.REUSED_CLIQUE_COLOR
        assert rec.k1 == 2
        assert all(c.min_degree == 2 for c in rec.components)

    def test_components_ordered_by_attachment_then_id(self):
        rng = random.Random(MASTER_SEED + 21)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.7))
            if g.m == g.n * (g.n - 1) // 2:
                continue
            rec = decompose(g)
            sizes = [len(c.attachment) for c in rec.components]
            assert sizes == sorted(sizes, reverse=True)
            assert rec.k1 == sizes[0]
            floor = degree_stats(g).min_degree - rec.k + 1
            assert all(c.min_degree >= floor for c in rec.components)

    @staticmethod
    def reference(g: Graph, clique: tuple[int, ...]):
        """Blocks, minimum degrees and attachments computed by deleting
        the clique, splitting the rest by union-find and building each
        component's induced subgraph."""
        rest, kept = induced_subgraph(g, set(range(g.n)) - set(clique))
        out = []
        for block in union_find_components(rest.n, rest.edges):
            orig = tuple(kept[v] for v in block)
            sub, _ = induced_subgraph(g, orig)
            dmin = min(sub.degree(v) for v in range(sub.n))
            attachment = tuple(u for u in clique if any(g.has_edge(u, w) for w in orig))
            out.append((orig, dmin, attachment))
        return sorted(out, key=lambda c: (-len(c[2]), c[0][0]))

    def test_matches_induced_subgraph_reference(self):
        rng = random.Random(MASTER_SEED + 24)
        graphs = [contraction_witness(), new_color_witness(), reused_color_witness()]
        while len(graphs) < 63:
            g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.15, 0.7))
            if len(graphs) % 2:
                # half of them disjoint unions, so disconnected
                h = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
                g = Graph(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])
            if min(g.degree(v) for v in range(g.n)) >= 1 and g.m < g.n * (g.n - 1) // 2:
                graphs.append(g)
        disconnected = 0
        for g in graphs:
            disconnected += len(union_find_components(g.n, g.edges)) > 1
            # the greedy clique choice, by its definition
            delta = min(g.degree(v) for v in range(g.n))
            clique: list[int] = []
            for v in range(g.n):
                if g.degree(v) == delta and all(g.has_edge(v, u) for u in clique):
                    clique.append(v)
            rec = decompose(g)
            assert rec.clique == tuple(clique)
            got = [(c.vertices, c.min_degree, c.attachment) for c in rec.components]
            assert got == self.reference(g, tuple(clique))
            assert all(c.size == len(c.vertices) for c in rec.components)
        assert disconnected >= 25


class TestConstructColoring:
    def test_clique_base_case(self):
        coloring, trace = construct_coloring(gen_named("complete", 5))
        assert trace.case is Case.BASE
        assert trace.colors_used == 1 == 1 + max(coloring.values())
        assert trace.verification == "pass"

    def test_path3_hand_trace(self):
        # clique {0}; component 1-2 is a base clique using one color; one
        # fresh cross color on edge 0-1 gives two total, the full budget
        coloring, trace = construct_coloring(gen_named("path", 3))
        assert trace.colors_used == 2 and trace.budget == 2
        assert trace.case is Case.FULL_ATTACHMENT
        assert len(trace.children) == 1 and trace.children[0].case is Case.BASE
        assert trace.verification == "pass"

    def test_cycle5_hand_trace(self):
        # clique {0,1}; inner path 2-3-4 takes two colors; one fresh color
        # covers both cross edges and the clique edge
        coloring, trace = construct_coloring(gen_named("cycle", 5))
        assert trace.colors_used == 3 and trace.budget == 3
        assert coloring[0, 1] == coloring[1, 2] == coloring[0, 4]
        assert trace.verification == "pass"

    def test_single_vertex(self):
        coloring, trace = construct_coloring(Graph(1))
        assert trace.case is Case.BASE
        assert trace.colors_used == 0 and trace.budget == 1
        assert trace.verification == "pass"

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            construct_coloring(Graph(3, [(0, 1)]))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^construction requires at least one vertex$"):
            construct_coloring(Graph(0))

    def test_connectivity_checked_once(self, monkeypatch):
        # every level below the root colors a component of a connected
        # graph or the contraction of one, so only the entry checks
        calls = []
        real = construct_module.is_connected

        def counted(h):
            calls.append(h.n)
            return real(h)

        monkeypatch.setattr(construct_module, "is_connected", counted)
        _, trace = construct_coloring(gen_named("path", 60))
        assert trace.verification == "pass"
        assert calls == [60]

    def test_levels_build_no_validated_graphs(self, monkeypatch):
        # every level below the root is a vertex mask over the root's bit
        # rows (or over rows rewritten by a contraction): no Graph at all is
        # created, neither by the validating constructor nor by the
        # unchecked row builder, which both fill their fields through _fill
        calls = []
        real = Graph.__init__
        real_fill = graphs_module._fill

        def counted(self, n, edges=()):
            calls.append(n)
            real(self, n, edges)

        def counted_fill(g, rows):
            calls.append(len(rows))
            return real_fill(g, rows)

        corpus = random_corpus(60, 4, 40, 7) + [contraction_witness(), new_color_witness()]
        monkeypatch.setattr(Graph, "__init__", counted)
        monkeypatch.setattr(graphs_module, "_fill", counted_fill)
        traces = [construct_coloring(g)[1] for g in corpus]
        children = [node for trace in traces for node in trace_nodes(trace) if node is not trace]
        assert calls == []
        assert len(children) > 0
        assert {Case.CONTRACTION, Case.NEW_CLIQUE_COLOR} <= {t.case for t in traces}

    def test_colorings_and_traces_are_pinned(self):
        # one digest over every connected graph with n <= 5 and a seeded
        # random corpus; a change to any color, case, component or label
        # of the construction shows up here
        digest = hashlib.sha256()
        graphs = [g for n in range(1, 6) for g in iter_connected_graphs(n)]
        graphs += random_corpus(60, 4, 40, MASTER_SEED)
        assert len(graphs) == 832
        for g in graphs:
            coloring, trace = construct_coloring(g)
            record = [sorted(coloring.items()), nested_trace(trace_records(trace))]
            digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == CONSTRUCTION_DIGEST

    @pytest.mark.parametrize("name", sorted(WITNESS_PINS))
    def test_witness_colorings_and_traces_are_pinned(self, name):
        coloring, trace = construct_coloring(globals()[name]())
        record = [sorted(coloring.items()), nested_trace(trace_records(trace))]
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert (digest, trace.verification) == WITNESS_PINS[name]

    def test_verification_rejects_partial_coloring(self, monkeypatch):
        # a construction bug that leaves an edge uncolored must raise, not
        # pass or fail verification; _construct hands the finished
        # coloring to verification
        g = gen_named("cycle", 5)
        real = construct_module._construct

        def drop_one_edge(h, labels):
            colors, trace = real(h, labels)
            del colors[min(colors)]
            return colors, trace

        monkeypatch.setattr(construct_module, "_construct", drop_one_edge)
        with pytest.raises(ValueError, match="not total"):
            construct_coloring(g)

    def test_path_deeper_than_the_recursion_limit(self):
        # one level per vertex: a recursive construction would need
        # several hundred nested calls here
        g = gen_named("path", 600)
        with recursion_limit(400):
            coloring, trace = construct_coloring(g)
            assert assert_trace_invariants(trace) == g.n - 2
        assert trace.colors_used == g.n - 1 == 1 + max(coloring.values())
        assert trace.verification == "pass"

    @pytest.mark.parametrize(
        "make, levels",
        [
            # the lead level has three sibling components
            (lambda: gen_counterexample(CounterexampleParams(6, 3))[0], 10),
            (contraction_witness, 4),
            (new_color_witness, 3),
            (reused_color_witness, 5),
        ],
        ids=["counterexample", "contraction", "new_color", "reused_color"],
    )
    def test_levels_are_entered_in_trace_preorder(self, monkeypatch, make, levels):
        # each level chooses its clique once, on entry, on the vertices
        # its trace records
        entered = []
        real = construct_module._greedy_clique

        def recording(rows, verts, mask):
            entered.append(verts)
            return real(rows, verts, mask)

        monkeypatch.setattr(construct_module, "_greedy_clique", recording)
        trace = construct_coloring(make())[1]
        assert len(entered) == levels
        assert entered == [node.vertices for node in trace_nodes(trace)]

    def test_contraction_branch_verifies(self):
        g = contraction_witness()
        coloring, trace = construct_coloring(g)
        assert trace.case is Case.CONTRACTION
        assert trace.verification == "pass"
        assert trace.colors_used <= trace.budget
        assert trace.contraction is not None
        assert trace.contraction.min_degree_after >= trace.min_degree
        assert trace.contraction.measure_after < trace.budget
        # the lift gives clique-internal edges their own fresh color
        assert coloring[0, 1] == trace.colors_used - 1

    def test_new_color_branch_verifies(self):
        g = new_color_witness()
        coloring, trace = construct_coloring(g)
        assert trace.case is Case.NEW_CLIQUE_COLOR
        assert trace.verification == "pass"
        clique_color = coloring[0, 1]
        cross_colors = {coloring[0, 3], coloring[1, 4], coloring[2, 7]}
        assert clique_color not in cross_colors

    def test_reused_color_branch_fails_as_designed(self):
        # executing the reused-color rule verbatim strands the clique
        # vertex outside the lead attachment: every escape from the lead
        # component spends the same color as the clique edges
        g = reused_color_witness()
        coloring, trace = construct_coloring(g)
        assert trace.case is Case.REUSED_CLIQUE_COLOR
        assert trace.verification == FailingPair(2, 3)
        assert not has_rainbow_path_brute(g, coloring, 2, 3)

    def test_palettes_disjoint_across_components(self):
        g = contraction_witness()
        coloring, trace = construct_coloring(g)
        # triangle {2,3,4} and triangle {5,6,7} recurse independently
        left = {coloring[e] for e in [(2, 3), (2, 4), (3, 4)]}
        right = {coloring[e] for e in [(5, 6), (5, 7), (6, 7)]}
        assert left.isdisjoint(right)


class TestMaskedVerification:
    """The construction's check settles edge and rainbow 2-path pairs on
    per-color neighbor masks before any rainbow search; its answer must
    be the full scan's, failing pair for failing pair."""

    @staticmethod
    def full(g, coloring):
        return first_failing_pair(edge_adjacency(g), edge_color_bits(g, coloring))

    def test_constructions_of_every_graph_up_to_six_vertices(self):
        graphs = [g for n in range(1, 7) for g in iter_connected_graphs(n)]
        assert len(graphs) == 27476
        for g in graphs:
            coloring, trace = construct_coloring(g)
            assert (trace.verification, self.full(g, coloring)) == ("pass", None)

    def test_constructions_of_the_random_corpus(self):
        left_over = 0
        for g in random_corpus(500, 4, 40, MASTER_SEED):
            coloring, trace = construct_coloring(g)
            want = self.full(g, coloring)
            assert trace.verification == ("pass" if want is None else want)
            left_over += rainbow_module._two_path_cover(g.n, coloring) is not None
        # pairs at distance 3 or more are left to the rainbow search
        assert left_over > 0

    @pytest.mark.parametrize("name", sorted(WITNESS_PINS))
    def test_witness_constructions(self, name):
        g = globals()[name]()
        coloring, trace = construct_coloring(g)
        want = self.full(g, coloring)
        assert rainbow_module.failing_pair(g, coloring) == want
        assert trace.verification == ("pass" if want is None else want)
        if name == "reused_color_witness":
            assert want == FailingPair(2, 3)

    def test_seeded_recolorings(self):
        # random colorings with 2 to 4 colors fail often, on pairs joined
        # only by monochromatic 2-paths and on pairs further apart
        rng = random.Random(MASTER_SEED + 40)
        graphs = [g for g in random_corpus(120, 4, 16, MASTER_SEED + 41) if g.m]
        graphs += [g for g in iter_connected_graphs(5) if rng.random() < 0.2]
        distances = {2: 0, 3: 0}
        for g in graphs:
            for q in (2, 3, 4):
                colors = {e: rng.randrange(q) for e in g.edge_list()}
                want = self.full(g, colors)
                assert rainbow_module.failing_pair(g, colors) == want
                if want is not None:
                    distances[min(bfs_distances(g, want.u)[want.v], 3)] += 1
        assert distances[2] > 0 and distances[3] > 0

    def test_disconnected_graphs(self):
        # no edge, or colors far apart: the pairs the 2-path pass leaves
        # get the full scan's pair
        cases = [
            (Graph(2), {}),
            (Graph(3, [(0, 1)]), {(0, 1): 5}),
            (Graph(4, [(0, 1), (2, 3)]), {(0, 1): 5, (2, 3): 7}),
            (Graph(5, [(0, 1), (1, 2), (3, 4)]), {(0, 1): 0, (1, 2): 1, (3, 4): 2}),
        ]
        for g, colors in cases:
            want = self.full(g, colors)
            assert want is not None
            assert rainbow_module.failing_pair(g, colors) == want

    def test_partial_and_foreign_colorings_raise_the_same_errors(self):
        g = gen_named("path", 3)
        for colors in ({(0, 1): 0}, {(0, 1): 0, (1, 2): 1, (0, 2): 2}):
            with pytest.raises(ValueError) as want:
                self.full(g, colors)
            with pytest.raises(ValueError) as got:
                rainbow_module.failing_pair(g, colors)
            assert str(got.value) == str(want.value)

    def test_result_is_normal(self):
        # a coloring dict is checked by nothing: the construction's
        # coloring must keep its contract, keys (u, v) with u < v and
        # colors >= 0
        graphs = [contraction_witness(), new_color_witness(), reused_color_witness()]
        graphs += random_corpus(40, 4, 20, MASTER_SEED)
        for g in graphs:
            coloring = construct_coloring(g)[0]
            assert all(u < v and c >= 0 for (u, v), c in coloring.items())


class TestAuditConstruction:
    def test_cliques_pass(self):
        for n in range(1, 8):
            assert run_construction(gen_named("complete", n))[0] is None

    def test_path7_within_budget(self):
        finding, coloring, trace = run_construction(gen_named("path", 7))
        assert finding is None
        assert trace.colors_used <= 6

    def test_random_corpus_passes(self):
        rng = random.Random(MASTER_SEED + 22)
        for _ in range(150):
            g = random_connected_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.9))
            finding = run_construction(g)[0]
            assert finding is None, to_graph6(g)

    def test_reused_color_witness_becomes_finding(self):
        g = reused_color_witness()
        finding, _, trace = run_construction(g)
        assert finding is not None
        assert finding["kind"] == "verification-failed"
        assert finding["failing_pair"] == FailingPair(2, 3)
        assert trace.verification == FailingPair(2, 3)
        # replaying the reproducer reproduces the finding
        again = run_construction(parse_graph6(to_graph6(g)))[0]
        assert again == finding

    def test_finding_trace_serializes(self):
        finding = run_construction(reused_color_witness())[0]
        d = finding["trace"][0]
        assert d["parent"] is None
        assert d["case"] == "reused_clique_color"
        assert d["verification"] == {"failing_pair": FailingPair(2, 3)}
        assert d["k"] == 3 and d["t"] == 2


class TestInvariantChecks:
    """Each ConstructionError raise is the one check of its invariant; a
    sound construction never reaches them, so each test breaks the level
    it checks by patching the module, and sees the raise."""

    @staticmethod
    def short_budgets(monkeypatch):
        # every level's color budget one below n - d
        def short(case, n, min_degree, budget, *args, **kwargs):
            return AuditTrace(case, n, min_degree, budget - 1, *args, **kwargs)

        monkeypatch.setattr(construct_module, "AuditTrace", short)

    def test_component_below_the_degree_floor(self, monkeypatch):
        # on C_5 the clique {0} leaves the path 1-2-3-4, with leaves below
        # the floor d - k + 1 = 2
        first_member_cliques(monkeypatch)
        with pytest.raises(ConstructionError, match="below the guaranteed floor 2"):
            decompose(gen_named("cycle", 5))

    def test_contraction_with_a_single_vertex_clique(self):
        # decompose does not check connectivity: an isolated vertex is a
        # one-vertex clique that attaches to no component
        with pytest.raises(ConstructionError, match="single-vertex clique"):
            decompose(Graph(3, [(1, 2)]))

    def test_contraction_lowering_the_min_degree(self, monkeypatch):
        # a level that counts its minimum degree one too high: the
        # contracted graph then has a smaller one
        real = construct_module._greedy_clique

        def overcounted(rows, verts, mask):
            delta, clique, cmask = real(rows, verts, mask)
            return delta + 1, clique, cmask

        monkeypatch.setattr(construct_module, "_greedy_clique", overcounted)
        g = contraction_witness()
        finding, coloring, trace = run_construction(g)
        assert (coloring, trace) == (None, None)
        assert finding == {
            "kind": "structural",
            "detail": "contraction lowered the minimum degree: 2 < 3",
        }

    def test_contraction_not_lowering_the_measure(self, monkeypatch):
        self.short_budgets(monkeypatch)
        with pytest.raises(ConstructionError, match="under contraction: 5 >= 5") as exc:
            construct_coloring(contraction_witness())
        assert exc.value.trace is None

    def test_component_not_lowering_the_measure(self, monkeypatch):
        # C_5 has budget 3 less one; its component, the path 2-3-4, has
        # measure 2
        self.short_budgets(monkeypatch)
        with pytest.raises(ConstructionError, match=r"component \(2, 3, 4\) has n-d = 2") as exc:
            construct_coloring(gen_named("cycle", 5))
        assert exc.value.trace is None

    def test_color_budget_two_levels_below_the_root(self, monkeypatch):
        # P_4 recurses on the path 1-2-3, then on the edge 2-3; only that
        # base level gets a budget one short, zero, so its one color
        # overspends while the levels above it stay within theirs
        g = gen_named("path", 4)
        inner = construct_coloring(g)[1].children[0].children[0]
        assert inner.vertices == (2, 3)

        def short_inner(case, n, min_degree, budget, colors_used, vertices, *args, **kwargs):
            if vertices == inner.vertices:
                budget -= 1
            return AuditTrace(case, n, min_degree, budget, colors_used, vertices, *args, **kwargs)

        monkeypatch.setattr(construct_module, "AuditTrace", short_inner)
        finding, coloring, trace = run_construction(g)
        assert (finding["kind"], coloring, trace) == ("structural", None, None)
        assert finding["detail"] == "color budget exceeded: 1 > 0 on vertices ('2', '3')"
        # the failing level's trace alone, as its root
        (level,) = finding["trace"]
        assert (level["parent"], level["vertices"]) == (None, ["2", "3"])
        assert (level["n"], level["colors_used"], level["budget"]) == (2, 1, 0)
        result = audit_corpus([g])
        assert result.aggregate.construction_failures == 1
        (reported,) = result.findings
        assert reported["kind"] == "construction-failure"
        assert parse_graph6(reported["graph6"]) == g
        assert reported["detail"] == finding


class TestTraceInvariants:
    def graphs_under_test(self):
        yield gen_named("path", 7)
        yield gen_named("cycle", 6)
        yield contraction_witness()
        yield new_color_witness()
        rng = random.Random(MASTER_SEED + 23)
        for _ in range(60):
            yield random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.2, 0.8))

    def test_measure_strictly_decreases(self):
        for g in self.graphs_under_test():
            _, trace = construct_coloring(g)
            assert_trace_invariants(trace)

    def test_fresh_color_accounting(self):
        # total = children's colors plus t fresh (t+1 when the clique gets
        # its own); the contraction branch adds exactly one
        for g in self.graphs_under_test():
            _, trace = construct_coloring(g)
            for node in trace_nodes(trace):
                if node.case is Case.BASE:
                    continue
                child_total = sum(c.colors_used for c in node.children)
                if node.case is Case.CONTRACTION:
                    assert node.colors_used == child_total + 1
                elif node.case is Case.NEW_CLIQUE_COLOR:
                    assert node.colors_used == child_total + node.decomposition.t + 1
                else:
                    assert node.colors_used == child_total + node.decomposition.t

    def test_palette_is_contiguous_and_fully_used(self):
        # color ids form exactly 0..colors_used-1: child palettes are
        # offset without gaps and every fresh color lands on an edge
        for g in self.graphs_under_test():
            coloring, trace = construct_coloring(g)
            assert set(coloring.values()) == set(range(trace.colors_used))
            assert 1 + max(coloring.values()) == trace.colors_used

    def test_trace_labels_name_original_vertices(self):
        g = contraction_witness()
        _, trace = construct_coloring(g)
        assert [trace.labels[v] for v in trace.vertices] == [str(v) for v in range(8)]
        child = trace.children[0]
        assert any(child.labels[v].startswith("merged(") for v in child.vertices)

    def test_levels_are_recorded_in_root_ids(self):
        # every level's vertices, clique, components and attachments are
        # ids of the input graph; above any contraction the rows are g's
        # own, so a component's minimum degree is that of g's subgraph
        graphs = [contraction_witness(), new_color_witness(), reused_color_witness()]
        graphs.append(gen_named("path", 7))
        rng = random.Random(MASTER_SEED + 29)
        graphs += [
            random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.2, 0.8))
            for _ in range(40)
        ]
        for g in graphs:
            trace = construct_coloring(g)[1]
            stack = [(trace, False)]
            while stack:
                node, contracted = stack.pop()
                assert list(node.vertices) == sorted(set(node.vertices))
                assert node.n == len(node.vertices)
                rec = node.decomposition
                if rec is not None:
                    assert set(rec.clique) <= set(node.vertices)
                    parts = [v for c in rec.components for v in c.vertices]
                    assert len(parts) == len(set(parts))
                    assert set(parts) == set(node.vertices) - set(rec.clique)
                    for c in rec.components:
                        assert set(c.attachment) <= set(rec.clique)
                        if not contracted:
                            assert degree_stats(g, c.vertices).min_degree == c.min_degree
                below = contracted or node.case is Case.CONTRACTION
                stack.extend([(child, below) for child in node.children])

    def test_optimality_gap_on_all_n4(self):
        for g in iter_connected_graphs(4):
            finding, coloring, trace = run_construction(g)
            assert finding is None
            bound = g.n - degree_stats(g).min_degree
            assert rc_exact(g).value <= trace.colors_used <= bound
