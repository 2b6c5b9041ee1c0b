from __future__ import annotations

import hashlib
import random
import time
import zlib

import pytest

import rcaudit.exact
import rcaudit.rainbow
from rcaudit import (
    Budget,
    DecisionStatus,
    ExactStatus,
    Graph,
    gen_named,
    is_complete,
    is_rainbow_connected,
    rc_exact,
    rc_lower_bound,
    to_graph6,
)
from rcaudit.cli import main
from rcaudit.exact import (
    _PATH_CAP,
    _paths_within,
    _search_level,
    _search_order,
    _SearchState,
)
from rcaudit.generators import (
    CounterexampleParams,
    gen_counterexample,
    iter_connected_graphs,
    random_corpus,
)
from rcaudit.graphs import bfs_distances, distance_table, parse_graph6
from rcaudit.rainbow import FailingPair, edge_adjacency

from .conftest import MASTER_SEED, random_connected_graph
from .oracles import (
    all_simple_paths,
    diameter,
    has_rainbow_path_brute,
    naive_rc,
    plain_canonical_search,
    search_order_by_sorting,
    seeded_repair_full_scan,
)


class TestLowerBound:
    @pytest.mark.parametrize(
        "family, size, want",
        [("complete", 5, 1), ("path", 4, 3), ("cycle", 6, 3)],
    )
    def test_known_values(self, family, size, want):
        assert rc_lower_bound(gen_named(family, size)) == want

    def test_at_least_two_unless_complete(self):
        rng = random.Random(MASTER_SEED)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.9))
            lb = rc_lower_bound(g)
            if is_complete(g):
                assert lb == 1
            else:
                assert lb >= 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            rc_lower_bound(Graph(2, []))

    def test_is_max_diameter_one(self):
        # bounds 1 and 2 are read off the graph, higher ones off its table
        graphs = [g for n in range(1, 6) for g in iter_connected_graphs(n)]
        graphs += random_corpus(200, 4, 40, MASTER_SEED)
        seen = set()
        for g in graphs:
            lb = rc_lower_bound(g)
            assert lb == max(diameter(g), 1)
            seen.add(min(lb, 3))
        assert seen == {1, 2, 3}


class TestPathsWithin:
    def oracle(self, g, s, t, limit):
        index = {e: i for i, e in enumerate(g.edge_list())}
        return sorted(
            tuple(sorted(index[(a, b) if a < b else (b, a)] for a, b in zip(p, p[1:])))
            for p in all_simple_paths(g, s, t)
            if len(p) - 1 <= limit
        )

    def test_matches_simple_path_oracle(self):
        rng = random.Random(MASTER_SEED + 20)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.8))
            adjacency = edge_adjacency(g)
            for t in range(g.n):
                dist_to_t = bfs_distances(g, t)
                for s in range(g.n):
                    if s == t:
                        continue
                    for limit in range(1, g.n):
                        got = _paths_within(adjacency, s, dist_to_t, limit, 10**6)
                        assert sorted(got) == self.oracle(g, s, t, limit)

    def test_cap_returns_none_above_it(self):
        g = gen_named("complete", 5)
        adjacency = edge_adjacency(g)
        dist_to_t = bfs_distances(g, 4)
        # 1 + 3 + 3*2 + 3*2*1 simple 0-4 paths in K5
        assert len(_paths_within(adjacency, 0, dist_to_t, 4, 16)) == 16
        assert _paths_within(adjacency, 0, dist_to_t, 4, 15) is None
        # within 2 edges: the direct edge and 3 two-edge paths
        assert len(_paths_within(adjacency, 0, dist_to_t, 2, 4)) == 4
        assert _paths_within(adjacency, 0, dist_to_t, 2, 3) is None


class TestDecision:
    """The deepening levels of rc_exact, read from stats.levels."""

    def test_clique_with_one_color(self):
        (level,) = rc_exact(gen_named("complete", 4)).stats.levels
        assert (level.q, level.status) == (1, DecisionStatus.SAT)
        assert 1 + max(level.coloring.values()) == 1

    def test_path4_needs_three(self):
        # the unique 3-edge path forces 3 distinct colors, so the search
        # starts at q = 3; cross-checked by enumerating all 2-colorings
        # brute force
        g = gen_named("path", 4)
        (level,) = rc_exact(g).stats.levels
        assert (level.q, level.status) == (3, DecisionStatus.SAT)
        from itertools import product

        from .oracles import first_failing_pair_brute

        edges = g.edge_list()
        assert all(
            first_failing_pair_brute(g, dict(zip(edges, a))) is not None
            for a in product(range(2), repeat=3)
        )

    def test_cycle4_with_two(self):
        (level,) = rc_exact(gen_named("cycle", 4)).stats.levels
        assert (level.q, level.status) == (2, DecisionStatus.SAT)
        assert isinstance(
            is_rainbow_connected(gen_named("cycle", 4), level.coloring),
            dict,
        )

    def test_unsat_without_prune_exhausts(self):
        # the plain reference search prunes nothing: below P_4's diameter
        # it tries every restricted-growth coloring before giving up
        g = gen_named("path", 4)
        coloring, nodes = plain_canonical_search(g, 2, g.edge_list())
        assert coloring is None and nodes > 0

    def test_budget_exhaustion(self):
        # C6 runs out of nodes at its first level, q = 3
        res = rc_exact(gen_named("cycle", 6), Budget(max_nodes=3))
        (level,) = res.stats.levels
        assert (level.q, level.status, level.nodes) == (3, DecisionStatus.BUDGET_EXHAUSTED, 3)

    def test_time_budget_exhaustion(self):
        # the clock is read before the first node is counted, so a time
        # give-up, like a node give-up, counts no node it never expanded
        c6 = gen_named("cycle", 6)
        passed = time.monotonic() - 1.0
        level = _search_level(_SearchState(c6, distance_table(c6)), 3, None, passed)
        assert (level.status, level.nodes) == (DecisionStatus.BUDGET_EXHAUSTED, 0)
        res = rc_exact(c6, Budget(max_seconds=0.0))
        assert (res.stats.levels, res.stats.nodes) == ((), 0)

    def test_deadline_far_off_reads_the_clock_every_1024_nodes(self, monkeypatch):
        # one level of 2,000 nodes: the clock is read for the deadline, by
        # the deepening loop, and by the level at nodes 0 and 1,024; a
        # deadline that never comes leaves the node budget's answer
        g = parse_graph6("M?@Qc@k?OW?qcIC@?")
        nodes_only = rc_exact(g, Budget(max_nodes=2000))
        reads = []
        monotonic = rcaudit.exact.time.monotonic

        def counted():
            reads.append(None)
            return monotonic()

        monkeypatch.setattr(rcaudit.exact.time, "monotonic", counted)
        timed = rc_exact(g, Budget(max_nodes=2000, max_seconds=3600))
        assert timed == nodes_only
        assert [(r.q, r.status, r.nodes) for r in timed.stats.levels] == [
            (4, DecisionStatus.BUDGET_EXHAUSTED, 2000)
        ]
        assert len(reads) == 4

    def test_a_node_allowance_below_m_skips_the_dive(self):
        # K_3 has m = 3: an allowance of 2 nodes cannot hold the dive, so
        # the table search stops after 2 and the seeded witness search
        # closes q = 1 with its first check
        res = rc_exact(parse_graph6("Bw"), Budget(max_nodes=2))
        assert (res.status, res.value) == (ExactStatus.EXACT, 1)
        assert (res.stats.nodes, res.stats.witness_checks) == (2, 1)

    def test_budget_spent_on_arrival_builds_nothing(self, monkeypatch):
        # a spent budget stops the deepening with no level searched, before
        # the search order and the prune tables are built; a spent clock
        # leaves the seeded witness search its steps at the lower bound
        orders = []
        monkeypatch.setattr(rcaudit.exact, "_search_order", orders.append)
        rng = random.Random(MASTER_SEED + 25)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.9))
            res = rc_exact(g, Budget(max_seconds=0.0))
            assert (res.stats.levels, res.value) == ((), rc_lower_bound(g))
            assert res.stats.witness_checks > 0
            closed = res.status is ExactStatus.EXACT
            assert closed == (res.witness is not None)
            assert closed or res.status is ExactStatus.BUDGET_EXHAUSTED
            assert rc_exact(g, Budget(max_nodes=0)).stats.levels == ()
            assert rc_exact(g, Budget(max_nodes=-1)).stats.levels == ()
        assert orders == []

    def test_search_order_is_a_relabeling(self):
        # the adjacency the search runs on is that of g relabeled by rank,
        # its edge indices follow the returned edge order, and the neighbor
        # masks are the adjacency's
        rng = random.Random(MASTER_SEED + 26)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.9))
            order, edges, adjacency, neighbors, ends = _search_order(g)
            assert neighbors == [sum(1 << w for w, _ in row) for row in adjacency]
            rank = {v: r for r, v in enumerate(order)}
            key = [(g.degree(v), sum(g.degree(w) for w in g.neighbors(v)), v) for v in order]
            assert key == sorted(key)
            relabeled = Graph(g.n, [(rank[u], rank[v]) for u, v in g.edges])
            assert adjacency == edge_adjacency(relabeled)
            assert [tuple(sorted((rank[u], rank[v]))) for u, v in edges] == (
                relabeled.edge_list()
            )
            assert ends == relabeled.edge_list()
            assert sorted(edges) == g.edge_list()

    def test_search_order_matches_the_sorted_edges(self):
        # reading the ranked edges off the ranked neighbor masks gives the
        # order, edges and adjacency that sorting the edges as 4-tuples gives
        graphs = [g for n in range(1, 7) for g in iter_connected_graphs(n)]
        graphs += random_corpus(300, 5, 11, 99) + random_corpus(500, 4, 40, MASTER_SEED)
        for g in graphs:
            assert _search_order(g)[:3] == search_order_by_sorting(g), to_graph6(g)

    def test_distance_prune_short_circuits(self):
        # a level below the diameter is provably unsatisfiable, so the
        # deepening starts at the diameter and searches none of them
        for g in (gen_named("cycle", 6), gen_named("path", 5)):
            assert rc_exact(g).stats.levels[0].q == diameter(g)

    def test_empty_conflict_set_ends_the_level(self):
        # a triangle 0-1-2 with pendant edges at 1, 1 and 2, which the
        # search order colors first: one learned leaf pair and two
        # conflict-directed jumps empty the conflict sets, which proves
        # q = 3 UNSAT in under a tenth of the plain search's nodes
        g = parse_graph6("ExP?")
        level = rc_exact(g).stats.levels[0]
        assert (level.q, level.status, level.nodes) == (3, DecisionStatus.UNSAT, 14)
        assert (level.learned_pairs, level.jumps) == (1, 2)
        assert plain_canonical_search(g, 3, g.edge_list()) == (None, 185)

    def test_sat_exactly_from_naive_rc_on_long_graphs(self):
        # diameter >= 3 makes leaves fail on pairs with several paths, so
        # the learned leaf pairs decide most of the UNSAT levels
        rng = random.Random(MASTER_SEED + 21)
        graphs = [
            g
            for n in range(4, 7)
            for g in iter_connected_graphs(n)
            if diameter(g) >= 3 and (n < 6 or rng.random() < 0.004)
        ]
        assert len(graphs) > 100
        for g in graphs:
            rc = naive_rc(g)
            *below, sat = rc_exact(g).stats.levels
            assert (sat.q, sat.status) == (rc, DecisionStatus.SAT)
            assert isinstance(is_rainbow_connected(g, sat.coloring), dict)
            assert [level.status for level in below] == [DecisionStatus.UNSAT] * (rc - diameter(g))


def record_leaf_failures(monkeypatch):
    """Failing pairs of each leaf check, in order."""
    failures = []
    check = rcaudit.exact.first_failing_pair

    def recorded(adjacency, bits, known=None):
        failing = check(adjacency, bits, known)
        if failing is not None:
            failures.append((failing.u, failing.v))
        return failing

    monkeypatch.setattr(rcaudit.exact, "first_failing_pair", recorded)
    return failures


def dive_fails(n, colors, bits, adjacency):
    """A stub for the verdict on each level's first dive that fails
    every dive, so the level search runs on its tables alone."""
    return FailingPair(0, 1)


def failures_by_level(failures, levels):
    """The recorded failing pairs split by level: each level's leaf
    checks but a satisfying one failed, in order."""
    split, start = [], 0
    for level in levels:
        stop = start + level.leaf_checks - (level.status is DecisionStatus.SAT)
        split.append(failures[start:stop])
        start = stop
    assert start == len(failures)
    return split


class TestLearnedAgainstPlainSearch:
    """The learned, backjumping search against the plain reference search
    of tests/oracles.py in the same edge order: cutting solution-free
    subtrees must leave the first satisfying leaf, and every UNSAT
    verdict, unchanged."""

    @staticmethod
    def graphs():
        rng = random.Random(MASTER_SEED + 22)
        yield from (g for n in range(1, 6) for g in iter_connected_graphs(n))
        yield from (g for g in iter_connected_graphs(6) if rng.random() < 0.012)

    def test_same_verdict_and_witness_at_rc_and_below(self, monkeypatch):
        # every level of rc_exact, from max(diameter, 1) to rc; no pair on
        # 6 vertices has more than _PATH_CAP short paths, so every failing
        # leaf pair is learned and fails only once per level.
        # Conflict-directed jumps skip only solution-free subtrees, so the
        # learned search visits no more nodes.
        failures = record_leaf_failures(monkeypatch)
        checked = 0
        for g in self.graphs():
            if g.m == 0:
                continue
            failures.clear()
            levels = rc_exact(g).stats.levels
            edges = _search_order(g)[1]
            for learned, failed in zip(levels, failures_by_level(failures, levels)):
                q = learned.q
                assert len(failed) == len(set(failed)) == learned.learned_pairs
                coloring, nodes = plain_canonical_search(g, q, edges)
                assert (learned.status is DecisionStatus.SAT, learned.coloring) == (
                    coloring is not None, coloring
                ), (to_graph6(g), q)
                assert learned.nodes <= nodes, (to_graph6(g), q)
            checked += 1
        assert checked == 771 + 340  # n <= 5 except K_1, plus the n = 6 sample

    def test_known_pairs_are_rainbow_at_every_leaf(self, monkeypatch):
        # the leaf check skips the pairs the level search passes as known
        # (neighbors, and preloaded or learned pairs); each must have a
        # rainbow path under the leaf's coloring, or the skip could hide
        # the first failing pair. Every first dive fails, so that every
        # level runs on the tables to its leaves
        monkeypatch.setattr(rcaudit.exact, "_verdict", dive_fails)
        check = rcaudit.exact.first_failing_pair
        leaves = tracked = 0

        def checked(adjacency, bits, known=None):
            nonlocal leaves, tracked
            if known is not None:
                colors = {
                    (v, w): bits[e].bit_length() - 1
                    for v, row in enumerate(adjacency)
                    for w, e in row
                    if v < w
                }
                h = Graph(len(adjacency), colors)
                for u in range(h.n):
                    for v in range(u + 1, h.n):
                        if known[u] >> v & 1:
                            assert has_rainbow_path_brute(h, colors, u, v)
                            tracked += not h.has_edge(u, v)
                leaves += 1
            return check(adjacency, bits, known)

        monkeypatch.setattr(rcaudit.exact, "first_failing_pair", checked)
        for g in self.graphs():
            rc_exact(g)
        assert leaves > 1000 and tracked > 1000, (leaves, tracked)

    # (graph6, nodes) of the plain canonical search in g.edge_list()
    # order, summed over the levels from max(diameter, 1) to rc: the
    # reference must walk the same tree. An exhausted level visits every
    # node in any color order, so only the satisfying level's count
    # depends on the order
    PLAIN_NODES = [
        ("G@oAqG", 131),
        ("DHg", 38),
        ("FJrCG", 252),
        ("GLBARS", 18),
        ("FOCMo", 1196),
        ("Ecr_", 16),
        ("E^E_", 8),
    ]

    def test_plain_search_node_counts(self):
        got = []
        for graph6, _ in self.PLAIN_NODES:
            g = parse_graph6(graph6)
            q, total, coloring = max(diameter(g), 1), 0, None
            while coloring is None:
                coloring, nodes = plain_canonical_search(g, q, g.edge_list())
                total += nodes
                q += 1
            got.append((graph6, total))
        assert got == self.PLAIN_NODES

    def test_counters_sum_over_levels(self, monkeypatch):
        # one leaf per call ends SAT, the others fail; every failing pair
        # is learned (one pair may be learned again at a later level)
        failures = record_leaf_failures(monkeypatch)
        learned = rc_exact(parse_graph6("FOCMo"))
        assert learned.stats.leaf_checks == len(failures) + 1
        assert learned.stats.learned_pairs == len(failures) > 0
        assert learned.stats.jumps > 0


class TestExact:
    @pytest.mark.parametrize(
        "family, size, want",
        [
            ("path", 5, 4),
            ("cycle", 5, 3),
            ("complete", 2, 1),
            ("complete", 7, 1),
            ("star", 5, 4),
        ],
    )
    def test_known_values(self, family, size, want):
        res = rc_exact(gen_named(family, size))
        assert res.status is ExactStatus.EXACT and res.value == want

    def test_single_vertex_needs_no_colors(self):
        res = rc_exact(Graph(1))
        assert res.status is ExactStatus.EXACT and res.value == 0
        assert res.witness == {}

    def test_single_vertex_runs_no_search(self):
        # no level is searched and no witness check is made: the empty
        # coloring is the answer before either runs
        stats = rc_exact(Graph(1)).stats
        assert (stats.levels, stats.witness_checks, stats.nodes) == ((), 0, 0)

    def test_counterexample_family_solves_with_no_budget(self):
        # every instance with min degree d <= 8 is solved by the search
        # itself, with no budget, in at most 1,503 nodes
        solved = []
        for d in range(2, 9):
            for t in range(1, d // 2 + 1):
                g, _ = gen_counterexample(CounterexampleParams(d, t))
                res = rc_exact(g)
                assert res.status is ExactStatus.EXACT, (d, t)
                assert res.stats.witness_checks == 0
                assert res.value == (3 if t == 1 else 6), (d, t)
                assert isinstance(is_rainbow_connected(g, res.witness), dict)
                solved.append(res.stats.nodes)
        assert len(solved) == 16 and max(solved) == 1503

    def test_witness_uses_exactly_value_colors_and_verifies(self):
        rng = random.Random(MASTER_SEED + 10)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            assert res.status is ExactStatus.EXACT
            assert 1 + max(res.witness.values()) == res.value
            assert isinstance(is_rainbow_connected(g, res.witness), dict)

    def test_matches_naive_enumerator_small(self):
        for n in range(1, 5):
            for g in iter_connected_graphs(n):
                assert rc_exact(g).value == naive_rc(g)

    def test_matches_naive_enumerator_sample_n5(self):
        rng = random.Random(MASTER_SEED + 11)
        sample = [g for g in iter_connected_graphs(5) if rng.random() < 0.08]
        assert sample
        for g in sample:
            assert rc_exact(g).value == naive_rc(g)

    def test_one_color_iff_complete(self):
        for n in range(2, 6):
            for g in iter_connected_graphs(n):
                assert (rc_exact(g).value == 1) == is_complete(g)

    def test_spanning_subgraph_monotone(self):
        # removing edges can only increase rc: a rainbow coloring of the
        # subgraph extends to the host by coloring extra edges with color 0
        rng = random.Random(MASTER_SEED + 12)
        done = 0
        while done < 30:
            g = random_connected_graph(rng, rng.randint(3, 6), rng.uniform(0.5, 0.9))
            edges = g.edge_list()
            rng.shuffle(edges)
            keep = list(g.edges)
            for e in edges:
                trial = [x for x in keep if x != e]
                from rcaudit import is_connected

                if is_connected(Graph(g.n, trial)):
                    keep = trial
                    break
            h = Graph(g.n, keep)
            if h == g:
                continue
            assert rc_exact(g).value <= rc_exact(h).value
            done += 1

    def test_prune_does_not_change_result(self):
        # the witness is the plain search's first satisfying leaf at rc,
        # in the same edge order, and the plain search refutes rc - 1
        rng = random.Random(MASTER_SEED + 13)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            edges = _search_order(g)[1]
            assert plain_canonical_search(g, res.value, edges)[0] == res.witness
            if res.value > 1:
                assert plain_canonical_search(g, res.value - 1, edges)[0] is None

    def test_value_does_not_depend_on_labels(self):
        # the search order comes from degrees and labels, so a relabeling
        # changes the edge order and the witness, never rc
        rng = random.Random(MASTER_SEED + 16)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n, rng.uniform(0.25, 0.8))
            values = set()
            for _ in range(4):
                res = rc_exact(g)
                assert res.status is ExactStatus.EXACT
                assert isinstance(is_rainbow_connected(g, res.witness), dict)
                values.add(res.value)
                perm = rng.sample(range(n), n)
                g = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert len(values) == 1, to_graph6(g)

    def test_search_order_outcomes_on_the_random_corpus(self):
        # at 2,000 nodes, with colors tried in ascending order, the
        # fail-first edge order refuted level 5 of the first graph and
        # gave up at 6, and it solved the second only at 5,896 nodes;
        # fewest-used-first colors solve both by search
        for graph6, value, nodes in (
            ("OO?AS_T?G_?CC??Gq@pCB", 6, 711),
            ("OH_DdG_?D?`KO??Q@oGa?", 5, 122),
        ):
            res = rc_exact(parse_graph6(graph6), Budget(max_nodes=2000))
            assert (res.status, res.value, res.stats.nodes) == (ExactStatus.EXACT, value, nodes)
            assert res.stats.witness_checks == 0

    def test_deterministic_witness(self):
        rng = random.Random(MASTER_SEED + 14)
        g = random_connected_graph(rng, 6, 0.5)
        assert rc_exact(g).witness == rc_exact(g).witness

    def test_budget_statuses(self):
        g = gen_named("path", 7)  # rc 6, lower bound 6: solved at the bound
        assert rc_exact(g).value == 6
        # star K_{1,5}: diameter 2 but rc 5, so no 2-coloring exists and
        # the witness search cannot close the give-up, whatever its seed
        star = gen_named("star", 6)
        tiny = rc_exact(star, Budget(max_nodes=2))
        assert tiny.status is ExactStatus.BUDGET_EXHAUSTED
        # the node that would break the cap is neither visited nor counted
        assert tiny.stats.nodes == 2
        assert rc_exact(star, Budget(max_nodes=1)).stats.nodes == 1
        assert tiny.value == rc_lower_bound(star)
        assert tiny.witness is None
        timed_out = rc_exact(star, Budget(max_seconds=0.0))
        assert timed_out.status is ExactStatus.BUDGET_EXHAUSTED
        assert timed_out.value == rc_lower_bound(star)

    def test_witness_search_closes_budgeted_give_up(self):
        # C6 runs out of nodes at q = 3 = diameter; the seeded witness
        # search finds a 3-coloring there, which proves rc = 3
        c6 = gen_named("cycle", 6)
        res = rc_exact(c6, Budget(max_nodes=2))
        assert (res.status, res.value) == (ExactStatus.EXACT, 3)
        assert 1 + max(res.witness.values()) == 3
        assert isinstance(is_rainbow_connected(c6, res.witness), dict)
        assert res.stats.witness_checks > 0
        # a spent clock stops only the deepening: the witness search
        # still takes its steps, and closes the same give-up
        timed_out = rc_exact(c6, Budget(max_seconds=0.0))
        assert (timed_out.status, timed_out.value) == (ExactStatus.EXACT, 3)
        assert timed_out.stats.levels == ()
        assert timed_out.witness == res.witness
        assert timed_out.stats.witness_checks == res.stats.witness_checks

    def test_lower_bound_only_after_refuted_level(self):
        # star K_{1,5}: diameter 2, rc 5; a generous-but-finite budget
        # refutes early levels then runs out
        g = gen_named("star", 6)
        full = rc_exact(g)
        assert full.value == 5
        refute_budget = None
        for cap in range(2, 4000):
            res = rc_exact(g, Budget(max_nodes=cap))
            if res.status is ExactStatus.LOWER_BOUND_ONLY:
                refute_budget = res
                break
        assert refute_budget is not None
        assert 2 < refute_budget.value <= 5
        assert refute_budget.witness is None

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            rc_exact(Graph(3, [(0, 1)]))

    def test_empty_graph_rejected(self, capsys):
        # rc of the graph with no vertex is undefined, as its lower bound is
        with pytest.raises(ValueError, match="empty"):
            rc_exact(Graph(0))
        assert main(["exact", "?"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_search_order_built_once_per_solve(self, monkeypatch):
        # every level of one solve searches the same relabeled graph; each
        # graph here refutes at least one level before it is solved
        orders = []
        search_order = rcaudit.exact._search_order

        def counted(g):
            orders.append(g)
            return search_order(g)

        monkeypatch.setattr(rcaudit.exact, "_search_order", counted)
        for g in (gen_named("star", 6), parse_graph6("JP??hHk?qt?"), parse_graph6("FOCMo")):
            orders.clear()
            res = rc_exact(g, Budget(max_nodes=2000))
            assert res.status is ExactStatus.EXACT and res.value > rc_lower_bound(g)
            assert orders == [g]

    def test_conflict_directed_jumps_close_former_give_ups(self):
        # both gave up at 2,000 nodes while an exhausted depth stepped back
        # one depth at a time; JP??hHk?qt? is solved by refuting its
        # diameter 3 first. The search closes both, without the seeded
        # witness search.
        for graph6, value in (("JP??hHk?qt?", 4), ("JGtk@nAqOG?", 3)):
            g = parse_graph6(graph6)
            res = rc_exact(g, Budget(max_nodes=2000))
            assert (res.status, res.value) == (ExactStatus.EXACT, value), graph6
            assert res.stats.witness_checks == 0 and res.stats.jumps > 0
            assert 1 + max(res.witness.values()) == value
            assert isinstance(is_rainbow_connected(g, res.witness), dict)

    def test_pinned_search_outcomes(self):
        # (status, value, nodes) at a 2000-node budget; the node counts
        # follow the conflict-directed search, and must not depend on how
        # a leaf is checked or where the distance table comes from
        got = [
            (r.status.value, r.value, r.stats.nodes)
            for r in (rc_exact(g, Budget(max_nodes=2000)) for g in random_corpus(10, 5, 16, 2))
        ]
        assert got == [
            ("exact", 4, 19),
            ("exact", 2, 26),
            ("exact", 2, 58),
            ("exact", 3, 46),
            ("exact", 2, 62),
            ("exact", 1, 10),
            ("exact", 2, 34),
            ("exact", 4, 133),
            ("exact", 3, 13),
            ("exact", 2, 48),
        ]

    # (graph6, status, value, nodes, witness colors in edge-list order) at
    # a 20000-node budget, on graphs of diameter 3-5 from
    # random_corpus(60, 5, 10, 7). Without learning and backjumping,
    # HWtaHks, HJmHtYV, IaMYDK^Tw, IYABhPECG and Hv_@GC_ were not solved
    # within this budget; every other row had the same value and witness.
    # Conflict-directed jumps at exhausted depths kept every witness and
    # lowered the node counts of HRO_iCo, FJrCG, GLBARS, Hv_@GC_, FOCMo
    # and Ecr_. The fail-first edge order kept every status and value and
    # changed every witness but DHg's; it lowered seven node counts and
    # raised those of HWtaHks, HRO_iCo, HJmHtYV, IaMYDK^Tw, IYABhPECG and
    # E^E_. Fewest-used-first colors kept every status and value and the
    # witnesses of G@oAqG, DHg, Hv_@GC_, FOCMo and Ecr_; they raised the
    # node count of FJrCG from 41 and of Hv_@GC_ from 218, and lowered
    # every other one.
    PINNED = [
        ("HWtaHks", "exact", 3, 17, [1, 0, 0, 2, 1, 0, 0, 0, 2, 1, 2, 0, 2, 0, 1, 1]),
        ("G@oAqG", "exact", 5, 34, [2, 0, 2, 4, 0, 3, 1, 1]),
        ("HRO_iCo", "exact", 4, 96, [1, 3, 0, 1, 2, 3, 0, 1, 1, 2, 0]),
        (
            "HJmHtYV", "exact", 3, 20,
            [0, 0, 2, 1, 0, 1, 2, 1, 1, 0, 2, 0, 0, 1, 2, 0, 1, 2, 0, 1],
        ),
        ("DHg", "exact", 4, 19, [0, 1, 2, 3]),
        (
            "IaMYDK^Tw", "exact", 3, 23,
            [0, 1, 2, 2, 1, 0, 0, 1, 1, 0, 1, 2, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2, 0],
        ),
        ("FJrCG", "exact", 3, 47, [1, 2, 0, 1, 1, 0, 0, 0, 2]),
        ("GLBARS", "exact", 4, 18, [0, 1, 2, 0, 1, 3, 1, 0, 0, 2, 2]),
        (
            "HnztBkV", "exact", 3, 23,
            [0, 1, 0, 2, 1, 0, 1, 2, 2, 1, 0, 1, 1, 2, 2, 1, 0, 2, 0, 0, 0, 0, 1],
        ),
        ("IYABhPECG", "exact", 5, 22, [2, 0, 0, 1, 2, 3, 4, 1, 2, 0, 0, 3, 1, 3, 2]),
        ("Hv_@GC_", "exact", 5, 225, [1, 3, 2, 2, 0, 4, 4, 3, 0, 1]),
        ("FOCMo", "exact", 5, 91, [0, 3, 2, 0, 1, 1, 4]),
        ("Ecr_", "exact", 3, 15, [2, 1, 1, 2, 0, 1, 0]),
        ("E^E_", "exact", 3, 8, [1, 2, 0, 0, 1, 2, 1, 0]),
    ]

    def test_pinned_outcomes_and_witnesses_on_long_graphs(self):
        graphs = [g for g in random_corpus(60, 5, 10, 7) if 3 <= diameter(g) <= 5]
        assert [to_graph6(g) for g in graphs[:14]] == [p[0] for p in self.PINNED]
        for graph6, status, value, nodes, witness in self.PINNED:
            g = parse_graph6(graph6)
            r = rc_exact(g, Budget(max_nodes=20000))
            got = None if r.witness is None else [r.witness[e] for e in g.edge_list()]
            assert (r.status.value, r.value, r.stats.nodes, got) == (
                status, value, nodes, witness
            ), graph6

    def test_no_pair_fails_at_two_leaves(self, monkeypatch):
        # a failing leaf pair is learned, and the prune tables cut it off
        # before any later leaf of the same level; only pairs with more
        # than _PATH_CAP short paths are not learned
        failures = record_leaf_failures(monkeypatch)
        repeats = 0
        for graph6, *_ in self.PINNED:
            g = parse_graph6(graph6)
            dist = [bfs_distances(g, s) for s in range(g.n)]
            # failing pairs are named in the search's relabeling
            order, _, adjacency, _, _ = _search_order(g)
            ranked = [[dist[v][w] for w in order] for v in order]
            failures.clear()
            levels = rc_exact(g, Budget(max_nodes=20000)).stats.levels
            assert levels[-1].status is DecisionStatus.SAT, graph6
            for res, failed in zip(levels, failures_by_level(failures, levels)):
                q = res.q
                assert res.learned_pairs == len(set(failed))
                seen = set()
                for u, v in failed:
                    if (u, v) in seen:
                        paths = _paths_within(adjacency, u, ranked[v], q, _PATH_CAP)
                        assert paths is None, (graph6, q, u, v)
                        repeats += 1
                    seen.add((u, v))
        assert repeats == 0  # none of these pairs is above the cap

    # sha256 over one line per connected labeled graph with n <= 5 of
    # (graph6, status, value, nodes, jumps, leaf_checks, witness colors in
    # edge-list order) from unbudgeted rc_exact; a refactor of the search
    # must keep every row
    SMALL_GRAPHS_DIGEST = (
        "61e0bd9b46447fa4ce9ae623865d9b72c6748bd5cec48a13aaa21f882f8337bc"
    )

    def test_unbudgeted_outcomes_on_small_graphs(self):
        digest = hashlib.sha256()
        for n in range(1, 6):
            for g in iter_connected_graphs(n):
                r = rc_exact(g)
                witness = [r.witness[e] for e in g.edge_list()]
                row = (
                    to_graph6(g), r.status.value, r.value, r.stats.nodes,
                    r.stats.jumps, r.stats.leaf_checks, witness,
                )
                digest.update(f"{row}\n".encode())
        assert digest.hexdigest() == self.SMALL_GRAPHS_DIGEST

    # sha256 over one line per graph of random_corpus(500, 4, 40,
    # MASTER_SEED) at a 2000-node budget of (graph6, status, value, nodes,
    # leaf checks, learned pairs, witness checks, jumps, witness colors in
    # edge-list order, or None); a change to the search that keeps its
    # tree must keep every row
    RANDOM_CORPUS_DIGEST = (
        "dea2b618669e3fc3f955b3097288389968493ad0c4134cecbb44f613d8c0d5c1"
    )

    def test_budgeted_outcomes_on_the_random_corpus(self):
        digest = hashlib.sha256()
        for g in random_corpus(500, 4, 40, MASTER_SEED):
            r = rc_exact(g, Budget(max_nodes=2000))
            s = r.stats
            witness = None if r.witness is None else [r.witness[e] for e in g.edge_list()]
            row = (
                to_graph6(g), r.status.value, r.value, s.nodes, s.leaf_checks,
                s.learned_pairs, s.witness_checks, s.jumps, witness,
            )
            digest.update(f"{row}\n".encode())
        assert digest.hexdigest() == self.RANDOM_CORPUS_DIGEST

    def test_pairs_above_the_cap_are_enumerated_once(self, monkeypatch):
        # with a cap of 2 most pairs are neither preloaded nor learned:
        # failing ones fail at several leaves, but each pair's paths are
        # listed only once, a pair that preloading found above the cap
        # included, and the search still finds the plain search's first
        # satisfying leaf in the same edge order
        monkeypatch.setattr(rcaudit.exact, "_PATH_CAP", 2)
        failures = record_leaf_failures(monkeypatch)
        listed = []
        paths_within = rcaudit.exact._paths_within

        def counted(adjacency, s, dist_to_t, limit, cap):
            listed.append((s, dist_to_t.index(0)))
            return paths_within(adjacency, s, dist_to_t, limit, cap)

        monkeypatch.setattr(rcaudit.exact, "_paths_within", counted)
        g = parse_graph6("HRO_iCo")
        (res,) = rc_exact(g).stats.levels
        assert len(listed) == len(set(listed))
        assert len(failures) > len(set(failures))  # over-cap pairs failed again
        assert 0 < res.learned_pairs < len(listed)
        plain, _ = plain_canonical_search(g, 4, _search_order(g)[1])
        assert (res.q, res.status, res.coloring) == (4, DecisionStatus.SAT, plain)

    def test_pairs_over_the_cap_at_a_leaf_are_not_learned(self, monkeypatch):
        # with a cap of 1 most failing pairs are met first at a leaf, over
        # the cap: they blame every depth, which changes the search tree
        # but never the first satisfying leaf, and each is listed once per
        # level; n stays at most 8: at 11 one graph's capped search expands
        # 2,283,765 nodes against 767
        graphs = list(random_corpus(120, 4, 8, 5))
        plain = [rc_exact(g) for g in graphs]
        monkeypatch.setattr(rcaudit.exact, "_PATH_CAP", 1)
        paths_within = rcaudit.exact._paths_within
        listed = []

        def counted(adjacency, s, dist_to_t, limit, cap):
            listed.append((s, dist_to_t.index(0), limit))
            return paths_within(adjacency, s, dist_to_t, limit, cap)

        monkeypatch.setattr(rcaudit.exact, "_paths_within", counted)
        capped = []
        for g in graphs:
            listed.clear()
            capped.append(rc_exact(g))
            assert len(listed) == len(set(listed))
        for a, b in zip(plain, capped):
            assert (b.status, b.value, b.witness) == (a.status, a.value, a.witness)
        learned = [sum(r.stats.learned_pairs for r in rs) for rs in (plain, capped)]
        assert learned == [65, 53]
        assert any(a.stats.nodes != b.stats.nodes for a, b in zip(plain, capped))

    def test_exact_respects_diameter_floor(self):
        rng = random.Random(MASTER_SEED + 15)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            assert diameter(g) <= res.value <= max(g.m, 0) if g.m else res.value == 0


class TestMaskTables:
    """At q = 2 the level search runs on per-color neighbor masks; the
    path tables, forced through the table selector, must give the same
    search tree, so the same DecisionResult field by field."""

    @staticmethod
    def level(g, max_nodes=None):
        # q = 2 on any graph of diameter at most 2, complete ones included
        return _search_level(_SearchState(g, distance_table(g)), 2, max_nodes, None)

    @staticmethod
    def graphs():
        rng = random.Random(MASTER_SEED + 27)
        yield from (g for n in range(2, 6) for g in iter_connected_graphs(n))
        yield from (g for g in iter_connected_graphs(6) if rng.random() < 0.05)
        yield from random_corpus(500, 4, 40, MASTER_SEED)

    @staticmethod
    def fields(res):
        return res.status, res.coloring, res.nodes, res.leaf_checks, res.learned_pairs, res.jumps

    # (_PRELOAD_CAP, node budget): the real caps, then caps that leave
    # most pairs to be learned, then a budget that cuts many levels
    @pytest.mark.parametrize(
        "preload_cap, max_nodes", [(None, 2000), (3, 100), (1, 100), (None, 17)]
    )
    def test_same_result_as_path_tables(self, monkeypatch, preload_cap, max_nodes):
        monkeypatch.setattr(rcaudit.exact, "_verdict", dive_fails)
        if preload_cap is not None:
            monkeypatch.setattr(rcaudit.exact, "_PRELOAD_CAP", preload_cap)
        listed = []
        paths_within = rcaudit.exact._paths_within

        def counted(adjacency, s, dist_to_t, limit, cap):
            listed.append(limit)
            return paths_within(adjacency, s, dist_to_t, limit, cap)

        monkeypatch.setattr(rcaudit.exact, "_paths_within", counted)
        seen = {"levels": 0, "learned": 0, "jumps": 0, "budget": 0}
        for g in self.graphs():
            if g.m == 0 or diameter(g) > 2:
                continue
            masks = self.level(g, max_nodes)
            assert listed == [], to_graph6(g)
            with monkeypatch.context() as patched:
                patched.setattr(rcaudit.exact, "_prune_tables", rcaudit.exact._path_tables)
                paths = self.level(g, max_nodes)
            # a complete graph has no pair at distance 2 to list paths for
            assert bool(listed) == (diameter(g) == 2), to_graph6(g)
            listed.clear()
            assert self.fields(masks) == self.fields(paths), to_graph6(g)
            seen["levels"] += 1
            seen["learned"] += masks.learned_pairs > 0
            seen["jumps"] += masks.jumps > 0
            seen["budget"] += masks.status is DecisionStatus.BUDGET_EXHAUSTED
        assert seen["levels"] > 1000 and seen["jumps"] > 50, seen
        if preload_cap is not None:
            assert seen["learned"] > 500, seen
        if max_nodes < 2000:
            assert seen["budget"] > 200, seen

    def test_pair_ids_past_the_edge_count(self, monkeypatch):
        # 10 edges and 11 pairs at distance 2, all preloaded: the verdict
        # needs pair ids 10 and up to die, and a dead pair taken for alive
        # is skipped by the leaf check (with "no dead pair" written as
        # id m, this level turns SAT on a coloring that is not rainbow
        # connected)
        g = parse_graph6("FtrE?")
        masks = rc_exact(g).stats.levels[0]
        monkeypatch.setattr(rcaudit.exact, "_prune_tables", rcaudit.exact._path_tables)
        assert self.fields(masks) == self.fields(rc_exact(g).stats.levels[0])
        assert (masks.q, *self.fields(masks)) == (2, DecisionStatus.UNSAT, None, 73, 0, 0, 4)


class TestFirstDescent:
    """_search_level opens each level whose m nodes fit the allowance
    with a dive that builds no prune table. The dive must solve a level
    exactly when the table search alone (every dive failed by a stub
    verdict) is SAT after m nodes, with one leaf check and no learned
    pair or jump, and the level search must return the table search's
    record either way."""

    @staticmethod
    def solved(monkeypatch, graphs, max_nodes=None):
        """Per graph with an edge, per level rc_exact searches, whether
        the dive solves it."""
        builds = []
        prune_tables = rcaudit.exact._prune_tables

        def counted(state, q, assignment):
            builds.append(q)
            return prune_tables(state, q, assignment)

        monkeypatch.setattr(rcaudit.exact, "_prune_tables", counted)
        rows = []
        for g in graphs:
            if g.m == 0:
                continue
            state = _SearchState(g, None)
            row = []
            for level in rc_exact(g, Budget(max_nodes=max_nodes)).stats.levels:
                # the dive is the search's first m nodes, so m decide it
                builds.clear()
                search = _search_level(state, level.q, g.m, None)
                dived = not builds
                with monkeypatch.context() as patched:
                    patched.setattr(rcaudit.exact, "_verdict", dive_fails)
                    tables = _search_level(state, level.q, g.m, None)
                first = (
                    tables.status, tables.nodes, tables.leaf_checks,
                    tables.learned_pairs, tables.jumps,
                ) == (DecisionStatus.SAT, g.m, 1, 0, 0)
                assert dived == first, (to_graph6(g), level.q)
                assert search == tables, (to_graph6(g), level.q)
                if first:
                    assert level == tables, (to_graph6(g), level.q)
                row.append(first)
            rows.append(row)
        return rows

    def test_small_graphs(self, monkeypatch):
        graphs = (g for n in range(1, 6) for g in iter_connected_graphs(n))
        rows = self.solved(monkeypatch, graphs)
        assert len(rows) == 771
        assert sum(row[0] for row in rows) == 328

    def test_random_corpus(self, monkeypatch):
        rows = self.solved(monkeypatch, random_corpus(500, 4, 40, MASTER_SEED), 2000)
        assert (sum(map(sum, rows)), sum(map(len, rows))) == (230, 513)
        assert sum(row[0] for row in rows) == 226

    def test_a_deadline_far_off_keeps_the_dive(self, monkeypatch):
        # a wall-clock budget takes the same path as none: every level
        # checks its dive first, and every result and record stays the same
        graphs = [g for n in range(2, 6) for g in iter_connected_graphs(n)]
        plain = [rc_exact(g) for g in graphs]
        dives = []
        verdict = rcaudit.exact._verdict

        def counted(n, colors, bits, adjacency):
            dives.append(n)
            return verdict(n, colors, bits, adjacency)

        monkeypatch.setattr(rcaudit.exact, "_verdict", counted)
        assert [rc_exact(g, Budget(max_seconds=3600)) for g in graphs] == plain
        assert len(dives) == sum(len(res.stats.levels) for res in plain)


class TestLevelRecords:
    """stats.levels is the evidence behind a value: one record per level
    from max(diameter, 1) up, each refuted but the last, which holds
    either the search's own witness or the budget's stop."""

    @staticmethod
    def check(g, res, max_nodes=None):
        levels = res.stats.levels
        if g.m == 0:
            assert levels == ()
            return
        lb = max(diameter(g), 1)
        assert [level.q for level in levels] == list(range(lb, lb + len(levels)))
        assert all(level.status is DecisionStatus.UNSAT for level in levels[:-1])
        searched = res.status is ExactStatus.EXACT and res.stats.witness_checks == 0
        last = levels[-1]
        assert (last.status is DecisionStatus.SAT) == searched
        if searched:
            assert (res.value, res.witness) == (last.q, last.coloring)
        else:
            # a budgeted stop: the last level gave up, or was refuted
            # with the last node of the budget
            assert last.status is DecisionStatus.BUDGET_EXHAUSTED or (
                last.status is DecisionStatus.UNSAT and res.stats.nodes == max_nodes
            )
        return last.status

    def test_unbudgeted_levels_on_small_graphs(self):
        for n in range(1, 6):
            for g in iter_connected_graphs(n):
                self.check(g, rc_exact(g))

    def test_budgeted_levels_on_the_random_corpus(self):
        stops = 0
        for g in random_corpus(500, 4, 40, MASTER_SEED):
            res = rc_exact(g, Budget(max_nodes=2000))
            stops += self.check(g, res, 2000) is DecisionStatus.BUDGET_EXHAUSTED
        assert stops == 10


class TestSeededWitness:
    """The repair search that runs when a budget stops the deepening."""

    @staticmethod
    def graphs():
        rng = random.Random(MASTER_SEED + 23)
        yield from (g for n in range(1, 6) for g in iter_connected_graphs(n))
        yield from (g for g in iter_connected_graphs(6) if rng.random() < 0.012)

    def test_budgeted_results_are_sound(self):
        # an exact result under a budget is the true rc with a certified
        # witness; any other result is a lower bound
        closed = 0
        for g in self.graphs():
            rc = rc_exact(g).value
            for cap in (0, 1, 2):
                res = rc_exact(g, Budget(max_nodes=cap))
                if res.status is ExactStatus.EXACT:
                    assert res.value == rc, (to_graph6(g), cap)
                    assert 1 + max(res.witness.values(), default=-1) == rc
                    assert isinstance(is_rainbow_connected(g, res.witness), dict)
                    closed += res.stats.witness_checks > 0
                else:
                    assert res.value <= rc and res.witness is None
        assert closed > 0

    def test_no_witness_checks_when_it_does_not_run(self):
        # it runs only once a budget stops the deepening; a clock that
        # stopped it on arrival cuts none of its checks
        rng = random.Random(MASTER_SEED + 24)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
            assert rc_exact(g).stats.witness_checks == 0
            spent = rc_exact(g, Budget(max_seconds=0.0)).stats.witness_checks
            assert spent == rc_exact(g, Budget(max_nodes=0)).stats.witness_checks > 0

    def test_colorings_are_normal(self):
        # a coloring dict is checked by nothing: the decision search's
        # satisfying leaf and the seeded witness must keep its contract,
        # keys (u, v) with u < v and colors >= 0
        results = [rc_exact(g) for g in self.graphs() if g.m]
        results += [rc_exact(g, Budget(max_nodes=1)) for g in self.graphs() if g.m]
        seeded = [r for r in results if r.stats.witness_checks and r.witness is not None]
        assert seeded
        for res in results:
            if res.witness is not None:
                assert all(u < v and c >= 0 for (u, v), c in res.witness.items())

    def test_witness_search_reads_no_clock(self, monkeypatch):
        # its steps are its only cap: with the clock unreadable it finds
        # the witness, in the checks, that it finds with the clock
        c6 = gen_named("cycle", 6)
        distances = [bfs_distances(c6, s) for s in range(c6.n)]
        found = rcaudit.exact._seeded_witness(c6, 3, distances)
        assert found[0] is not None and found[1] > 0

        def unreadable():
            raise AssertionError("the witness search read the clock")

        monkeypatch.setattr(rcaudit.exact.time, "monotonic", unreadable)
        assert rcaudit.exact._seeded_witness(c6, 3, distances) == found

    def test_seed_is_the_graph6_crc(self, monkeypatch):
        # the generator's seed comes from the graph alone, never from the
        # salted hash(), so every process repeats the same search
        seeds = []
        real = rcaudit.exact.random.Random

        def recorded(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(rcaudit.exact.random, "Random", recorded)
        g = gen_named("cycle", 6)
        first = rc_exact(g, Budget(max_nodes=2))
        assert seeds == [zlib.crc32(to_graph6(g).encode())]
        assert rc_exact(g, Budget(max_nodes=2)).witness == first.witness

    def test_matches_the_full_scan_loop_on_seeded_graphs(self):
        # every step is the reference loop's: same coloring and number of
        # checks as the independent loop that checks every pair each step
        rng = random.Random(MASTER_SEED + 27)
        closed = given_up = 0
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.6))
            lb = max(diameter(g), 1)
            for q in (lb, lb + 1, lb + 2):
                witness, checks = rcaudit.exact._seeded_witness(g, q, None)
                assert (witness, checks) == seeded_repair_full_scan(g, q), (to_graph6(g), q)
                closed += witness is not None and checks > 1
                given_up += witness is None
        assert closed and given_up

    def test_matches_the_full_scan_loop_on_the_budget_stopped_corpus(self, monkeypatch):
        # every random-corpus graph whose deepening a 200-node budget
        # stops, with the distance table the search hands over; at 2,000
        # nodes the search solves all but 10, and the witness search
        # closes none of those
        runs = []
        real = rcaudit.exact._seeded_witness

        def recorded(g, q, distances):
            out = real(g, q, distances)
            runs.append((g, q, out))
            return out

        monkeypatch.setattr(rcaudit.exact, "_seeded_witness", recorded)
        for g in random_corpus(500, 4, 40, MASTER_SEED):
            rc_exact(g, Budget(max_nodes=200))
        assert len(runs) == 174
        assert sum(witness is not None for _, _, (witness, _) in runs) == 130
        assert sum(witness is not None and checks > 8 for _, _, (witness, checks) in runs) > 10
        for g, q, (witness, checks) in runs:
            assert (witness, checks) == seeded_repair_full_scan(g, q), (to_graph6(g), q)
