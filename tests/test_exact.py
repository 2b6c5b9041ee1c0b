from __future__ import annotations

import hashlib
import random
import zlib

import networkx as nx
import pytest

import rcaudit.exact
from rcaudit import (
    Budget,
    DecisionStatus,
    ExactStatus,
    Graph,
    RainbowCertificate,
    diameter,
    gen_named,
    is_complete,
    is_rainbow_connected,
    rc_decision,
    rc_exact,
    rc_lower_bound,
    to_graph6,
)
from rcaudit.exact import _PATH_CAP, _paths_within
from rcaudit.generators import iter_connected_graphs, random_corpus
from rcaudit.graphs import bfs_distances, parse_graph6
from rcaudit.rainbow import edge_adjacency

from .conftest import MASTER_SEED, random_connected_graph
from .oracles import all_simple_paths, naive_rc


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
    def test_clique_with_one_color(self):
        res = rc_decision(gen_named("complete", 4), 1)
        assert res.status is DecisionStatus.SAT
        assert res.coloring.num_colors == 1

    def test_path4_needs_three(self):
        # the unique 3-edge path forces 3 distinct colors; cross-checked by
        # enumerating all 2-colorings brute force
        g = gen_named("path", 4)
        res = rc_decision(g, 2)
        assert res.status is DecisionStatus.UNSAT
        from itertools import product

        from .oracles import first_failing_pair_brute
        from rcaudit import EdgeColoring

        edges = g.edge_list()
        assert all(
            first_failing_pair_brute(g, EdgeColoring(dict(zip(edges, a)))) is not None
            for a in product(range(2), repeat=3)
        )

    def test_cycle4_with_two(self):
        res = rc_decision(gen_named("cycle", 4), 2)
        assert res.status is DecisionStatus.SAT
        assert isinstance(
            is_rainbow_connected(gen_named("cycle", 4), res.coloring),
            RainbowCertificate,
        )

    def test_unsat_without_prune_exhausts(self):
        res = rc_decision(gen_named("path", 4), 2, prune=False)
        assert res.status is DecisionStatus.UNSAT
        assert res.nodes > 0

    def test_budget_exhaustion(self):
        g = gen_named("cycle", 6)
        res = rc_decision(g, 3, budget=Budget(max_nodes=3))
        assert res.status is DecisionStatus.BUDGET_EXHAUSTED

    def test_time_budget_exhaustion(self):
        # the clock is read before the first node is counted, so a time
        # give-up, like a node give-up, counts no node it never expanded
        c6 = gen_named("cycle", 6)
        res = rc_decision(c6, 3, budget=Budget(max_seconds=0.0))
        assert res.status is DecisionStatus.BUDGET_EXHAUSTED
        assert res.nodes == 0
        assert rc_exact(c6, Budget(max_seconds=0.0)).stats.nodes == 0

    def test_distance_prune_short_circuits(self):
        # diameter 3 > 2 colors: provably unsatisfiable without search
        res = rc_decision(gen_named("cycle", 6), 2)
        assert res.status is DecisionStatus.UNSAT and res.nodes == 0

    def test_empty_conflict_set_ends_the_level(self):
        # a triangle 0-1-2 with pendant edges at 1, 1 and 2: every color
        # of edge (1, 2) fails for reasons that involve no earlier edge,
        # so that depth's empty conflict set proves q = 3 UNSAT without
        # going back to edges (0, 1) and (0, 2)
        g = parse_graph6("ExP?")
        res = rc_decision(g, 3)
        assert (res.status, res.nodes) == (DecisionStatus.UNSAT, 30)
        assert rc_decision(g, 3, prune=False).nodes == 185

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rc_decision(gen_named("path", 3), 0)
        with pytest.raises(ValueError):
            rc_decision(Graph(2, []), 1)

    def test_sat_exactly_from_naive_rc_on_long_graphs(self):
        # diameter >= 3 makes leaves fail on pairs with several paths, so
        # the reused leaf verdicts decide most of the UNSAT levels; without
        # pruning the search also reaches leaves below the diameter, where
        # a pair has no path within q edges at all
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
            for prune in (True, False):
                sat = rc_decision(g, rc, prune=prune)
                assert sat.status is DecisionStatus.SAT
                assert isinstance(is_rainbow_connected(g, sat.coloring), RainbowCertificate)
                assert rc_decision(g, rc - 1, prune=prune).status is DecisionStatus.UNSAT

    def test_given_distances_match_standalone(self):
        rng = random.Random(MASTER_SEED + 5)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
            lengths = dict(nx.all_pairs_shortest_path_length(nx.Graph(list(g.edges))))
            dist = [[lengths[s][t] for t in range(g.n)] for s in range(g.n)]
            for q in range(1, 4):
                alone = rc_decision(g, q)
                shared = rc_decision(g, q, distances=dist)
                assert (alone.status, alone.coloring, alone.nodes) == (
                    shared.status, shared.coloring, shared.nodes
                )


def record_leaf_failures(monkeypatch):
    """Failing pairs of each leaf check, in order."""
    failures = []
    check = rcaudit.exact.first_failing_pair

    def recorded(adjacency, bits):
        failing = check(adjacency, bits)
        if failing is not None:
            failures.append((failing.u, failing.v))
        return failing

    monkeypatch.setattr(rcaudit.exact, "first_failing_pair", recorded)
    return failures


class TestLearnedAgainstPlainSearch:
    """The learned, backjumping search (prune=True) against the plain
    canonical search (prune=False): cutting solution-free subtrees must
    leave the first satisfying leaf, and every UNSAT verdict, unchanged."""

    @staticmethod
    def graphs():
        rng = random.Random(MASTER_SEED + 22)
        yield from (g for n in range(1, 6) for g in iter_connected_graphs(n))
        yield from (g for g in iter_connected_graphs(6) if rng.random() < 0.012)

    def test_same_verdict_and_witness_at_rc_and_below(self, monkeypatch):
        # every q from the diameter (or rc - 1, if lower) to rc; no pair on
        # 6 vertices has more than _PATH_CAP short paths, so every failing
        # leaf pair is learned and fails only once. Conflict-directed
        # jumps skip only solution-free subtrees, so the learned search
        # visits no more nodes, and the plain search never jumps.
        failures = record_leaf_failures(monkeypatch)
        checked = 0
        for g in self.graphs():
            if g.m == 0:
                continue
            dist = [bfs_distances(g, s) for s in range(g.n)]
            rc = rc_exact(g, prune=False, distances=dist).value
            for q in range(max(min(rc - 1, diameter(g)), 1), rc + 1):
                failures.clear()
                learned = rc_decision(g, q, distances=dist)
                assert len(failures) == len(set(failures)) == learned.learned_pairs
                plain = rc_decision(g, q, prune=False, distances=dist)
                assert (learned.status, learned.coloring) == (
                    plain.status, plain.coloring
                ), (to_graph6(g), q)
                assert learned.nodes <= plain.nodes, (to_graph6(g), q)
                assert plain.learned_pairs == plain.jumps == 0
            checked += 1
        assert checked == 771 + 340  # n <= 5 except K_1, plus the n = 6 sample

    # (graph6, nodes) of rc_exact(g, prune=False) without a budget, taken
    # before learning and backjumping were added: the plain search must
    # keep its tree
    PLAIN_NODES = [
        ("G@oAqG", 1722),
        ("DHg", 45),
        ("FJrCG", 1070),
        ("GLBARS", 2376),
        ("FOCMo", 1725),
        ("Ecr_", 177),
        ("E^E_", 36),
    ]

    def test_plain_search_node_counts(self):
        got = [
            (graph6, rc_exact(parse_graph6(graph6), prune=False).stats.nodes)
            for graph6, _ in self.PLAIN_NODES
        ]
        assert got == self.PLAIN_NODES

    def test_counters_sum_over_levels(self, monkeypatch):
        # one leaf per call ends SAT, the others fail; every failing pair
        # is learned (one pair may be learned again at a later level)
        failures = record_leaf_failures(monkeypatch)
        g = parse_graph6("FOCMo")
        learned = rc_exact(g)
        assert learned.stats.leaf_checks == len(failures) + 1
        assert learned.stats.learned_pairs == len(failures) > 0
        failures.clear()
        plain = rc_exact(g, prune=False)
        assert plain.stats.leaf_checks == len(failures) + 1 > learned.stats.leaf_checks
        assert plain.stats.learned_pairs == 0
        assert learned.stats.jumps > 0 and plain.stats.jumps == 0


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
        assert res.witness.num_colors == 0

    def test_witness_uses_exactly_value_colors_and_verifies(self):
        rng = random.Random(MASTER_SEED + 10)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            assert res.status is ExactStatus.EXACT
            assert res.witness.num_colors == res.value
            assert isinstance(is_rainbow_connected(g, res.witness), RainbowCertificate)

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
        rng = random.Random(MASTER_SEED + 13)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            with_prune = rc_exact(g, prune=True)
            without = rc_exact(g, prune=False)
            assert with_prune.value == without.value
            assert with_prune.witness == without.witness

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
        assert res.witness.num_colors == 3
        assert isinstance(is_rainbow_connected(c6, res.witness), RainbowCertificate)
        assert res.stats.witness_checks > 0
        # no time is left for any witness step
        timed_out = rc_exact(c6, Budget(max_seconds=0.0))
        assert timed_out.status is ExactStatus.BUDGET_EXHAUSTED
        assert timed_out.value == 3 and timed_out.witness is None

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
            assert res.witness.num_colors == value
            assert isinstance(is_rainbow_connected(g, res.witness), RainbowCertificate)

    def test_pinned_search_outcomes(self):
        # (status, value, nodes) at a 2000-node budget; the node counts
        # follow the conflict-directed search, and must not depend on how
        # a leaf is checked or where the distance table comes from
        got = [
            (r.status.value, r.value, r.stats.nodes)
            for r in (rc_exact(g, Budget(max_nodes=2000)) for g in random_corpus(10, 5, 16, 2))
        ]
        assert got == [
            ("exact", 4, 31),
            ("exact", 2, 31),
            ("exact", 2, 74),
            ("exact", 3, 589),
            ("exact", 2, 70),
            ("exact", 1, 10),
            ("exact", 2, 39),
            ("exact", 4, 298),
            ("exact", 3, 30),
            ("exact", 2, 54),
        ]

    # (graph6, status, value, nodes, witness colors in edge-list order) at
    # a 20000-node budget, on graphs of diameter 3-5 from
    # random_corpus(60, 5, 10, 7). Without learning and backjumping,
    # HWtaHks, HJmHtYV, IaMYDK^Tw, IYABhPECG and Hv_@GC_ were not solved
    # within this budget; every other row had the same value and witness.
    # Conflict-directed jumps at exhausted depths kept every witness and
    # lowered the node counts of HRO_iCo, FJrCG, GLBARS, Hv_@GC_, FOCMo
    # and Ecr_.
    PINNED = [
        ("HWtaHks", "exact", 3, 49, [0, 0, 0, 0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 1, 1, 2]),
        ("G@oAqG", "exact", 5, 77, [0, 1, 0, 2, 1, 3, 2, 4]),
        ("HRO_iCo", "exact", 4, 40, [0, 1, 2, 0, 3, 0, 0, 2, 1, 1, 1]),
        (
            "HJmHtYV", "exact", 3, 38,
            [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0],
        ),
        ("DHg", "exact", 4, 30, [0, 1, 2, 3]),
        (
            "IaMYDK^Tw", "exact", 3, 78,
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 2, 2, 2],
        ),
        ("FJrCG", "exact", 3, 53, [0, 0, 1, 1, 1, 0, 2, 0, 0]),
        ("GLBARS", "exact", 4, 71, [0, 0, 0, 0, 1, 1, 2, 3, 2, 1, 1]),
        (
            "HnztBkV", "exact", 3, 72,
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 2, 0, 2, 1, 2],
        ),
        ("IYABhPECG", "exact", 5, 102, [0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 3, 1, 2, 4, 2]),
        ("Hv_@GC_", "exact", 5, 1439, [0, 0, 1, 2, 2, 3, 4, 0, 1, 3]),
        ("FOCMo", "exact", 5, 146, [0, 1, 2, 0, 2, 3, 4]),
        ("Ecr_", "exact", 3, 56, [0, 0, 1, 2, 2, 0, 1]),
        ("E^E_", "exact", 3, 18, [0, 0, 0, 0, 1, 0, 1, 2]),
    ]

    def test_pinned_outcomes_and_witnesses_on_long_graphs(self):
        graphs = [g for g in random_corpus(60, 5, 10, 7) if 3 <= diameter(g) <= 5]
        assert [to_graph6(g) for g in graphs[:14]] == [p[0] for p in self.PINNED]
        for graph6, status, value, nodes, witness in self.PINNED:
            g = parse_graph6(graph6)
            r = rc_exact(g, Budget(max_nodes=20000))
            got = None if r.witness is None else [r.witness.colors[e] for e in g.edge_list()]
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
            adjacency = edge_adjacency(g)
            for q in range(diameter(g), rc_exact(g, Budget(max_nodes=20000)).value + 1):
                failures.clear()
                res = rc_decision(g, q, Budget(max_nodes=20000), distances=dist)
                assert res.leaf_checks == len(failures) + (res.status is DecisionStatus.SAT)
                assert res.learned_pairs == len(set(failures))
                seen = set()
                for u, v in failures:
                    if (u, v) in seen:
                        paths = _paths_within(adjacency, u, dist[v], q, _PATH_CAP)
                        assert paths is None, (graph6, q, u, v)
                        repeats += 1
                    seen.add((u, v))
        assert repeats == 0  # none of these pairs is above the cap

    # sha256 over one line per connected labeled graph with n <= 5 of
    # (graph6, status, value, nodes, jumps, leaf_checks, witness colors in
    # edge-list order) from unbudgeted rc_exact; a refactor of the search
    # must keep every row
    SMALL_GRAPHS_DIGEST = (
        "cb5f86c4b10a52a05177b87c8890711be18714cf7addef010eea2e25362f3c02"
    )

    def test_unbudgeted_outcomes_on_small_graphs(self):
        digest = hashlib.sha256()
        for n in range(1, 6):
            for g in iter_connected_graphs(n):
                r = rc_exact(g)
                witness = [r.witness.colors[e] for e in g.edge_list()]
                row = (
                    to_graph6(g), r.status.value, r.value, r.stats.nodes,
                    r.stats.jumps, r.stats.leaf_checks, witness,
                )
                digest.update(f"{row}\n".encode())
        assert digest.hexdigest() == self.SMALL_GRAPHS_DIGEST

    def test_pairs_above_the_cap_are_enumerated_once(self, monkeypatch):
        # with a cap of 2 most pairs are neither preloaded nor learned:
        # failing ones fail at several leaves, but each pair's paths are
        # listed only once, and the search still finds the plain search's
        # first satisfying leaf
        monkeypatch.setattr(rcaudit.exact, "_PATH_CAP", 2)
        failures = record_leaf_failures(monkeypatch)
        listed = []
        paths_within = rcaudit.exact._paths_within

        def counted(adjacency, s, dist_to_t, limit, cap):
            listed.append((s, dist_to_t.index(0)))
            return paths_within(adjacency, s, dist_to_t, limit, cap)

        monkeypatch.setattr(rcaudit.exact, "_paths_within", counted)
        g = parse_graph6("Ecr_")
        res = rc_decision(g, 3)
        assert len(listed) == len(set(listed))
        assert len(failures) > len(set(failures))  # over-cap pairs failed again
        assert res.learned_pairs < len(listed)
        plain = rc_decision(g, 3, prune=False)
        assert (res.status, res.coloring) == (DecisionStatus.SAT, plain.coloring)

    def test_exact_respects_diameter_floor(self):
        rng = random.Random(MASTER_SEED + 15)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            assert diameter(g) <= res.value <= max(g.m, 0) if g.m else res.value == 0


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
                    assert res.witness.num_colors == rc
                    assert isinstance(
                        is_rainbow_connected(g, res.witness), RainbowCertificate
                    )
                    closed += res.stats.witness_checks > 0
                else:
                    assert res.value <= rc and res.witness is None
        assert closed > 0

    def test_no_witness_checks_when_it_does_not_run(self):
        rng = random.Random(MASTER_SEED + 24)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
            assert rc_exact(g).stats.witness_checks == 0
            assert rc_exact(g, Budget(max_seconds=0.0)).stats.witness_checks == 0
            plain = rc_exact(g, Budget(max_nodes=1), prune=False)
            assert plain.stats.witness_checks == 0

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
