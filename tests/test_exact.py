from __future__ import annotations

import random

import networkx as nx
import pytest

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
)
from rcaudit.generators import iter_connected_graphs, random_corpus

from .conftest import MASTER_SEED, random_connected_graph
from .oracles import naive_rc


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
        res = rc_decision(gen_named("cycle", 6), 3, budget=Budget(max_seconds=0.0))
        assert res.status is DecisionStatus.BUDGET_EXHAUSTED
        assert res.nodes == 1

    def test_distance_prune_short_circuits(self):
        # diameter 3 > 2 colors: provably unsatisfiable without search
        res = rc_decision(gen_named("cycle", 6), 2)
        assert res.status is DecisionStatus.UNSAT and res.nodes == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rc_decision(gen_named("path", 3), 0)
        with pytest.raises(ValueError):
            rc_decision(Graph(2, []), 1)

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
        # a path of 6 edges colored distinctly is found immediately, so to
        # exercise budget statuses use a cycle where deepening must refute
        c6 = gen_named("cycle", 6)
        tiny = rc_exact(c6, Budget(max_nodes=2))
        assert tiny.status is ExactStatus.BUDGET_EXHAUSTED
        assert tiny.value == rc_lower_bound(c6)
        assert tiny.witness is None
        timed_out = rc_exact(c6, Budget(max_seconds=0.0))
        assert timed_out.status is ExactStatus.BUDGET_EXHAUSTED
        assert timed_out.value == rc_lower_bound(c6)

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

    def test_pinned_search_outcomes(self):
        # (status, value, nodes) at a 2000-node budget; the search tree, and
        # so these counts, must not depend on how leaves are checked or
        # where the distance table comes from
        got = [
            (r.status.value, r.value, r.stats.nodes)
            for r in (rc_exact(g, Budget(max_nodes=2000)) for g in random_corpus(10, 5, 16, 2))
        ]
        assert got == [
            ("exact", 4, 37),
            ("exact", 2, 34),
            ("exact", 2, 74),
            ("budget-exhausted", 3, 2001),
            ("exact", 2, 70),
            ("exact", 1, 10),
            ("exact", 2, 39),
            ("lower-bound-only", 4, 2001),
            ("exact", 3, 551),
            ("exact", 2, 54),
        ]

    def test_exact_respects_diameter_floor(self):
        rng = random.Random(MASTER_SEED + 15)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9))
            res = rc_exact(g)
            assert diameter(g) <= res.value <= max(g.m, 0) if g.m else res.value == 0
