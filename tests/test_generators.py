from __future__ import annotations

import dataclasses
import importlib.util
import sys
from itertools import combinations
from pathlib import Path

import pytest

import rcaudit.generators as generators_module
from rcaudit import (
    CounterexampleParams,
    Graph,
    counterexample_inequalities,
    degree_stats,
    gen_counterexample,
    gen_named,
    gen_random_connected,
    is_connected,
)
from rcaudit.generators import iter_connected_graphs, random_corpus

from .oracles import induced_subgraph, union_find_components
from .test_graphs import assert_same_fields


class TestParams:
    def test_valid(self):
        p = CounterexampleParams(min_degree=6, copies=3)
        assert p.min_degree == 6 and p.copies == 3

    def test_copy_bound_violation_names_inequality(self):
        with pytest.raises(ValueError, match=r"2\*copies <= min_degree"):
            CounterexampleParams(min_degree=3, copies=2)

    def test_degenerate_values_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleParams(min_degree=1, copies=1)
        with pytest.raises(ValueError):
            CounterexampleParams(min_degree=4, copies=0)


class TestCounterexample:
    @pytest.mark.parametrize(
        "d, t, n, k, sigma",
        [(2, 1, 9, 1, 6), (4, 2, 21, 1, 10), (6, 1, 17, 5, 14), (6, 3, 37, 1, 14)],
    )
    def test_instance_shape(self, d, t, n, k, sigma):
        g, facts = gen_counterexample(CounterexampleParams(d, t))
        assert g.n == n
        assert facts.clique_size == k
        assert facts.min_degree_sum == sigma
        assert facts.component_pair_degree_sum == 4 * t
        stats = degree_stats(g)
        assert stats.min_degree == d and stats.min_degree_sum == sigma

    @pytest.mark.parametrize("seed", [None, 5])
    def test_component_degree_sum_is_recounted(self, monkeypatch, seed):
        # a wrong sigma_2 on one copy's component must stop the generator,
        # not reach the facts as the formula 4t
        real = generators_module.degree_stats

        def off_by_one(g, vertices=None):
            stats = real(g, vertices)
            if vertices is None:
                return stats
            return dataclasses.replace(stats, min_degree_sum=stats.min_degree_sum + 1)

        monkeypatch.setattr(generators_module, "degree_stats", off_by_one)
        with pytest.raises(RuntimeError, match="copy 1 has minimum degree sum 9, expected 8"):
            gen_counterexample(CounterexampleParams(4, 2, seed))

    def test_degree_profile_by_role(self):
        d, t = 6, 2
        g, facts = gen_counterexample(CounterexampleParams(d, t))
        for v, role in enumerate(facts.roles):
            if role == "clique":
                assert g.degree(v) == d
            elif role.startswith("attach"):
                assert g.degree(v) == d + 1
            else:
                assert g.degree(v) >= d + 3

    def test_minimizing_pair_is_attachment_pair(self):
        for d in range(2, 9):
            for t in range(1, d // 2 + 1):
                g, facts = gen_counterexample(CounterexampleParams(d, t))
                stats = degree_stats(g)
                assert stats.min_degree_sum == 2 * (d + 1)
                attach = {
                    v for v, r in enumerate(facts.roles) if r.startswith("attach")
                }
                best = [
                    (u, v)
                    for u in range(g.n)
                    for v in range(u + 1, g.n)
                    if not g.has_edge(u, v)
                    and g.degree(u) + g.degree(v) == stats.min_degree_sum
                ]
                assert best
                assert all(u in attach and v in attach for u, v in best)

    def test_connected_and_deterministic(self):
        a, _ = gen_counterexample(CounterexampleParams(4, 2, seed=11))
        b, _ = gen_counterexample(CounterexampleParams(4, 2, seed=11))
        c, _ = gen_counterexample(CounterexampleParams(4, 2, seed=12))
        assert is_connected(a)
        assert a == b
        assert a != c

    def test_seeded_attachments_may_differ_from_default(self):
        plain, _ = gen_counterexample(CounterexampleParams(6, 1))
        seeded, _ = gen_counterexample(CounterexampleParams(6, 1, seed=3))
        assert plain.n == seeded.n
        assert degree_stats(plain) == degree_stats(seeded)

    def test_component_structure_after_clique_removal(self):
        d, t = 4, 2
        g, facts = gen_counterexample(CounterexampleParams(d, t))
        clique = [v for v, r in enumerate(facts.roles) if r == "clique"]
        rest, _ = induced_subgraph(g, set(range(g.n)) - set(clique))
        blocks = union_find_components(rest.n, rest.edges)
        assert len(blocks) == t
        assert all(len(b) == d + 6 for b in blocks)


class TestInequalities:
    @pytest.mark.parametrize(
        "d, t, s_i, refuted, corrected",
        [(2, 1, 4, 6, 4), (4, 2, 8, 10, 8), (6, 1, 4, 6, 4)],
    )
    def test_reported_values(self, d, t, s_i, refuted, corrected):
        params = CounterexampleParams(d, t)
        g, facts = gen_counterexample(params)
        report = counterexample_inequalities(g, params, facts)
        assert report.component_sums == (s_i,) * t
        assert report.refuted_bound == refuted
        assert report.corrected_bound == corrected
        assert report.refuted_claim_violated
        assert report.corrected_claim_holds and report.corrected_claim_tight

    def test_gap_is_always_two(self):
        # the refuted bound exceeds each component sum by exactly 2
        for d, t in [(2, 1), (5, 2), (8, 4), (6, 3)]:
            params = CounterexampleParams(d, t)
            g, facts = gen_counterexample(params)
            report = counterexample_inequalities(g, params, facts)
            assert report.refuted_bound == 4 * t + 2
            assert all(s == 4 * t for s in report.component_sums)

    def test_structure_mismatch_rejected(self):
        params = CounterexampleParams(2, 1)
        g, facts = gen_counterexample(params)
        other = gen_named("cycle", 9)
        with pytest.raises(ValueError):
            counterexample_inequalities(other, params, facts)
        # as many clique roles as the facts say, on other vertices: the
        # construction's clique is still the shared one
        moved = tuple(sorted(facts.roles, key=lambda r: r != "clique"))
        shifted = dataclasses.replace(facts, roles=moved)
        with pytest.raises(ValueError, match="construction deletes clique"):
            counterexample_inequalities(g, params, shifted)
        # a complete graph has no decomposition at all
        with pytest.raises(ValueError, match="removed every vertex"):
            counterexample_inequalities(gen_named("complete", g.n), params, facts)


class TestNamed:
    @pytest.mark.parametrize(
        "family, sizes, n, m",
        [
            ("path", (5,), 5, 4),
            ("cycle", (5,), 5, 5),
            ("complete", (4,), 4, 6),
            ("star", (4,), 4, 3),
            ("complete_bipartite", (2, 3), 5, 6),
        ],
    )
    def test_shapes(self, family, sizes, n, m):
        g = gen_named(family, *sizes)
        assert g.n == n and g.m == m

    def test_star_is_complete_bipartite_one_side(self):
        assert gen_named("star", 4).m == gen_named("complete_bipartite", 1, 3).m

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gen_named("cycle", 2)
        with pytest.raises(ValueError):
            gen_named("path")
        with pytest.raises(ValueError, match="unknown family"):
            gen_named("wheel", 5)

    @pytest.mark.parametrize(
        "family, sizes, message",
        [
            ("path", (0,), "path needs at least 1 vertex"),
            ("complete", (0,), "complete graph needs at least 1 vertex"),
            ("star", (0,), "star needs at least 1 vertex"),
            ("complete_bipartite", (0, 2), "complete_bipartite needs two positive sizes"),
        ],
    )
    def test_sizes_below_the_family_minimum(self, family, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_named(family, *sizes)


class TestRandomConnected:
    def test_single_vertex(self):
        assert gen_random_connected(1, 0.5).n == 1

    def test_p_one_gives_clique(self):
        g = gen_random_connected(5, 1.0, seed=0)
        assert g.m == 10

    def test_deterministic_for_seed(self):
        a = gen_random_connected(8, 0.4, seed=7)
        b = gen_random_connected(8, 0.4, seed=7)
        assert a == b and is_connected(a)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gen_random_connected(0, 0.5)
        with pytest.raises(ValueError):
            gen_random_connected(3, 0.0)

    def test_rejection_limit_diagnostic(self):
        with pytest.raises(ValueError, match="increase the edge probability"):
            gen_random_connected(30, 1e-9, seed=1)

    def test_corpus_deterministic(self):
        a = random_corpus(20, 4, 12, seed=5)
        b = random_corpus(20, 4, 12, seed=5)
        assert a == b
        assert all(is_connected(g) and 4 <= g.n <= 12 for g in a)


class TestEnumeration:
    def test_counts_match_known_sequence(self):
        # connected labeled graphs (OEIS A001187): 1, 1, 4, 38, 728, 26704
        got = [sum(1 for _ in iter_connected_graphs(n)) for n in range(1, 7)]
        assert got == [1, 1, 4, 38, 728, 26704]

    def test_all_connected(self):
        assert all(is_connected(g) for g in iter_connected_graphs(4))

    def test_no_vertex_rejected(self):
        with pytest.raises(ValueError, match="^need at least 1 vertex$"):
            list(iter_connected_graphs(0))

    def test_matches_plain_enumeration(self):
        # every edge mask built with Graph() and kept when connected: the
        # same graphs in the same order, field by field
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            plain = [
                g
                for mask in range(1 << len(pairs))
                for g in [Graph(n, [e for j, e in enumerate(pairs) if mask >> j & 1])]
                if is_connected(g)
            ]
            got = list(iter_connected_graphs(n))
            assert len(got) == len(plain)
            for built, checked in zip(got, plain):
                assert_same_fields(built, checked)


def load_family_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "family_inequality_report.py"
    spec = importlib.util.spec_from_file_location("family_inequality_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFamilyInequalityScript:
    def test_grid_checks_pass(self, monkeypatch, capsys):
        script = load_family_script()
        monkeypatch.setattr(sys, "argv", ["family_inequality_report.py", "--max-delta", "4"])
        assert script.main() == 0
        out = capsys.readouterr().out
        assert out.endswith("every row: s_i = corrected floor, refuted floor = s_i + 2\n")

    def test_failed_check_returns_1(self, monkeypatch, capsys):
        # the checks must hold under python -O too, so they are no asserts
        script = load_family_script()
        real = script.counterexample_inequalities

        def unviolated(*args):
            return dataclasses.replace(real(*args), refuted_claim_violated=False)

        monkeypatch.setattr(script, "counterexample_inequalities", unviolated)
        monkeypatch.setattr(sys, "argv", ["family_inequality_report.py", "--max-delta", "3"])
        assert script.main() == 1
        err = capsys.readouterr().err
        assert err == "error: delta=2 t=1: the refuted floor is not violated\n"
