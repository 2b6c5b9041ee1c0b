"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured runtime (run with -s or -rP to see them).

The corpora are fixed here: every connected labeled graph on up to five
vertices (772 graphs), and 500 seeded random connected graphs with 4 to
40 vertices. Construction results are computed once per session and
shared between the bound criterion and the measure-decrease criterion.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

import pytest

from rcaudit import (
    Budget,
    ExactStatus,
    audit_corpus,
    audit_graph,
    degree_stats,
    gen_named,
    parse_graph6,
    rc_exact,
    run_construction,
    to_graph6,
)
from rcaudit.generators import (
    CounterexampleParams,
    counterexample_inequalities,
    gen_counterexample,
    iter_connected_graphs,
    random_corpus,
)

from .conftest import assert_trace_invariants
from .oracles import diameter, naive_rc

RANDOM_CORPUS_SEED = 20260808
RANDOM_CORPUS_SIZE = 500
SWEEP_NODE_BUDGET = 2000
# sha256 of _sweep_bytes on the two corpora: every report, aggregate and
# finding of both sweeps, so any change to a value shows up here
SWEEP_DIGEST = "6d5448138a3c256df68a814c9cccaf089c511d57a242b81d23e3b84f81f96cb1"


def report_pass(criterion: str, detail: str, seconds: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail} [{seconds:.2f}s]")


@pytest.fixture(scope="session")
def small_corpus() -> list:
    graphs = []
    for n in range(1, 6):
        graphs.extend(iter_connected_graphs(n))
    assert len(graphs) == 772
    return graphs


@pytest.fixture(scope="session")
def small_construct_results(small_corpus):
    started = time.monotonic()
    results = [(g, *run_construction(g)) for g in small_corpus]
    return results, time.monotonic() - started


@pytest.fixture(scope="session")
def random_corpus_graphs() -> list:
    return random_corpus(RANDOM_CORPUS_SIZE, 4, 40, seed=RANDOM_CORPUS_SEED)


@pytest.fixture(scope="session")
def random_construct_results(random_corpus_graphs):
    started = time.monotonic()
    results = [(g, *run_construction(g)) for g in random_corpus_graphs]
    return results, time.monotonic() - started


@pytest.fixture(scope="session")
def clique_results():
    out = []
    for n in range(2, 11):
        g = gen_named("complete", n)
        out.append((g, rc_exact(g), run_construction(g)))
    return out


def test_criterion_1_clique_base_case(clique_results):
    started = time.monotonic()
    for g, rc, (finding, coloring, trace) in clique_results:
        assert rc.status is ExactStatus.EXACT and rc.value == 1, f"rc(K_{g.n}) = {rc.value}"
        assert finding is None
        assert trace.budget == g.n - degree_stats(g).min_degree == 1
        assert trace.colors_used == 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report_pass("1", "K_n for n=2..10: rc exact 1, construction uses 1 color", elapsed)


def test_criterion_2a_bound_on_all_small_graphs(small_construct_results):
    results, elapsed = small_construct_results
    reproducers = []
    for g, finding, coloring, trace in results:
        bound = g.n - degree_stats(g).min_degree
        if finding is not None or trace.colors_used > bound or trace.verification != "pass":
            reproducers.append(to_graph6(g))
    assert not reproducers, f"construction failed on: {reproducers}"
    assert elapsed < 120.0
    report_pass(
        "2a",
        f"all {len(results)} connected graphs with n<=5 color within"
        " n - min_degree and verify rainbow connected",
        elapsed,
    )


def test_criterion_2b_bound_on_random_corpus(random_construct_results):
    results, elapsed = random_construct_results
    reproducers = []
    for g, finding, coloring, trace in results:
        bound = g.n - degree_stats(g).min_degree
        if finding is not None or trace.colors_used > bound or trace.verification != "pass":
            reproducers.append(to_graph6(g))
    assert not reproducers, f"construction failed on: {reproducers}"
    assert elapsed < 600.0
    report_pass(
        "2b",
        f"{len(results)} seeded random connected graphs (n in [4,40])"
        " color within bound and verify",
        elapsed,
    )


def test_criterion_3_exact_solver_oracle_agreement(small_corpus):
    started = time.monotonic()
    disagreements = []
    violations = []
    for g in small_corpus:
        res = rc_exact(g)
        assert res.status is ExactStatus.EXACT
        reference = naive_rc(g)
        if res.value != reference:
            disagreements.append((to_graph6(g), res.value, reference))
        stats = degree_stats(g)
        lo = diameter(g)
        hi = min(g.m, g.n - stats.min_degree) if g.m else 0
        if not lo <= res.value <= max(hi, 0 if g.m else 0):
            violations.append((to_graph6(g), lo, res.value, hi))
    elapsed = time.monotonic() - started
    assert not disagreements, f"solver vs naive enumerator: {disagreements[:5]}"
    assert not violations, f"diameter <= rc <= min(m, n-min_degree): {violations[:5]}"
    assert elapsed < 600.0
    report_pass(
        "3",
        "canonical solver matches the all-colorings enumerator on all 772"
        " graphs; diameter <= rc <= min(m, n - min_degree) throughout",
        elapsed,
    )


def test_criterion_4_counterexample_family_reproduction():
    started = time.monotonic()
    for d, t in [(2, 1), (4, 2), (6, 1), (6, 3)]:
        params = CounterexampleParams(d, t)
        g, facts = gen_counterexample(params)
        # recounted facts (the generator itself recounts; re-assert here)
        stats = degree_stats(g)
        assert stats.min_degree == d
        assert stats.min_degree_sum == 2 * (d + 1) == facts.min_degree_sum
        for v, role in enumerate(facts.roles):
            if role == "clique":
                assert g.degree(v) == d
            elif role.startswith("attach"):
                assert g.degree(v) == d + 1
            else:
                assert g.degree(v) >= d + 3
        report = counterexample_inequalities(g, params, facts)
        assert report.component_sums == (4 * t,) * t
        assert report.refuted_bound == 4 * t + 2
        assert report.refuted_claim_violated
        assert report.corrected_bound == 4 * t
        assert report.corrected_claim_holds and report.corrected_claim_tight
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report_pass(
        "4",
        "family instances (2,1), (4,2), (6,1), (6,3): degree recounts pass;"
        " component sums 4t violate the 4t+2 claim and meet the corrected"
        " floor exactly",
        elapsed,
    )


def _sweep_bytes(small, rand) -> bytes:
    def section(graphs, budget=None):
        # each report as the audit hands it over, dumped on arrival
        lines = []
        result = audit_corpus(
            graphs, budget, lambda r: lines.append(json.dumps(vars(r), sort_keys=True, default=str))
        )
        return {
            "aggregate": vars(result.aggregate),
            "reports": sorted(lines),
            "findings": list(result.findings),
        }

    blob = {
        "small": section(small),
        "random": section(rand, Budget(max_nodes=SWEEP_NODE_BUDGET)),
    }
    # default=str writes each Fraction as its 'p/q' string
    return json.dumps(blob, sort_keys=True, default=str).encode()


def test_criterion_5_degree_sum_probe_completes_deterministically(
    small_corpus, random_corpus_graphs
):
    started = time.monotonic()
    first = _sweep_bytes(small_corpus, random_corpus_graphs)
    second = _sweep_bytes(small_corpus, random_corpus_graphs)
    elapsed = time.monotonic() - started
    assert first == second, "two sweep runs were not byte-identical"
    assert hashlib.sha256(first).hexdigest() == SWEEP_DIGEST

    payload = json.loads(first)
    small_agg = payload["small"]["aggregate"]
    assert small_agg["min_degree_sum_slack"] is not None
    # exact rational form: parseable as an integer fraction
    Fraction(small_agg["min_degree_sum_slack"])
    # the small corpus solves exactly everywhere, so the proven sandwich
    # rc <= construct_colors <= n - min_degree must hold with no findings
    assert payload["small"]["findings"] == []
    assert small_agg["exact"] == small_agg["total"] == 772
    for line in payload["small"]["reports"]:
        report = json.loads(line)
        assert (
            report["rc_value"]
            <= report["construct_colors"]
            <= report["min_degree_bound"]
        )
    # a give-up stops at the node budget, never one node past it
    for line in payload["random"]["reports"]:
        assert json.loads(line)["rc_nodes"] <= SWEEP_NODE_BUDGET
    # any negative slack must have surfaced as a finding with a reproducer
    for section in ("small", "random"):
        for finding in payload[section]["findings"]:
            assert finding["kind"] in (
                "negative-degree-sum-slack",
                "construction-failure",
                "solver-disagreement",
            )
            if finding["kind"] == "negative-degree-sum-slack":
                replay = audit_graph(
                    parse_graph6(finding["graph6"]),
                    Budget(max_nodes=SWEEP_NODE_BUDGET),
                )
                assert str(replay.degree_sum_slack) == finding["detail"][
                    "degree_sum_slack"
                ]
    report_pass(
        "5",
        "full n<=5 sweep plus the 500-graph random sweep ran twice with"
        f" byte-identical output; min degree-sum slack (n<=5) ="
        f" {small_agg['min_degree_sum_slack']}",
        elapsed,
    )


def test_criterion_6_family_spot_values_oracle_first():
    started = time.monotonic()
    expectations = []
    for n in range(2, 8):
        expectations.append((gen_named("path", n), n - 1))
    expectations.append((gen_named("cycle", 4), 2))
    expectations.append((gen_named("cycle", 5), 3))
    expectations.append((gen_named("cycle", 6), 3))
    for g, want in expectations:
        oracle = naive_rc(g)
        assert oracle == want, f"oracle disagrees with the frozen value: {oracle}"
        res = rc_exact(g)
        assert res.status is ExactStatus.EXACT and res.value == oracle
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report_pass(
        "6",
        "rc(P_n) = n-1 for n<=7 and rc(C4)=2, rc(C5)=3, rc(C6)=3, computed"
        " by the brute-force enumerator and matched by the solver",
        elapsed,
    )


def test_criterion_7_measure_decrease_everywhere(
    clique_results, small_construct_results, random_construct_results
):
    started = time.monotonic()
    traces = [rest[2] for _, _, rest in clique_results]
    for results, _ in (small_construct_results, random_construct_results):
        traces.extend(trace for _, finding, _, trace in results if trace is not None)
    checked_steps = 0
    for trace in traces:
        checked_steps += assert_trace_invariants(trace)
    elapsed = time.monotonic() - started
    report_pass(
        "7",
        f"{checked_steps} recursion steps across criteria 1-2 all strictly"
        " decreased the n - min_degree measure",
        elapsed,
    )
