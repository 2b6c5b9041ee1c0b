from __future__ import annotations

import dataclasses
import json
import weakref
from fractions import Fraction

import pytest

import rcaudit.audit as audit_module
from rcaudit import (
    Budget,
    ExactStatus,
    Graph,
    audit_corpus,
    audit_graph,
    decompose,
    gen_named,
    rc_exact,
    to_graph6,
)
from rcaudit.audit import AggregateStats, BoundReport, check_report, findings_for_report
from rcaudit.cli import _dumps
from rcaudit.generators import iter_connected_graphs
from rcaudit.rainbow import FailingPair

from .test_construct import contraction_witness, first_member_cliques, reused_color_witness


class TestAuditGraph:
    def test_complete_graph(self):
        report = audit_graph(gen_named("complete", 5))
        assert report.min_degree == 4
        assert report.rc_value == 1 and report.rc_status == "exact"
        assert report.min_degree_bound == 1 and report.min_degree_slack == 0
        assert report.min_degree_sum is None
        assert report.degree_sum_bound is None
        assert report.top_components is None
        assert report.construct_verified and report.construct_colors == 1

    def test_path4(self):
        report = audit_graph(gen_named("path", 4))
        assert report.min_degree == 1
        assert report.rc_value == 3
        assert report.min_degree_bound == 3 and report.min_degree_slack == 0
        # nonadjacent pair degrees: endpoints sum to 2
        assert report.min_degree_sum == 2
        assert report.degree_sum_bound == Fraction(3)
        assert report.degree_sum_slack == 0

    def test_cycle5(self):
        report = audit_graph(gen_named("cycle", 5))
        assert report.rc_value == 3
        assert report.min_degree_sum == 4
        assert report.degree_sum_bound == Fraction(3)
        assert report.degree_sum_slack == Fraction(0)
        assert report.top_components == 1
        assert report.weakened_degree_sum_bound == Fraction(4)

    def test_top_components_read_from_the_trace(self, monkeypatch):
        # the trace root already holds the top-level decomposition, also
        # when the coloring fails verification
        want = {
            g: decompose(g).t
            for g in (contraction_witness(), reused_color_witness())
        }

        def no_decompose(*args):
            raise AssertionError("decompose recomputed")

        monkeypatch.setattr(audit_module, "decompose", no_decompose)
        budget = Budget(max_nodes=200)
        for g, t in want.items():
            assert audit_graph(g, budget).top_components == t == 2

    def test_top_components_without_a_trace(self, monkeypatch):
        # a structural failure returns no trace, so the audit decomposes
        g = contraction_witness()

        def structural(h):
            return {"kind": "structural", "detail": "broken"}, None, None

        monkeypatch.setattr(audit_module, "run_construction", structural)
        report = audit_graph(g, Budget(max_nodes=200))
        assert report.top_components == 2
        assert not report.construct_verified

    def test_root_decomposition_failure_is_reported(self, monkeypatch):
        # the root level's own decomposition fails, so there is neither a
        # trace nor a decomposition to count the top components from
        first_member_cliques(monkeypatch)
        g = gen_named("cycle", 5)
        report = audit_graph(g)
        assert report.construction_failure == {
            "kind": "structural",
            "detail": "component (1, 2, 3, 4) has minimum degree 1"
            " below the guaranteed floor 2",
        }
        assert (report.top_components, report.weakened_degree_sum_bound) == (None, None)
        assert (report.degree_sum_bound, report.rc_value) == (Fraction(3), 3)
        result = audit_corpus([g])
        assert (result.aggregate.construction_failures, result.errors) == (1, ())
        assert [f["kind"] for f in result.findings] == ["construction-failure"]

    def test_odd_degree_sum_stays_rational(self):
        # triangle with a pendant: the nonadjacent pairs mix degrees 2 and 1
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        report = audit_graph(g)
        assert report.min_degree_sum == 3
        assert report.rc_value == 2
        assert report.degree_sum_bound == Fraction(5, 2)
        assert report.degree_sum_slack == Fraction(1, 2)
        d = json.loads(_dumps(vars(report)))
        assert d["degree_sum_bound"] == "5/2"
        assert d["degree_sum_slack"] == "1/2"

    def test_budget_exhausted_fields(self):
        # K_{1,5}: diameter 2, rc 5, so the witness search cannot close it
        g = gen_named("star", 6)
        report = audit_graph(g, Budget(max_nodes=2))
        assert report.rc_status in ("budget-exhausted", "lower-bound-only")
        assert report.min_degree_slack is None
        assert report.degree_sum_slack is None
        assert report.construct_verified

    def test_witness_closed_give_up_has_slacks(self):
        # C6 runs out of nodes at q = 3; the witness search proves rc = 3
        report = audit_graph(gen_named("cycle", 6), Budget(max_nodes=2))
        assert (report.rc_status, report.rc_value) == ("exact", 3)
        assert report.min_degree_slack == 6 - 2 - 3
        assert report.degree_sum_slack == Fraction(6 - 2 - 3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            audit_graph(Graph(2, []))

    def test_connectivity_flooded_once(self, monkeypatch):
        # the construction's flood is the audit's one connectivity check;
        # only a disconnected graph is flooded again, to name the error
        import rcaudit.construct

        floods = []
        real = rcaudit.construct.is_connected

        def counted(g):
            floods.append(g.n)
            return real(g)

        monkeypatch.setattr(rcaudit.construct, "is_connected", counted)
        monkeypatch.setattr(audit_module, "is_connected", counted)
        for g in (gen_named("complete", 4), gen_named("cycle", 6), contraction_witness()):
            floods.clear()
            audit_graph(g)
            assert floods == [g.n]
        floods.clear()
        result = audit_corpus([gen_named("path", 5), Graph(3, [(0, 1)])])
        assert result.errors == (("B_", "audit requires a connected graph"),)
        assert floods == [5, 3, 3]
        # an error of the construction on a connected graph is its own
        def broken(g, labels):
            raise ValueError("coloring is not total: edge (0, 1) has no color")

        monkeypatch.setattr(rcaudit.construct, "_construct", broken)
        with pytest.raises(ValueError, match="^coloring is not total"):
            audit_graph(gen_named("path", 3))

    def test_distance_table_built_once(self, monkeypatch):
        # rc_exact builds g's distance table, one BFS row per vertex, only
        # when something reads it, and audit_graph builds none of its own:
        # K_{2,3} has diameter 2 and rc 2, one mask-table level and no
        # table; C_5 has diameter 2 and rc 3, and the first dive solves
        # its q = 3 level with no table; the star K_{1,4} has diameter 2
        # and rc 4, and its table is built once, at its q = 3 level, which
        # the dive does not solve; C_6 has diameter 3, so its bound
        # needs it
        import rcaudit.graphs

        rows = []
        bfs = rcaudit.graphs.bfs_distances

        def counted(g, source):
            rows.append(source)
            return bfs(g, source)

        monkeypatch.setattr(rcaudit.graphs, "bfs_distances", counted)
        k23 = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
        cases = [
            (k23, [2], 0),
            (gen_named("cycle", 5), [2, 3], 0),
            (gen_named("star", 5), [2, 3, 4], 5),
            (gen_named("cycle", 6), [3], 6),
        ]
        for g, levels, built in cases:
            rows.clear()
            res = rc_exact(g)
            assert (res.status, res.value, len(rows)) == (ExactStatus.EXACT, levels[-1], built)
            assert [level.q for level in res.stats.levels] == levels
            rows.clear()
            report = audit_graph(g)
            assert (report.rc_status, report.rc_value, len(rows)) == ("exact", levels[-1], built)
        rows.clear()
        with pytest.raises(ValueError, match="audit requires a connected graph"):
            audit_graph(Graph(3, [(0, 1)]))
        assert rows == []

    def test_to_dict_omits_wall_clock(self):
        report = audit_graph(gen_named("path", 4))
        d = json.loads(_dumps(vars(report)))
        assert "rc_seconds" not in d
        assert d["rc_nodes"] == report.rc_nodes
        names = [f.name for f in dataclasses.fields(BoundReport)]
        assert sorted(d) == sorted(names)
        # every aggregate field is rendered, rationals as 'p/q' strings
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        agg = audit_corpus([paw, gen_named("path", 4)]).aggregate
        rendered = json.loads(_dumps(vars(agg)))
        assert sorted(rendered) == sorted(f.name for f in dataclasses.fields(AggregateStats))
        for name, value in rendered.items():
            want = getattr(agg, name)
            assert value == (str(want) if isinstance(want, Fraction) else want)
        assert rendered["mean_min_degree_slack"] == "1/2"
        assert rendered["mean_degree_sum_slack"] == "1/4"

    def test_construction_failure_reported_not_raised(self):
        # the witness is too big for an unbudgeted exact solve; the
        # construction outcome is independent of the rc budget
        budget = Budget(max_nodes=2000)
        report = audit_graph(reused_color_witness(), budget)
        assert not report.construct_verified
        assert report.construction_failure["kind"] == "verification-failed"
        assert report.construction_failure["failing_pair"] == FailingPair(2, 3)
        assert check_report(report) == []


class TestFindingsClassification:
    def _base_report(self, **overrides) -> BoundReport:
        fields = dict(
            graph6="D?{",
            n=5,
            m=4,
            min_degree=1,
            min_degree_sum=2,
            rc_status="exact",
            rc_value=4,
            rc_nodes=10,
            construct_colors=4,
            construct_verified=True,
            construction_failure=None,
            min_degree_bound=4,
            min_degree_slack=0,
            degree_sum_bound=Fraction(4),
            degree_sum_slack=Fraction(0),
            top_components=1,
            weakened_degree_sum_bound=Fraction(5),
        )
        fields.update(overrides)
        return BoundReport(**fields)

    def test_clean_report_has_no_findings(self):
        assert findings_for_report(self._base_report()) == []

    def test_negative_degree_sum_slack_is_a_finding_not_a_failure(self):
        report = self._base_report(degree_sum_slack=Fraction(-1, 2))
        found = findings_for_report(report)
        assert [f["kind"] for f in found] == ["negative-degree-sum-slack"]
        assert found[0]["graph6"] == "D?{"
        assert found[0]["detail"]["degree_sum_slack"] == Fraction(-1, 2)
        assert check_report(report) == []  # reported, never asserted

    def test_negative_min_degree_slack_is_a_solver_bug(self):
        report = self._base_report(min_degree_slack=-1, rc_value=5)
        assert check_report(report)
        kinds = [f["kind"] for f in findings_for_report(report)]
        assert "solver-disagreement" in kinds

    def test_construction_failure_finding(self):
        report = self._base_report(
            construct_verified=False,
            construction_failure={"kind": "verification-failed"},
        )
        kinds = [f["kind"] for f in findings_for_report(report)]
        assert kinds == ["construction-failure"]

    def test_colors_above_the_bound_are_a_violation(self):
        report = self._base_report(construct_colors=5)
        assert check_report(report)


class TestAuditCorpus:
    def test_empty_corpus(self):
        reports = []
        result = audit_corpus([], on_report=reports.append)
        assert result.aggregate.total == 0
        assert result.findings == () and reports == []

    def test_small_corpus_aggregates(self):
        graphs = [gen_named("path", 4), gen_named("cycle", 5), gen_named("complete", 4)]
        result = audit_corpus(graphs)
        agg = result.aggregate
        assert agg.total == 3
        assert agg.complete_graphs == 1
        assert agg.exact == 3
        assert agg.construction_failures == 0
        assert agg.min_min_degree_slack == 0
        assert agg.min_degree_sum_slack == Fraction(0)
        assert agg.degree_sum_slack_count == 2
        assert result.findings == ()

    def test_corpus_with_failing_construction(self):
        graphs = [gen_named("path", 4), reused_color_witness()]
        result = audit_corpus(graphs, Budget(max_nodes=2000))
        assert result.aggregate.construction_failures == 1
        assert [f["kind"] for f in result.findings] == ["construction-failure"]
        assert result.findings[0]["detail"]["failing_pair"] == FailingPair(2, 3)

    def test_per_graph_errors_recorded_not_fatal(self):
        graphs = [gen_named("path", 4), Graph(3, [(0, 1)])]
        result = audit_corpus(graphs)
        assert result.aggregate.total == 1
        assert result.aggregate.errors == 1
        assert len(result.errors) == 1

    def test_findings_sorted_by_graph6(self):
        graphs = [reused_color_witness(), reused_color_witness()]
        result = audit_corpus(graphs, Budget(max_nodes=500))
        keys = [(f["graph6"], f["kind"]) for f in result.findings]
        assert keys == sorted(keys)

    def test_replay_determinism(self):
        graphs = [gen_named("cycle", 5), reused_color_witness()]
        budget = Budget(max_nodes=2000)
        first_lines, second_lines = [], []
        first = audit_corpus(graphs, budget, lambda r: first_lines.append(_dumps(vars(r))))
        second = audit_corpus(graphs, budget, lambda r: second_lines.append(_dumps(vars(r))))
        assert len(first_lines) == 2
        assert first_lines == second_lines
        assert first.findings == second.findings
        assert first.aggregate == second.aggregate

    def test_sandwich_holds_on_all_n4(self):
        reports = []
        result = audit_corpus(iter_connected_graphs(4), on_report=reports.append)
        assert result.aggregate.total == len(reports) == 38
        assert result.findings == ()
        for report in reports:
            assert report.rc_value <= report.construct_colors <= report.min_degree_bound

    def test_family_singleton_corpus_weakened_bound(self):
        # the 9-vertex family instance: degree-sum bound 9 - 3 = 6 plus one
        # top-level component gives 7; the bound fields need no exact rc
        from rcaudit import gen_counterexample
        from rcaudit.generators import CounterexampleParams

        g, _ = gen_counterexample(CounterexampleParams(2, 1))
        reports = []
        audit_corpus([g], Budget(max_nodes=2000), reports.append)
        (report,) = reports
        assert report.degree_sum_bound == Fraction(6)
        assert report.top_components == 1
        assert report.weakened_degree_sum_bound == Fraction(7)
        assert report.construct_verified

    def test_holds_no_report(self):
        # every report is dead once the call returns, its result still bound
        refs = []
        graphs = list(iter_connected_graphs(4))
        result = audit_corpus(graphs, on_report=lambda r: refs.append(weakref.ref(r)))
        assert result.aggregate.total == len(refs) == 38
        assert all(ref() is None for ref in refs)

    def test_each_report_reaches_the_hook_before_the_next_graph(self):
        # graph k's report reaches the hook before graph k + 1 is pulled,
        # errors skipping the hook in place
        events = []
        graphs = [gen_named("path", 4), Graph(3, [(0, 1)]), gen_named("cycle", 5)]

        def pulled():
            for k, g in enumerate(graphs):
                events.append(("pull", k))
                yield g

        audit_corpus(pulled(), on_report=lambda r: events.append(("report", r.graph6)))
        assert events == [
            ("pull", 0),
            ("report", to_graph6(graphs[0])),
            ("pull", 1),
            ("pull", 2),
            ("report", to_graph6(graphs[2])),
        ]
