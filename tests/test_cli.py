from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rcaudit
import rcaudit.audit as audit_module
from rcaudit import FailingPair, gen_named, parse_graph6, to_graph6
from rcaudit.cli import _dumps, main
from rcaudit.exact import ExactResult, ExactStatus, SearchStats

from .conftest import edge_list_text
from .test_construct import first_member_cliques, recursion_limit, reused_color_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_failing_coloring_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(edge_list_text(gen_named("path", 3)))
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 0\n")
        code, out, _ = run(capsys, "verify", str(graph), str(coloring))
        assert code == 2
        assert "0 and 2" in out

    def test_failing_coloring_json(self, tmp_path, capsys):
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 0\n")
        assert run(capsys, "verify", "Bg", str(coloring), "--format", "json") == (
            2, '{"failing_pair":[0,2],"status":"failed"}\n', ""
        )

    def test_passing_coloring_exits_0(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(edge_list_text(gen_named("path", 3)))
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 1\n")
        code, out, _ = run(capsys, "verify", str(graph), str(coloring))
        assert code == 0
        assert "rainbow connected" in out

    def test_single_vertex_text(self, tmp_path, capsys):
        # the empty coloring of one vertex passes with no pair and no color
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("")
        code, out, _ = run(capsys, "verify", "@", str(coloring))
        assert (code, out) == (0, "rainbow connected: 0 pair(s), 0 color(s)\n")

    def test_json_certificate_lines(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(edge_list_text(gen_named("path", 3)))
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 1\n")
        code, out, _ = run(
            capsys, "verify", "--format", "json", str(graph), str(coloring)
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["pair"] for r in records] == [[0, 1], [0, 2], [1, 2]]


class TestExact:
    def test_k4_edge_list_prints_1(self, tmp_path, capsys):
        graph = tmp_path / "k4.txt"
        graph.write_text(edge_list_text(gen_named("complete", 4)))
        code, out, _ = run(capsys, "exact", str(graph))
        assert code == 0
        assert out.strip() == "1"

    def test_graph6_literal(self, capsys):
        code, out, _ = run(capsys, "exact", to_graph6(gen_named("path", 5)))
        assert code == 0 and out.strip() == "4"

    def test_budget_exhausted_exits_3(self, capsys):
        # K_{1,5} has diameter 2 and rc 5: the witness search at 2 colors
        # cannot succeed
        code, out, _ = run(
            capsys, "exact", "--max-nodes", "2", to_graph6(gen_named("star", 6))
        )
        assert code == 3
        assert ">=" in out

    def test_spent_time_budget_leaves_the_witness_search(self, capsys):
        # the clock stops only the deepening: with no time left for a
        # single node, the seeded witness search still certifies rc = 6
        # on the counterexample instance, in the checks a spent node budget gives
        graph = run(capsys, "gen", "cex", "--delta", "4", "--t", "2")[1].strip()
        code, out, _ = run(capsys, "exact", "--max-seconds", "0", "--format", "json", graph)
        assert code == 0
        assert json.loads(out) == {
            "status": "exact", "value": 6, "nodes": 0, "witness_checks": 14, "jumps": 0,
        }

    def test_counterexample_solves_with_no_budget(self, capsys):
        # the unbudgeted search proves rc = 6 by itself, in 97 nodes
        graph = run(capsys, "gen", "cex", "--delta", "4", "--t", "2")[1].strip()
        assert run(capsys, "exact", graph) == (0, "6\n", "")
        code, out, _ = run(capsys, "exact", "--format", "json", graph)
        assert code == 0
        assert json.loads(out) == {
            "status": "exact", "value": 6, "nodes": 97, "witness_checks": 0, "jumps": 0,
        }

    def test_witness_search_closes_budgeted_give_up(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--max-nodes", "2", "--format", "json",
            to_graph6(gen_named("cycle", 6)),
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["status"], payload["value"]) == ("exact", 3)
        assert payload["witness_checks"] > 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--format", "json", to_graph6(gen_named("cycle", 5))
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3 and payload["status"] == "exact"
        assert payload["witness_checks"] == 0

    def test_json_reports_jumps(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--max-nodes", "2000", "--format", "json", "JP??hHk?qt?"
        )
        assert code == 0
        assert json.loads(out) == {
            "status": "exact", "value": 4, "nodes": 990, "witness_checks": 0, "jumps": 90,
        }


class TestConstruct:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "construct", to_graph6(gen_named("cycle", 5)))
        assert code == 0
        assert "colors used: 3 (budget 3)" in out

    def test_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys,
            "construct",
            "--trace",
            str(trace_path),
            to_graph6(gen_named("path", 5)),
        )
        assert code == 0
        records = json.loads(trace_path.read_text())
        assert records[0]["parent"] is None
        assert records[0]["budget"] == 4
        assert records[0]["verification"] == "pass"

    def test_path_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        graph = tmp_path / "p600.g6"
        graph.write_text(to_graph6(gen_named("path", 600)) + "\n")
        with recursion_limit(400):
            code, out, _ = run(capsys, "construct", str(graph))
        assert code == 0
        assert out.startswith("colors used: 599 (budget 599)\n")

    def test_long_graph6_literal(self, capsys):
        # a literal longer than a file name may be is still a graph
        literal = to_graph6(gen_named("path", 60))
        assert len(literal) > 255
        code, out, _ = run(capsys, "construct", literal)
        assert code == 0
        assert out.startswith("colors used: 59 (budget 59)\n")

    def test_trace_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the trace is written flat, one record per level, so a path's
        # 599 levels need no nesting
        graph = tmp_path / "p600.g6"
        graph.write_text(to_graph6(gen_named("path", 600)) + "\n")
        trace_path = tmp_path / "trace.json"
        with recursion_limit(400):
            code, out, err = run(
                capsys, "construct", "--trace", str(trace_path), str(graph)
            )
        assert (code, err) == (0, "")
        assert out.startswith("colors used: 599 (budget 599)\n")
        records = json.loads(trace_path.read_text())
        assert len(records) == 599
        assert records[0]["parent"] is None
        assert all(0 <= r["parent"] < i for i, r in enumerate(records) if i)

    def test_finding_exits_4(self, capsys):
        code, out, _ = run(capsys, "construct", to_graph6(reused_color_witness()))
        assert code == 4
        assert "finding" in out and "reproducer" in out

    def test_finding_json(self, capsys):
        graph6 = to_graph6(reused_color_witness())
        assert graph6 == "N}CYW[Ng??_BGB?B_@w"
        code, out, _ = run(capsys, "construct", graph6, "--format", "json")
        assert (code, json.loads(out)) == (4, {
            "status": "finding", "kind": "verification-failed", "graph6": graph6,
            "detail": "no rainbow path between 2 and 3",
        })

    def test_json_coloring(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--format", "json", to_graph6(gen_named("path", 3))
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["colors_used"] == 2
        assert len(payload["coloring"]) == 2


class TestGen:
    def test_cex_with_facts_sidecar(self, tmp_path, capsys):
        facts_path = tmp_path / "facts.json"
        code, out, _ = run(
            capsys, "gen", "cex", "--delta", "2", "--t", "1",
            "--facts", str(facts_path),
        )
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 9
        facts = json.loads(facts_path.read_text())
        assert facts["min_degree_sum"] == 6
        assert facts["roles"].count("clique") == 1

    def test_cex_json(self, capsys):
        code, out, _ = run(capsys, "gen", "cex", "--delta", "4", "--t", "2", "--format", "json")
        g, facts = rcaudit.gen_counterexample(rcaudit.CounterexampleParams(4, 2))
        payload = json.loads(out)
        assert (code, payload["graph6"]) == (0, to_graph6(g))
        assert payload["facts"] == {**vars(facts), "roles": list(facts.roles)}

    def test_cex_parameter_violation_exits_1(self, capsys):
        code, _, err = run(capsys, "gen", "cex", "--delta", "3", "--t", "2")
        assert code == 1
        assert "2*copies <= min_degree" in err

    def test_named(self, capsys):
        code, out, _ = run(capsys, "gen", "named", "--family", "cycle", "--size", "5")
        assert code == 0
        assert parse_graph6(out.strip()) == gen_named("cycle", 5)

    def test_named_bipartite_two_sizes(self, capsys):
        code, out, _ = run(
            capsys, "gen", "named", "--family", "complete_bipartite",
            "--size", "2", "3",
        )
        assert code == 0
        assert parse_graph6(out.strip()).m == 6

    def test_random_deterministic(self, capsys):
        code, out1, _ = run(
            capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "7"
        )
        code2, out2, _ = run(
            capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "7"
        )
        assert code == code2 == 0
        assert out1 == out2
        assert parse_graph6(out1.strip()).n == 8

    def test_random_count(self, capsys):
        code, out, _ = run(
            capsys, "gen", "random", "--n", "6", "--p", "0.5", "--seed", "1",
            "--count", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_random_hopeless_probability_exits_1(self, capsys):
        code, out, err = run(
            capsys, "gen", "random", "--n", "6", "--p", "0.01", "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: 1000 consecutive samples were disconnected;"
            " increase the edge probability\n"
        )

    def test_random_probability_above_one_exits_1(self, capsys):
        # p is a probability: 1.5 is refused, never read as "every edge"
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            rcaudit.gen_random_connected(5, 1.5, seed=1)
        code, out, err = run(capsys, "gen", "random", "--n", "5", "--p", "1.5", "--seed", "1")
        assert (code, out, err) == (1, "", "error: edge probability must be in (0, 1]\n")


class TestAuditCommand:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "audit", to_graph6(gen_named("cycle", 5)))
        assert code == 0
        assert "rc: exact 3" in out
        assert "min_degree_bound=3 slack=0" in out

    def test_text_report_does_not_depend_on_the_clock(self, capsys, monkeypatch):
        # a clock whose steps grow would give each run its own wall time;
        # the text report, like the JSON one, holds none
        ticks = iter(range(10**6))
        monkeypatch.setattr(time, "monotonic", lambda: next(ticks) ** 2)
        first = run(capsys, "audit", "D?{")
        assert first == run(capsys, "audit", "D?{")
        assert first[0] == 0 and "rc: exact 4 (nodes=" in first[1]

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--format", "json", to_graph6(gen_named("complete", 5))
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["rc_value"] == 1
        assert payload["degree_sum_bound"] is None

    def test_budget_exhausted_exits_3(self, capsys):
        code, out, err = run(capsys, "audit", "M?@Qc@k?OW?qcIC@?", "--max-nodes", "2000")
        assert (code, err) == (3, "")
        assert "rc: budget-exhausted 4 (nodes=2000)" in out.splitlines()

    def test_construction_finding_exits_4(self, capsys):
        code, _, _ = run(
            capsys, "audit", "--max-nodes", "500", to_graph6(reused_color_witness())
        )
        assert code == 4

    def test_root_decomposition_failure_exits_4(self, monkeypatch, capsys):
        # the construction's structural finding, not a traceback
        first_member_cliques(monkeypatch)
        code, out, err = run(capsys, "audit", to_graph6(gen_named("cycle", 5)))
        assert code == 4
        assert "top_components=None weakened_degree_sum_bound=None" in out
        assert err.startswith("finding (construction-failure):")

    def test_solver_disagreement_exits_4(self, monkeypatch, capsys):
        # an exact rc above n - min_degree = 3 on C_5 breaks the proven bound;
        # the report is printed, then one line per finding a sweep reports
        def over_the_bound(g, budget):
            return ExactResult(ExactStatus.EXACT, 4, None, SearchStats(()))

        monkeypatch.setattr(audit_module, "rc_exact", over_the_bound)
        code, out, err = run(capsys, "audit", to_graph6(gen_named("cycle", 5)))
        assert code == 4
        assert "rc: exact 4" in out
        assert err == (
            'finding (solver-disagreement): {"detail":"exact rc 4 exceeds the'
            ' proven bound 3"}\n'
            'finding (solver-disagreement): {"detail":"verified coloring with 3'
            ' colors undercuts the claimed optimum 4"}\n'
            'finding (negative-degree-sum-slack): {"degree_sum_bound":"3",'
            '"degree_sum_slack":"-1","rc_value":4}\n'
        )

    def test_negative_degree_sum_slack_exits_4(self, monkeypatch, capsys, tmp_path):
        # D^o: n = 5, min degree 2, sigma_2 = 5, so rc 3 is within the proven
        # bound 3 and matches the 3-color construction, but exceeds the
        # degree-sum bound 5/2; audit reports it as sweep does
        def above_degree_sum(g, budget):
            return ExactResult(ExactStatus.EXACT, 3, None, SearchStats(()))

        monkeypatch.setattr(audit_module, "rc_exact", above_degree_sum)
        code, out, err = run(capsys, "audit", "D^o")
        assert code == 4
        assert "degree_sum_bound=5/2 slack=-1/2" in out
        assert err == (
            'finding (negative-degree-sum-slack): {"degree_sum_bound":"5/2",'
            '"degree_sum_slack":"-1/2","rc_value":3}\n'
        )
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("D^o\n")
        code, out, _ = run(capsys, "sweep", str(corpus))
        assert code == 4
        assert "negative-degree-sum-slack: D^o" in out


class TestSweep:
    def test_corpus_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(
                to_graph6(g)
                for g in (gen_named("path", 4), gen_named("cycle", 5))
            )
            + "\n"
        )
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "sweep", str(corpus), "--out", str(out_path),
            "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["aggregate"]["total"] == 2
        assert summary["findings"] == []
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["rc_value"] == 3

    def test_all_connected_small(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--all-connected", "4", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["aggregate"]["total"] == 1 + 1 + 4 + 38

    def test_all_connected_single_vertex(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--all-connected", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["aggregate"]["total"] == 1

    def test_all_connected_above_the_limit_exits_1(self, monkeypatch, capsys):
        # n = 8 is refused before any graph is enumerated
        def unreachable(n):
            raise AssertionError(f"enumerated n = {n}")

        monkeypatch.setattr(rcaudit.cli, "iter_connected_graphs", unreachable)
        code, out, err = run(capsys, "sweep", "--all-connected", "8")
        assert code == 1
        assert out == ""
        assert "at most 7" in err and "251,548,592" in err

    def test_unwritable_out_fails_before_any_audit(self, monkeypatch, tmp_path, capsys):
        # --out is opened before the first graph is audited, so a path in a
        # missing directory costs no audit
        calls = []
        audit_graph = audit_module.audit_graph

        def counted(g, budget=None):
            calls.append(g)
            return audit_graph(g, budget)

        monkeypatch.setattr(audit_module, "audit_graph", counted)
        out_path = tmp_path / "missing" / "reports.jsonl"
        code, out, err = run(capsys, "sweep", "--all-connected", "3", "--out", str(out_path))
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.parent.exists()

    def test_unusable_findings_dir_fails_before_any_audit(self, monkeypatch, tmp_path, capsys):
        # the findings dir is made where --out is opened, before the first
        # graph is audited: a dir under a regular file writes no report line
        calls = []
        audit_graph = audit_module.audit_graph

        def counted(g, budget=None):
            calls.append(g)
            return audit_graph(g, budget)

        monkeypatch.setattr(audit_module, "audit_graph", counted)
        blocker = tmp_path / "file"
        blocker.write_text("")
        reports = tmp_path / "reports.jsonl"
        code, out, err = run(
            capsys, "sweep", "--all-connected", "3", "--out", str(reports),
            "--findings-dir", str(blocker / "findings"),
        )
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not reports.exists()

    def test_all_connected_starts_at_one_vertex(self, tmp_path, capsys):
        # the corpus runs n = 1, 2, ..., N: its first report is K_1's
        reports = tmp_path / "reports.jsonl"
        code, _, _ = run(capsys, "sweep", "--all-connected", "3", "--out", str(reports))
        assert code == 0
        lines = [json.loads(line) for line in reports.read_text().splitlines()]
        assert [r["graph6"] for r in lines] == ["@", "A_", "Bo", "Bg", "BW", "Bw"]

    def test_bad_source_leaves_out_untouched(self, tmp_path, capsys):
        # the source is checked before --out is opened: a bad corpus line
        # neither creates nor truncates the reports file
        corpus = tmp_path / "bad.g6"
        corpus.write_text(to_graph6(gen_named("path", 4)) + "\nnot graph6\n")
        reports = tmp_path / "reports.jsonl"
        reports.write_text("kept\n")
        code, out, err = run(capsys, "sweep", str(corpus), "--out", str(reports))
        assert (code, out) == (1, "")
        assert "line 2" in err
        assert reports.read_text() == "kept\n"
        fresh = tmp_path / "fresh.jsonl"
        code, _, _ = run(capsys, "sweep", "--all-connected", "0", "--out", str(fresh))
        assert code == 1 and not fresh.exists()

    def test_findings_dir_and_exit_code(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(to_graph6(reused_color_witness()) + "\n")
        fdir = tmp_path / "findings"
        code, out, _ = run(
            capsys, "sweep", str(corpus), "--max-nodes", "500",
            "--findings-dir", str(fdir), "--format", "json",
        )
        assert code == 4
        files = sorted(fdir.iterdir())
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["kind"] == "construction-failure"
        # the reproducer replays to the same finding
        code2, out2, _ = run(
            capsys, "sweep", "--max-nodes", "500", "--format", "json",
            str(corpus),
        )
        assert code2 == 4
        assert json.loads(out)["findings"] == json.loads(out2)["findings"]

    def test_empty_corpus_exits_0(self, tmp_path, capsys):
        # unlike a single-graph argument, an empty corpus is no error
        self.check_empty_corpus(tmp_path, capsys, "")

    def test_blank_lines_corpus_exits_0(self, tmp_path, capsys):
        self.check_empty_corpus(tmp_path, capsys, "\n  \n")

    def test_empty_corpus_writes_empty_reports(self, tmp_path, capsys):
        # the reports file is written line by line; with no report it is
        # still created, and empty
        corpus = tmp_path / "empty.g6"
        corpus.write_text("")
        reports = tmp_path / "reports.jsonl"
        reports.write_text("stale\n")
        code, _, _ = run(capsys, "sweep", str(corpus), "--out", str(reports))
        assert code == 0
        assert reports.read_bytes() == b""

    @staticmethod
    def check_empty_corpus(tmp_path, capsys, text):
        corpus = tmp_path / "empty.g6"
        corpus.write_text(text)
        code, out, err = run(capsys, "sweep", str(corpus), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "aggregate": {
                "complete_graphs": 0,
                "construction_failures": 0,
                "degree_sum_slack_count": 0,
                "errors": 0,
                "exact": 0,
                "mean_degree_sum_slack": None,
                "mean_min_degree_slack": None,
                "min_degree_sum_slack": None,
                "min_min_degree_slack": None,
                "not_exact": 0,
                "total": 0,
            },
            "errors": [],
            "findings": [],
        }

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1
        assert "exactly one source" in err

    def test_random_source(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--random", "5", "--n-min", "4", "--n-max", "8",
            "--seed", "3", "--max-nodes", "20000", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["aggregate"]["total"] == 5


def test_random_sweep_output_is_byte_stable(tmp_path, capsys):
    # sha256 of the JSON summary and of the per-graph reports; a change
    # to the solver or the construction that alters any byte of the
    # output shows here
    reports = tmp_path / "reports.jsonl"
    code, out, _ = run(
        capsys, "sweep", "--random", "60", "--n-min", "4", "--n-max", "40",
        "--seed", "20260808", "--max-nodes", "2000", "--format", "json",
        "--out", str(reports),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "035090f89b23c0f92ba425595dbddf568f3a9f5931f707d82adce02e467dc683"
    )
    assert hashlib.sha256(reports.read_bytes()).hexdigest() == (
        "3906e6ed87001d26824c0230bc8f425ba731a20c56b6f2e0cdc06cf3c9a0a8bd"
    )


def test_random_sweep_output_ignores_hash_seed():
    # the witness search seeds its generator from the graph, so runs in
    # processes with different string-hash salts print the same bytes
    argv = [
        sys.executable, "-m", "rcaudit", "sweep", "--random", "60",
        "--n-min", "4", "--n-max", "40", "--seed", "20260808",
        "--max-nodes", "2000", "--format", "json",
    ]
    src = str(Path(rcaudit.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(argv, env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["aggregate"]["total"] == 60


class TestEncoder:
    """_dumps is the one writer of JSON: it writes a Fraction as its exact
    'p/q' string, a FailingPair as the pair it is, and nothing else that
    json cannot write by itself."""

    @pytest.mark.parametrize(
        "value, text",
        [(Fraction(-1, 2), '"-1/2"'), (Fraction(3), '"3"'), (FailingPair(2, 3), "[2,3]")],
        ids=["fraction", "whole-fraction", "failing-pair"],
    )
    def test_writes(self, value, text):
        assert _dumps(value) == text
        assert _dumps({"x": [value]}) == f'{{"x":[{text}]}}'

    @pytest.mark.parametrize("value", [{1, 2}, object()], ids=["set", "object"])
    def test_anything_else_raises(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            _dumps({"x": value})


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["exact", "--bogus"]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_graph_literal_exits_1(self, capsys):
        code = main(["exact", "not a graph6 line"])
        assert code == 1

    def test_bad_graph6_line_names_file_and_line(self, tmp_path, capsys):
        # the line count includes blank lines; a literal's message is the
        # parser's alone
        bad = "graph6: invalid byte 0x21 at offset 1\n"
        path = tmp_path / "bad.g6"
        path.write_text("D?{\n\nD!{\n")
        assert run(capsys, "sweep", str(path)) == (1, "", f"error: {path}: line 3: {bad}")
        path.write_text("\nD!{\n")
        assert run(capsys, "construct", str(path)) == (1, "", f"error: {path}: line 2: {bad}")
        assert run(capsys, "construct", "D!{") == (1, "", f"error: {bad}")

    def test_empty_graph_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert run(capsys, "exact", str(path)) == (1, "", f"error: {path}: empty file\n")

    def test_multi_graph_file_rejected_for_single_commands(self, tmp_path, capsys):
        path = tmp_path / "two.g6"
        path.write_text(
            to_graph6(gen_named("path", 3)) + "\n" + to_graph6(gen_named("path", 4)) + "\n"
        )
        assert main(["exact", str(path)]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["exact", "C~", "--max-nodes", "-5"], "--max-nodes"),
            (["audit", "C~", "--max-nodes", "-5"], "--max-nodes"),
            (["exact", "C~", "--max-seconds", "-1"], "--max-seconds"),
            (["exact", "C~", "--max-seconds", "nan"], "--max-seconds"),
            (["sweep", "--random", "3", "--max-seconds", "nan"], "--max-seconds"),
            (["sweep", "--random", "3", "--n-min", "5", "--n-max", "2"], "--n-min"),
            (["sweep", "--random", "3", "--n-min", "0", "--n-max", "1"], "--n-min"),
            (["sweep", "--random", "-3"], "--random"),
            (["gen", "random", "--n", "5", "--p", "0.5", "--seed", "1", "--count", "-1"],
             "--count"),
            (["gen", "named", "--family", "path", "--size", "3", "--format", "json"],
             "--format"),
            (["gen", "random", "--n", "3", "--p", "1", "--count", "2", "--format", "json"],
             "--format"),
            (["exact", "C~", "--bogus"], "--bogus"),
        ],
    )
    def test_bad_option_values_exit_1(self, capsys, argv, flag):
        # each would otherwise run no search (exit 3), drop the deadline,
        # leak an internal message, sweep or print nothing and exit 0, or
        # ignore the flag and exit 0; the parser's own rejections take the
        # same one-line shape
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag in lines[0]
