from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcaudit
import rcaudit.audit as audit_module
from rcaudit import gen_named, parse_graph6, to_edge_list, to_graph6
from rcaudit.cli import main
from rcaudit.exact import ExactResult, ExactStatus, SearchStats

from .test_construct import recursion_limit, reused_color_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_failing_coloring_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(to_edge_list(gen_named("path", 3)))
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 0\n")
        code, out, _ = run(capsys, "verify", str(graph), str(coloring))
        assert code == 2
        assert "0 and 2" in out

    def test_passing_coloring_exits_0(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(to_edge_list(gen_named("path", 3)))
        coloring = tmp_path / "coloring.txt"
        coloring.write_text("0 1 0\n1 2 1\n")
        code, out, _ = run(capsys, "verify", str(graph), str(coloring))
        assert code == 0
        assert "rainbow connected" in out

    def test_json_certificate_lines(self, tmp_path, capsys):
        graph = tmp_path / "p3.txt"
        graph.write_text(to_edge_list(gen_named("path", 3)))
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
        graph.write_text(to_edge_list(gen_named("complete", 4)))
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
            "status": "exact", "value": 4, "nodes": 1632, "witness_checks": 0, "jumps": 76,
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
        trace = json.loads(trace_path.read_text())
        assert trace["budget"] == 4
        assert trace["verification"] == "pass"

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

    def test_trace_too_deep_is_an_error(self, tmp_path, capsys):
        graph = tmp_path / "p600.g6"
        graph.write_text(to_graph6(gen_named("path", 600)) + "\n")
        trace_path = tmp_path / "trace.json"
        with recursion_limit(400):
            code, out, err = run(
                capsys, "construct", "--trace", str(trace_path), str(graph)
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not trace_path.exists()

    def test_finding_exits_4(self, capsys):
        code, out, _ = run(capsys, "construct", to_graph6(reused_color_witness()))
        assert code == 4
        assert "finding" in out and "reproducer" in out

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


class TestAuditCommand:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "audit", to_graph6(gen_named("cycle", 5)))
        assert code == 0
        assert "rc: exact 3" in out
        assert "min_degree_bound=3 slack=0" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--format", "json", to_graph6(gen_named("complete", 5))
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["rc_value"] == 1
        assert payload["degree_sum_bound"] is None

    def test_construction_finding_exits_4(self, capsys):
        code, _, _ = run(
            capsys, "audit", "--max-nodes", "500", to_graph6(reused_color_witness())
        )
        assert code == 4

    def test_solver_disagreement_exits_4(self, monkeypatch, capsys):
        # an exact rc above n - min_degree = 3 on C_5 breaks the proven bound;
        # the report is printed, then one line per finding a sweep reports
        def over_the_bound(g, budget, *, distances):
            return ExactResult(ExactStatus.EXACT, 4, None, SearchStats(0, 0.0))

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
        def above_degree_sum(g, budget, *, distances):
            return ExactResult(ExactStatus.EXACT, 3, None, SearchStats(0, 0.0))

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
        "cbc2c547afe68e4a894393f4eb5c5bb85c81d6f2336adb7eb452e0781e82d382"
    )
    assert hashlib.sha256(reports.read_bytes()).hexdigest() == (
        "95b6f3a7c2ddf4ed60afbcfef8bc00933d5c2cd09659c112e4c8bd0d3cd2565a"
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


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["exact", "--bogus"]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_graph_literal_exits_1(self, capsys):
        code = main(["exact", "not a graph6 line"])
        assert code == 1

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
        ],
    )
    def test_bad_option_values_exit_1(self, capsys, argv, flag):
        # each would otherwise run no search (exit 3), drop the deadline,
        # leak an internal message, or sweep nothing and exit 0
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag in lines[0]
