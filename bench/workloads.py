"""Workload inputs and the correctness gate.

Each workload is a fixed corpus built with ``rcaudit.generators`` and
encoded as graph6 text. The run's seed shuffles it; a workload may then
keep only a prefix of the shuffled list (a seeded sample) and split what
it keeps into shards, each swept by one CLI call. The corpus does not
follow the seed otherwise: across corpus seeds of the random sweep, wall
time ranged 16.9-21.5 s and the exact count 245-287 of 500 (five seeds,
one 2-core machine), which would drown the regressions the bounds are
meant to catch. Per-graph work does not depend on the order.

The gate recounts n and the minimum degree from the graph6 text with its
own decoder rather than trusting the program's report of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from rcaudit.generators import iter_connected_graphs, random_corpus
from rcaudit.graphs import to_graph6

COMPLETED_EXIT_CODES = (0, 3, 4)  # ok, budget exhausted, finding emitted


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    generate: Callable[[], list]
    sweep_args: tuple[str, ...] = ()
    shards: int = 1  # CLI calls per sweep of the kept corpus
    keep: int | None = None  # graphs kept from the shuffled corpus; None keeps all


def _exhaustive(n_max: int) -> list:
    return [g for n in range(1, n_max + 1) for g in iter_connected_graphs(n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random_sweep",
            "acceptance random corpus (500 graphs, n 4-40) at a 2000-node budget:"
            " exact search and its leaf checks dominate, budget-exhausted graphs form the tail",
            {"count": 500, "n_min": 4, "n_max": 40, "corpus_seed": 20260808,
             "max_nodes": 2000, "shards": 5},
            lambda: random_corpus(500, 4, 40, 20260808),
            ("--max-nodes", "2000"),
            shards=5,
        ),
        Workload(
            "labeled_n6",
            "seeded 3,500 of the 27,476 connected labeled graphs on 1-6 vertices, no budget:"
            " per-graph builds, traversals, codecs and report output dominate",
            {"n_max": 6, "keep": 3500, "max_nodes": None, "shards": 1},
            lambda: _exhaustive(6),
            keep=3500,
        ),
    )
}


def corpus_shards(workload: Workload, graphs: list, seed: int) -> list[list[str]]:
    lines = [to_graph6(g) for g in graphs]
    random.Random(seed).shuffle(lines)
    lines = lines[:workload.keep]
    size = -(-len(lines) // workload.shards)
    return [lines[i:i + size] for i in range(0, len(lines), size)]


def recount(graph6: str) -> tuple[int, int]:
    """(n, minimum degree) of a graph6 string with fewer than 63 vertices."""
    n = ord(graph6[0]) - 63
    if not 0 <= n < 63:
        raise ValueError(f"unsupported graph6 header in {graph6!r}")
    bits = []
    for ch in graph6[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    degree = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                degree[i] += 1
                degree[j] += 1
            k += 1
    return n, min(degree) if n else 0


def report_problems(report: dict, n: int, delta: int) -> list[str]:
    """Proven invariants of one per-graph report against the recount."""
    problems = []
    if (report["n"], report["min_degree"], report["min_degree_bound"]) != (n, delta, n - delta):
        problems.append(
            f"n/min_degree/bound {report['n']}/{report['min_degree']}/"
            f"{report['min_degree_bound']}, recounted {n}/{delta}/{n - delta}"
        )
    colors = report["construct_colors"]
    if colors is not None and colors > n - delta:
        problems.append(f"construction used {colors} colors, above n - min_degree = {n - delta}")
    if report["rc_status"] == "exact" and report["construct_verified"]:
        if colors is None or not report["rc_value"] <= colors <= report["min_degree_bound"]:
            problems.append(
                f"rc {report['rc_value']} <= colors {colors} <="
                f" bound {report['min_degree_bound']} fails"
            )
    return problems


@dataclass
class Check:
    """Outcome of the gate on one invocation."""

    failed: int
    exact: int
    findings: int
    problems: list[str]


def check_first(lines: list[str], rc: int, stdout: str, out_text: str) -> Check:
    """Gate the first invocation: exit code, error count, one valid report
    per input graph in input order, and the aggregate's exact count."""
    total = len(lines)
    if rc not in COMPLETED_EXIT_CODES:
        return Check(total, 0, 0, [f"exit code {rc}"])
    try:
        return _check_reports(lines, json.loads(stdout), [json.loads(x) for x in out_text.splitlines()])
    except (ValueError, KeyError, TypeError) as exc:
        return Check(total, 0, 0, [f"unreadable output: {exc!r}"])


def _check_reports(lines: list[str], summary: dict, reports: list[dict]) -> Check:
    total = len(lines)
    problems = []
    if summary["aggregate"]["errors"] != 0:
        problems.append(f"aggregate.errors = {summary['aggregate']['errors']}")
    failed = 0
    exact = 0
    pos = 0
    for graph6 in lines:
        if pos < len(reports) and reports[pos]["graph6"] == graph6:
            report = reports[pos]
            pos += 1
            found = report_problems(report, *recount(graph6))
            exact += report["rc_status"] == "exact"
        else:
            found = ["no report"]
        if found:
            failed += 1
            problems.extend(f"{graph6}: {p}" for p in found)
    if pos != len(reports):
        failed += len(reports) - pos
        problems.append(f"{len(reports) - pos} report(s) for graphs not in the input")
    if summary["aggregate"]["exact"] != exact:
        failed = total
        problems.append(f"aggregate.exact {summary['aggregate']['exact']} != {exact} exact reports")
    return Check(min(failed, total), exact, len(summary["findings"]), problems)


def check_repeat(
    lines: list[str], rc: int, stdout: str, out_text: str,
    first_stdout: str, first_out: str,
) -> Check:
    """Gate a repeat: its stdout and report file must be byte-identical to
    the first invocation's; each differing report line is one failure."""
    total = len(lines)
    if rc not in COMPLETED_EXIT_CODES:
        return Check(total, 0, 0, [f"exit code {rc}"])
    if stdout != first_stdout:
        return Check(total, 0, 0, ["stdout differs from the first invocation"])
    if out_text == first_out:
        return Check(0, 0, 0, [])
    got, want = out_text.splitlines(), first_out.splitlines()
    differ = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return Check(min(differ, total), 0, 0, [f"{differ} report line(s) differ from the first invocation"])
