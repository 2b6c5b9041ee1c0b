"""Per-graph bound reports and corpus sweeps.

A report collects the graph's degree statistics, the constructive
coloring (with verification outcome), the exact rainbow connection
number (or a budgeted lower bound), and the slack of two upper bounds:
n - min_degree, which is proven, so check_report flags a negative slack
under an exact solve as a solver bug, and n - min_degree_sum/2, whose truth is an open
question: its slack is reported in exact rational arithmetic and a
negative value surfaces as a finding, never as a crash.

A sweep is one pass that holds no report: each goes to the caller's hook
as it is made and is folded into running counts, minima and exact sums;
findings are sorted by graph6, and per-graph errors do not abort it.

Nothing here writes JSON. Reports, aggregates and findings hold their
values as they are, Fractions included; the command line dumps them
with vars() through cli._dumps, which writes each Fraction as its exact
'p/q' string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .construct import ConstructionError, decompose, run_construction
from .exact import Budget, ExactStatus, rc_exact
from .graphs import Graph, degree_stats, is_connected, to_graph6

__all__ = [
    "BoundReport",
    "AggregateStats",
    "CorpusResult",
    "audit_graph",
    "audit_corpus",
    "check_report",
    "findings_for_report",
]


@dataclass
class BoundReport:
    graph6: str
    n: int
    m: int
    min_degree: int
    min_degree_sum: int | None
    rc_status: str
    rc_value: int
    rc_nodes: int
    construct_colors: int | None
    construct_verified: bool
    construction_failure: dict | None
    min_degree_bound: int
    min_degree_slack: int | None
    degree_sum_bound: Fraction | None
    degree_sum_slack: Fraction | None
    top_components: int | None
    weakened_degree_sum_bound: Fraction | None


@dataclass(frozen=True)
class AggregateStats:
    total: int
    complete_graphs: int
    exact: int
    not_exact: int
    construction_failures: int
    errors: int
    min_min_degree_slack: int | None
    mean_min_degree_slack: Fraction | None
    min_degree_sum_slack: Fraction | None
    mean_degree_sum_slack: Fraction | None
    degree_sum_slack_count: int


@dataclass(frozen=True)
class CorpusResult:
    aggregate: AggregateStats
    findings: tuple[dict, ...]  # sorted by (graph6, kind)
    errors: tuple[tuple[str, str], ...]  # (label, message)


def audit_graph(g: Graph, budget: Budget | None = None) -> BoundReport:
    """Full bound report for one connected graph.

    Violations of the proven-bound invariants (a negative min-degree slack
    with an exact solve is a solver bug, not a result) are left in the
    report for check_report to find; they never raise here.

    Connectivity is checked once, by the construction's flood; a
    disconnected g raises "audit requires a connected graph", and only
    that failure floods g again, to tell it from the construction's
    other errors.
    """
    stats = degree_stats(g)
    try:
        finding, _, trace = run_construction(g)
    except ValueError:
        if is_connected(g):
            raise
        raise ValueError("audit requires a connected graph") from None
    rc = rc_exact(g, budget)

    bound1 = g.n - stats.min_degree
    exact = rc.status is ExactStatus.EXACT
    slack1 = bound1 - rc.value if exact else None
    if stats.min_degree_sum is None:
        ds_bound = ds_slack = weakened = None
        t_top = None
    else:
        ds_bound = Fraction(g.n) - Fraction(stats.min_degree_sum, 2)
        ds_slack = ds_bound - rc.value if exact else None
        if trace is not None:
            t_top = trace.decomposition.t
        else:
            # a structural failure leaves no trace to read the root level
            # from; when the root's own decomposition is what failed, the
            # finding is reported with no top components
            try:
                t_top = decompose(g).t
            except ConstructionError:
                t_top = None
        weakened = None if t_top is None else ds_bound + t_top

    return BoundReport(
        graph6=to_graph6(g),
        n=g.n,
        m=g.m,
        min_degree=stats.min_degree,
        min_degree_sum=stats.min_degree_sum,
        rc_status=rc.status.value,
        rc_value=rc.value,
        rc_nodes=rc.stats.nodes,
        construct_colors=trace.colors_used if trace is not None else None,
        construct_verified=finding is None,
        construction_failure=finding,
        min_degree_bound=bound1,
        min_degree_slack=slack1,
        degree_sum_bound=ds_bound,
        degree_sum_slack=ds_slack,
        top_components=t_top,
        weakened_degree_sum_bound=weakened,
    )


def check_report(report: BoundReport) -> list[str]:
    """Violations of the proven invariants: the verified construction must
    fit under n - min_degree, and an exact rc can neither exceed that
    bound nor a verified coloring's color count."""
    problems = []
    if report.construct_verified and report.construct_colors is not None:
        if report.construct_colors > report.min_degree_bound:
            problems.append(
                f"verified construction used {report.construct_colors} colors,"
                f" above the bound {report.min_degree_bound}"
            )
    if report.min_degree_slack is not None and report.min_degree_slack < 0:
        problems.append(
            f"exact rc {report.rc_value} exceeds the proven bound"
            f" {report.min_degree_bound}"
        )
    if (
        report.rc_status == ExactStatus.EXACT.value
        and report.construct_verified
        and report.construct_colors is not None
        and report.construct_colors < report.rc_value
    ):
        problems.append(
            f"verified coloring with {report.construct_colors} colors"
            f" undercuts the claimed optimum {report.rc_value}"
        )
    return problems


def findings_for_report(report: BoundReport) -> list[dict]:
    """The report's anomalies, each a {"kind", "graph6", "detail"} dict
    whose graph6 string replays it. kind is construction-failure,
    solver-disagreement or negative-degree-sum-slack; the last one's
    detail holds the bound and slack as Fractions."""
    out = []

    def found(kind: str, detail: dict) -> None:
        out.append({"kind": kind, "graph6": report.graph6, "detail": detail})

    if not report.construct_verified:
        found("construction-failure", report.construction_failure or {})
    for violation in check_report(report):
        found("solver-disagreement", {"detail": violation})
    if report.degree_sum_slack is not None and report.degree_sum_slack < 0:
        found("negative-degree-sum-slack", {
            "degree_sum_bound": report.degree_sum_bound,
            "rc_value": report.rc_value,
            "degree_sum_slack": report.degree_sum_slack,
        })
    return out


def audit_corpus(
    graphs: Iterable[Graph],
    budget: Budget | None = None,
    on_report: Callable[[BoundReport], object] | None = None,
) -> CorpusResult:
    """Audit every graph in one pass, aggregate, and collect findings.

    Each report goes to on_report before the next graph is pulled and is
    then dropped. Per-graph exceptions are recorded, not fatal. The
    aggregate and the sorted findings are independent of processing order.
    """
    findings: list[dict] = []
    errors: list[tuple[str, str]] = []
    total = complete = exact = failures = count1 = count2 = sum1 = sum2 = 0
    min1 = min2 = None
    for g in graphs:
        try:
            report = audit_graph(g, budget)
        except Exception as exc:
            errors.append((to_graph6(g), str(exc)))
            continue
        if on_report is not None:
            on_report(report)
        findings.extend(findings_for_report(report))
        total += 1
        complete += report.min_degree_sum is None
        exact += report.rc_status == ExactStatus.EXACT.value
        failures += not report.construct_verified
        slack1, slack2 = report.min_degree_slack, report.degree_sum_slack
        if slack1 is not None:
            count1 += 1
            sum1 += slack1
            min1 = slack1 if min1 is None else min(min1, slack1)
        if slack2 is not None:
            count2 += 1
            sum2 += slack2
            min2 = slack2 if min2 is None else min(min2, slack2)
    aggregate = AggregateStats(
        total=total,
        complete_graphs=complete,
        exact=exact,
        not_exact=total - exact,
        construction_failures=failures,
        errors=len(errors),
        min_min_degree_slack=min1,
        mean_min_degree_slack=Fraction(sum1, count1) if count1 else None,
        min_degree_sum_slack=min2,
        mean_degree_sum_slack=sum2 / count2 if count2 else None,
        degree_sum_slack_count=count2,
    )
    findings.sort(key=lambda f: (f["graph6"], f["kind"]))
    return CorpusResult(aggregate, tuple(findings), tuple(errors))
