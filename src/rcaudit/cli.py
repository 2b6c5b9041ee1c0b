"""Command-line front end.

Subcommands: verify, exact, construct, gen (cex | named | random), audit,
sweep. Graphs are accepted as graph6 literals, graph6 files (one per
line), or edge-list files; the loader distinguishes the two file formats
by the first byte (graph6 bytes never start with a digit).

Exit codes: 0 success, 1 usage or input error, 2 verification failed or
unsatisfiable, 3 budget exhausted, 4 finding emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audit import audit_corpus, audit_graph, findings_for_report
from .construct import run_construction, trace_to_dict
from .exact import Budget, ExactStatus, rc_exact
from .generators import (
    CounterexampleParams,
    gen_counterexample,
    gen_named,
    gen_random_connected,
    iter_connected_graphs,
    random_corpus,
)
from .graphs import (
    Graph,
    GraphFormatError,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .rainbow import (
    FailingPair,
    certificate_to_jsonl,
    coloring_to_text,
    is_rainbow_connected,
    parse_coloring,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3
EXIT_FINDING = 4


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _graph6_lines(text: str) -> list[Graph]:
    """One graph per non-blank line."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def _load_graphs(source: str) -> list[Graph]:
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError:
        # a long graph6 literal is no valid file name (ENAMETOOLONG)
        is_file = False
    if is_file:
        text = path.read_text()
        stripped = text.lstrip()
        if not stripped:
            raise GraphFormatError(f"{source}: empty file")
        if stripped[0].isdigit():
            return [parse_edge_list(text)]
        return _graph6_lines(text)
    return [parse_graph6(source)]


def _load_one(source: str) -> Graph:
    graphs = _load_graphs(source)
    if len(graphs) != 1:
        raise GraphFormatError(f"{source}: expected exactly one graph, found {len(graphs)}")
    return graphs[0]


def _budget(args) -> Budget:
    """The solver budget from --max-nodes and --max-seconds; a negative or
    NaN cap is an input error, not a budget that runs no search."""
    max_nodes = getattr(args, "max_nodes", None)
    max_seconds = getattr(args, "max_seconds", None)
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"--max-nodes must be at least 0, got {max_nodes}")
    if max_seconds is not None and not max_seconds >= 0:
        raise ValueError(f"--max-seconds must be a number at least 0, got {max_seconds}")
    return Budget(max_nodes, max_seconds)


def _cmd_verify(args) -> int:
    g = _load_one(args.graph)
    coloring = parse_coloring(Path(args.coloring).read_text(), g)
    outcome = is_rainbow_connected(g, coloring)
    if isinstance(outcome, FailingPair):
        if args.format == "json":
            print(_dumps({"status": "failed", "failing_pair": [outcome.u, outcome.v]}))
        else:
            print(f"verification failed: no rainbow path between {outcome.u} and {outcome.v}")
        return EXIT_FAILED
    if args.format == "json":
        sys.stdout.write(certificate_to_jsonl(outcome, coloring))
    else:
        pairs = len(outcome.witnesses)
        print(f"rainbow connected: {pairs} pair(s), {coloring.num_colors} color(s)")
    return EXIT_OK


def _cmd_exact(args) -> int:
    g = _load_one(args.graph)
    result = rc_exact(g, _budget(args))
    if args.format == "json":
        print(_dumps({
            "status": result.status.value,
            "value": result.value,
            "nodes": result.stats.nodes,
            "witness_checks": result.stats.witness_checks,
            "jumps": result.stats.jumps,
        }))
    elif result.status is ExactStatus.EXACT:
        print(result.value)
    else:
        print(f">= {result.value} ({result.status.value})")
    return EXIT_OK if result.status is ExactStatus.EXACT else EXIT_BUDGET


def _cmd_construct(args) -> int:
    g = _load_one(args.graph)
    finding, coloring, trace = run_construction(g)
    if args.trace and trace is not None:
        try:
            text = _dumps(trace_to_dict(trace)) + "\n"
        except RecursionError:
            print(
                "error: the construction trace is too deeply nested to write"
                f" as JSON; {args.trace} was not written",
                file=sys.stderr,
            )
            return EXIT_USAGE
        Path(args.trace).write_text(text)
    if finding is not None:
        if args.format == "json":
            print(_dumps({
                "status": "finding",
                "kind": finding.kind,
                "graph6": finding.graph6,
                "detail": finding.detail,
            }))
        else:
            print(f"finding ({finding.kind}): {finding.detail}")
            print(f"reproducer: {finding.graph6}")
        return EXIT_FINDING
    if coloring is None or trace is None:
        raise RuntimeError("construction passed without a coloring and trace")
    if args.format == "json":
        print(_dumps({
            "status": "ok",
            "colors_used": trace.colors_used,
            "budget": trace.budget,
            "coloring": [[u, v, c] for (u, v), c in sorted(coloring.colors.items())],
        }))
    else:
        print(f"colors used: {trace.colors_used} (budget {trace.budget})")
        sys.stdout.write(coloring_to_text(coloring))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.generator == "cex":
        params = CounterexampleParams(args.delta, args.t, args.seed)
        g, facts = gen_counterexample(params)
        facts_dict = {
            "n": facts.n,
            "clique_size": facts.clique_size,
            "min_degree_sum": facts.min_degree_sum,
            "component_pair_degree_sum": facts.component_pair_degree_sum,
            "roles": list(facts.roles),
        }
        if args.facts:
            Path(args.facts).write_text(_dumps(facts_dict) + "\n")
        if args.format == "json":
            print(_dumps({"graph6": to_graph6(g), "facts": facts_dict}))
        else:
            print(to_graph6(g))
        return EXIT_OK
    if args.generator == "named":
        g = gen_named(args.family, *args.size)
        print(to_graph6(g))
        return EXIT_OK
    if args.generator == "random":
        for i in range(args.count):
            seed = None if args.seed is None else args.seed + i
            g = gen_random_connected(args.n, args.p, seed)
            print(to_graph6(g))
        return EXIT_OK
    raise ValueError(f"unknown generator {args.generator!r}")


def _report_text(report) -> str:
    lines = [
        f"graph: {report.graph6}",
        f"n={report.n} m={report.m}",
        f"min_degree={report.min_degree} min_degree_sum={report.min_degree_sum}",
        f"rc: {report.rc_status} {report.rc_value}"
        f" (nodes={report.rc_nodes}, seconds={report.rc_seconds:.3f})",
        f"construct: colors={report.construct_colors}"
        f" verified={report.construct_verified}",
        f"min_degree_bound={report.min_degree_bound}"
        f" slack={report.min_degree_slack}",
        f"degree_sum_bound={report.degree_sum_bound}"
        f" slack={report.degree_sum_slack}",
        f"top_components={report.top_components}"
        f" weakened_degree_sum_bound={report.weakened_degree_sum_bound}",
    ]
    return "\n".join(lines)


def _cmd_audit(args) -> int:
    g = _load_one(args.graph)
    report = audit_graph(g, _budget(args))
    if args.format == "json":
        print(_dumps(report.to_dict()))
    else:
        print(_report_text(report))
    # the same findings a sweep reports for this graph
    findings = findings_for_report(report)
    for finding in findings:
        print(f"finding ({finding.kind}): {_dumps(finding.detail)}", file=sys.stderr)
    if findings:
        return EXIT_FINDING
    if report.rc_status != ExactStatus.EXACT.value:
        return EXIT_BUDGET
    return EXIT_OK


def _sweep_source(args) -> list[Graph]:
    sources = [
        args.corpus is not None,
        args.all_connected is not None,
        args.random is not None,
    ]
    if sum(sources) != 1:
        raise GraphFormatError(
            "sweep needs exactly one source: a corpus file, --all-connected, or --random"
        )
    if args.corpus is not None:
        return _graph6_lines(Path(args.corpus).read_text())
    if args.all_connected is not None:
        if args.all_connected < 1:
            raise GraphFormatError("--all-connected needs a positive vertex count")
        graphs = []
        for n in range(1, args.all_connected + 1):
            graphs.extend(iter_connected_graphs(n))
        return graphs
    if args.random < 0:
        raise GraphFormatError(f"--random needs a nonnegative count, got {args.random}")
    if args.n_min < 1:
        raise GraphFormatError(f"--n-min needs at least 1 vertex, got {args.n_min}")
    if args.n_min > args.n_max:
        raise GraphFormatError(
            f"--n-min {args.n_min} is above --n-max {args.n_max}: empty size range"
        )
    return random_corpus(args.random, args.n_min, args.n_max, args.seed)


def _cmd_sweep(args) -> int:
    budget = _budget(args)
    try:
        graphs = _sweep_source(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = audit_corpus(graphs, budget)
    findings = [
        {"kind": f.kind, "graph6": f.graph6, "detail": f.detail} for f in result.findings
    ]

    if args.out:
        lines = [_dumps(r.to_dict()) for r in result.reports]
        Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""))
    if args.findings_dir:
        fdir = Path(args.findings_dir)
        fdir.mkdir(parents=True, exist_ok=True)
        for i, payload in enumerate(findings):
            (fdir / f"finding-{i:04d}.json").write_text(_dumps(payload) + "\n")

    summary = {
        "aggregate": result.aggregate.to_dict(),
        "findings": findings,
        "errors": [{"graph": g, "error": e} for g, e in result.errors],
    }
    if args.format == "json":
        print(_dumps(summary))
    else:
        agg = result.aggregate
        print(f"graphs audited: {agg.total} (complete: {agg.complete_graphs})")
        print(f"rc exact: {agg.exact}, not exact: {agg.not_exact}")
        print(f"construction failures: {agg.construction_failures}")
        print(f"errors: {agg.errors}")
        print(
            "min_degree_slack:"
            f" min={agg.min_min_degree_slack} mean={agg.mean_min_degree_slack}"
        )
        print(
            "degree_sum_slack:"
            f" min={agg.min_degree_sum_slack} mean={agg.mean_degree_sum_slack}"
            f" over {agg.degree_sum_slack_count} graph(s)"
        )
        print(f"findings: {len(result.findings)}")
        for finding in result.findings:
            print(f"  {finding.kind}: {finding.graph6}")
    return EXIT_FINDING if result.findings else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--max-nodes", type=int, default=None,
                        help="node budget for the exact solver")
    solver.add_argument("--max-seconds", type=float, default=None,
                        help="wall-time budget for the exact solver")

    parser = argparse.ArgumentParser(
        prog="rcaudit",
        description="Rainbow-connection colorings, exact values, and bound audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a coloring for rainbow connectivity")
    p.add_argument("graph")
    p.add_argument("coloring", help="file with one 'u v color' line per edge")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", parents=[common, solver],
                       help="exact rainbow connection number")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("construct", parents=[common],
                       help="build a coloring within n - min_degree colors")
    p.add_argument("graph")
    p.add_argument("--trace", help="write the audit trace JSON to this file")
    p.set_defaults(func=_cmd_construct)

    gen = sub.add_parser("gen", help="generate graphs")
    gensub = gen.add_subparsers(dest="generator", required=True)

    p = gensub.add_parser("cex", parents=[common],
                          help="attachment counterexample family instance")
    p.add_argument("--delta", type=int, required=True,
                   help="target minimum degree")
    p.add_argument("--t", type=int, required=True, help="number of copies")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the attachment choice")
    p.add_argument("--facts", help="write the facts sidecar JSON to this file")
    p.set_defaults(func=_cmd_gen)

    p = gensub.add_parser("named", parents=[common], help="standard families")
    p.add_argument("--family", required=True,
                   choices=("path", "cycle", "complete", "complete_bipartite", "star"))
    p.add_argument("--size", type=int, nargs="+", required=True)
    p.set_defaults(func=_cmd_gen)

    p = gensub.add_parser("random", parents=[common],
                          help="random connected graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("audit", parents=[common, solver],
                       help="full bound report for one graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("sweep", parents=[common, solver],
                       help="audit a corpus and aggregate")
    p.add_argument("corpus", nargs="?", default=None,
                   help="file with one graph6 line per graph")
    p.add_argument("--all-connected", type=int, default=None, metavar="N",
                   help="every connected labeled graph on up to N vertices")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="seeded random connected corpus")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-graph reports as JSON lines")
    p.add_argument("--findings-dir",
                   help="write one reproducer file per finding")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
