"""Per-layer metrics from one traced CLI invocation.

Observers read the values that wrapped calls return (deepening-level
outcomes, construction traces, failing pairs) and turn them into work
counts; the tracer supplies call counts and times. Every count here is a
function of the input alone, so two traced runs of the same code must
report identical counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rcaudit.rainbow import FailingPair
from spans import Tracer

LEAF_SITE = "rcaudit.exact.is_rainbow_connected"
VERIFY_SITE = "rcaudit.construct.is_rainbow_connected"
LEVEL_SITE = "rcaudit.exact.rc_decision"
GRAPH_SITE = "rcaudit.audit.audit_graph"
# Sites read by name below. The two module-internal ones (one call per
# graph in a sweep, one per deepening level) are not imports, so the scan
# would not find them; all four are traced even if the code stops calling
# through them, and then show up as unmeasured.
REQUIRED_SITES = (
    ("rcaudit.exact", "is_rainbow_connected", "rainbow"),
    ("rcaudit.construct", "is_rainbow_connected", "rainbow"),
    ("rcaudit.exact", "rc_decision", "exact"),
    ("rcaudit.audit", "audit_graph", "audit"),
)
EXACT_FUNCS = ("rc_exact",)
CONSTRUCT_FUNCS = ("run_construction",)
SUBGRAPH_FUNCS = ("delete_vertices", "contract_set")
TRAVERSAL_FUNCS = ("components", "is_connected", "diameter", "degree_stats", "is_complete")
CODEC_FUNCS = ("parse_graph6", "to_graph6", "parse_edge_list", "to_edge_list")
CASES = ("base", "full_attachment", "new_clique_color", "reused_clique_color", "contraction")
LAYERS = ("cli", "audit", "construct", "exact", "rainbow", "graphs")
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)

# Counts that must repeat exactly between two traced runs of one input.
WORK_COUNTERS = (
    "exact.calls", "exact.nodes", "exact.levels", "exact.levels_sat",
    "exact.levels_unsat", "exact.levels_budget", "exact.distance_unsat",
    "rainbow.leaf_calls", "rainbow.verify_calls", "rainbow.verify_pairs",
    "construct.calls", "construct.levels", "construct.findings",
    "graphs.subgraph_calls", "graphs.traversal_calls", "graphs.codec_calls",
    "audit.graphs",
) + tuple(f"construct.case.{c}" for c in CASES)

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "audit.graphs": ("count", "higher"),
    "audit.self_s": ("s", "lower"),
    "audit.findings": ("count", "higher"),
    "audit.graph_p50_ms": ("ms", "lower"),
    "audit.graph_tail_ms": ("ms", "lower"),
    "audit.graph_tail_pct": ("%", "higher"),
    "audit.graph_samples": ("count", "higher"),
    "construct.calls": ("count", "higher"),
    "construct.self_s": ("s", "lower"),
    "construct.levels": ("count", "lower"),
    **{f"construct.case.{c}": ("count", "higher") for c in CASES},
    "construct.findings": ("count", "higher"),
    "exact.calls": ("count", "higher"),
    "exact.self_s": ("s", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.nodes_per_s": ("1/s", "higher"),
    "exact.levels": ("count", "lower"),
    "exact.levels_sat": ("count", "higher"),
    "exact.levels_unsat": ("count", "lower"),
    "exact.levels_budget": ("count", "lower"),
    "exact.distance_unsat": ("count", "higher"),
    "rainbow.self_s": ("s", "lower"),
    "rainbow.leaf_calls": ("count", "lower"),
    "rainbow.leaf_s": ("s", "lower"),
    "rainbow.leaf_fail_ratio": ("ratio", "lower"),
    "rainbow.verify_calls": ("count", "higher"),
    "rainbow.verify_s": ("s", "lower"),
    "rainbow.verify_pairs": ("count", "higher"),
    "rainbow.verify_pairs_per_s": ("1/s", "higher"),
    "graphs.self_s": ("s", "lower"),
    "graphs.subgraph_calls": ("count", "lower"),
    "graphs.subgraph_s": ("s", "lower"),
    "graphs.traversal_calls": ("count", "lower"),
    "graphs.traversal_s": ("s", "lower"),
    "graphs.codec_calls": ("count", "lower"),
    "graphs.codec_s": ("s", "lower"),
    "generators.corpus_s": ("s", "lower"),
    "generators.graphs": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_sum_ratio": ("ratio", "higher"),
    "trace.unmeasured_sites": ("count", "lower"),
    "trace.counters_repeat": ("bool", "higher"),
}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(Fraction(str(pct)) * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond its rank
    (the median when fewer than twenty samples exist)."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - math.ceil(Fraction(str(pct)) * n / 100) >= 10:
            best = pct
    return best


def self_test() -> list[str]:
    problems = []
    values = [float(v) for v in range(1, 1001)]
    checks = [
        (percentile(values, 50), 500.0),
        (percentile(values, 99.9), 999.0),
        (tail_percentile(1000), 99),
        (tail_percentile(500), 90),
        (tail_percentile(27476), 99.9),
        (tail_percentile(19), 50),
    ]
    for got, want in checks:
        if got != want:
            problems.append(f"percentile rule gave {got}, expected {want}")
    return problems


class Observers:
    """Work counts read from the results of wrapped calls."""

    def __init__(self) -> None:
        self.leaf_fail = 0
        self.verify_pairs = 0
        self.nodes = 0
        self.levels = {"sat": 0, "unsat": 0, "budget-exhausted": 0}
        self.distance_unsat = 0
        self.cases = dict.fromkeys(CASES, 0)
        self.construct_levels = 0
        self.construct_findings = 0
        self.graph_seconds: list[float] = []

    def install(self, tracer: Tracer, sites: list[tuple[str, str, str]]) -> None:
        obs = tracer.observers
        obs[LEAF_SITE] = self._leaf
        obs[VERIFY_SITE] = self._verify
        obs[LEVEL_SITE] = self._level
        obs[GRAPH_SITE] = self._graph
        for modname, attr, _ in sites:
            if attr in EXACT_FUNCS:
                obs[f"{modname}.{attr}"] = self._exact
            elif attr in CONSTRUCT_FUNCS:
                obs[f"{modname}.{attr}"] = self._construct

    def _leaf(self, args, result, dt) -> None:
        if isinstance(result, FailingPair):
            self.leaf_fail += 1

    def _verify(self, args, result, dt) -> None:
        n = args[0].n
        self.verify_pairs += n * (n - 1) // 2

    def _level(self, args, result, dt) -> None:
        status = result.status.value
        self.levels[status] += 1
        if status == "unsat" and result.nodes == 0:
            self.distance_unsat += 1

    def _exact(self, args, result, dt) -> None:
        self.nodes += result.stats.nodes

    def _construct(self, args, result, dt) -> None:
        finding, _, trace = result
        if finding is not None:
            self.construct_findings += 1
        stack = [trace] if trace is not None else []
        while stack:
            node = stack.pop()
            self.construct_levels += 1
            self.cases[node.case.value] += 1
            stack.extend(node.children)

    def _graph(self, args, result, dt) -> None:
        self.graph_seconds.append(dt)


def _group(tracer: Tracer, layer: str, funcs: tuple[str, ...]) -> tuple[int, float]:
    calls = 0
    total = 0.0
    for name, stat in tracer.sites.items():
        if stat.layer == layer and name.rsplit(".", 1)[1] in funcs:
            calls += stat.calls
            total += stat.total
    return calls, total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def program_metrics(tracer: Tracer, obs: Observers, wall: float) -> dict:
    """Per-layer metrics of one traced invocation (everything except the
    finding count, the generator and the overhead figures, which the
    caller adds)."""
    selfs = tracer.layer_self()
    exact_calls, exact_s = _group(tracer, "exact", EXACT_FUNCS)
    construct_calls, _ = _group(tracer, "construct", CONSTRUCT_FUNCS)
    sub_calls, sub_s = _group(tracer, "graphs", SUBGRAPH_FUNCS)
    trav_calls, trav_s = _group(tracer, "graphs", TRAVERSAL_FUNCS)
    codec_calls, codec_s = _group(tracer, "graphs", CODEC_FUNCS)
    leaf = tracer.sites[LEAF_SITE]
    verify = tracer.sites[VERIFY_SITE]
    per_graph = sorted(obs.graph_seconds)
    tail = tail_percentile(len(per_graph))
    metrics = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "audit.graphs": len(per_graph),
        "audit.graph_p50_ms": 1000 * percentile(per_graph, 50) if per_graph else 0.0,
        "audit.graph_tail_ms": 1000 * percentile(per_graph, tail) if per_graph else 0.0,
        "audit.graph_tail_pct": tail,
        "audit.graph_samples": len(per_graph),
        "construct.calls": construct_calls,
        "construct.levels": obs.construct_levels,
        **{f"construct.case.{c}": obs.cases[c] for c in CASES},
        "construct.findings": obs.construct_findings,
        "exact.calls": exact_calls,
        "exact.nodes": obs.nodes,
        "exact.nodes_per_s": _rate(obs.nodes, exact_s),
        "exact.levels": tracer.sites[LEVEL_SITE].calls,
        "exact.levels_sat": obs.levels["sat"],
        "exact.levels_unsat": obs.levels["unsat"],
        "exact.levels_budget": obs.levels["budget-exhausted"],
        "exact.distance_unsat": obs.distance_unsat,
        "rainbow.leaf_calls": leaf.calls,
        "rainbow.leaf_s": leaf.total,
        "rainbow.leaf_fail_ratio": obs.leaf_fail / leaf.calls if leaf.calls else 0.0,
        "rainbow.verify_calls": verify.calls,
        "rainbow.verify_s": verify.total,
        "rainbow.verify_pairs": obs.verify_pairs,
        "rainbow.verify_pairs_per_s": _rate(obs.verify_pairs, verify.total),
        "graphs.subgraph_calls": sub_calls,
        "graphs.subgraph_s": sub_s,
        "graphs.traversal_calls": trav_calls,
        "graphs.traversal_s": trav_s,
        "graphs.codec_calls": codec_calls,
        "graphs.codec_s": codec_s,
        "trace.wall_s": wall,
        "trace.self_sum_ratio": sum(selfs.values()) / wall,
        "trace.unmeasured_sites": len(tracer.unmeasured()),
    })
    return metrics
