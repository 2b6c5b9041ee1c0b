#!/usr/bin/env python3
"""Tabulate the attachment family across a parameter grid: for each
(min_degree, copies) pair, the component degree sum s_i, the refuted
per-component floor deg_sum - 2(k-1), and the corrected floor
deg_sum - 2k, where deg_sum is the whole graph's minimum nonadjacent
degree sum and k the shared clique size.

The refuted column always exceeds s_i by exactly 2; the corrected column
always matches it. The gap is what breaks the clique-removal recursion
the stronger degree-sum bound was built on.
"""

from __future__ import annotations

import argparse
import sys

from rcaudit import to_graph6
from rcaudit.generators import (
    CounterexampleParams,
    counterexample_inequalities,
    gen_counterexample,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-delta", type=int, default=8)
    parser.add_argument("--graph6", action="store_true",
                        help="also print each instance's graph6 line")
    args = parser.parse_args()

    header = f"{'delta':>5} {'t':>3} {'n':>4} {'k':>3} {'deg_sum':>7} {'s_i':>4} {'refuted':>8} {'corrected':>9}"
    print(header)
    print("-" * len(header))
    for d in range(2, args.max_delta + 1):
        for t in range(1, d // 2 + 1):
            params = CounterexampleParams(d, t)
            g, facts = gen_counterexample(params)
            report = counterexample_inequalities(g, params, facts)
            s_values = set(report.component_sums)
            problem = None
            if len(s_values) != 1:
                problem = f"component degree sums differ: {sorted(s_values)}"
            elif not report.refuted_claim_violated:
                problem = "the refuted floor is not violated"
            elif not (report.corrected_claim_holds and report.corrected_claim_tight):
                problem = "the corrected floor is not met with equality"
            if problem is not None:
                print(f"error: delta={d} t={t}: {problem}", file=sys.stderr)
                return 1
            s_i = s_values.pop()
            print(
                f"{d:>5} {t:>3} {g.n:>4} {facts.clique_size:>3}"
                f" {facts.min_degree_sum:>7} {s_i:>4}"
                f" {report.refuted_bound:>8} {report.corrected_bound:>9}"
            )
            if args.graph6:
                print(f"      {to_graph6(g)}")
    print("\nevery row: s_i = corrected floor, refuted floor = s_i + 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
