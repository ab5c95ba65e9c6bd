#!/usr/bin/env python3
"""Sweep the bound chain over seeded random networks.

For each instance prints the link count, pair count, acyclic maximum,
packing value, approximate feedback weight and exact staged GNS cut, then
summarizes the worst approximation ratio observed. Everything is exact
arithmetic; the run is reproducible from the seed.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from gnskit import bound_report
from gnskit.instances import random_dag_network


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-links", type=int, default=14)
    args = parser.parse_args()

    print(f"{'seed':>6} {'m':>3} {'k':>2} {'mais':>4} {'rcp':>6} {'approx':>6} {'gns~':>4}")
    worst = Fraction(0)
    collected = 0
    seed = args.seed - 1
    while collected < args.count:
        seed += 1
        k = 1 + (seed % 4)
        try:
            net = random_dag_network(4 + seed % 4, 3 + seed % 6, k, seed=seed)
        except ValueError:
            continue
        if net.m > args.max_links:
            continue
        collected += 1
        # bound_report raises ContractViolation if the chain fails
        report = bound_report(net, exact_gns=True)
        rcp, weight = report.rcp_value, report.approx_weight
        if rcp > 0:
            worst = max(worst, Fraction(weight) / rcp)
        print(
            f"{seed:>6} {net.m:>3} {net.k:>2} {report.mais_value:>4} "
            f"{str(rcp):>6} {weight:>6} {len(report.gns_exact.cut):>4}"
        )
    print(f"\nchain held on all {collected} instances; worst approx/rcp = {worst}")


if __name__ == "__main__":
    main()
