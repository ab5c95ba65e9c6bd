#!/usr/bin/env python3
"""Time the bound report on side-information wrappings with an integrality gap.

Each side-information graph below is wrapped into a unicast network by
`network_from_side_info_graph`. For each wrapping the script prints the link
count m, the pair count k, the packing value rcp, mais, the approximate
feedback weight and the wall time of one `bound_report` with the exact
searches allowed up to 64 vertices. On these networks rcp < m - mais, so the
packing does not prove the approximate feedback set minimum: the exact
searches have to.
"""

from __future__ import annotations

import argparse
import time

from field_separation_demo import symmetric_cycle  # the script beside this one
from gnskit import (
    Caps,
    LSParams,
    bound_report,
    lubetzky_stav,
    network_from_side_info_graph,
    random_digraph,
)


GRAPHS = [
    ("bidirected C5", symmetric_cycle(5)),
    ("bidirected C7", symmetric_cycle(7)),
    ("bidirected C9", symmetric_cycle(9)),
    ("bidirected C11", symmetric_cycle(11)),
    ("random_digraph(7, 0.4, 3)", random_digraph(7, 0.4, 3)),
    ("random_digraph(8, 0.4, 5)", random_digraph(8, 0.4, 5)),
    ("lubetzky_stav(4, 2, 2, 1)", lubetzky_stav(LSParams(4, 2, 2, 1))),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-m", type=int, default=64, help="skip wrappings with more links (default 64)"
    )
    args = parser.parse_args()

    caps = Caps(mais_vertices=64)
    print(f"{'wrapping of':<26} {'m':>3} {'k':>3} {'rcp':>5} {'mais':>4} {'approx':>6} {'time':>8}")
    for name, g in GRAPHS:
        net = network_from_side_info_graph(g)
        if net.m > args.max_m:
            print(f"{name:<26} {net.m:>3} {net.k:>3}  skipped: m > {args.max_m}")
            continue
        start = time.perf_counter()
        # bound_report raises ContractViolation if the chain fails
        report = bound_report(net, caps=caps)
        seconds = time.perf_counter() - start
        print(
            f"{name:<26} {net.m:>3} {net.k:>3} {str(report.rcp_value):>5} "
            f"{report.mais_value:>4} {report.approx_weight:>6} {seconds:>7.3f}s"
        )


if __name__ == "__main__":
    main()
