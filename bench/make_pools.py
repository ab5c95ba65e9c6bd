#!/usr/bin/env python3
"""Fill pools/<workload>.txt for a pooled workload.

    python3 bench/make_pools.py --workload fvs-large --size 500

Draws instance seeds from a fixed stream, keeps every seed whose network
passes the workload's filter, times `gnskit bounds` on each kept instance
(calibrated, median of three calls) and gives each seed the stratum of its time (see
EDGES). A corpus takes from every stratum a share of its seeds equal to the
stratum's share of the pool.
Rerun it only together with a change of the workload, since the stored
expected values are per corpus.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys

from run import CAP_ENV, ROOT, SRC, Outcomes, load_gnskit

from corpus import WORKLOADS, pool_path

EDGES = (0.1, 0.2, 0.3, 0.45, 0.55, 0.7, 0.85, 0.95, 0.98, 1.0)
"""Upper quantiles of time of the strata. The median and the 90th
percentile of a corpus fall in the middle of a stratum, not on an edge, so
they do not hang on the extremes of two strata's draws; the slowest 5%,
which hold a large share of the time, are split in two."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"pool/{workload.name}")
    seeds: list[int] = []
    while len(seeds) < args.size:
        s = rng.randrange(2**31)
        net = workload.family(s)
        if net is not None and s not in seeds and workload.keep(net):
            seeds.append(s)
    sys.path.insert(0, str(SRC))
    os.environ[CAP_ENV] = workload.cap_overrides
    cli = load_gnskit()
    workdir = ROOT / ".bench_work" / f"pool-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes(len(seeds))
    try:
        for i, s in enumerate(seeds):
            path = workdir / "pool.mun"
            path.write_text(workload.family(s).text(str(s)), encoding="utf-8")
            argv = ["bounds", str(path), *workload.flags, "--out", "machine", "--output", str(workdir / "pool.out")]
            for _ in range(3):
                outcomes.call(cli, i, argv)
            codes = {code for code, _ in outcomes.results[i]}
            if codes != {"0"}:
                raise RuntimeError(f"instance seed {s} exits with {codes}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_pool(workload, seeds, [statistics.median(t) for t in outcomes.times])
    return 0


def write_pool(workload, seeds: list[int], times: list[float]) -> None:
    order = sorted(range(len(seeds)), key=lambda i: times[i])
    stratum = {}
    for rank, i in enumerate(order):
        stratum[i] = next(k for k, edge in enumerate(EDGES) if rank < edge * len(seeds))
    lines = [
        f"# {workload.name}: instance seeds passing its filter, with the time",
        "# stratum of their `gnskit bounds` report and its calibrated time in",
        "# seconds (median of three, see calibrate.py); written by make_pools.py",
        "# seed stratum seconds",
    ]
    lines += [f"{s} {stratum[i]} {times[i]:.4f}" for i, s in enumerate(seeds)]
    path = pool_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{path}: {len(seeds)} seeds, median time {statistics.median(times):.4f} s")

if __name__ == "__main__":
    sys.exit(main())
