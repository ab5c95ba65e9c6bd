#!/usr/bin/env python3
"""Store the expected exact values of a workload's corpus for some seeds.

    python3 bench/record_expected.py --workload rcp-dense --seeds 1 2 3

Runs each instance once, checks the report as a benchmark run does, and
writes expected/<workload>-<seed>.txt: one line per instance, in corpus
order, with the fields of check.FIELDS. Only reports that pass every check
are stored. Record at the commit whose values are to be kept.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import check
from corpus import WORKLOADS
from run import CAP_ENV, ROOT, SRC, Outcomes, set_up


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    os.environ[CAP_ENV] = workload.cap_overrides
    for seed in args.seeds:
        workdir = ROOT / ".bench_work" / f"record-{workload.name}-{seed}"
        try:
            cli, instances, argvs = set_up(workload, seed, workdir)
            outcomes = Outcomes(len(argvs))
            lines = [f"# {workload.name} seed {seed}: " + " ".join(check.FIELDS)]
            for i, (inst, argv) in enumerate(zip(instances, argvs)):
                outcomes.call(cli, i, argv)
                [(code, text)] = outcomes.results[i]
                report, problems = check.check_report(inst.text, text, workload.flags)
                if code != "0" or problems:
                    raise RuntimeError(f"{inst.name}: exit {code}, {problems}")
                lines.append(check.encode(check.values(report)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = check.expected_path(workload.name, seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{path}: {len(instances)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
