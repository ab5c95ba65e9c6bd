#!/usr/bin/env python3
"""In-process A/B timing of `gnskit bounds` between two source trees.

    python3 scripts/ab_inprocess.py --old DIR --new DIR --workload W --seed N --rounds R [--limit N]

Each DIR is a checkout whose `src/` holds a gnskit package. Both trees are
imported into this one process, one after the other, each after every
loaded `gnskit` module is dropped from `sys.modules` (as
`bench/run.py::load_gnskit` does), so the two module sets live side by side.
Each round runs the `bench/corpus.py` corpus of the workload seed once per
tree, the tree that goes first alternating from round to round, as
`gnskit bounds FILE <workload flags> --out machine --output OUT` through
`gnskit.cli.main`, with the workload's GNSKIT_CAP_OVERRIDES. Each call's
wall time is calibrated as the benchmark does (`bench/calibrate.py`): scaled
by REFERENCE_S over the mean of the reference loop's times just before and
just after the call. `--limit N` runs only the first N instances of the
corpus (default: all of it); a limit changes which instances are compared,
so its ratios speak for that prefix, not for the workload.

Prints, for each tree, the median over instances of each instance's median
report time; then, over the rounds, the median and quartiles of the ratio
new/old of the round's total time, and in how many rounds the new tree was
faster. Exits 1 if any report (exit code or output) differs between the
trees or between rounds, else 0. Where outputs differ, it also says whether
the report values differ, as each tree's own `parse_report` reads them (m,
k, mais, rcp, approx_weight, code_rate, co_rate_lb, the gns size, skipped,
and the exit code), or only certificate bytes moved. Imports only from
`bench/` and the standard library.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from corpus import WORKLOADS, corpus  # noqa: E402

CAP_ENV = "GNSKIT_CAP_OVERRIDES"


def load_cli(tree: Path):
    """`gnskit.cli` and the `gnskit` package imported from tree/src, after
    dropping any loaded gnskit."""
    src = tree.resolve() / "src"
    for name in [n for n in sys.modules if n == "gnskit" or n.startswith("gnskit.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("gnskit.cli")
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent != src / "gnskit":
        raise SystemExit(f"imported gnskit from {cli.__file__}, not from {src}")
    return cli, sys.modules["gnskit"]


def values(gnskit, result: tuple[str, str]) -> tuple:
    """The exit code and the report values of one call's result, as the
    tree's `gnskit.parse_report` reads them, leaving out the certificates."""
    code, text = result
    if not text:
        return (code,)
    try:
        r = gnskit.parse_report(text)
    except gnskit.FormatError as exc:  # an unreadable report is a value to compare too
        return code, f"unparsed: {exc}"
    gns = None if r.gns_exact is None else len(r.gns_exact.cut)
    return (code, r.m, r.k, r.mais_value, r.rcp_value, r.approx_weight, r.code_rate,
            r.co_rate_lb, gns, r.skipped)


def run(cli, argv: list[str]) -> tuple[float, tuple[str, str]]:
    """One call: its wall seconds, and its exit code (or exception) and output."""
    out = Path(argv[-1])
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = repr(cli.main(argv))
    except Exception as exc:  # a crash is a result to compare, not a failed run
        code = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return elapsed, (code, out.read_text(encoding="utf-8") if out.exists() else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", type=Path, required=True)
    parser.add_argument("--new", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--limit", type=int, default=None, help="first N instances only")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    workload = WORKLOADS[args.workload]
    os.environ[CAP_ENV] = workload.cap_overrides
    clis, packages = {}, {}
    for side, tree in (("old", args.old), ("new", args.new)):
        clis[side], packages[side] = load_cli(tree)
    instances = corpus(workload, args.seed)[: args.limit]
    times = {side: [[] for _ in instances] for side in clis}  # calibrated, per instance
    totals = {side: [] for side in clis}  # per round
    seen: list[tuple[str, tuple[str, str]] | None] = [None] * len(instances)  # (side, result)
    differ: set[str] = set()
    values_differ: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for inst in instances:
            path = Path(tmp) / f"{inst.name}.mun"
            path.write_text(inst.text, encoding="utf-8")
            out = ["--out", "machine", "--output", str(path.with_suffix(".out"))]
            argvs.append(["bounds", str(path), *workload.flags, *out])
        for cli in clis.values():  # warm-up
            run(cli, argvs[0])
        loop = calibrate.loop_s()
        for r in range(args.rounds):
            for side in ("old", "new") if r % 2 == 0 else ("new", "old"):
                total = 0.0
                for i, argv in enumerate(argvs):
                    elapsed, result = run(clis[side], argv)
                    before, loop = loop, calibrate.loop_s()
                    calibrated = elapsed * 2 * calibrate.REFERENCE_S / (before + loop)
                    times[side][i].append(calibrated)
                    total += calibrated
                    if seen[i] is None:
                        seen[i] = side, result
                    elif seen[i][1] != result:
                        differ.add(instances[i].name)
                        first, earlier = seen[i]
                        if values(packages[first], earlier) != values(packages[side], result):
                            values_differ.add(instances[i].name)
                totals[side].append(total)
            print(f"round {r + 1}: new/old {totals['new'][-1] / totals['old'][-1]:.3f}", flush=True)

    print(f"{workload.name} seed {args.seed}: {len(instances)} instances, {args.rounds} rounds")
    for side in clis:
        median = statistics.median(statistics.median(t) for t in times[side])
        print(f"{side}: per-report median {median * 1e3:.3f} ms (calibrated)")
    ratios = [new / old for old, new in zip(totals["old"], totals["new"])]
    low, mid, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(ratio < 1 for ratio in ratios)
    print(f"ratio new/old of the round totals: median {mid:.3f}, quartiles {low:.3f}-{high:.3f}")
    print(f"new faster in {wins}/{len(ratios)} rounds")
    if differ:
        print(f"outputs differ on {len(differ)} instances, e.g. {sorted(differ)[:5]}")
        if values_differ:
            print(f"report values differ on {len(values_differ)} of them, "
                  f"e.g. {sorted(values_differ)[:5]}")
        else:
            print("report values: identical (only certificate bytes differ)")
        return 1
    print("outputs: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
