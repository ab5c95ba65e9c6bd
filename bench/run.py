#!/usr/bin/env python3
"""Bound-chain benchmark for `gnskit bounds`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the user-facing command `gnskit bounds NET.mun --out machine
--output FILE` in-process through `gnskit.cli.main`, in one process and one
thread, as a closed loop (one call at a time, the next as soon as the last
returns) over a corpus of `.mun` files generated from the workload seed.
gnskit is imported from the `src/` next to this directory by absolute path,
so the benchmark runs from any working directory.

With `--trace 0` the corpus is run round after round until S seconds have
passed and every instance has run, and set up anew several times spread over
those seconds; the end-to-end metrics follow. With `--trace 1` the corpus is run exactly once with every
traced function recording spans (see spans.py), so counts are exact, and
every fourth instance also runs untraced before and after, for the tracing
overhead; the per-layer metrics follow. Either way each distinct output is
checked (see check.py) after the timed calls, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import spans  # noqa: E402
from corpus import WORKLOADS, Workload, corpus  # noqa: E402

SETUPS = 5
"""Set-ups per untraced run, spread over it; setup_s is their median."""
WARM_UP = corpus(WORKLOADS["sweep-small"], 0, 1)[0]
"""The instance every set-up ends with, one small report, the same for every
workload and seed."""
P90_MIN_SAMPLES = 100
"""p90 is reported only over at least this many per-instance times, so that
at least ten lie beyond it."""
OVERHEAD_STRIDE = 4
"""The traced run times every this-many-th instance untraced as well."""
CAP_ENV = "GNSKIT_CAP_OVERRIDES"


def load_gnskit():
    """Import a fresh gnskit.cli from SRC, dropping any loaded gnskit."""
    for name in [n for n in sys.modules if n == "gnskit" or n.startswith("gnskit.")]:
        del sys.modules[name]
    cli = importlib.import_module("gnskit.cli")
    if Path(cli.__file__).resolve().parent != SRC / "gnskit":
        raise RuntimeError(f"imported gnskit from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: Workload, seed: int, workdir: Path):
    """Import gnskit, write the corpus and warm up: (cli module, instances,
    argv per instance)."""
    cli = load_gnskit()
    instances = corpus(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argvs = []
    for inst in instances:
        path = workdir / f"{inst.name}.mun"
        path.write_text(inst.text, encoding="utf-8")
        out = workdir / f"{inst.name}.out"
        argvs.append(["bounds", str(path), *workload.flags, "--out", "machine", "--output", str(out)])
    warm = workdir / "warm-up.mun"
    warm.write_text(WARM_UP.text, encoding="utf-8")
    cli.main(["bounds", str(warm), *workload.flags, "--out", "machine", "--output", str(warm.with_suffix(".out"))])
    return cli, instances, argvs


class Outcomes:
    """Per instance, the call times and the distinct results with how many
    calls gave each; a result is the exit code (or exception) and output.

    `times` are calibrated: each call's wall time scaled by
    calibrate.REFERENCE_S over the mean of the reference loop's times just
    before and just after the call. `wall` keeps the wall times."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.wall: list[list[float]] = [[] for _ in range(n)]
        self.results: list[dict[tuple[str, str], int]] = [{} for _ in range(n)]
        self._loop_s = calibrate.loop_s()

    def call(self, cli, i: int, argv: list[str]) -> None:
        out = Path(argv[-1])
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = repr(cli.main(argv))
        except Exception as exc:  # a crash is a failed report, not a failed run
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        before, self._loop_s = self._loop_s, calibrate.loop_s()
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        calibrated = elapsed * 2 * calibrate.REFERENCE_S / (before + self._loop_s)
        self.times[i].append(calibrated)
        self.wall[i].append(elapsed)
        key = (code, text)
        self.results[i][key] = self.results[i].get(key, 0) + 1


def closed_loop(cli, argvs: list[list[str]], seconds: float, outcomes: Outcomes, i: int, until: int) -> int:
    """Run the corpus in order from call `i` on, round after round, until
    `seconds` have passed and `until` calls have been made; return the
    number of calls made so far."""
    deadline = time.perf_counter() + seconds
    while i < until or time.perf_counter() < deadline:
        outcomes.call(cli, i % len(argvs), argvs[i % len(argvs)])
        i += 1
    return i


def _loop_median() -> float:
    return statistics.median(calibrate.loop_s() for _ in range(5))


def p90(samples: list[float]) -> float | None:
    """90th percentile, or None with fewer than P90_MIN_SAMPLES samples.

    Estimated as the mean of the order statistics from the 85th to the 95th
    percentile: single report times vary by about 10% from run to run, and
    one order statistic carries all of that."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return statistics.fmean(ordered[math.floor(0.85 * n): math.ceil(0.95 * n)])


def verify(workload: Workload, seed: int, instances, outcomes: Outcomes) -> dict:
    """Check every distinct result; count failed calls and coverage."""
    stored = check.load_expected(workload.name, seed)
    if stored is not None and len(stored) != len(instances):
        raise RuntimeError(f"{len(stored)} stored values for {len(instances)} instances")
    failed = 0
    problems: list[str] = []
    gained = lost = 0
    approx_sum = skipped = 0
    for i, inst in enumerate(instances):
        first = True
        for (code, text), calls in outcomes.results[i].items():
            if code != "0":
                bad = [f"exit {code}"]
                report = None
            else:
                report, bad = check.check_report(inst.text, text, workload.flags)
            if report is not None and stored is not None:
                mismatched, g, lo = check.compare(stored[i], check.values(report))
                bad += mismatched
                gained += len(g) if first else 0
                lost += len(lo) if first else 0
            if report is not None and first:
                # the size of the checked certificate, not the reported number
                approx_sum += len(report.approx_fvs or ())
                skipped += len(report.skipped)
            first = False
            if bad:
                failed += calls
                problems += [f"{inst.name}: {p}" for p in bad]
    return {
        "stored": stored is not None,
        "failed": failed,
        "problems": problems,
        "gained": gained,
        "lost": lost,
        "approx_weight_sum": approx_sum,
        "skipped": skipped,
    }


def report_checks(workload: Workload, seed: int, result: dict) -> None:
    if result["stored"]:
        print(
            f"values: compared with {check.expected_path(workload.name, seed).name}; "
            f"coverage gained {result['gained']}, lost {result['lost']}"
        )
    else:
        print(f"values: none stored for seed {seed}; certificates and chain relations only")
    for line in result["problems"][:20]:
        print(f"FAILED {line}")


def untraced(workload: Workload, seed: int, seconds: float, workdir: Path):
    setups = []

    def timed_set_up():
        before = _loop_median()
        start = time.perf_counter()
        done = set_up(workload, seed, workdir)
        elapsed = time.perf_counter() - start
        setups.append(elapsed * 2 * calibrate.REFERENCE_S / (before + _loop_median()))
        return done

    # the set-ups are spread over the run, between equal shares of its
    # seconds, so that one slow stretch of the machine meets one of them,
    # not all; each later set-up replaces the gnskit and the files of the last
    cli, instances, argvs = timed_set_up()
    outcomes = Outcomes(len(argvs))
    calls = 0
    for part in range(1, SETUPS + 1):
        calls = closed_loop(cli, argvs, seconds / SETUPS, outcomes, calls, len(argvs) if part == SETUPS else 0)
        if part < SETUPS:
            cli, _, _ = timed_set_up()
    result = verify(workload, seed, instances, outcomes)
    per_instance = [statistics.median(t) for t in outcomes.times]
    reports = sum(len(t) for t in outcomes.times)
    tail = p90(per_instance)
    if tail is None:
        raise RuntimeError(f"{len(per_instance)} instances, p90 needs {P90_MIN_SAMPLES}")
    requested = len(check.requested(workload.flags)) * len(instances)
    report_checks(workload, seed, result)
    wall = sum(sum(t) for t in outcomes.wall)
    calibrated = sum(sum(t) for t in outcomes.times)
    print(
        f"samples: {len(per_instance)} instances, {reports} reports; "
        f"report_s quantiles over per-instance medians"
    )
    print(
        f"calibration: {wall:.3f} s of calls on the wall are {calibrated:.3f} s at the "
        f"reference speed (machine speed factor {calibrated / wall:.3f})"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "report_s.p50": (statistics.median(per_instance), "s"),
        "report_s.p90": (tail, "s"),
        "reports_per_s": (reports / calibrated, "1/s"),
        "computed_frac": (1 - result["skipped"] / requested, "ratio"),
        "approx_weight_sum": (result["approx_weight_sum"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return reports, result["failed"], metrics


PREDICTIONS = {
    "sweep-small": [
        (
            "every module has self time",
            lambda m, s: all(v > 0 for v in s.values()),
        ),
        (
            "network, cyclepack, indexcoding and bounds each hold >= 5% of self time",
            lambda m, s: all(s[x] >= 0.05 for x in ("network", "cyclepack", "indexcoding", "bounds")),
        ),
    ],
    "rcp-dense": [
        (
            "cyclepack.rcp_exact has the largest self time",
            lambda m, s: _largest(m) == "cyclepack.rcp_exact",
        ),
        ("cyclepack holds >= 90% of self time", lambda m, s: s["cyclepack"] >= 0.9),
    ],
    "fvs-large": [
        (
            "the bounds searches (mais_exact, min_fvs_exact, tensor_bound) have the largest self time",
            lambda m, s: _largest(m)
            in ("bounds.mais_exact", "bounds.min_fvs_exact", "bounds.tensor_bound"),
        ),
        (
            "rcp_exact is refused on every call, so its time is all wasted",
            lambda m, s: m["cyclepack.rcp_exact.refused"] == m["cyclepack.rcp_exact.calls"] > 0,
        ),
    ],
}
"""What the benchmark's layer map predicts for the traced run at the commit
that introduced it (README.md); a traced run reports whether each holds."""


def _largest(metrics: dict[str, float]) -> str:
    return max(spans.TRACED, key=lambda name: metrics[f"{name}.self_s"])


def traced(workload: Workload, seed: int, workdir: Path, trace_file: Path):
    cli, instances, argvs = set_up(workload, seed, workdir)
    gnskit_errors = importlib.import_module("gnskit.errors")
    # the untraced calls run before and after the traced pass, so that
    # neither side is only the first (slower) call of an instance
    subset = range(0, len(argvs), OVERHEAD_STRIDE)
    plain = Outcomes(len(argvs))
    for i in subset:
        plain.call(cli, i, argvs[i])
    recorder = spans.Recorder(gnskit_errors.CapacityError)
    outcomes = Outcomes(len(argvs))
    with spans.traced(recorder):
        for i, argv in enumerate(argvs):
            recorder.instance = i
            outcomes.call(cli, i, argv)
    for i in subset:
        plain.call(cli, i, argvs[i])
    untraced_s = sum(statistics.mean(plain.times[i]) for i in subset)
    traced_s = sum(outcomes.times[i][0] for i in subset)
    for i in subset:
        for key, calls in plain.results[i].items():
            outcomes.results[i][key] = outcomes.results[i].get(key, 0) + calls
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with trace_file.open("w", encoding="utf-8") as fh:
        for sp in recorder.spans:
            fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.instance, sp.refused, sp.raised]) + "\n")
    result = verify(workload, seed, instances, outcomes)
    report_checks(workload, seed, result)
    layers = spans.layer_metrics(recorder)
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1
    shares = spans.module_shares(layers)
    print(f"spans: {len(recorder.spans)} over {len(argvs)} reports, written to {trace_file}")
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"module {module:12s} self {layers[module + '.self_s']:9.4f} s  share {share:6.1%}")
    for text, holds in PREDICTIONS[workload.name]:
        print(f"prediction: {text}: {'holds' if holds(layers, shares) else 'DOES NOT HOLD'}")
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return len(argvs) + 2 * len(subset), result["failed"], metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gnskit" / "__init__.py").is_file():
        print(f"bench: no gnskit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    saved_caps = os.environ.get(CAP_ENV)
    os.environ[CAP_ENV] = workload.cap_overrides
    try:
        if args.trace:
            trace_file = ROOT / ".bench_out" / f"spans-{workload.name}-{args.seed}.jsonl"
            attempted, failed, metrics = traced(workload, args.seed, workdir, trace_file)
        else:
            attempted, failed, metrics = untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_caps is None:
            os.environ.pop(CAP_ENV, None)
        else:
            os.environ[CAP_ENV] = saved_caps
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
