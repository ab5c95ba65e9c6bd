"""The benchmark's output check (bench/check.py) on a real report: a
certificate checker that raises fails the report, not the benchmark run."""

import importlib.util
import sys
from pathlib import Path

from gnskit.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """bench/<name>.py, loaded under a name of its own so that bench/ stays
    off sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_a_checker_that_raises_fails_the_report_instead_of_the_run(tmp_path):
    check, corpus = _bench_module("check"), _bench_module("corpus")
    # the benchmark's warm-up instance: one small sweep-small network
    text = corpus.corpus(corpus.WORKLOADS["sweep-small"], 0, 1)[0].text
    net = tmp_path / "warm-up.mun"
    net.write_text(text)
    out = net.with_suffix(".out")
    assert main(["bounds", str(net), "--exact-gns", "--out", "machine", "--output", str(out)]) == 0
    report = out.read_text()
    (cut,) = [line for line in report.splitlines() if line.startswith("  cut: ")]
    unknown_link = report.replace(cut, cut.rsplit(" ", 1)[0] + " 99")
    problems = check.check_report(text, unknown_link, ("--exact-gns",))[1]
    assert any(p.startswith("is_gns_cut raised ValueError") for p in problems)
    assert "exact GNS cut fails the GNS check on the staged network" in problems
