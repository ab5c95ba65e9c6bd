"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import statistics
import sys

import pytest

import check
import corpus
import make_pools
import run
import spans


def test_self_time_subtracts_child_coverage():
    S = spans.Span
    recorded = [
        S("a.outer", 0.0, 10.0, -1, 0),
        S("a.child", 1.0, 3.0, 0, 0),
        S("a.grandchild", 1.5, 2.5, 1, 0),
        S("a.child", 4.0, 8.0, 0, 0),
        S("a.other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(recorded) == [4.0, 1.0, 1.0, 4.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    S = spans.Span
    recorded = [S("a.outer", 0.0, 10.0, -1, 0), S("a.x", 2.0, 6.0, 0, 0), S("a.y", 5.0, 12.0, 0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(2.0)


def test_layer_metrics_sum_per_function_and_module():
    recorder = spans.Recorder(RuntimeError)
    S = spans.Span
    recorder.spans = [
        S("bounds.bound_report", 0.0, 5.0, -1, 0),
        S("cyclepack.rcp_exact", 1.0, 3.0, 0, 0, refused=True),
        S("digraph.enumerate_simple_cycles", 1.0, 2.5, 1, 0, refused=True),
    ]
    m = spans.layer_metrics(recorder)
    assert m["bounds.bound_report.calls"] == 1
    assert m["bounds.self_s"] == pytest.approx(3.0)
    assert m["cyclepack.rcp_exact.self_s"] == pytest.approx(0.5)
    assert m["cyclepack.rcp_exact.refused"] == 1
    assert m["cyclepack.rcp_exact.wasted_s"] == pytest.approx(2.0)
    assert m["digraph.self_s"] == pytest.approx(1.5)
    assert m["cli.main.calls"] == 0


def _bindings():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "gnskit" or name.startswith("gnskit.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_record_and_are_restored_even_when_a_call_raises():
    import gnskit
    import gnskit.cli  # noqa: F401  (traced() rebinds in every loaded module)
    from gnskit import CapacityError, Digraph

    before = _bindings()
    recorder = spans.Recorder(CapacityError)
    two_cycles = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(CapacityError):
        with spans.traced(recorder):
            assert gnskit.cyclepack.rcp_exact is not before[("gnskit.cyclepack", "rcp_exact")]
            assert gnskit.rcp_exact is gnskit.cyclepack.rcp_exact
            gnskit.cyclepack.rcp_exact(two_cycles)
            gnskit.cyclepack.rcp_exact(two_cycles, cycle_cap=1)
    assert _bindings() == before
    names = [(s.name, s.parent, s.refused) for s in recorder.spans]
    assert names == [
        ("cyclepack.rcp_exact", -1, False),
        ("digraph.enumerate_simple_cycles", 0, False),
        ("cyclepack.rcp_exact", -1, True),
        ("digraph.enumerate_simple_cycles", 2, True),
    ]
    assert recorder.counters["digraph.cycles"] == 2


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_corpus_bytes(name):
    workload = corpus.WORKLOADS[name]
    size = 40
    first = corpus.corpus(workload, 7, size)
    assert first == corpus.corpus(workload, 7, size)
    assert len(first) == size
    assert [i.text for i in first] != [i.text for i in corpus.corpus(workload, 8, size)]


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_every_corpus_supports_p90(name):
    assert corpus.WORKLOADS[name].size >= run.P90_MIN_SAMPLES


def test_p90_needs_one_hundred_samples():
    assert run.p90([0.1] * 99) is None
    samples = [float(i) for i in range(100, 0, -1)]
    assert run.p90(samples) == statistics.fmean(range(86, 96)) == 90.5
    assert sum(s > run.p90(samples) for s in samples) >= 10


def test_pools_hold_networks_of_their_family():
    for workload in corpus.WORKLOADS.values():
        if workload.pooled:
            strata = corpus.read_pool(workload)
            assert len(strata) == len(make_pools.EDGES)
            seeds = [s for g in strata for s in g]
            assert len(seeds) == len(set(seeds)) >= 4 * workload.size
            nets = [workload.family(s) for s in seeds[:3]]
            assert all(net is not None and workload.keep(net) for net in nets)


def test_quotas_are_proportional_and_sum_to_total():
    assert corpus.quotas([50, 50, 25, 15, 10], 15) == [5, 5, 3, 1, 1]
    assert corpus.quotas([60] * 9 + [30, 18, 12], 100) == [10] * 9 + [5, 3, 2]
    assert sum(corpus.quotas([7, 3, 1], 5)) == 5


def test_cycle_count_and_lower_limit():
    # two 2-cycles through vertex 1 and the 3-cycle 0 -> 1 -> 2 -> 0
    adj = [[1], [0, 2], [1, 0]]
    assert corpus.count_cycles(adj, 10) == 3
    assert corpus.count_cycles(adj, 1) == 2


def test_stored_values_compare_by_component():
    stored = check.decode("4 3/2 - 21/2 3/2 gns")
    assert stored == {"mais": "4", "rcp": "3/2", "code_rate": "21/2", "co_rate": "3/2", "skipped": "gns"}
    now = dict(stored, gns="4", skipped="-")
    assert check.compare(stored, now) == ([], ["gns"], [])
    assert check.compare(stored, dict(now, rcp="2")) == (["rcp: stored 3/2, now 2"], ["gns"], [])
    assert check.compare(now, stored) == ([], [], ["gns"])
    assert check.decode(check.encode(now)) == now


@pytest.fixture(scope="module")
def warm_up_report(tmp_path_factory):
    from gnskit.cli import main

    net = tmp_path_factory.mktemp("report") / "warm-up.mun"
    net.write_text(run.WARM_UP.text)
    out = net.with_suffix(".out")
    assert main(["bounds", str(net), "--exact-gns", "--out", "machine", "--output", str(out)]) == 0
    return out.read_text()


def _check(report_text):
    return check.check_report(run.WARM_UP.text, report_text, ("--exact-gns",))[1]


def test_a_correct_report_passes_the_check(warm_up_report):
    assert _check(warm_up_report) == []


def test_approx_weight_must_be_the_size_of_its_fvs(warm_up_report):
    assert "approx_weight: 3\napprox_fvs: 1 3 4\n" in warm_up_report
    under = warm_up_report.replace("approx_weight: 3\n", "approx_weight: 2\n")
    assert "approx weight 2 != |approx_fvs| = 3" in _check(under)


def test_a_checker_that_raises_fails_the_report_instead_of_the_run(warm_up_report):
    assert "  cut: 0 1 4\n" in warm_up_report
    unknown_link = warm_up_report.replace("  cut: 0 1 4\n", "  cut: 0 1 99\n")
    problems = _check(unknown_link)
    assert any(p.startswith("is_gns_cut raised ValueError") for p in problems)
    assert "exact GNS cut fails the GNS check on the staged network" in problems


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(spans.layer_metrics(spans.Recorder(RuntimeError))) | {"trace.overhead_frac"}
    assert {m["name"] for m in declared} == produced
