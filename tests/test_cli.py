"""Command-line contract: exit codes, formats, determinism."""

import contextlib
import errno
import functools
import io
import os
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from gnskit import (
    cli,
    network_from_side_info_graph,
    parse_digraph,
    parse_network,
    parse_report,
    random_dag_network,
    serialize_network,
    tilde_transform,
)
from gnskit.cli import main

from helpers import (
    DIAMOND,
    PARALLEL_LINKS,
    SHARED_BOTTLENECK,
    SINGLE_PATH,
    TWO_DISJOINT,
    oracle_min_gns_size,
    run_cli,
    symmetric_cycle,
)


@pytest.fixture()
def parallel(tmp_path):
    path = tmp_path / "parallel.mun"
    path.write_text(PARALLEL_LINKS)
    return str(path)


@pytest.fixture()
def gap(tmp_path):
    """The wrapping of bidirected C5 (m = 26, rcp 3, approx 4): the packing
    leaves a gap, so only a search gives mais, and the cap can refuse it."""
    path = tmp_path / "c5.mun"
    path.write_text(serialize_network(network_from_side_info_graph(symmetric_cycle(5))))
    return str(path)


@pytest.fixture()
def empty_parser_cache(monkeypatch):
    """`cli.build_parser` with a cache of its own for one test."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))


@pytest.fixture()
def single(tmp_path):
    path = tmp_path / "single.mun"
    path.write_text(SINGLE_PATH)
    return str(path)


class TestExitCodes:
    def test_success(self, parallel, capsys):
        assert main(["bounds", parallel]) == 0
        capsys.readouterr()

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mun"
        bad.write_text("network\nnode a\nlink a a\n")
        assert main(["bounds", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_file_is_two(self, capsys):
        assert main(["bounds", "/nonexistent/x.mun"]) == 2
        capsys.readouterr()

    def test_capacity_is_three(self, parallel, capsys, monkeypatch):
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "mais_vertices=1")
        assert main(["gnscut", parallel, "--tilde", "--exact"]) == 3
        capsys.readouterr()

    def test_bad_cap_override_is_two(self, parallel, capsys, monkeypatch):
        # no report path enumerates cycles, so `cycles` names no cap; the
        # GNS search is capped by `mais_vertices`, so `gns_cuttable` names none
        for entry in ("bogus=1", "cycles=5", "gns_cuttable=1"):
            monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", entry)
            assert main(["bounds", parallel]) == 2
        capsys.readouterr()

    def test_negative_cap_override_is_two(self, parallel, gap, capsys, monkeypatch):
        for entry in ("mais_vertices=-1", "spreading_iterations=-1"):
            monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", entry)
            assert main(["bounds", parallel]) == 2
            assert "negative value" in capsys.readouterr().err
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "mais_vertices=0")
        assert main(["bounds", gap, "--out", "machine"]) == 0
        assert "mais" in parse_report(capsys.readouterr().out).skipped
        # the packing proves PARALLEL_LINKS' approximate set minimum
        assert main(["bounds", parallel, "--out", "machine"]) == 0
        assert parse_report(capsys.readouterr().out).skipped == ()

    def test_large_prime_fields_are_decided_at_once(self, parallel, tmp_path, capsys):
        p = str(10**18 + 3)  # trial division to its square root would not finish
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        code = tmp_path / "c3.code"
        assert main(["bounds", parallel, "--field", p, "--out", "machine"]) == 0
        assert parse_report(capsys.readouterr().out).code.p == int(p)
        assert main(["code", str(graph), "--field", p, "--output", str(code)]) == 0
        assert main(["verify", "code", "--graph", str(graph), "--code", str(code)]) == 0
        assert "ok: true" in capsys.readouterr().out

    def test_fields_past_the_primality_limit_are_three(self, tmp_path, capsys):
        p = str(3317044064679887385961981)
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        code = tmp_path / "c3.code"
        code.write_text(f"code p={p} t=1 n=3 r=2\nrow 1 1 0\nrow 0 1 1\n")
        assert main(["minrank", str(graph), "--field", p]) == 3
        assert main(["verify", "code", "--graph", str(graph), "--code", str(code)]) == 3
        err = capsys.readouterr().err
        assert err.count("capacity refusal: primality of") == 2

    def test_failed_verification_is_one(self, parallel, tmp_path, capsys):
        assert main(["verify", "gnscut", "--network", parallel, "--cut", ""]) == 1
        capsys.readouterr()


class TestBounds:
    def test_machine_report_parses(self, parallel, capsys):
        assert main(["bounds", parallel, "--exact-gns", "--out", "machine"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert (report.m, report.mais_value, report.rcp_value) == (4, 2, 2)
        assert len(report.gns_exact.cut) == 2

    def test_exact_gns_is_skipped_exactly_with_mais(self, parallel, gap, capsys, monkeypatch):
        # the staged network has m cuttable links, the index graph m vertices;
        # the cap refuses both only where the packing leaves a gap
        for path, cap, skipped in ((gap, 25, True), (gap, 26, False), (parallel, 3, False)):
            monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", f"mais_vertices={cap}")
            assert main(["bounds", path, "--exact-gns", "--out", "machine"]) == 0
            report = parse_report(capsys.readouterr().out)
            assert ("gns" in report.skipped) == ("mais" in report.skipped) == skipped
            assert (report.gns_exact is None) == (report.mais_value is None) == skipped

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["--q", "2"], ""),
            (["--shannon-powers", "1"], ""),
            ([], "alpha_vertices=30"),
            ([], "tensor_vertices=5000"),
        ],
        ids=["q", "shannon-powers", "alpha_vertices", "tensor_vertices"],
    )
    def test_the_retired_power_options_are_input_errors(
        self, single, argv, overrides, monkeypatch
    ):
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", overrides)
        code, out, err = run_cli(["bounds", single, *argv, "--out", "machine"])
        assert (code, out, "Traceback" in err) == (2, b"", False), err

    def test_in_process_calls_share_no_state(self, single, capsys):
        assert main(["bounds", single, "--exact-gns", "--out", "machine"]) == 0
        first = parse_report(capsys.readouterr().out)
        assert main(["bounds", single, "--out", "machine"]) == 0
        second = parse_report(capsys.readouterr().out)
        assert first.gns_exact is not None and second.gns_exact is None
        assert [tb.q for tb in first.tensor_bounds] == [tb.q for tb in second.tensor_bounds] == [1]

    def test_ratio_constant_flag_accepted(self, parallel, capsys):
        assert main(["bounds", parallel, "--ratio-constant", "16"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_ratio_constant_must_be_finite_and_positive(self, parallel, capsys, value):
        assert main(["bounds", parallel, "--ratio-constant", value]) == 2
        assert capsys.readouterr().err.startswith("input error: ratio constant")


class TestGnscut:
    def test_exact_tilde_single(self, single, capsys):
        assert main(["gnscut", single, "--tilde", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "size: 1" in out

    def test_exact_tilde_parallel(self, parallel, capsys):
        assert main(["gnscut", parallel, "--tilde", "--exact"]) == 0
        assert "size: 2" in capsys.readouterr().out

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 4), st.integers(1, 3), st.integers(0, 2**16),
           st.booleans())
    def test_exact_cut_is_minimum_and_verifies(self, nodes, extra, pairs, seed, tilde):
        try:
            net = random_dag_network(nodes, nodes - 1 + extra, min(pairs, nodes // 2), seed=seed)
        except ValueError:  # no pair of distinct endpoints is connected
            assume(False)
        target = tilde_transform(net) if tilde else net
        assume(len(target.regular_links()) <= 12)
        flag = ["--tilde"] if tilde else []

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return main(list(argv)), out.getvalue()

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.mun")
            with open(path, "w", encoding="utf-8") as f:
                f.write(serialize_network(net))
            code, out = run("gnscut", path, "--exact", *flag)
            assert code == 0
            lines = dict(line.split(":", 1) for line in out.splitlines()[1:])
            cut = lines["cut"].split()
            assert int(lines["size"]) == len(cut) == oracle_min_gns_size(target)
            code, out = run("verify", "gnscut", "--network", path, "--cut", ",".join(cut), *flag)
            assert code == 0 and "ok: true" in out

    def test_approx_always_verified(self, parallel, capsys):
        assert main(["gnscut", parallel, "--approx"]) == 0
        out = capsys.readouterr().out
        assert "size: 2" in out and "permutation:" in out


class TestConvertAndRoundTrips:
    def test_convert_parallel(self, parallel, capsys):
        assert main(["convert", parallel]) == 0
        g = parse_digraph(capsys.readouterr().out)
        assert g.n == 4 and len(g.edges) == 8

    def test_network_round_trip_via_gen(self, tmp_path, capsys):
        out = tmp_path / "net.mun"
        assert main([
            "gen", "network", "--nodes", "6", "--links", "6",
            "--pairs", "2", "--seed", "4", "--output", str(out),
        ]) == 0
        net = parse_network(out.read_text())
        from gnskit import serialize_network

        assert parse_network(serialize_network(net)) == net

    def test_code_round_trip(self, tmp_path, capsys):
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        assert main(["code", str(graph), "--field", "2"]) == 0
        from gnskit import parse_index_code

        code = parse_index_code(capsys.readouterr().out)
        assert code.rate == 2


class TestGen:
    def test_lubetzky_stav(self, capsys):
        assert main([
            "gen", "lubetzky-stav", "--r", "4", "--s", "2", "--p", "2", "--b", "1",
        ]) == 0
        g = parse_digraph(capsys.readouterr().out)
        assert g.n == 6

    def test_digraph_seeded(self, capsys):
        assert main(["gen", "digraph", "--n", "5", "--prob", "0.5", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "digraph", "--n", "5", "--prob", "0.5", "--seed", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_side_info_network(self, tmp_path, capsys):
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        assert main(["gen", "side-info-network", "--graph", str(graph)]) == 0
        net = parse_network(capsys.readouterr().out)
        assert len(net.nodes) == 8


class TestOversizeRequests:
    """Generator sizes, expected edge counts and `.dg` headers past
    `ls_vertices` are refused (exit 3) before anything is allocated for
    them; the cap is lowered here, or the random source taken away, so that
    a regression would allocate little."""

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "ls_vertices=5")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["digraph", "--n", "6", "--prob", "0.5", "--seed", "1"], 3),
            (["digraph", "--n", "5", "--prob", "0.5", "--seed", "1"], 3),  # 10 expected edges
            (["network", "--nodes", "6", "--links", "5", "--pairs", "1", "--seed", "11"], 3),
            (["network", "--nodes", "5", "--links", "6", "--pairs", "1", "--seed", "11"], 3),
            (["network", "--nodes", "5", "--links", "5", "--pairs", "1", "--seed", "11"], 0),
            (["digraph", "--n", "5", "--prob", "0.25", "--seed", "1"], 0),
        ],
    )
    def test_generators(self, argv, code, capsys):
        assert main(["gen", *argv]) == code
        assert ("capacity refusal" in capsys.readouterr().err) == (code == 3)

    def test_a_dense_digraph_is_refused_by_its_expected_edges(self, capsys, monkeypatch):
        # about 12.5 million edges, each a link of its side-information
        # network, ran out of memory while they were drawn
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "")
        monkeypatch.setattr("random.Random", None)  # a draw would call it first
        tracemalloc.start()
        try:
            code = main(["gen", "digraph", "--n", "5000", "--prob", "0.5", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 10**6
        assert capsys.readouterr().err == (
            "capacity refusal: 12497500.0 expected edges exceed the vertex cap of 5000\n"
        )

    @pytest.mark.parametrize("n, code", [(6, 3), (5, 0)])
    def test_digraph_headers(self, n, code, tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(f"digraph {n}\ne 0 1\ne 1 0\n")
        codes = tmp_path / "c.code"
        rows = ["1 1 0 0 0", "0 0 1 0 0", "0 0 0 1 0", "0 0 0 0 1"]  # the code `code` prints
        codes.write_text("code p=2 t=1 n=5 r=4\n" + "".join(f"row {r}\n" for r in rows))
        for argv in (
            ["cyclepack", str(graph)],
            ["minrank", str(graph)],
            ["code", str(graph)],
            ["verify", "code", "--graph", str(graph), "--code", str(codes)],
            ["gen", "side-info-network", "--graph", str(graph)],
        ):
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count(f"{n} vertices exceed the vertex cap of 5") == (5 if code else 0)


class TestCyclepackCommand:
    @pytest.mark.parametrize(
        "text", [PARALLEL_LINKS, SINGLE_PATH, DIAMOND, TWO_DISJOINT, SHARED_BOTTLENECK]
    )
    def test_from_network_prints_the_report_packing(self, text, tmp_path, capsys):
        path = tmp_path / "net.mun"
        path.write_text(text)
        assert main(["cyclepack", str(path), "--from-network"]) == 0
        packed = capsys.readouterr().out.splitlines()
        assert main(["bounds", str(path), "--out", "machine"]) == 0
        report = capsys.readouterr().out.splitlines()
        section = report[report.index("packing:") + 1:]
        assert [ln for ln in packed if ln.startswith("assign:")] == [
            ln.strip() for ln in section if ln.startswith("  assign:")
        ]
        assert packed[1] == section[0].strip()  # value: ...

    def test_only_digraph_input_is_capped_by_rcp_cycles(
        self, parallel, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "rcp_cycles=1")
        assert main(["cyclepack", parallel, "--from-network"]) == 0
        assert "value: 2" in capsys.readouterr().out
        assert main(["convert", parallel, "--output", str(tmp_path / "g.dg")]) == 0
        assert main(["cyclepack", str(tmp_path / "g.dg")]) == 3
        capsys.readouterr()


class TestFiles:
    """Inputs are read and outputs written as unbuffered bytes with an
    explicit UTF-8 decode and encode; the contract of the text-mode files
    they replace holds: line ends, decode errors, the messages of files
    that cannot be opened, and every file closed."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_give_the_lf_report(self, tmp_path, newline, capsys):
        bad = "network\nnode a\n# a comment\nbogus line\n"
        for text, argv in ((PARALLEL_LINKS, ["--exact-gns", "--out", "machine"]), (bad, [])):
            results = []
            for name, ends in (("lf", "\n"), ("other", newline)):
                path = tmp_path / f"{name}.mun"
                path.write_bytes(text.replace("\n", ends).encode())
                out = tmp_path / f"{name}.out"
                out.unlink(missing_ok=True)
                code = main(["bounds", str(path), *argv, "--output", str(out)])
                written = out.read_bytes() if out.exists() else b""
                results.append((code, written, capsys.readouterr().err))
            assert results[0] == results[1]
        assert results[0][0] == 2 and "line 4: unrecognized line 'bogus line'" in results[0][2]

    def test_non_utf8_input_is_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.mun"
        path.write_bytes(b"network\nnode \xff\n")
        assert main(["bounds", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: 'utf-8' codec can't decode byte 0xff in position 13: "
            "invalid start byte\n"
        )

    def test_unreadable_input_keeps_the_os_message(self, tmp_path, capsys):
        missing = tmp_path / "missing.mun"
        for path, errno_ in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
            assert main(["bounds", str(path)]) == 2
            reason = f"[Errno {errno_}] {os.strerror(errno_)}: {str(path)!r}"
            assert capsys.readouterr().err == f"input error: cannot read {path}: {reason}\n"

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_is_two(self, parallel, tmp_path, where):
        output = tmp_path / "missing" / "x.out" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(["bounds", parallel, "--output", str(output)])
        assert (code, out, "Traceback" in err) == (2, b"", False), err
        errno_ = errno.ENOENT if where == "missing-directory" else errno.EISDIR
        reason = f"[Errno {errno_}] {os.strerror(errno_)}: {str(output)!r}"
        assert err == f"input error: cannot write {output}: {reason}\n"

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        class Trickle(io.FileIO):
            def write(self, data):
                return super().write(bytes(data[:3]))  # at most 3 bytes a call

        def trickle(path, mode, buffering):
            return Trickle(path, "w")

        monkeypatch.setattr(cli, "open", trickle, raising=False)
        out = tmp_path / "x.out"
        cli._emit("h\u00e9llo\nw\u00f6rld \u2192\n", str(out))
        assert out.read_bytes() == "h\u00e9llo\nw\u00f6rld \u2192\n".encode()

    def test_every_file_is_closed(self, parallel, tmp_path, monkeypatch, capsys):
        opened = []

        def spy(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", spy, raising=False)
        latin1 = tmp_path / "latin1.mun"
        latin1.write_bytes(b"network\nnode \xff\n")
        assert main(["bounds", parallel, "--output", str(tmp_path / "x.out")]) == 0
        assert main(["bounds", str(latin1)]) == 2
        capsys.readouterr()
        assert len(opened) == 3 and all(fh.closed for fh in opened)


class TestDeepInputs:
    """Inputs deeper than the recursion limit exit 0 without a traceback."""

    def test_long_path_network(self, tmp_path):
        lines = ["network"] + [f"node n{i}" for i in range(1200)]
        lines += [f"link n{i} n{i + 1}" for i in range(1199)] + ["pair n0 n1199"]
        path = tmp_path / "path.mun"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["bounds", str(path), "--out", "machine"])
        assert (code, "Traceback" in err) == (0, False), err
        report = parse_report(out.decode())
        assert (report.rcp_value, report.approx_weight) == (1, 1)
        code, out, err = run_cli(["gnscut", str(path), "--approx"])
        assert (code, "Traceback" in err) == (0, False), err
        assert b"size: 1\n" in out

    def test_long_directed_cycle(self, tmp_path):
        path = tmp_path / "cycle.dg"
        edges = "".join(f"e {i} {(i + 1) % 1100}\n" for i in range(1100))
        path.write_text("digraph 1100\n" + edges)
        for command in ("cyclepack", "code"):
            code, out, err = run_cli([command, str(path)])
            assert (code, "Traceback" in err) == (0, False), err
        assert out.startswith(b"code p=2 t=1 n=1100 r=1099\n")


class TestMinrankCommand:
    def test_three_cycle(self, tmp_path, capsys):
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        assert main(["minrank", str(graph), "--field", "2"]) == 0
        assert "value: 2" in capsys.readouterr().out


class TestVerifyCommand:
    def test_code_pass(self, tmp_path, capsys):
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        code = tmp_path / "c3.code"
        assert main(["code", str(graph), "--output", str(code)]) == 0
        assert main(["verify", "code", "--graph", str(graph), "--code", str(code)]) == 0
        assert "ok: true" in capsys.readouterr().out

    def test_code_fail(self, tmp_path, capsys):
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        code = tmp_path / "bad.code"
        code.write_text("code p=2 t=1 n=3 r=1\nrow 1 1 0\n")
        assert main(["verify", "code", "--graph", str(graph), "--code", str(code)]) == 1
        out = capsys.readouterr().out
        assert "ok: false" in out and "failing_user: 1" in out

    @pytest.mark.parametrize("blowup, code", [("5", 3), ("4", 1)])
    def test_code_past_the_lcm_cap_is_refused(self, blowup, code, tmp_path, monkeypatch):
        # `code p=2 t=100000000 n=3 r=0` ran out of memory building the
        # t*n-wide row space; the cap is lowered here so that a regression
        # would allocate little
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "code_lcm=4")
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        codes = tmp_path / "wide.code"
        codes.write_text(f"code p=2 t={blowup} n=3 r=0\n")
        start = time.perf_counter()
        rc, _, err = run_cli(["verify", "code", "--graph", str(graph), "--code", str(codes)])
        assert (rc, "Traceback" in err) == (code, False), err
        assert ("code needs 5 subsymbols, cap is 4" in err) == (code == 3)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("blowup", ["0", "-1"])
    def test_code_with_blowup_below_one_is_refused(self, tmp_path, capsys, blowup):
        # t = 0 once verified as ok with an undefined rate
        graph = tmp_path / "c3.dg"
        graph.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
        code = tmp_path / "t0.code"
        code.write_text(f"code p=2 t={blowup} n=3 r=0\n")
        assert main(["verify", "code", "--graph", str(graph), "--code", str(code)]) == 2
        assert "t >= 1" in capsys.readouterr().err

    def test_gnscut_pass(self, parallel, capsys):
        assert main([
            "verify", "gnscut", "--network", parallel, "--tilde", "--cut", "0,1",
        ]) == 0
        assert "ok: true" in capsys.readouterr().out


class TestThreadsDeterminism:
    def test_byte_identical_across_thread_counts(self, parallel):
        base = ["--threads", "1", "bounds", parallel, "--out", "machine"]
        alt = ["--threads", "4", "bounds", parallel, "--out", "machine"]
        code1, out1, _ = run_cli(base)
        code2, out2, _ = run_cli(alt)
        assert code1 == code2 == 0
        assert out1 == out2


class _Built(Exception):
    pass


def _parser_main_builds(argv, monkeypatch):
    """The parser `main(argv)` builds, caught before it parses."""
    real, built = cli.build_parser, []

    def spy(command=None):
        built.append(real(command))
        raise _Built

    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", spy)
        with pytest.raises(_Built):
            main(argv)
    return built[0]


def _outcome(parser, argv, capsys):
    """The namespace (func by name), or the exit code; with the output bytes."""
    try:
        result = vars(parser.parse_args(argv))
        result["func"] = result["func"].__name__
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


_HELP = [[*cmd, "-h"] for cmd in (
    ["gnscut"], ["convert"], ["cyclepack"], ["minrank"], ["code"], ["gen"],
    ["verify"], ["gen", "lubetzky-stav"], ["gen", "digraph"], ["gen", "network"],
    ["gen", "side-info-network"], ["verify", "code"],
)]

PARSER_ARGVS = [
    ["bounds", "f"],
    ["bounds", "f", "--field", "3", "--exact-gns", "--ratio-constant", "16",
     "--out", "machine", "--output", "o"],
    ["bounds", "f", "--out", "human"],
    ["gnscut", "f", "--exact"],
    ["gnscut", "f", "--tilde", "--approx", "--output", "o"],
    ["convert", "f"],
    ["convert", "f", "--output", "o"],
    ["cyclepack", "f"],
    ["cyclepack", "f", "--from-network", "--output", "o"],
    ["minrank", "g.dg"],
    ["minrank", "g.dg", "--field", "3"],
    ["code", "g.dg", "--field", "5", "--output", "o"],
    ["gen", "lubetzky-stav", "--r", "4", "--s", "2", "--p", "2", "--b", "1",
     "--complemented"],
    ["gen", "digraph", "--n", "5", "--prob", "0.5", "--seed", "1"],
    ["gen", "network", "--nodes", "6", "--links", "9", "--pairs", "2", "--seed", "1",
     "--output", "o"],
    ["gen", "side-info-network", "--graph", "g.dg"],
    ["verify", "code", "--graph", "g.dg", "--code", "c.code"],
    ["verify", "gnscut", "--network", "f", "--cut", "1,2", "--tilde"],
    [],
    ["-h"],
    ["--he"],
    ["--threads", "2"],
    ["--threads=2", "bounds", "f"],
    ["--threads", "code", "bounds", "f"],
    ["bogus"],
    ["bou", "f"],
    ["-h", "bounds"],
    ["--bogus", "bounds", "f"],
    ["bounds", "f", "--bogus"],
    ["bounds", "f", "--threads", "2"],
    ["bounds", "f", "extra"],
    ["bounds", "f", "--out", "x"],
    ["bounds", "f", "--field"],
    ["bounds"],
    ["bounds", "-h"],
    ["gnscut", "f"],
    ["gnscut", "f", "--exact", "--approx"],
    ["minrank", "g.dg", "--field", "x"],
    ["gen"],
    ["gen", "bogus"],
    ["gen", "network"],
    ["verify"],
    ["verify", "gnscut", "--network", "f"],
    ["verify", "gnscut", "-h"],
    *_HELP,
]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_main_parses_and_prints_as_the_full_parser(self, argv, capsys, monkeypatch):
        for columns in ("30", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            built = _parser_main_builds(argv, monkeypatch)  # cached
            assert _outcome(built, argv, capsys) == _outcome(
                cli.build_parser.__wrapped__(), argv, capsys
            )

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from"),
    ], ids=["empty", "bogus"])
    def test_full_parser_errors_name_the_command(self, argv, message, capsys):
        code, out, err = _outcome(cli.build_parser(), argv, capsys)
        assert (code, out, message in err) == (2, "", True), err

    def test_a_command_builds_only_its_own_arguments(
        self, parallel, capsys, monkeypatch, empty_parser_cache
    ):
        built = []
        for name, (help_text, add_arguments) in list(cli._COMMANDS.items()):
            def spy(p, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(p)

            monkeypatch.setitem(cli._COMMANDS, name, (help_text, spy))
        assert main(["bounds", parallel, "--out", "machine"]) == 0
        assert built == ["bounds"]
        parse_report(capsys.readouterr().out)
        assert main(["bounds", parallel, "--out", "machine"]) == 0
        assert built == ["bounds"]
        for _ in range(2):
            assert main(["--threads", "1", "bounds", parallel, "--out", "machine"]) == 0
        assert built == ["bounds", *cli._COMMANDS]
        capsys.readouterr()

    def test_cached_parsers_print_as_fresh_ones(self, parallel, capsys):
        # a default that one call changed would show in the next
        argvs = [
            ["bounds", parallel, "--exact-gns", "--field", "3", "--out", "machine"],
            ["bounds", parallel, "--out", "machine"],
            ["gnscut", parallel, "--exact"],
        ]
        warm = [(main(argv), capsys.readouterr()) for argv in argvs]
        for argv, result in zip(argvs, warm):
            cli.build_parser.cache_clear()
            assert (main(argv), capsys.readouterr()) == result

    def test_help_reads_columns_when_it_prints(self, capsys, monkeypatch, empty_parser_cache):
        helps = []
        for columns in ("200", "30"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["bounds", "-h"])
            helps.append(capsys.readouterr().out)
        fresh = cli.build_parser.__wrapped__("bounds")
        assert _outcome(fresh, ["bounds", "-h"], capsys) == (0, helps[1], "")
        assert helps[0] != helps[1]

    def test_no_argv_parses_sys_argv(self, parallel, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gnskit", "bounds", parallel, "--out", "machine"])
        assert main() == 0
        assert parse_report(capsys.readouterr().out).m == 4
