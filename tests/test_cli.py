"""Command-line contract: exit codes, formats, determinism."""

import sys

import pytest

from gnskit import cli, parse_digraph, parse_network, parse_report
from gnskit.cli import main

from helpers import (
    DIAMOND,
    PARALLEL_LINKS,
    SHARED_BOTTLENECK,
    SINGLE_PATH,
    TWO_DISJOINT,
    run_cli,
)


@pytest.fixture()
def parallel(tmp_path):
    path = tmp_path / "parallel.mun"
    path.write_text(PARALLEL_LINKS)
    return str(path)


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
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "gns_cuttable=1")
        assert main(["gnscut", parallel, "--tilde", "--exact"]) == 3
        capsys.readouterr()

    def test_bad_cap_override_is_two(self, parallel, capsys, monkeypatch):
        # no report path enumerates cycles, so `cycles` names no cap
        for entry in ("bogus=1", "cycles=5"):
            monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", entry)
            assert main(["bounds", parallel]) == 2
        capsys.readouterr()

    def test_negative_cap_override_is_two(self, parallel, capsys, monkeypatch):
        for entry in ("mais_vertices=-1", "spreading_iterations=-1"):
            monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", entry)
            assert main(["bounds", parallel]) == 2
            assert "negative value" in capsys.readouterr().err
        monkeypatch.setenv("GNSKIT_CAP_OVERRIDES", "mais_vertices=0")
        assert main(["bounds", parallel, "--out", "machine"]) == 0
        assert "mais" in parse_report(capsys.readouterr().out).skipped

    def test_failed_verification_is_one(self, parallel, tmp_path, capsys):
        assert main(["verify", "gnscut", "--network", parallel, "--cut", ""]) == 1
        capsys.readouterr()


class TestBounds:
    def test_machine_report_parses(self, parallel, capsys):
        assert main(["bounds", parallel, "--exact-gns", "--out", "machine"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert (report.m, report.mais_value, report.rcp_value) == (4, 2, 2)
        assert len(report.gns_exact.cut) == 2

    def test_q_list_prints_tensor_bounds(self, single, capsys):
        assert main(["bounds", single, "--q", "1", "2", "--out", "machine"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert [tb.q for tb in report.tensor_bounds] == [1, 2]

    def test_in_process_calls_share_no_state(self, single, capsys):
        assert main(["bounds", single, "--q", "1", "2", "--out", "machine"]) == 0
        first = parse_report(capsys.readouterr().out)
        assert main(["bounds", single, "--out", "machine"]) == 0
        second = parse_report(capsys.readouterr().out)
        assert [tb.q for tb in first.tensor_bounds] == [1, 2]
        assert [tb.q for tb in second.tensor_bounds] == [1]

    def test_ratio_constant_flag_accepted(self, parallel, capsys):
        assert main(["bounds", parallel, "--ratio-constant", "16"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_ratio_constant_must_be_finite_and_positive(self, parallel, capsys, value):
        assert main(["bounds", parallel, "--ratio-constant", value]) == 2
        assert capsys.readouterr().err.startswith("input error: ratio constant")

    def test_shannon_powers(self, parallel, capsys):
        assert main([
            "bounds", parallel, "--shannon-powers", "1", "--out", "machine",
        ]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report.shannon_lb[0].power == 1


class TestGnscut:
    def test_exact_tilde_single(self, single, capsys):
        assert main(["gnscut", single, "--tilde", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "size: 1" in out

    def test_exact_tilde_parallel(self, parallel, capsys):
        assert main(["gnscut", parallel, "--tilde", "--exact"]) == 0
        assert "size: 2" in capsys.readouterr().out

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
    ["bounds", "f", "--q", "1", "2", "--field", "3", "--exact-gns",
     "--shannon-powers", "1", "2", "--ratio-constant", "16", "--out", "machine",
     "--output", "o"],
    ["bounds", "f", "--shannon-powers", "--out", "human"],
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
    ["bounds", "f", "--q"],
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
            built = _parser_main_builds(argv, monkeypatch)
            assert _outcome(built, argv, capsys) == _outcome(
                cli.build_parser(), argv, capsys
            )

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from"),
    ], ids=["empty", "bogus"])
    def test_full_parser_errors_name_the_command(self, argv, message, capsys):
        code, out, err = _outcome(cli.build_parser(), argv, capsys)
        assert (code, out, message in err) == (2, "", True), err

    def test_a_command_builds_only_its_own_arguments(self, parallel, capsys, monkeypatch):
        built = []
        for name, (help_text, add_arguments) in list(cli._COMMANDS.items()):
            def spy(p, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(p)

            monkeypatch.setitem(cli._COMMANDS, name, (help_text, spy))
        assert main(["bounds", parallel, "--out", "machine"]) == 0
        assert built == ["bounds"]
        parse_report(capsys.readouterr().out)
        assert main(["--threads", "1", "bounds", parallel, "--out", "machine"]) == 0
        assert built == ["bounds", *cli._COMMANDS]
        capsys.readouterr()

    def test_no_argv_parses_sys_argv(self, parallel, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gnskit", "bounds", parallel, "--out", "machine"])
        assert main() == 0
        assert parse_report(capsys.readouterr().out).m == 4
