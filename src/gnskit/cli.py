"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 invariant or verification
failure, 2 input error, 3 capacity refusal. All output is deterministic;
``--threads`` is accepted for interface stability and bounded resource
declarations, and never changes results (computations run single-threaded).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bounds as bounds_mod
from . import cyclepack as cyclepack_mod
from . import indexcoding as indexcoding_mod
from . import instances as instances_mod
from . import network as network_mod
from .caps import Caps
from .digraph import parse_digraph, serialize_digraph
from .errors import CapacityError, ContractViolation, FormatError, GnsKitError


def _read(path: str) -> str:
    """The UTF-8 text of `path`. Unbuffered bytes and one decode cost less
    than a text-mode file; line ends are left to the parsers' `splitlines`,
    which reads CRLF and lone CR as text mode would have translated them."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    return data.decode("utf-8")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    try:
        with open(output, "wb", buffering=0) as fh:
            while data:  # a raw write may take only part of it
                data = data[fh.write(data):]
    except OSError as exc:
        raise FormatError(f"cannot write {output}: {exc}") from None


def _human_report(report: bounds_mod.BoundReport) -> str:
    lines = [f"links: {report.m}", f"pairs: {report.k}"]
    if report.mais_value is not None:
        lines.append(f"acyclic maximum (mais): {report.mais_value}")
        lines.append(f"minimum feedback vertex set: {sorted(report.fvs)}")
    if report.rcp_value is not None:
        lines.append(f"fractional cycle packing: {report.rcp_value}")
    if report.approx_weight is not None:
        lines.append(f"approximate feedback weight: {report.approx_weight}")
    if report.gns_exact is not None:
        lines.append(
            f"exact staged GNS cut: size {len(report.gns_exact.cut)}, "
            f"links {sorted(report.gns_exact.cut)}"
        )
    if report.code_rate is not None:
        lines.append(f"cycle code rate: {report.code_rate}")
    if report.co_rate_lb is not None:
        lines.append(f"correlated-sources rate achieved: {report.co_rate_lb}")
    for tb in report.tensor_bounds:
        lines.append(f"tensor bound q={tb.q}: {tb.value!r} (radicand {tb.radicand})")
    for sb in report.shannon_lb:
        lines.append(
            f"independence-power lower bound power={sb.power}: {sb.value!r} "
            f"(radicand {sb.radicand})"
        )
    if report.rcp_value is not None and report.mais_value is not None:
        lines.append(
            f"chain: rcp {report.rcp_value} <= m - mais {report.m - report.mais_value}"
            f" <= approx {report.approx_weight} : OK"
        )
    if report.skipped:
        lines.append("skipped (capacity): " + " ".join(report.skipped))
    return "\n".join(lines) + "\n"


def _cmd_bounds(args, caps: Caps) -> int:
    net = network_mod.parse_network(_read(args.network))
    report = bounds_mod.bound_report(
        net,
        qs=tuple(args.q),
        field=args.field,
        exact_gns=args.exact_gns,
        shannon_powers=tuple(args.shannon_powers),
        ratio_constant=args.ratio_constant,
        caps=caps,
    )
    if args.out == "machine":
        _emit(bounds_mod.serialize_report(report), args.output)
    else:
        _emit(_human_report(report), args.output)
    return 0


def _cmd_gnscut(args, caps: Caps) -> int:
    net = network_mod.parse_network(_read(args.network))
    lines = ["gnscut"]
    if args.approx:
        approx = cyclepack_mod.subset_fes_approx(net, caps.spreading_iterations)
        cert = network_mod.fvs_to_gns_cut(net, approx.fes)  # index-graph vertex v is link v
        lines.append("mode: approx")
        lines.append("tilde: true")
        lines.append(f"size: {len(cert.cut)}")
        lines.append("cut: " + " ".join(str(x) for x in sorted(cert.cut)))
        lines.append("permutation: " + " ".join(str(x) for x in cert.permutation))
        lines.append(f"objective: {approx.diagnostics.objective}")
        lines.append(f"ratio: {approx.diagnostics.ratio!r}")
    else:
        target = network_mod.tilde_transform(net) if args.tilde else net
        cert = network_mod.min_gns_cut_exact(target, caps.mais_vertices)  # verified there
        lines.append("mode: exact")
        lines.append(f"tilde: {'true' if args.tilde else 'false'}")
        lines.append(f"size: {len(cert.cut)}")
        lines.append("cut: " + " ".join(str(x) for x in sorted(cert.cut)))
        lines.append("permutation: " + " ".join(str(x) for x in cert.permutation))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_convert(args, caps: Caps) -> int:
    net = network_mod.parse_network(_read(args.network))
    g, lmap = network_mod.to_index_graph(net)
    comments = [
        "index graph of " + os.path.basename(args.network),
        "vertex<->link id: " + " ".join(
            f"{v}={eid}" for v, eid in enumerate(lmap.vertex_to_id)
        ),
    ]
    _emit(serialize_digraph(g, comments), args.output)
    return 0


def _cmd_cyclepack(args, caps: Caps) -> int:
    if args.from_network:
        net = network_mod.parse_network(_read(args.input))
        closed = network_mod.closure_links(net)
        metric = cyclepack_mod.solve_spreading_metric(
            closed, [s for s, _ in net.pairs], caps.spreading_iterations
        )
        packing = cyclepack_mod.packing_from_metric(closed, metric)
    else:
        g = parse_digraph(_read(args.input), caps.ls_vertices)
        packing = cyclepack_mod.rcp_exact(g, caps.rcp_cycles)
    lines = ["cyclepacking", f"value: {packing.value}"]
    for cyc, w in packing.assignments:
        lines.append(f"assign: {w} " + " ".join(str(v) for v in cyc))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_minrank(args, caps: Caps) -> int:
    g = parse_digraph(_read(args.graph), caps.ls_vertices)
    cap = indexcoding_mod.minrank_edge_cap(args.field, caps.minrank_base_edges)
    value, witness = indexcoding_mod.minrank(g, args.field, cap)
    lines = ["minrank", f"field: {args.field}", f"value: {value}", "witness:"]
    for row in witness.entries:
        lines.append("  row " + " ".join(str(a) for a in row))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_code(args, caps: Caps) -> int:
    g = parse_digraph(_read(args.graph), caps.ls_vertices)
    packing = cyclepack_mod.rcp_exact(g, caps.rcp_cycles)
    code = indexcoding_mod.build_cycle_code(g, packing, args.field, caps.code_lcm)
    _emit(indexcoding_mod.serialize_index_code(code), args.output)
    return 0


def _cmd_gen(args, caps: Caps) -> int:
    if args.kind == "lubetzky-stav":
        params = instances_mod.LSParams(
            r=args.r, s=args.s, p=args.p, b=args.b, complemented=args.complemented
        )
        g = instances_mod.lubetzky_stav(params, caps.ls_vertices)
        meta = (
            f"lubetzky-stav r={args.r} s={args.s} p={args.p} b={args.b} "
            f"complemented={str(args.complemented).lower()}"
        )
        _emit(serialize_digraph(g, [meta]), args.output)
    elif args.kind == "digraph":
        g = instances_mod.random_digraph(args.n, args.prob, args.seed, caps.ls_vertices)
        meta = f"random digraph n={args.n} prob={args.prob!r} seed={args.seed}"
        _emit(serialize_digraph(g, [meta]), args.output)
    elif args.kind == "network":
        net = instances_mod.random_dag_network(
            args.nodes, args.links, args.pairs, args.seed, vertex_cap=caps.ls_vertices
        )
        meta = (
            f"random dag-network nodes={args.nodes} links={args.links} "
            f"pairs={args.pairs} seed={args.seed}"
        )
        _emit(network_mod.serialize_network(net, [meta]), args.output)
    elif args.kind == "side-info-network":
        g = parse_digraph(_read(args.graph), caps.ls_vertices)
        net = instances_mod.network_from_side_info_graph(g)
        meta = "network embedding " + os.path.basename(args.graph)
        _emit(network_mod.serialize_network(net, [meta]), args.output)
    return 0


def _cmd_verify(args, caps: Caps) -> int:
    lines = ["verify"]
    ok = False
    if args.target == "code":
        g = parse_digraph(_read(args.graph), caps.ls_vertices)
        code = indexcoding_mod.parse_index_code(_read(args.code))
        ok, failing = indexcoding_mod.verify_index_code(g, code)
        lines.append("target: code")
        lines.append(f"ok: {'true' if ok else 'false'}")
        if not ok:
            lines.append(f"failing_user: {failing}")
    elif args.target == "gnscut":
        net = network_mod.parse_network(_read(args.network))
        if args.tilde:
            net = network_mod.tilde_transform(net)
        try:
            cut = frozenset(int(x) for x in args.cut.split(",") if x.strip())
        except ValueError:
            raise FormatError(f"malformed cut list {args.cut!r}") from None
        result = network_mod.is_gns_cut(net, cut)
        lines.append("target: gnscut")
        ok = isinstance(result, network_mod.GnsCertificate)
        lines.append(f"ok: {'true' if ok else 'false'}")
        if ok:
            lines.append("permutation: " + " ".join(str(x) for x in result.permutation))
        else:
            lines.append(
                "witness: " + " ".join(str(i + 1) for i in result.witness)
            )
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def _add_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("--q", type=int, nargs="+", default=(1,))
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--exact-gns", action="store_true", dest="exact_gns")
    p.add_argument("--shannon-powers", type=int, nargs="*", default=())
    p.add_argument("--ratio-constant", type=float, default=8.0)
    p.add_argument("--out", choices=["human", "machine"], default="human")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)


def _add_gnscut(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("--tilde", action="store_true")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--approx", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gnscut)


def _add_convert(p: argparse.ArgumentParser) -> None:
    p.add_argument("network")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_convert)


def _add_cyclepack(p: argparse.ArgumentParser) -> None:
    p.add_argument("input")
    p.add_argument("--from-network", action="store_true", dest="from_network")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_cyclepack)


def _add_minrank(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_minrank)


def _add_code(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_code)


def _add_gen(p: argparse.ArgumentParser) -> None:
    gen_sub = p.add_subparsers(dest="kind", required=True)
    q = gen_sub.add_parser("lubetzky-stav")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--complemented", action="store_true")
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_gen)
    q = gen_sub.add_parser("digraph")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--prob", type=float, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_gen)
    q = gen_sub.add_parser("network")
    q.add_argument("--nodes", type=int, required=True)
    q.add_argument("--links", type=int, required=True)
    q.add_argument("--pairs", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_gen)
    q = gen_sub.add_parser("side-info-network")
    q.add_argument("--graph", required=True)
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_gen)


def _add_verify(p: argparse.ArgumentParser) -> None:
    ver_sub = p.add_subparsers(dest="target", required=True)
    q = ver_sub.add_parser("code")
    q.add_argument("--graph", required=True)
    q.add_argument("--code", required=True)
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_verify)
    q = ver_sub.add_parser("gnscut")
    q.add_argument("--network", required=True)
    q.add_argument("--cut", required=True, help="comma-separated link ids")
    q.add_argument("--tilde", action="store_true")
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_verify)


# command name -> (help, function adding its arguments), in help-listing order
_COMMANDS = {
    "bounds": ("full bound chain report for a network", _add_bounds),
    "gnscut": ("minimum or approximate GNS cut", _add_gnscut),
    "convert": ("network to index graph (.dg)", _add_convert),
    "cyclepack": ("exact fractional cycle packing", _add_cyclepack),
    "minrank": ("exhaustive minrank over a prime field", _add_minrank),
    "code": ("cycle-saving index code from the packing", _add_code),
    "gen": ("emit instance files", _add_gen),
    "verify": ("re-verify an artifact", _add_verify),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gnskit parser, or with a command name only that subcommand's. For
    an argv that starts with the name both parse and print alike: argparse
    hands the rest to the subparser, and the metavar keeps the usage line
    (the full parser omits it, as it would rename the command in errors).
    Built once per process: parsing keeps its state in the namespace it
    returns, help reads COLUMNS when it prints, and defaults are immutable."""
    parser = argparse.ArgumentParser(
        prog="gnskit",
        description="Sum-rate bound toolkit for multiple-unicasts network coding",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker budget; results never depend on it",
    )
    lazy = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **lazy)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # building all 15 parsers costs more than a small report
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        caps = Caps.from_env()
        return args.func(args, caps)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity refusal: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GnsKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
