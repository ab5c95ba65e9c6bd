#!/usr/bin/env python3
"""One digest of gnskit's exit codes and output over a fixed corpus.

    python3 scripts/report_digest.py [--workload NAME] --seed N

Writes the corpus of the workload seed (bench/corpus.py, the generator the
benchmark measures on) to a temporary directory and runs
`gnskit bounds FILE <workload flags> --out machine` on each instance,
in-process through `gnskit.cli.main`, with the workload's
GNSKIT_CAP_OVERRIDES. Prints the instance count and one SHA-256 over every
exit code and standard output, in corpus order. Equal digests at two commits
mean byte-identical reports on that corpus. Every report must also read back
through `parse_report` and `serialize_report` to the same text; otherwise
the script exits non-zero naming the instance. gnskit is imported from the
`src/` beside this directory. The workload `all`, the default, prints the
digest of every workload below in one run, the benchmark corpora first.

The workload `gap-wrappings` is not a benchmark corpus: it is the wrappings
of `GRAPHS` in scripts/gap_wrappings.py, reported with
`mais_vertices=64` and no other flag, where the packing leaves a gap below
the minimum feedback vertex set. It takes no seed; `--seed` is ignored.

The workload `gap-paths` covers the paths of `bound_report`'s exact layer
on the same wrappings: `bounds --exact-gns --q 1 2` and `bounds --q 2`, each
under the default caps (the search refused, or past the cap where the
packing proves the minimum) and under `mais_vertices=64` (the search run,
with and without a q=1 record). It takes no seed either.

The workload `large-dags` is not a benchmark corpus either: it is the
networks `bench/corpus.py` draws for the parameter sets of `LARGE_DAG_SETS`
(m = 66-119 links), reported with `mais_vertices=128` and no other flag, so
the exact searches run far past the benchmark's sizes. It takes no seed
either.

The workload `scale` is not a benchmark corpus either: it is the four
networks `bench/corpus.py` draws for the parameter sets of `SCALE_SETS`
(m = 226-294 links), reported with `--exact-gns` under the default caps,
where the LP sandwich proves every exact value. Beside the digest it prints
each report's wall time and that of its approximation
(`subset_fes_approx`) alone. It takes no seed either.

The workload `ladder` is `scale` one size step up, the size ladder of the
approximation: the three networks `bench/corpus.py` draws for the parameter
sets of `LADDER_SETS` (m = 442, 648 and 1052 links), reported and timed as
`scale` is. It takes no seed either, and `all` runs it last, in about 17 s.

The workload `gns-large` runs the exact GNS cut search far past the
benchmark's sizes, with `mais_vertices=128`: `gnskit gnscut --exact --tilde`
on the `large-dags` networks, and `gnscut --exact` with and without
`--tilde` on the gap wrappings. It takes no seed either.

The workload `codes` covers the index-coding commands instead of `bounds`:
on `GRAPHS` and on the fixed `random_digraph` draws of `DRAWS`, it runs
`gnskit minrank`, `gnskit code` and `gnskit verify code` (on the code just
printed) at `--field` 2, 3 and 5, under the default caps. It takes no seed
either.

The workload `networks` covers the other network commands, under the
default caps: on the first 200 sweep-small networks of the seed and on the
gap wrappings, it runs `gnskit gnscut --exact` with and without `--tilde`,
`gnscut --approx` and `convert`. Then, with and without `--tilde`, it runs
`gnskit verify gnscut` on the cut `gnscut --exact` printed (the approximate
cut where the exact search was refused) and on that cut without its
smallest link, which is refused whenever the cut is minimum. It also runs
`gnskit gen network` on the parameter sets of `GEN_NETWORKS`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import WORKLOADS, Instance, corpus, dag_network  # noqa: E402
from gap_wrappings import GRAPHS  # noqa: E402  (the script beside this one)
from gnskit import (  # noqa: E402
    FormatError,
    cli,
    network_from_side_info_graph,
    parse_network,
    parse_report,
    random_digraph,
    serialize_digraph,
    serialize_network,
    serialize_report,
    subset_fes_approx,
)
from gnskit.indexcoding import minrank_edge_cap  # noqa: E402

GAP_WRAPPINGS = "gap-wrappings"
GAP_PATHS = "gap-paths"
# (GNSKIT_CAP_OVERRIDES, bounds flags) of each gap-paths report
GAP_PATH_RUNS = [
    (overrides, flags)
    for overrides in ("", "mais_vertices=64")
    for flags in (("--exact-gns", "--q", "1", "2"), ("--q", "2"))
]
LARGE_DAGS = "large-dags"
# (nodes, links, pairs, seed) of dag_network, by link count m from 66 to 119
LARGE_DAG_SETS = (
    (22, 60, 5, 3), (22, 65, 5, 2), (24, 70, 6, 1), (24, 75, 6, 8), (26, 80, 6, 2),
    (26, 80, 7, 4), (30, 95, 8, 6), (28, 90, 7, 5), (30, 100, 8, 1), (30, 100, 8, 2),
    (30, 100, 8, 3),
)
SCALE = "scale"
# (nodes, links, pairs, seed) of dag_network, m = 226, 227, 294 and 291
SCALE_SETS = ((50, 200, 12, 15), (50, 200, 12, 16), (60, 260, 14, 13), (60, 260, 14, 2))
LADDER = "ladder"
# (nodes, links, pairs, seed) of dag_network, m = 442, 648 and 1052
LADDER_SETS = ((80, 400, 14, 1), (100, 600, 14, 7), (150, 1000, 16, 14))
GNS_LARGE = "gns-large"
CODES = "codes"
NETWORKS = "networks"
ALL = "all"  # every workload, the benchmark corpora first
# (nodes, links, pairs, seed); the last draws no reachable pair, so it is refused
GEN_NETWORKS = ((4, 6, 1, 1), (6, 10, 2, 3), (8, 14, 3, 5), (10, 20, 4, 7), (4, 0, 2, 1))
CODE_FIELDS = (2, 3, 5)
# small draws, kept within the F2 minrank cap so the search runs on each
DRAWS = [
    g
    for g in (random_digraph(3 + seed % 4, (0.3, 0.45)[seed % 2], seed) for seed in range(1, 25))
    if len(g.edges) <= minrank_edge_cap(2)
]


def gap_wrappings() -> list[Instance]:
    return [
        Instance(f"gap{i}", serialize_network(network_from_side_info_graph(g), [name]))
        for i, (name, g) in enumerate(GRAPHS)
    ]


def gap_paths(digest, tmp: Path) -> int:
    for inst in gap_wrappings():
        path = tmp / f"{inst.name}.mun"
        path.write_text(inst.text, encoding="utf-8")
        for overrides, flags in GAP_PATH_RUNS:
            os.environ["GNSKIT_CAP_OVERRIDES"] = overrides
            report = run(digest, ["bounds", str(path), *flags, "--out", "machine"])
            check_round_trip(inst.name, report.decode("utf-8"))
    return len(GRAPHS) * len(GAP_PATH_RUNS)


def large_dags() -> list[Instance]:
    return [
        Instance(f"dag{i}", dag_network(*params).text(f"dag_network{params}"))
        for i, params in enumerate(LARGE_DAG_SETS)
    ]


def timed(digest, tmp: Path, sets) -> int:
    """The `scale` and `ladder` workloads: `bounds --exact-gns` on the
    dag_network draws of `sets`, printing each report's wall time and that
    of its approximation alone."""
    for params in sets:
        text = dag_network(*params).text(f"dag_network{params}")
        path = tmp / "scale.mun"
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        report = run(digest, ["bounds", str(path), "--exact-gns", "--out", "machine"])
        report_s = time.perf_counter() - start
        check_round_trip(f"dag_network{params}", report.decode("utf-8"))
        net = parse_network(text)
        start = time.perf_counter()
        subset_fes_approx(net)
        approx_s = time.perf_counter() - start
        print(f"dag_network{params}: m = {net.m}, report {report_s:.2f} s, "
              f"approximation {approx_s:.2f} s")
    return len(sets)


def run(digest, argv: list[str]) -> bytes:
    """Run `gnskit ARGV` in-process, add its exit code and stdout to
    `digest`, and return the stdout. Refusal messages on stderr are dropped:
    the exit code records them."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = stdout.getvalue().encode("utf-8")
    digest.update(f"{code} {len(data)}\n".encode("ascii") + data)
    return data


def check_round_trip(name: str, report: str) -> None:
    """Exit non-zero naming the instance unless `report` (empty when the
    command failed) reads back through parse_report to the same text."""
    try:
        same = not report or serialize_report(parse_report(report)) == report
    except FormatError:
        same = False
    if not same:
        sys.exit(f"{name}: the machine report does not round-trip through parse_report")


def codes(digest, tmp: Path) -> int:
    graphs = [g for _, g in GRAPHS] + DRAWS
    for i, g in enumerate(graphs):
        graph = tmp / f"g{i}.dg"
        graph.write_text(serialize_digraph(g), encoding="utf-8")
        for p in CODE_FIELDS:
            field = ["--field", str(p)]
            run(digest, ["minrank", str(graph), *field])
            code = tmp / f"g{i}-{p}.code"
            code.write_bytes(run(digest, ["code", str(graph), *field]))
            run(digest, ["verify", "code", "--graph", str(graph), "--code", str(code)])
    return len(graphs)


def printed_cut(report: bytes) -> list[str]:
    """The link ids of a `gnscut` report's `cut:` line, none if it failed."""
    for line in report.decode("utf-8").splitlines():
        if line.startswith("cut:"):
            return line.split()[1:]
    return []


def networks(digest, seed: int, tmp: Path) -> int:
    instances = corpus(WORKLOADS["sweep-small"], seed, 200) + gap_wrappings()
    for inst in instances:
        path = tmp / f"{inst.name}.mun"
        path.write_text(inst.text, encoding="utf-8")
        approx = printed_cut(run(digest, ["gnscut", str(path), "--approx"]))
        run(digest, ["convert", str(path)])
        for tilde in ([], ["--tilde"]):
            cut = printed_cut(run(digest, ["gnscut", str(path), "--exact", *tilde])) or approx
            for ids in (cut, cut[1:]):
                verify = ["verify", "gnscut", "--network", str(path), "--cut", ",".join(ids)]
                run(digest, [*verify, *tilde])
    for nodes, links, pairs, s in GEN_NETWORKS:
        run(digest, ["gen", "network", "--nodes", str(nodes), "--links", str(links),
                     "--pairs", str(pairs), "--seed", str(s)])
    return len(instances)


def gns_large(digest, tmp: Path) -> int:
    runs = [(inst, ["--tilde"]) for inst in large_dags()]
    runs += [(inst, tilde) for inst in gap_wrappings() for tilde in ([], ["--tilde"])]
    for inst, tilde in runs:
        path = tmp / f"{inst.name}.mun"
        path.write_text(inst.text, encoding="utf-8")
        run(digest, ["gnscut", str(path), "--exact", *tilde])
    return len(runs)


def print_digest(workload: str, seed: int) -> None:
    """Run one workload and print its instance count and digest."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        if workload == CODES:
            os.environ["GNSKIT_CAP_OVERRIDES"] = ""
            count, unit = codes(digest, Path(tmp)), "graphs"
        elif workload == GAP_PATHS:
            count, unit = gap_paths(digest, Path(tmp)), "reports"
        elif workload == GNS_LARGE:
            os.environ["GNSKIT_CAP_OVERRIDES"] = "mais_vertices=128"
            count, unit = gns_large(digest, Path(tmp)), "searches"
        elif workload in (SCALE, LADDER):
            os.environ["GNSKIT_CAP_OVERRIDES"] = ""
            sets = SCALE_SETS if workload == SCALE else LADDER_SETS
            count, unit = timed(digest, Path(tmp), sets), "instances"
        elif workload == NETWORKS:
            os.environ["GNSKIT_CAP_OVERRIDES"] = ""
            count, unit = networks(digest, seed, Path(tmp)), "networks"
        else:
            if workload == GAP_WRAPPINGS:
                instances, flags, overrides = gap_wrappings(), (), "mais_vertices=64"
            elif workload == LARGE_DAGS:
                instances, flags, overrides = large_dags(), (), "mais_vertices=128"
            else:
                spec = WORKLOADS[workload]
                instances = corpus(spec, seed)
                flags, overrides = spec.flags, spec.cap_overrides
            os.environ["GNSKIT_CAP_OVERRIDES"] = overrides
            for inst in instances:
                path = Path(tmp) / f"{inst.name}.mun"
                path.write_text(inst.text, encoding="utf-8")
                report = run(digest, ["bounds", str(path), *flags, "--out", "machine"])
                check_round_trip(inst.name, report.decode("utf-8"))
            count, unit = len(instances), "instances"
    print(f"{workload} seed {seed}: {count} {unit}")
    print(f"sha256 {digest.hexdigest()}", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [
        *WORKLOADS, GAP_WRAPPINGS, LARGE_DAGS, SCALE, GNS_LARGE, NETWORKS, CODES, GAP_PATHS,
        LADDER,
    ]
    parser.add_argument("--workload", default=ALL, choices=sorted([*workloads, ALL]))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for workload in workloads if args.workload == ALL else [args.workload]:
        print_digest(workload, args.seed)


if __name__ == "__main__":
    main()
