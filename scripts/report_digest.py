#!/usr/bin/env python3
"""One digest of `gnskit bounds --out machine` over a benchmark corpus.

    python3 scripts/report_digest.py --workload NAME --seed N

Writes the corpus of the workload seed (bench/corpus.py, the generator the
benchmark measures on) to a temporary directory and runs
`gnskit bounds FILE <workload flags> --out machine` on each instance,
in-process through `gnskit.cli.main`, with the workload's
GNSKIT_CAP_OVERRIDES. Prints the instance count and one SHA-256 over every
exit code and standard output, in corpus order. Equal digests at two commits
mean byte-identical reports on that corpus. gnskit is imported from the
`src/` beside this directory.

The workload `gap-wrappings` is not a benchmark corpus: it is the wrappings
of `GRAPHS` in scripts/gap_wrappings.py, reported with
`mais_vertices=64` and no other flag, where the packing leaves a gap below
the minimum feedback vertex set. It takes no seed; `--seed` is ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import WORKLOADS, Instance, corpus  # noqa: E402
from gap_wrappings import GRAPHS  # noqa: E402  (the script beside this one)
from gnskit import cli, network_from_side_info_graph, serialize_network  # noqa: E402

GAP_WRAPPINGS = "gap-wrappings"


def gap_wrappings() -> list[Instance]:
    return [
        Instance(f"gap{i}", serialize_network(network_from_side_info_graph(g), [name]))
        for i, (name, g) in enumerate(GRAPHS)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted([*WORKLOADS, GAP_WRAPPINGS])
    )
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.workload == GAP_WRAPPINGS:
        instances, flags, overrides = gap_wrappings(), (), "mais_vertices=64"
    else:
        workload = WORKLOADS[args.workload]
        instances = corpus(workload, args.seed)
        flags, overrides = workload.flags, workload.cap_overrides
    os.environ["GNSKIT_CAP_OVERRIDES"] = overrides
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for inst in instances:
            path = Path(tmp) / f"{inst.name}.mun"
            path.write_text(inst.text, encoding="utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["bounds", str(path), *flags, "--out", "machine"])
            data = stdout.getvalue().encode("utf-8")
            digest.update(f"{code} {len(data)}\n".encode("ascii") + data)
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
