#!/usr/bin/env python3
"""Desk-scale tour of the field-separation machinery.

Builds the smallest subset-intersection graph, verifies its symmetry and
the unicast network wrapped around it, then compares minrank across small
prime fields on graphs small enough for the exhaustive search. The
asymptotic rate separation needs astronomically many sources and is out of
reach at desk scale by design; this script shows the structural
ingredients only.
"""

from __future__ import annotations

import argparse

from gnskit import (
    Digraph,
    LSParams,
    complement,
    is_vertex_transitive_under_ground_permutations,
    lubetzky_stav,
    mincut,
    minrank,
    minrank_blowup_normalized,
    network_from_side_info_graph,
    uncertainty_check,
)
from gnskit.bounds import min_fvs_exact, shannon_capacity_lb


def symmetric_cycle(n: int) -> Digraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(v, u) for u, v in edges]
    return Digraph(n, edges)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fields", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args()

    params = LSParams(r=4, s=2, p=2, b=1)
    g = lubetzky_stav(params)
    print(
        f"subset graph r={params.r} s={params.s}: {g.n} vertices, "
        f"{len(g.edges) // 2} symmetric edges"
    )
    print(
        "vertex-transitive under ground permutations:",
        is_vertex_transitive_under_ground_permutations(g),
    )
    print(
        "independence number:", shannon_capacity_lb(g, 1).radicand,
        " acyclic maximum:", g.n - len(min_fvs_exact(g)),
    )

    net = network_from_side_info_graph(g)
    print(
        f"wrapped network: {len(net.nodes)} nodes, {net.m} links, "
        f"{net.k} pairs, mincuts all "
        f"{sorted({mincut(net, s, t) for s, t in net.pairs})}"
    )

    print("\nminrank across fields (exhaustive search, small graphs):")
    samples = {
        "directed 3-cycle": Digraph(3, [(0, 1), (1, 2), (2, 0)]),
        "symmetric 5-cycle": symmetric_cycle(5),
        "complement of 5-cycle": complement(symmetric_cycle(5)),
    }
    for name, sample in samples.items():
        row = [f"F{p}: {minrank(sample, p)[0]}" for p in args.fields]
        print(f"  {name:<24} " + "  ".join(row))

    print("\nblowup-normalized minrank upper bounds on the broadcast rate:")
    c5 = symmetric_cycle(5)
    for p in args.fields:
        print(f"  5-cycle over F{p}: k=1 -> {minrank_blowup_normalized(c5, p, 1)}")

    print("\ncomplementary-rate lower bound (uncertainty check) on the 5-cycle:")
    for p in args.fields:
        print(f"  F{p}: holds = {uncertainty_check(c5, p, 1, 1)}")


if __name__ == "__main__":
    main()
