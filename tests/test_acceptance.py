"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them).

Corpora are seeded and deterministic. Every expected value is either exact
integer/rational arithmetic or was pinned from an independent oracle run;
nothing is tuned to the implementation under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

import pytest

from gnskit import (
    CapacityError,
    Digraph,
    LSParams,
    blowup,
    build_cycle_code,
    co_rate_from_beta,
    complement,
    is_vertex_transitive_under_ground_permutations,
    lubetzky_stav,
    min_gns_cut_exact,
    mincut,
    minrank,
    network_from_side_info_graph,
    parse_network,
    rcp_exact,
    solve_spreading_metric,
    strong_product,
    subset_fes_approx,
    tensor_power,
    tilde_transform,
    to_index_graph,
    verify_index_code,
    verify_product_blowup_embedding,
)
from gnskit.bounds import mais_exact, shannon_capacity_lb
from gnskit.cyclepack import vertex_split_links
from gnskit.digraph import enumerate_simple_cycles
from gnskit.instances import random_dag_network, random_digraph
from gnskit.network import closure_links

from helpers import PARALLEL_LINKS, run_cli


def network_corpus(count: int = 200):
    """Seeded networks with up to 4 pairs and at most 14 links overall, so
    the staged network stays inside the exact GNS search cap."""
    nets = []
    seed = 0
    while len(nets) < count:
        seed += 1
        k = 1 + (seed % 4)
        nodes = 4 + (seed % 4)
        links = 3 + (seed % 6)
        if 2 * k > nodes:
            continue
        try:
            net = random_dag_network(nodes, links, k, seed=seed)
        except ValueError:
            continue
        if net.m <= 14:
            nets.append(net)
    return nets


def digraph_corpus(count: int = 200, max_cycles: int = 400):
    graphs = []
    seed = 0
    while len(graphs) < count:
        seed += 1
        n = 3 + (seed % 8)
        g = random_digraph(n, 0.25, seed)
        try:
            enumerate_simple_cycles(g, cap=max_cycles)
        except CapacityError:
            continue
        graphs.append(g)
    return graphs


@pytest.fixture(scope="module")
def nets():
    return network_corpus()


@pytest.fixture(scope="module")
def graphs():
    return digraph_corpus()


def test_criterion_1_gns_mais_equivalence(nets):
    for net in nets:
        g, _ = to_index_graph(net)
        mais_value = mais_exact(g)[0]
        cert = min_gns_cut_exact(tilde_transform(net))
        assert net.m - mais_value == len(cert.cut)
    print(
        f"PASS criterion 1: m - mais == staged min GNS cut on {len(nets)} networks"
    )


def test_criterion_2_gns_domination(nets):
    for net in nets:
        g, _ = to_index_graph(net)
        mais_value = mais_exact(g)[0]
        cert = min_gns_cut_exact(net)
        assert net.m - mais_value <= len(cert.cut)
    print(f"PASS criterion 2: m - mais <= original min GNS cut on {len(nets)} networks")


def test_criterion_3_lp_duality(graphs):
    for g in graphs:
        packing = rcp_exact(g)
        assert packing.value <= Fraction(g.n - mais_exact(g)[0])
        links, terminals = vertex_split_links(g)
        metric = solve_spreading_metric(links, terminals)
        assert metric.objective == packing.value
    print(
        f"PASS criterion 3: weak duality and exact strong duality on "
        f"{len(graphs)} digraphs"
    )


def test_criterion_4_approximation_regression(nets):
    import networkx as nx

    max_ratio = 0.0
    for net in nets:
        result = subset_fes_approx(net)
        d = nx.DiGraph()
        d.add_nodes_from(net.nodes)
        for e in closure_links(net):
            if e.id not in result.fes:
                d.add_edge(e.tail, e.head)
        assert nx.is_directed_acyclic_graph(d)
        g, _ = to_index_graph(net)
        rcp = rcp_exact(g).value
        weight = result.diagnostics.weight
        if rcp == 0:
            assert weight == 0
        else:
            ratio = float(Fraction(weight) / rcp)
            max_ratio = max(max_ratio, ratio)
            assert weight <= 8 * math.log(net.k + 1) ** 2 * rcp
    print(
        f"PASS criterion 4: verified FES within the regression bound on "
        f"{len(nets)} networks; empirical max weight/rcp = {max_ratio:.3f}"
    )


def test_criterion_5_graph_identity_suite():
    def mais(g):
        return mais_exact(g, g.n)[0]  # uncapped

    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        n1 = 1 + (seed % 5)
        n2 = 1 + ((seed // 5) % 5)
        g = random_digraph(n1, 0.5, seed)
        h = random_digraph(n2, 0.5, seed + 10_000)
        k = 1 + (seed % 3)
        q = 1 + (seed % 2)

        assert mais(strong_product(g, h)) >= mais(g) * mais(h)
        assert mais(tensor_power(g, q)) >= mais(g) ** q
        b = blowup(g, k)
        assert shannon_capacity_lb(b, 1).radicand == k * shannon_capacity_lb(g, 1).radicand
        assert mais(b) == k * mais(g)
        ok, _ = verify_product_blowup_embedding([g, h], [k, 1 + (seed % 2)])
        assert ok
        assert shannon_capacity_lb(strong_product(g, complement(g)), 1).radicand >= g.n
        checked += 1
    print(f"PASS criterion 5: product/blowup identity suite on {checked} samples")


def test_criterion_6_minrank_suite():
    # exhaustively over every digraph on up to 4 vertices over GF(2)
    total = 0
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in iproduct([0, 1], repeat=len(pairs)):
            g = Digraph(n, [e for e, b in zip(pairs, bits) if b])
            mr = minrank(g, 2)[0]
            assert mais_exact(g)[0] <= mr
            assert mr * minrank(complement(g), 2)[0] >= n
            total += 1

    # plus 100 random graphs on 5 vertices, both sides inside the edge cap
    fives = 0
    seed = 0
    while fives < 100:
        seed += 1
        g = random_digraph(5, 0.5, seed)
        if not 4 <= len(g.edges) <= 16:
            continue
        mr = minrank(g, 2)[0]
        assert mais_exact(g)[0] <= mr
        assert mr * minrank(complement(g), 2)[0] >= 5
        fives += 1

    # submultiplicativity on random pairs with n <= 3 whose product fits
    pairs_checked = 0
    seed = 50_000
    while pairs_checked < 30:
        seed += 1
        g = random_digraph(1 + (seed % 3), 0.35, seed)
        h = random_digraph(1 + ((seed // 3) % 3), 0.35, seed + 1)
        prod = strong_product(g, h)
        if len(prod.edges) > 16:
            continue
        assert minrank(g, 2)[0] * minrank(h, 2)[0] >= minrank(prod, 2)[0]
        pairs_checked += 1
    print(
        f"PASS criterion 6: minrank suite on {total} exhaustive graphs, "
        f"{fives} five-vertex graphs, {pairs_checked} product pairs"
    )


def test_criterion_7_cycle_code_achievability():
    built = 0
    skipped = 0
    seed = 0
    while built + skipped < 100:
        seed += 1
        n = 3 + (seed % 6)
        g = random_digraph(n, 0.3, seed)
        try:
            packing = rcp_exact(g, cycle_cap=2000)
        except CapacityError:
            continue
        try:
            code = build_cycle_code(g, packing, 2, lcm_cap=64)
        except CapacityError:
            skipped += 1
            continue
        assert verify_index_code(g, code) == (True, None)
        assert code.rate == g.n - packing.value
        built += 1
    assert built >= 90  # the cap may skip a few, never the bulk
    print(
        f"PASS criterion 7: {built} cycle codes decodable at rate n - rcp "
        f"({skipped} skipped at the subsymbol cap)"
    )


def test_criterion_8_end_to_end_fixture():
    net = parse_network(PARALLEL_LINKS)
    g, _ = to_index_graph(net)
    assert net.m == 4
    mais_value = mais_exact(g)[0]
    assert mais_value == 2
    packing = rcp_exact(g)
    assert packing.value == 2
    cert = min_gns_cut_exact(tilde_transform(net))
    assert len(cert.cut) == 2
    code = build_cycle_code(g, packing, 2)
    assert code.rate == 2
    assert co_rate_from_beta(net.m, code.rate) == 2
    print(
        "PASS criterion 8: parallel-links fixture m=4 mais=2 rcp=2 gns~=2 "
        "rate=2 co>=2"
    )


def test_criterion_9_separation_constructions():
    g = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
    assert g.n == 6
    # 12 edges as unordered adjacencies; the symmetric digraph stores both
    # orientations, hence 24 ordered pairs (each vertex has degree 4)
    assert all((v, u) in g.edges for (u, v) in g.edges)
    assert len({frozenset(e) for e in g.edges}) == 12
    assert len(g.edges) == 24
    assert is_vertex_transitive_under_ground_permutations(g)
    net = network_from_side_info_graph(g)
    assert len(net.nodes) == 14
    for s, t in net.pairs:
        assert mincut(net, s, t) == 1
    print(
        "PASS criterion 9: separation constructions (6 vertices, 12 symmetric "
        "edges, transitive; 14-node network, all mincuts 1)"
    )


def test_criterion_10_determinism(tmp_path):
    par = tmp_path / "parallel.mun"
    par.write_text(PARALLEL_LINKS)
    c3 = tmp_path / "c3.dg"
    c3.write_text("digraph 3\ne 0 1\ne 1 2\ne 2 0\n")
    code_file = tmp_path / "c3.code"
    rc, out, err = run_cli(["code", str(c3), "--output", str(code_file)], str(tmp_path))
    assert rc == 0, err

    invocations = [
        ["bounds", str(par), "--exact-gns", "--out", "machine"],
        ["gnscut", str(par), "--tilde", "--exact"],
        ["gnscut", str(par), "--approx"],
        ["convert", str(par)],
        ["cyclepack", str(par), "--from-network"],
        ["minrank", str(c3), "--field", "2"],
        ["code", str(c3), "--field", "2"],
        ["gen", "digraph", "--n", "6", "--prob", "0.5", "--seed", "11"],
        ["gen", "network", "--nodes", "6", "--links", "6", "--pairs", "2",
         "--seed", "4"],
        ["gen", "lubetzky-stav", "--r", "4", "--s", "2", "--p", "2", "--b", "1"],
        ["verify", "code", "--graph", str(c3), "--code", str(code_file)],
        ["verify", "gnscut", "--network", str(par), "--tilde", "--cut", "0,1"],
    ]
    for args in invocations:
        rc1, out1, err1 = run_cli(["--threads", "1", *args], str(tmp_path))
        rc2, out2, err2 = run_cli(["--threads", "3", *args], str(tmp_path))
        assert rc1 == rc2, (args, err1, err2)
        assert out1 == out2, args
        assert out1, args
    print(
        f"PASS criterion 10: {len(invocations)} subcommand invocations byte-identical "
        "across thread counts"
    )
