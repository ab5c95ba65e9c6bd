"""Network model, transforms, and GNS cut machinery."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gnskit.network
from gnskit import (
    ContractViolation,
    FormatError,
    GnsCertificate,
    GnsRefusal,
    MUNetwork,
    bound_report,
    build_network,
    closure_links,
    fvs_to_gns_cut,
    is_gns_cut,
    min_gns_cut_exact,
    mincut,
    parse_network,
    serialize_network,
    tilde_transform,
    to_index_graph,
)
from gnskit.bounds import mais_exact, min_fvs_exact
from gnskit.instances import network_from_side_info_graph, random_dag_network

from helpers import (
    DIAMOND,
    PARALLEL_LINKS,
    SINGLE_PATH,
    TWO_DISJOINT,
    crossed_unicasts,
    is_feedback_set,
    oracle_is_gns,
    oracle_min_gns_size,
    oracle_mincut,
    reference_mais_size,
    reference_min_gns_cut_exact,
    reference_unit_maxflow,
    symmetric_cycle,
)


def corpus(count=25, max_pairs=3):
    nets = []
    seed = 0
    while len(nets) < count:
        seed += 1
        try:
            net = random_dag_network(6, 6, 1 + seed % max_pairs, seed=seed)
        except ValueError:
            continue
        if net.m <= 10:
            nets.append(net)
    return nets


@st.composite
def small_networks(draw):
    """A random DAG network, staged or not, with at most 12 cuttable links."""
    nodes = draw(st.integers(2, 7))
    links = draw(st.integers(nodes - 1, nodes + 4))
    pairs = draw(st.integers(1, nodes // 2))
    try:
        net = random_dag_network(nodes, links, pairs, seed=draw(st.integers(0, 2**16)))
    except ValueError:  # no pair of distinct endpoints is connected
        assume(False)
    if draw(st.booleans()):
        net = tilde_transform(net)
    assume(len(net.regular_links()) <= 12)
    return net


@st.composite
def dag_networks(draw):
    """A `build_network` DAG of at most 9 links, parallel ones allowed, whose
    pairs may be unreachable (mincut 0) and may share endpoints."""
    n = draw(st.integers(2, 6))
    links = []
    for _ in range(draw(st.integers(0, 9))):
        i = draw(st.integers(0, n - 2))
        links.append((i, draw(st.integers(i + 1, n - 1))))
    k = draw(st.integers(1, n // 2))
    ends = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    pairs = list(zip(draw(ends), draw(ends)))
    assume(all(s != t for s, t in pairs))
    name = [f"v{i}" for i in range(n)]
    return build_network(
        name,
        [(name[i], name[j]) for i, j in links],
        [(name[s], name[t]) for s, t in pairs],
        require_reachable=False,
    )


class TestParsing:
    def test_single_path_synthesis(self):
        net = parse_network(SINGLE_PATH)
        assert net.m == 3  # two regular + one source link
        assert net.source_links == ((2,),)
        assert net.links[2].tail is None and net.links[2].head == "s"

    def test_parallel_links_synthesis(self):
        net = parse_network(PARALLEL_LINKS)
        assert net.m == 4
        assert net.source_links == ((2, 3),)

    def test_cycle_rejected(self):
        text = "network\nnode a\nnode b\nlink a b\nlink b a\npair a b\n"
        with pytest.raises(FormatError, match="cycle"):
            parse_network(text)

    def test_unknown_node(self):
        with pytest.raises(FormatError, match="unknown"):
            parse_network("network\nnode a\nlink a b\npair a b\n")

    def test_same_endpoints_pair(self):
        with pytest.raises(FormatError, match="identical"):
            parse_network("network\nnode a\npair a a\n")

    def test_unreachable_pair(self):
        with pytest.raises(FormatError, match="unreachable"):
            parse_network("network\nnode a\nnode b\npair a b\n")

    def test_round_trip(self):
        for text in (SINGLE_PATH, PARALLEL_LINKS, DIAMOND, TWO_DISJOINT):
            net = parse_network(text)
            assert parse_network(serialize_network(net)) == net

    def test_tilde_round_trip(self):
        til = tilde_transform(parse_network(PARALLEL_LINKS))
        assert parse_network(serialize_network(til)) == til

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=4))
    @example("")
    @example("a b")
    @example("a\u2003")
    @example("#")
    def test_node_names_without_whitespace_or_hash(self, name):
        # a name is refused exactly when it is empty or holds "#" or any
        # character that str.isspace calls whitespace
        bad = not name or "#" in name or any(c.isspace() for c in name)
        if bad:
            with pytest.raises(FormatError, match="bad node name"):
                build_network([name], [], [])
        else:
            assert build_network([name], [], []).nodes == (name,)


class TestMincut:
    def test_disconnected(self):
        net = parse_network(TWO_DISJOINT)
        assert mincut(net, "s1", "t2") == 0

    def test_parallel(self):
        net = parse_network(PARALLEL_LINKS)
        assert mincut(net, "s", "t") == 2

    def test_diamond(self):
        net = parse_network(DIAMOND)
        assert oracle_mincut(net, "s", "t") == 2
        assert mincut(net, "s", "t") == 2

    def test_matches_oracle_on_corpus(self):
        for net in corpus(10):
            for s, t in net.pairs:
                assert mincut(net, s, t) == oracle_mincut(net, s, t)

    @settings(max_examples=150, deadline=None)
    @given(dag_networks())
    # its 3 units need a backward residual arc: forward arcs alone find 2
    @example(build_network(
        ["s", "a", "b", "c", "d", "t"],
        [("s", "c"), ("s", "a"), ("s", "b"), ("d", "t"), ("c", "t"), ("a", "c"), ("c", "t"),
         ("a", "d"), ("b", "c")],
        [("s", "t")],
    ))
    def test_matches_the_reference_maxflow(self, net):
        staged = tilde_transform(net)
        for i, (s, t) in enumerate(net.pairs):
            expected = oracle_mincut(net, s, t)
            assert reference_unit_maxflow(net.links, net.nodes, s, t) == expected
            assert mincut(net, s, t) == expected
            assert len(net.source_links[i]) == expected
            stage = staged.pairs[i][0]
            assert reference_unit_maxflow(staged.links, staged.nodes, stage, t) == expected
            assert mincut(staged, stage, t) == expected


class TestIndexGraph:
    def test_single_link_two_cycle(self):
        net = parse_network("network\nnode s\nnode t\nlink s t\npair s t\n")
        g, lmap = to_index_graph(net)
        assert g.n == 2
        assert g.edges == frozenset({(0, 1), (1, 0)})
        assert lmap.vertex_to_id == (0, 1)

    def test_parallel_links_bipartite(self):
        g, _ = to_index_graph(parse_network(PARALLEL_LINKS))
        expected = {(u, v) for u in (0, 1) for v in (2, 3)}
        expected |= {(v, u) for (u, v) in expected}
        assert g.edges == frozenset(expected)
        assert mais_exact(g)[0] == 2

    def test_two_disjoint_two_cycles(self):
        g, _ = to_index_graph(parse_network(TWO_DISJOINT))
        assert g.edges == frozenset({(0, 2), (2, 0), (1, 3), (3, 1)})

    @settings(max_examples=150, deadline=None)
    @given(dag_networks())
    def test_is_the_reversed_line_graph_of_the_closure(self, net):
        # read off the network's link graph, with each pair's source links
        # leaving its destination; the closure spells that out link by link
        closed = closure_links(net)
        expected = {(v.id, w.id) for v in closed for w in closed if w.tail == v.head}
        g, lmap = to_index_graph(net)
        assert (g.n, g.edges) == (net.m, frozenset(expected))
        assert lmap.vertex_to_id == lmap.id_to_vertex == tuple(range(net.m))


class TestOneFrontEndPerNetwork:
    """Each network builds its link graph and its closure once, on first
    use, and keeps both; neither takes part in equality."""

    def test_a_report_builds_one_link_graph_per_network(self, monkeypatch):
        built = []
        real = gnskit.network._link_graph

        def spy(nodes, links):
            built.append(tuple(nodes))
            return real(nodes, links)

        monkeypatch.setattr(gnskit.network, "_link_graph", spy)
        net = parse_network(PARALLEL_LINKS)
        assert built == [net.nodes]  # the one parse_network's checks used
        bound_report(net, exact_gns=True)
        mincut(net, "s", "t")
        is_gns_cut(net, [])
        # the staged network, built by the report, adds the second
        assert len(built) == 2 and built[1] == tilde_transform(net).nodes

    def test_the_closure_is_built_once(self):
        net = parse_network(DIAMOND)
        assert closure_links(net) is closure_links(net)

    def test_caches_take_no_part_in_equality(self):
        net = parse_network(DIAMOND)
        twin = MUNetwork(net.nodes, net.links, net.pairs, net.source_links)  # nothing cached
        assert "_graph" in vars(net) and "_graph" not in vars(twin)
        assert twin == net and hash(twin) == hash(net)
        assert twin._graph == net._graph and closure_links(twin) == closure_links(net)


class TestTildeTransform:
    def test_single_pair_growth(self):
        net = parse_network("network\nnode s\nnode t\nlink s t\npair s t\n")
        til = tilde_transform(net)
        assert len(til.nodes) == len(net.nodes) + 1
        assert til.m == net.m + 1
        # the old source link is now a regular, cuttable link with the same id
        migrated = til.links[1]
        assert migrated.tail == "~s1" and migrated.head == "s"

    def test_parallel_links_counts(self):
        til = tilde_transform(parse_network(PARALLEL_LINKS))
        assert til.m == 6
        assert len(til.source_links[0]) == 2

    def test_pair_count_preserved(self):
        for text in (PARALLEL_LINKS, TWO_DISJOINT, DIAMOND):
            net = parse_network(text)
            assert tilde_transform(net).k == net.k

    def test_name_collision_avoided(self):
        text = "network\nnode ~s1\nnode t\nlink ~s1 t\npair ~s1 t\n"
        til = tilde_transform(parse_network(text))
        assert len(set(til.nodes)) == len(til.nodes)


class TestIsGnsCut:
    def test_full_cut_accepted(self):
        net = parse_network(PARALLEL_LINKS)
        res = is_gns_cut(net, {0, 1})
        assert isinstance(res, GnsCertificate)

    def test_empty_cut_refused_with_self_loop(self):
        net = parse_network(SINGLE_PATH)
        res = is_gns_cut(net, set())
        assert isinstance(res, GnsRefusal)
        assert res.witness == (0,)

    def test_crossed_unicasts_two_cycle_witness(self):
        net = crossed_unicasts()
        res = is_gns_cut(net, set())
        assert isinstance(res, GnsRefusal)
        assert res.witness == (0, 1)

    def test_source_links_not_cuttable(self):
        net = parse_network(SINGLE_PATH)
        with pytest.raises(ValueError, match="source link"):
            is_gns_cut(net, {2})

    def test_unknown_ids(self):
        net = parse_network(SINGLE_PATH)
        with pytest.raises(ValueError, match="unknown"):
            is_gns_cut(net, {99})

    def test_certificate_matches_permutation_oracle(self):
        from itertools import combinations

        for net in corpus(8):
            cuttable = sorted(e.id for e in net.links if e.tail is not None)
            for size in range(min(3, len(cuttable)) + 1):
                for combo in combinations(cuttable, size):
                    got = is_gns_cut(net, combo)
                    assert isinstance(got, GnsCertificate) == oracle_is_gns(
                        net, frozenset(combo)
                    )

    def test_permutation_oracle_with_many_pairs(self):
        # wider networks: the checker must agree with the k!-permutation
        # definition up to five pairs
        nets = []
        for seed in range(1, 200):
            if len(nets) == 3:
                break
            try:
                nets.append(random_dag_network(10, 9, 4 + seed % 2, seed=seed))
            except ValueError:
                continue
        assert nets
        for net in nets:
            cuttable = sorted(e.id for e in net.links if e.tail is not None)
            from itertools import combinations

            subsets = [()] + [(e,) for e in cuttable]
            subsets += list(combinations(cuttable, 2))[:40]
            for combo in subsets:
                got = is_gns_cut(net, combo)
                assert isinstance(got, GnsCertificate) == oracle_is_gns(
                    net, frozenset(combo)
                )


class TestSharedEndpointConvention:
    def test_source_equal_to_other_destination(self):
        # pair 2's source is pair 1's destination; a zero-length path counts
        # as a path, and the checker must agree with the permutation oracle
        from gnskit import build_network
        from itertools import combinations

        net = build_network(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c")],
            [("a", "b"), ("b", "c")],
        )
        cuttable = sorted(e.id for e in net.links if e.tail is not None)
        for size in range(len(cuttable) + 1):
            for combo in combinations(cuttable, size):
                got = is_gns_cut(net, combo)
                assert isinstance(got, GnsCertificate) == oracle_is_gns(
                    net, frozenset(combo)
                )


class TestMinGnsCutExact:
    def test_single_path(self):
        cert = min_gns_cut_exact(parse_network(SINGLE_PATH))
        assert len(cert.cut) == 1

    def test_single_path_of_three_links(self):
        text = (
            "network\nnode s\nnode a\nnode b\nnode t\n"
            "link s a\nlink a b\nlink b t\npair s t\n"
        )
        cert = min_gns_cut_exact(parse_network(text))
        assert len(cert.cut) == 1
        assert cert.cut == frozenset({0})  # lexicographically first path edge

    def test_cap_names_approximation(self):
        import pytest as _pytest
        from gnskit import CapacityError

        net = parse_network(DIAMOND)
        with _pytest.raises(CapacityError, match="approximation"):
            min_gns_cut_exact(net, cuttable_cap=2)

    def test_two_disjoint(self):
        cert = min_gns_cut_exact(parse_network(TWO_DISJOINT))
        assert len(cert.cut) == 2

    def test_tilde_parallel_links_matches_mais(self):
        net = parse_network(PARALLEL_LINKS)
        g, _ = to_index_graph(net)
        cert = min_gns_cut_exact(tilde_transform(net))
        assert oracle_min_gns_size(tilde_transform(net)) == 2
        assert len(cert.cut) == net.m - mais_exact(g)[0] == 2

    def test_deterministic_tie_break(self):
        cert = min_gns_cut_exact(tilde_transform(parse_network(PARALLEL_LINKS)))
        assert sorted(cert.cut) == [0, 1]

    def test_matches_brute_force_on_corpus(self):
        for net in corpus(6):
            assert len(min_gns_cut_exact(net).cut) == oracle_min_gns_size(net)

    @settings(max_examples=200, deadline=None)
    @given(small_networks())
    def test_matches_the_reference_search(self, net):
        assert min_gns_cut_exact(net) == reference_min_gns_cut_exact(net)

    @settings(max_examples=300, deadline=None)
    @given(dag_networks(), st.booleans())
    # a pair of mincut 0 beside a reachable one
    @example(build_network(["a", "b", "c"], [("a", "b")], [("a", "b"), ("b", "c")]), False)
    # a source that is another pair's destination, on parallel links
    @example(build_network(
        ["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "c")], [("a", "b"), ("b", "c")]
    ), False)
    # pairs (x, y) and (y, x) where y does not reach x: no cut unstaged
    @example(build_network(["x", "y"], [("x", "y")], [("x", "y"), ("y", "x")]), False)
    @example(build_network(["x", "y"], [("x", "y")], [("x", "y"), ("y", "x")]), True)
    def test_matches_the_reference_on_any_pairs(self, net, staged):
        if staged:
            net = tilde_transform(net)
        assume(len(net.regular_links()) <= 14)
        try:
            expected = reference_min_gns_cut_exact(net)
        except AssertionError:  # the reference finds no GNS cut
            with pytest.raises(ContractViolation, match="no GNS cut"):
                min_gns_cut_exact(net)
        else:
            assert min_gns_cut_exact(net) == expected

    def test_the_report_fvs_is_the_staged_cut(self):
        # a minimum FVS of the index graph, certified on the staged network,
        # is a minimum GNS cut of it
        for net in corpus(10):
            g, _ = to_index_graph(net)
            staged = tilde_transform(net)
            fvs = min_fvs_exact(g)
            assert len(fvs) == g.n - reference_mais_size(g)
            assert is_feedback_set(g, fvs)
            cert = is_gns_cut(staged, fvs)
            assert isinstance(cert, GnsCertificate) and cert.cut == fvs
            assert len(fvs) == len(min_gns_cut_exact(staged).cut)

    def test_closing_links_alone_cyclic_has_no_cut(self):
        net = build_network(["x", "y"], [("x", "y")], [("x", "y"), ("y", "x")])
        with pytest.raises(ContractViolation, match="no GNS cut"):
            min_gns_cut_exact(net)
        cert = min_gns_cut_exact(tilde_transform(net))
        assert isinstance(is_gns_cut(tilde_transform(net), cert.cut), GnsCertificate)

    @pytest.mark.parametrize(
        "net",
        [
            network_from_side_info_graph(symmetric_cycle(5)),
            network_from_side_info_graph(symmetric_cycle(7)),
            random_dag_network(22, 60, 5, 3),
        ],
        ids=["bidirected-C5", "bidirected-C7", "random_dag_network(22,60,5,3)"],
    )
    def test_staged_cut_is_m_minus_mais_past_old_cap(self, net):
        # m = 26, 36 and 66 cuttable links, where subset enumeration stopped at 18
        staged = tilde_transform(net)
        g, _ = to_index_graph(net)
        cert = min_gns_cut_exact(staged, cuttable_cap=128)
        assert len(cert.cut) == net.m - mais_exact(g, 128)[0]
        assert is_gns_cut(staged, cert.cut) == cert


class TestCutBoundChain:
    def test_domination_on_corpus(self):
        # m - mais(G) is at most the minimum GNS cut of the original network
        for net in corpus(12):
            g, _ = to_index_graph(net)
            gap = net.m - mais_exact(g)[0]
            assert gap <= len(min_gns_cut_exact(net).cut)

    def test_equality_on_tilde_corpus(self):
        for net in corpus(12):
            g, _ = to_index_graph(net)
            assert net.m - mais_exact(g)[0] == len(
                min_gns_cut_exact(tilde_transform(net)).cut
            )


class TestFvsToGnsCut:
    def test_single_link_source_vertex(self):
        net = parse_network("network\nnode s\nnode t\nlink s t\npair s t\n")
        cert = fvs_to_gns_cut(net, {1})
        assert cert.cut == frozenset({1})
        til = tilde_transform(net)
        assert til.links[1].tail == "~s1"

    def test_all_vertices_always_valid(self):
        net = parse_network(PARALLEL_LINKS)
        cert = fvs_to_gns_cut(net, {0, 1, 2, 3})
        assert len(cert.cut) == 4

    def test_minimum_fvs_maps_to_minimum_cut(self):
        net = parse_network(PARALLEL_LINKS)
        g, _ = to_index_graph(net)
        fvs = min_fvs_exact(g)
        assert len(fvs) == 2
        cert = fvs_to_gns_cut(net, fvs)
        assert len(cert.cut) == 2
        assert len(cert.cut) == len(min_gns_cut_exact(tilde_transform(net)).cut)

    def test_rejects_non_fvs(self):
        net = parse_network(PARALLEL_LINKS)
        with pytest.raises(ContractViolation) as err:
            fvs_to_gns_cut(net, set())
        assert err.value.witness is not None

    def test_corpus_outputs_verify(self):
        for net in corpus(8):
            g, _ = to_index_graph(net)
            cert = fvs_to_gns_cut(net, min_fvs_exact(g))
            til = tilde_transform(net)
            assert isinstance(is_gns_cut(til, cert.cut), GnsCertificate)

    def test_inverse_mapping_is_fes(self):
        # any exact minimum staged cut pulls back to a feedback edge set of
        # the closure with the same size
        import networkx as nx

        for net in corpus(6):
            til = tilde_transform(net)
            cert = min_gns_cut_exact(til)
            d = nx.DiGraph()
            for e in closure_links(net):
                if e.id not in cert.cut:
                    d.add_edge(e.tail, e.head)
            assert nx.is_directed_acyclic_graph(d)
