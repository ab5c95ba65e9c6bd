"""Generators: separation graphs, embedding networks, random instances."""

import math
from itertools import combinations

import networkx as nx
import pytest

from gnskit import (
    CapacityError,
    Digraph,
    LSParams,
    complement,
    is_vertex_transitive_under_ground_permutations,
    lubetzky_stav,
    mincut,
    network_from_side_info_graph,
    parse_network,
    random_dag_network,
    random_digraph,
    serialize_network,
    to_index_graph,
)

from helpers import directed_cycle


class TestLSParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LSParams(r=2, s=3, p=2, b=1)
        with pytest.raises(ValueError, match="prime"):
            LSParams(r=4, s=2, p=4, b=1)
        with pytest.raises(ValueError):
            LSParams(r=4, s=2, p=2, b=0)


class TestLubetzkyStav:
    def test_small_instance_structure(self):
        g = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
        assert g.n == 6
        # adjacency iff the two 2-subsets overlap in exactly one element:
        # 12 unordered pairs, hence 24 ordered edges and undirected degree 4
        by_label = {g.label(v): v for v in range(g.n)}
        for la, lb in combinations(by_label, 2):
            sa = set(int(x) for x in la.split(","))
            sb = set(int(x) for x in lb.split(","))
            expected = len(sa & sb) % 2 == 1
            assert ((by_label[la], by_label[lb]) in g.edges) == expected
            assert ((by_label[lb], by_label[la]) in g.edges) == expected
        assert len(g.edges) == 24
        assert all(len(g.out_neighbors(v)) == 4 for v in range(g.n))

    def test_degenerate_single_vertex(self):
        g = lubetzky_stav(LSParams(r=3, s=3, p=2, b=1))
        assert g.n == 1 and not g.edges

    @pytest.mark.parametrize("r,s", [(4, 2), (5, 2), (5, 3), (6, 1)])
    def test_vertex_count(self, r, s):
        g = lubetzky_stav(LSParams(r=r, s=s, p=2, b=1))
        assert g.n == math.comb(r, s)

    def test_complemented_variant(self):
        plain = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
        comp = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1, complemented=True))
        assert comp == complement(plain)

    def test_colex_vertex_order(self):
        g = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
        assert g.labels == ("0,1", "0,2", "1,2", "0,3", "1,3", "2,3")

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            lubetzky_stav(LSParams(r=20, s=10, p=2, b=1), vertex_cap=5000)


class TestVertexTransitivity:
    def test_ls_instance_transitive(self):
        g = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
        assert is_vertex_transitive_under_ground_permutations(g)

    def test_single_vertex(self):
        g = lubetzky_stav(LSParams(r=2, s=2, p=2, b=1))
        assert is_vertex_transitive_under_ground_permutations(g)

    def test_broken_copy_detected(self):
        g = lubetzky_stav(LSParams(r=4, s=2, p=2, b=1))
        removed = next(iter(sorted(g.edges)))
        broken = Digraph(g.n, g.edges - {removed}, g.labels)
        assert not is_vertex_transitive_under_ground_permutations(broken)

    def test_requires_labels(self):
        with pytest.raises(ValueError, match="labels"):
            is_vertex_transitive_under_ground_permutations(Digraph(2, [(0, 1)]))


class TestNetworkFromSideInfoGraph:
    def test_single_vertex(self):
        net = network_from_side_info_graph(Digraph(1))
        assert set(net.nodes) == {"s1", "t1", "a", "b"}
        regs = [(e.tail, e.head) for e in net.regular_links()]
        assert regs == [("s1", "a"), ("a", "b"), ("b", "t1")]
        assert mincut(net, "s1", "t1") == 1

    def test_counting(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        net = network_from_side_info_graph(g)
        assert len(net.nodes) == 2 * 4 + 2
        regular = len(list(net.regular_links()))
        assert regular == len(g.edges) + 2 * 4 + 1
        assert net.m == regular + 4  # one source link per pair

    def test_three_cycle_mincuts(self):
        net = network_from_side_info_graph(directed_cycle(3))
        for s, t in net.pairs:
            assert mincut(net, s, t) == 1

    def test_side_info_paths_embed(self):
        # every graph edge yields a bottleneck-free source-to-destination path,
        # visible in the index graph restricted to source-link vertices
        g = Digraph(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
        net = network_from_side_info_graph(g)
        idx, lmap = to_index_graph(net)
        d = nx.DiGraph()
        d.add_edges_from(idx.edges)
        src_vertex = {}
        for i, group in enumerate(net.source_links):
            (eid,) = group
            src_vertex[i] = lmap.id_to_vertex.index(eid)
        for u, v in g.edges:
            # source link of u reaches source link of v without the a->b link
            ab_vertex = next(
                w
                for w, e in enumerate(net.links)
                if e.tail == "a" and e.head == "b"
            )
            sub = d.subgraph(set(d.nodes) - {ab_vertex})
            assert nx.has_path(sub, src_vertex[u], src_vertex[v])

    def test_parses_back(self):
        net = network_from_side_info_graph(directed_cycle(3))
        assert parse_network(serialize_network(net)) == net


class TestRandomInstances:
    def test_digraph_deterministic(self):
        a = random_digraph(8, 0.5, seed=7)
        b = random_digraph(8, 0.5, seed=7)
        assert a == b
        # golden value pinned at first generation
        assert len(a.edges) == 33

    def test_network_deterministic_serialization(self):
        a = serialize_network(random_dag_network(6, 7, 2, seed=3))
        b = serialize_network(random_dag_network(6, 7, 2, seed=3))
        assert a == b

    def test_network_parses(self):
        net = random_dag_network(5, 5, 1, seed=11)
        assert parse_network(serialize_network(net)) == net

    def test_unreachable_raises(self):
        with pytest.raises(ValueError, match="retries"):
            random_dag_network(4, 0, 2, seed=1, max_retries=5)

    def test_oversize_requests_are_refused_before_they_are_built(self, monkeypatch):
        # a draw past the cap would call the generators' random source first
        monkeypatch.setattr("random.Random", None)
        with pytest.raises(CapacityError, match="6 vertices exceed the vertex cap of 5"):
            random_digraph(6, 0.5, seed=1, vertex_cap=5)
        for nodes, links in ((6, 5), (5, 6)):
            with pytest.raises(CapacityError, match="more than the vertex cap of 5"):
                random_dag_network(nodes, links, 1, seed=1, vertex_cap=5)
        with pytest.raises(CapacityError, match="10.0 expected edges exceed the vertex cap of 5"):
            random_digraph(5, 0.5, seed=1, vertex_cap=5)
        monkeypatch.undo()
        assert random_digraph(5, 0.25, seed=1, vertex_cap=5).n == 5
        assert random_dag_network(5, 5, 1, seed=11, vertex_cap=5) == random_dag_network(5, 5, 1, 11)
