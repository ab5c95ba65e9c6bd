"""Digraph algebra: products, blowups, cycles, embeddings, file format."""

import gc
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gnskit import (
    CapacityError,
    ContractViolation,
    Digraph,
    FormatError,
    blowup,
    complement,
    enumerate_simple_cycles,
    parse_digraph,
    serialize_digraph,
    strong_product,
    tensor_power,
    verify_product_blowup_embedding,
)
import gnskit.digraph as digraph_mod
from gnskit.bounds import mais_exact, min_fvs_exact, shannon_capacity_lb
from gnskit.digraph import (
    _acyclic,
    _disjoint_cycles,
    _find_cycle,
    _largest_acyclic,
    _masks,
    _max_acyclic,
    _search_order,
)
from gnskit.instances import random_digraph

from helpers import (
    complete_digraph,
    directed_cycle,
    oracle_alpha,
    oracle_cycles,
    oracle_mais,
    reference_enumerate_simple_cycles,
    reference_find_cycle,
    reference_max_acyclic,
    symmetric_cycle,
    to_nx,
)


def random_graphs(max_n=5, p=0.5):
    """Hypothesis strategy for small digraphs: each ordered pair of distinct
    vertices is an edge with probability p (in steps of 1/100)."""
    hits = round(100 * p)
    # False first, so that shrinking drops edges
    edge = st.sampled_from([False] * (100 - hits) + [True] * hits)

    def build(n, bits):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = [e for e, b in zip(pairs, bits) if b]
        return Digraph(n, edges)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(edge, min_size=n * (n - 1), max_size=n * (n - 1)),
        )
    )


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 2)])

    def test_adjacency_both_directions(self):
        g = Digraph(3, [(0, 1), (2, 1)])
        assert g.out_neighbors(0) == (1,)
        assert g.in_neighbors(1) == (0, 2)


class TestStrongProduct:
    def test_single_vertex_is_identity(self):
        one = Digraph(1)
        h = directed_cycle(4)
        assert strong_product(one, h).edges == h.edges

    def test_three_cycle_square_neighborhood(self):
        c3 = directed_cycle(3)
        p = strong_product(c3, c3)
        assert p.n == 9
        # (0,0) reaches exactly (0,1), (1,0), (1,1)
        assert sorted(p.out_neighbors(0)) == [1, 3, 4]

    def test_c5_square_independence(self):
        c5 = symmetric_cycle(5)
        p = strong_product(c5, c5)
        expected = oracle_alpha(p)
        assert expected == 5
        assert shannon_capacity_lb(p, 1).radicand == 5

    def test_size_law(self):
        g = directed_cycle(3)
        h = symmetric_cycle(4)
        assert strong_product(g, h).n == 12

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=3), random_graphs(max_n=3), random_graphs(max_n=3))
    def test_associative_under_row_major_indexing(self, g, h, f):
        # the row-major vertex convention makes the coordinate bijection the
        # identity, so associativity holds as plain graph equality
        left = strong_product(strong_product(g, h), f)
        right = strong_product(g, strong_product(h, f))
        assert left == right


class TestComplement:
    def test_empty_to_complete(self):
        g = Digraph(4)
        assert complement(g).edges == complete_digraph(4).edges

    def test_three_cycle_reversal(self):
        c3 = directed_cycle(3)
        assert sorted(complement(c3).edges) == [(0, 2), (1, 0), (2, 1)]

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestBlowup:
    def test_k1_is_identity(self):
        g = directed_cycle(4)
        assert blowup(g, 1) == g

    def test_single_edge_biclique(self):
        g = Digraph(2, [(0, 1)])
        b = blowup(g, 2)
        assert sorted(b.edges) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_c5_blowup_independence(self):
        b = blowup(symmetric_cycle(5), 2)
        expected = oracle_alpha(b)
        assert expected == 4
        assert shannon_capacity_lb(b, 1).radicand == 4

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=4), st.integers(1, 3))
    def test_copies_are_independent(self, g, k):
        b = blowup(g, k)
        for v in range(g.n):
            copies = [v * k + i for i in range(k)]
            assert all(
                (a, c) not in b.edges for a in copies for c in copies
            )


class TestTensorPower:
    def test_q1_identity(self):
        g = directed_cycle(3)
        assert tensor_power(g, 1) is g

    def test_size_law(self):
        assert tensor_power(directed_cycle(3), 2).n == 9

    def test_c3_square_mais(self):
        p = tensor_power(directed_cycle(3), 2)
        expected = oracle_mais(p)
        assert expected == 4
        assert mais_exact(p, vertex_cap=25)[0] == 4

    def test_cap(self):
        with pytest.raises(CapacityError):
            tensor_power(symmetric_cycle(9), 5, vertex_cap=5000)


class TestCycleEnumeration:
    def test_dag_has_none(self):
        g = Digraph(4, [(0, 1), (1, 2), (0, 3)])
        assert enumerate_simple_cycles(g) == []

    def test_three_cycle(self):
        assert enumerate_simple_cycles(directed_cycle(3)) == [(0, 1, 2)]

    def test_complete_three(self):
        cycles = enumerate_simple_cycles(complete_digraph(3))
        assert len(cycles) == 5
        assert set(cycles) == oracle_cycles(complete_digraph(3))

    def test_cap_raises(self):
        with pytest.raises(CapacityError, match="cap of 2"):
            enumerate_simple_cycles(complete_digraph(3), cap=2)

    def test_frees_its_state_without_the_collector(self):
        # the cycle list and search state go with the last reference, on
        # return and on refusal alike, so a refused enumeration of many
        # cycles does not pin them until a collection happens to run
        g = complete_digraph(5)
        gc.collect()
        gc.disable()
        try:
            enumerate_simple_cycles(g)
            try:
                enumerate_simple_cycles(g, cap=10)
            except CapacityError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=6))
    def test_matches_oracle_each_exactly_once(self, g):
        cycles = enumerate_simple_cycles(g)
        assert len(cycles) == len(set(cycles))
        assert set(cycles) == oracle_cycles(g)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=5))
    def test_matches_subset_brute_force(self, g):
        from helpers import oracle_cycles_bruteforce

        assert set(enumerate_simple_cycles(g)) == oracle_cycles_bruteforce(g)

    @settings(max_examples=80, deadline=None)
    @given(random_graphs(max_n=6))
    def test_same_list_as_the_recursive_reference(self, g):
        assert enumerate_simple_cycles(g) == reference_enumerate_simple_cycles(g, 10**6)

    def test_same_list_and_refusal_point_on_seeded_digraphs(self):
        # the order matters: rcp_exact pivots over the cycles in this order
        for seed in range(1, 61):
            g = random_digraph(3 + seed % 8, (0.25, 0.4)[seed % 2], seed)
            try:
                expected = reference_enumerate_simple_cycles(g, 500)
            except CapacityError:
                with pytest.raises(CapacityError, match="cap of 500 "):
                    enumerate_simple_cycles(g, cap=500)
                continue
            assert enumerate_simple_cycles(g, cap=len(expected)) == expected
            if expected:
                with pytest.raises(CapacityError):
                    enumerate_simple_cycles(g, cap=len(expected) - 1)

    def test_long_cycle_meets_no_recursion_limit(self):
        n = sys.getrecursionlimit() + 500
        assert enumerate_simple_cycles(directed_cycle(n)) == [tuple(range(n))]

    @pytest.mark.parametrize(
        "g, roots",
        [
            (directed_cycle(3000), [0]),  # past the recursive reference's depth
            # a tail, a triangle, a vertex between, a triangle
            (Digraph(10, [(0, 1), (1, 3), (2, 4), (3, 4), (4, 5), (5, 3),
                          (5, 6), (6, 7), (7, 8), (8, 9), (9, 7)]), [3, 7]),
        ],
    )
    def test_one_component_split_per_root(self, g, roots, monkeypatch):
        # vertices on no cycle above the last root are skipped, not split
        # into components one by one
        splits = []
        split = digraph_mod._strong_components

        def counting(graph, low):
            splits.append(low)
            return split(graph, low)

        monkeypatch.setattr(digraph_mod, "_strong_components", counting)
        cycles = enumerate_simple_cycles(g)
        assert [c[0] for c in cycles] == roots
        assert set(cycles) == oracle_cycles(g)
        assert splits == [0] + [r + 1 for r in roots]


def dict_graphs(node):
    """Hypothesis strategy for dict-adjacency graphs over `node` values;
    successor lists may repeat, loop back or name nodes that are not keys."""
    return st.dictionaries(node, st.lists(node, max_size=4), max_size=9)


class TestFindCycle:
    @settings(max_examples=300, deadline=None)
    @given(dict_graphs(st.integers(0, 11)))
    def test_matches_reference_int_nodes(self, adj):
        assert _find_cycle(adj) == reference_find_cycle(adj)

    @settings(max_examples=300, deadline=None)
    @given(dict_graphs(st.sampled_from(["a", "b", "c", "s1", "t1", "s2", "t2", "~s1"])))
    def test_matches_reference_str_nodes(self, adj):
        assert _find_cycle(adj) == reference_find_cycle(adj)

    def test_sinks_hanging_off_a_cycle(self):
        # 2 -> 1 -> 0 and 3 -> 0 hang off the cycle 5 -> 6 -> 7 -> 5, below
        # its nodes, and go sink by sink; 4 feeds the cycle and 9 is no key
        adj = {0: [], 1: [0], 2: [1, 1], 3: [0, 9], 4: [5], 5: [6], 6: [7], 7: [5, 2, 3]}
        assert _find_cycle(adj) == reference_find_cycle(adj) == (5, 6, 7)

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_n=6))
    def test_is_acyclic_matches_networkx(self, g):
        assert g.is_acyclic() == nx.is_directed_acyclic_graph(to_nx(g))


class TestDisjointCycles:
    """The greedy count behind the acyclic-set search's pruning bound."""

    @staticmethod
    def count(g, fixed=(), limit=None):
        out = [sum(1 << w for w in ws) for ws in g._out]
        inn = [sum(1 << w for w in ws) for ws in g._in]
        fixed_mask = sum(1 << v for v in fixed)
        free = ((1 << g.n) - 1) & ~fixed_mask
        order = [v for v in range(g.n) if free >> v & 1]
        return len(_disjoint_cycles(
            out, inn, fixed_mask, free, order, g.n if limit is None else limit
        ))

    def test_counts(self):
        two = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert self.count(two) == 2
        assert self.count(two, limit=1) == 1
        assert self.count(directed_cycle(5)) == 1
        assert self.count(Digraph(3, [(0, 1), (1, 2)])) == 0
        assert self.count(complete_digraph(4)) == 2

    def test_cycles_may_share_fixed_vertices(self):
        # two 2-cycles through vertex 0: one free-disjoint cycle, but two
        # once 0 is fixed, since an acyclic set holding 0 loses 1 and 2
        bowtie = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
        assert self.count(bowtie) == 1
        assert self.count(bowtie, fixed=(0,)) == 2

    def test_order_picks_the_cycles(self):
        # the bowtie 1 <-> 0 <-> 2: the order decides which 2-cycle through 0
        # is counted, and with 0 fixed both are
        bowtie = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
        out = [sum(1 << w for w in ws) for ws in bowtie._out]
        inn = [sum(1 << w for w in ws) for ws in bowtie._in]
        assert _disjoint_cycles(out, inn, 0, 7, [0, 1, 2], 3) == [0b011]
        assert _disjoint_cycles(out, inn, 0, 7, [2, 1, 0], 3) == [0b101]
        assert _disjoint_cycles(out, inn, 1, 6, [2, 1], 3) == [0b101, 0b011]
        # a reused cycle is kept first, and one outside fixed | free is dropped
        assert _disjoint_cycles(out, inn, 0, 7, [0, 1, 2], 3, [0b101]) == [0b101]
        assert _disjoint_cycles(out, inn, 0, 3, [0, 1], 3, [0b101]) == [0b011]
        assert _disjoint_cycles(out, inn, 1, 6, [1, 2], 1, [0b101, 0b011]) == [0b101]

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=8, p=0.4), st.data())
    def test_any_order_and_reuse(self, g, data):
        # a parent state's cycles, reused by a child whose free vertices are
        # some of the parent's (the rest fixed or dropped), with masks that
        # reach outside the child's vertices mixed in
        out = [sum(1 << w for w in ws) for ws in g._out]
        inn = [sum(1 << w for w in ws) for ws in g._in]
        full = (1 << g.n) - 1
        subset = st.lists(st.integers(0, g.n - 1), unique=True).map(
            lambda vs: sum(1 << v for v in vs)
        )

        def listing(mask):
            return data.draw(st.permutations([v for v in range(g.n) if mask >> v & 1]))

        parent_fixed = data.draw(subset)
        parent_free = full & ~parent_fixed
        parent = _disjoint_cycles(out, inn, parent_fixed, parent_free, listing(parent_free), g.n)
        moved, dropped = data.draw(subset) & parent_free, data.draw(subset) & parent_free
        fixed, free = parent_fixed | moved, parent_free & ~moved & ~dropped
        outside = [c for c in data.draw(st.lists(subset, max_size=3)) if c & ~(fixed | free)]
        reuse = data.draw(st.permutations(parent + outside))
        limit = data.draw(st.integers(0, g.n))
        cycles = _disjoint_cycles(out, inn, fixed, free, listing(free), limit, reuse)
        assert len(cycles) <= limit
        taken = 0
        for c in cycles:
            assert not c & ~(fixed | free)
            members = [v for v in range(g.n) if c >> v & 1]
            assert not nx.is_directed_acyclic_graph(to_nx(g).subgraph(members))
            assert not c & free & taken
            taken |= c & free
        fixed_list = [v for v in range(g.n) if fixed >> v & 1]
        most = reference_max_acyclic(g._out, [v for v in range(g.n) if free >> v & 1], fixed_list)
        if most >= 0:  # fixed is acyclic: each cycle costs a free vertex
            assert all(c & free for c in cycles)
            assert len(cycles) <= (fixed | free).bit_count() - most


class TestAcyclicPeel:
    """`_acyclic`, the linear peel on masks that checks witnesses and
    required sets, and `_find_cycle`'s counting peel, against the rescanning
    reference."""

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=8, p=0.3), st.data())
    def test_matches_the_reference_on_induced_subgraphs(self, g, data):
        members = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        adj = {v: g._out[v] for v in members}  # successors outside are ignored
        expected = reference_find_cycle(adj)
        mask = sum(1 << v for v in members)
        assert _acyclic(_masks(g._out), _masks(g._in), mask) == (expected is None)
        assert _find_cycle(adj) == expected

    def test_cycles_behind_acyclic_parts(self):
        # the counting peel leaves the path out of the 3-cycle, 2 -> 3 -> 4,
        # and the path into it, 5 -> 0, goes; the witness is the same
        adj = {0: [1], 1: [2], 2: [0, 3], 3: [4], 4: [], 5: [0]}
        assert _find_cycle(adj) == reference_find_cycle(adj) == (0, 1, 2)
        out = _masks([adj[v] for v in range(6)])
        inn = _masks([[u for u in adj if v in adj[u]] for v in range(6)])
        assert not _acyclic(out, inn, 0b111111)
        assert _acyclic(out, inn, 0b111110) and _acyclic(out, inn, 0)


class TestWitnessEndsTheProbes:
    """`_largest_acyclic` with a witness mask, an acyclic superset of the
    required vertices: the size and a witnessing set are those of the
    search without it. The probes go up from a nonempty witness, and down
    from the ceiling without one. `min_fvs_exact` checks the witness, as the
    complement of its `upper` set, and refuses any other mask."""

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(max_n=8, p=0.4), st.data())
    def test_any_witness_gives_the_reference_size(self, g, data):
        out, inn = _masks(g._out), _masks(g._in)
        order = _search_order(out, inn)
        required = data.draw(st.lists(st.sampled_from(order), max_size=3, unique=True))
        cand = [v for v in order if v not in required]
        size = reference_max_acyclic(g._out, cand, required)
        full, fixed = (1 << g.n) - 1, sum(1 << v for v in required)
        _, best = _max_acyclic(out, inn, cand, required)  # a maximum set, if any
        if size < 0:
            assert _largest_acyclic(out, inn, cand, required)[0] == -1
        drop = data.draw(st.integers(0, full))

        def upper(mask):  # the vertices a witness mask leaves out
            return frozenset(v for v in range(g.n) if not mask >> v & 1)

        uppers = {
            "maximum": upper(best),
            "smaller": upper(best & ~(drop & ~fixed)),
            "missing a required vertex": upper(best & ~(fixed & -fixed)),
            "any": upper(data.draw(st.integers(0, full))),  # often cyclic
            "cyclic": frozenset(),  # the whole graph, when it has a cycle
            "out of range": upper(best) | {g.n},
            "negative": upper(best) | {-1},
        }
        for kind, fvs in uppers.items():
            rest = set(range(g.n)) - fvs
            if not (
                fvs <= set(range(g.n))
                and not fvs & set(required)
                and nx.is_directed_acyclic_graph(to_nx(g).subgraph(rest))
            ):
                with pytest.raises(ContractViolation):
                    min_fvs_exact(g, g.n, fvs, frozenset(required))
                continue
            assert kind not in ("out of range", "negative")
            witness = full & ~sum(1 << v for v in fvs)
            found, mask = _largest_acyclic(out, inn, cand, required, witness)
            assert found == size, kind
            members = [v for v in range(g.n) if mask >> v & 1]
            assert len(members) == size and not fixed & ~mask, kind
            assert nx.is_directed_acyclic_graph(to_nx(g).subgraph(members)), kind
            assert len(min_fvs_exact(g, g.n, fvs, frozenset(required))) == g.n - size, kind

    def test_a_witness_as_large_as_the_bound_runs_no_probe(self, monkeypatch):
        # one disjoint cycle in a 5-cycle: the bound 4 is the witness's size
        g = directed_cycle(5)
        out, inn = _masks(g._out), _masks(g._in)
        probes = []
        real = digraph_mod._max_acyclic
        monkeypatch.setattr(
            digraph_mod, "_max_acyclic", lambda *args: probes.append(args) or real(*args)
        )
        order = list(range(5))
        assert _largest_acyclic(out, inn, order, (), 0b01111) == (4, 0b01111)
        assert probes == []
        # a smaller witness leaves the probe to find the set; a cyclic one
        # is refused before any probe
        assert _largest_acyclic(out, inn, order, (), 0b00111)[0] == 4
        with pytest.raises(ContractViolation):
            min_fvs_exact(g, 5, upper=frozenset())
        assert len(probes) == 1

    def test_probes_go_up_from_a_witness_and_down_without_one(self, monkeypatch):
        # a bidirected K5 beside four isolated vertices: mais 5, and the two
        # disjoint 2-cycles counted in K5 give the ceiling 9 - 2 = 7
        g = Digraph(9, complete_digraph(5).edges)
        out, inn = _masks(g._out), _masks(g._in)
        order = _search_order(out, inn)
        targets = []
        real = digraph_mod._max_acyclic
        monkeypatch.setattr(
            digraph_mod, "_max_acyclic", lambda *args: targets.append(args[4]) or real(*args)
        )
        for witness, probed in ((0b1, [2, 3, 4, 5, 6]), (0, [7, 6, 5])):
            targets.clear()
            assert _largest_acyclic(out, inn, order, (), witness)[0] == 5
            assert targets == probed
        # the cyclic witness {0, 1} is refused before any probe
        targets.clear()
        with pytest.raises(ContractViolation):
            min_fvs_exact(g, 9, upper=frozenset(range(2, 9)))
        assert targets == []


class TestEmbedding:
    def test_unit_factors_identity(self):
        g = directed_cycle(3)
        h = symmetric_cycle(4)
        ok, mapping = verify_product_blowup_embedding([g, h], [1, 1])
        assert ok
        assert mapping == tuple(range(12))

    def test_single_factor(self):
        g = directed_cycle(4)
        ok, mapping = verify_product_blowup_embedding([g], [3])
        assert ok
        assert sorted(mapping) == list(range(12))

    def test_two_random_factors(self):
        g = Digraph(4, [(0, 1), (1, 2), (3, 0), (2, 3)])
        h = Digraph(4, [(0, 2), (2, 1), (1, 3)])
        ok, _ = verify_product_blowup_embedding([g, h], [2, 2])
        assert ok

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=3), random_graphs(max_n=3),
           st.integers(1, 2), st.integers(1, 2))
    def test_random_pairs_always_embed(self, g, h, k1, k2):
        ok, _ = verify_product_blowup_embedding([g, h], [k1, k2])
        assert ok


class TestFileFormat:
    def test_round_trip(self):
        g = Digraph(4, [(0, 1), (2, 3), (3, 0)])
        assert parse_digraph(serialize_digraph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# generated\n\ndigraph 2\ne 0 1  # forward\n"
        assert parse_digraph(text) == Digraph(2, [(0, 1)])

    @pytest.mark.parametrize(
        "text",
        [
            "digraph 2\ne 0 0\n",
            "digraph 2\ne 0 1\ne 0 1\n",
            "digraph 2\ne 0 5\n",
            "e 0 1\n",
            "digraph 2\nedge 0 1\n",
        ],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(FormatError):
            parse_digraph(text)

    def test_header_past_the_cap_is_refused(self):
        # refused at the header, before the vertices or any edge line
        with pytest.raises(CapacityError, match="6 vertices exceed the vertex cap of 5"):
            parse_digraph("digraph 6\ne 0 9\n", vertex_cap=5)
        assert parse_digraph("digraph 5\ne 0 4\n", vertex_cap=5) == Digraph(5, [(0, 4)])

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_round_trip_random(self, g):
        assert parse_digraph(serialize_digraph(g)) == g
