"""Exact packing LP, spreading-metric dual, and the region-growing FES."""

import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from gnskit import (
    CapacityError,
    ContractViolation,
    Digraph,
    build_network,
    closure_links,
    fes_to_fvs,
    parse_network,
    rcp_exact,
    solve_spreading_metric,
    subset_fes_approx,
    to_index_graph,
)
from gnskit import cyclepack
from gnskit.bounds import mais_exact, min_fvs_exact
from gnskit.cyclepack import (
    CyclePacking,
    _distances_from,
    _minimal_cut,
    _shortest_cycle_through,
    _Tableau,
    _pair_graph,
    _simplex_core,
    _simplex_max,
    packing_from_metric,
    validate_packing,
    vertex_split_links,
)
from gnskit.instances import (
    network_from_side_info_graph,
    random_dag_network,
    random_digraph,
)
from gnskit.network import Link
import helpers
from helpers import (
    PARALLEL_LINKS,
    SHARED_BOTTLENECK,
    SINGLE_PATH,
    TWO_DISJOINT,
    directed_cycle,
    reference_minimal_cut,
    reference_packing_from_metric,
    reference_rcp_exact,
    reference_shortest_cycle_through,
    reference_simplex_max,
    reference_solve_spreading_metric,
    reference_subset_fes_approx,
    symmetric_cycle,
)
from test_digraph import random_graphs


def reference_on_ints(num_vars, rows, rhs, objective):
    """`reference_simplex_max` on the integer data `_simplex_max` takes."""
    return reference_simplex_max(
        num_vars,
        [[Fraction(a) for a in row] for row in rows],
        [Fraction(b) for b in rhs],
        [Fraction(c) for c in objective],
    )


@st.composite
def integer_lps(draw):
    """Small integer LPs in the form `_simplex_max` takes; the narrow
    ranges make degenerate ratio ties and unbounded columns common."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    entries = st.integers(-2, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    objective = draw(st.lists(entries, min_size=n, max_size=n))
    return n, rows, rhs, objective


class TestSimplexMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(integer_lps())
    def test_same_value_vertex_and_duals(self, lp):
        try:
            expected = reference_on_ints(*lp)
        except ContractViolation:
            with pytest.raises(ContractViolation, match="unbounded"):
                _simplex_max(*lp)
            return
        value, x, duals = _simplex_max(*lp)
        assert (value, x, duals) == expected
        assert all(type(v) is Fraction for v in [value, *x, *duals])
        # the integer core, over its own denominator, gives the same
        int_value, int_x, int_duals, d = _simplex_core(*lp)
        assert type(d) is int and d > 0
        assert all(type(v) is int for v in [int_value, *int_x, *int_duals])
        assert (
            Fraction(int_value, d),
            [Fraction(v, d) for v in int_x],
            [Fraction(y, d) for y in int_duals],
        ) == expected

    def test_rcp_and_spreading_metric_on_networks(self, monkeypatch):
        # rcp is one batch, so it is compared exactly with the Fraction
        # tableau. The metric keeps one tableau across its pricing rounds and
        # may end at another optimal vertex than the cutting plane of
        # `tests/helpers.py`, which solves every round from scratch (here on
        # the Fraction tableau), so it is compared as an optimum
        nets = [random_dag_network(7, 12, 3, seed=seed) for seed in range(1, 11)]

        def solve_all(solve_metric):
            results = []
            for net in nets:
                g, _ = to_index_graph(net)
                terminals = [s for s, _ in net.pairs]
                results.append((rcp_exact(g), solve_metric(closure_links(net), terminals)))
            return results

        fraction_free = solve_all(solve_spreading_metric)
        monkeypatch.setattr(cyclepack, "_simplex_max", reference_on_ints)
        monkeypatch.setattr(helpers, "_simplex_max", reference_on_ints)
        reference = solve_all(reference_solve_spreading_metric)
        for net, (rcp, metric), (ref_rcp, ref_metric) in zip(nets, fraction_free, reference):
            assert rcp == ref_rcp
            check_optimal_metric(closure_links(net), [s for s, _ in net.pairs], metric, ref_metric)


class TestPivotOffTheDenominator:
    def test_pinned_lp(self):
        # the first pivot element is 2 over d = 1, so its pivot rescales
        # every row, and the third row, with no entry in the entering
        # column, only that; the basis of the optimum has determinant 5
        lp = (2, [[2, 1], [1, 3], [0, 1]], [4, 6, 3], [1, 1])
        value, x, duals, d = _simplex_core(*lp)
        assert d == 5
        assert (value, x) == (14, [6, 8])  # over d: 14/5 at x = (6/5, 8/5)
        assert _simplex_max(*lp) == reference_on_ints(*lp)


# a packing LP on three pairs, whose Bland path on its first three columns
# enters a slack where the fourth column prices negative
RESUMED_LP = (4, [[1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 1]], [1, 1, 1], [1, 1, 1, 1])


class TestTableauBatches:
    @settings(max_examples=400, deadline=None)
    @given(integer_lps(), st.lists(st.integers(0, 5), max_size=4))
    @example(RESUMED_LP, [3])
    def test_each_batch_is_an_optimum_over_its_columns(self, lp, cuts):
        n, rows, rhs, objective = lp
        tableau, start = _Tableau(rhs), 0
        for stop in sorted([*(min(cut, n) for cut in cuts), n]):  # empty batches too
            batch = (
                [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(start, stop)],
                objective[start:stop],
            )
            so_far = (stop, [row[:stop] for row in rows], rhs, objective[:stop])
            first, start = start == 0, stop
            try:
                expected = reference_on_ints(*so_far)
            except ContractViolation:
                for solve in (lambda: _simplex_core(*so_far), lambda: tableau.add(*batch)):
                    with pytest.raises(ContractViolation, match="unbounded"):
                        solve()
                return
            value, x, duals, d = result = tableau.add(*batch)
            if first:  # from the slack basis, a batch is a cold run
                assert result == _simplex_core(*so_far)
            assert d > 0 and Fraction(value, d) == expected[0]
            # (x, duals) over d certify the optimum: both feasible, equal values
            assert len(x) == stop and all(v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) <= d * b for row, b in zip(rows, rhs))
            assert all(y >= 0 for y in duals)
            for j in range(stop):
                assert sum(y * row[j] for y, row in zip(duals, rows)) >= d * objective[j]
            assert sum(c * v for c, v in zip(objective, x)) == value == sum(
                b * y for b, y in zip(rhs, duals)
            )

    def test_runs_on_from_the_last_vertex(self):
        # a packing LP on three pairs: cycle 0 covers all of them, cycles 1
        # and 2 cover pairs 1 and 2. Bland's rule enters cycles 0, 1 and 2,
        # then slack 0, which pushes cycle 0 out again
        lp = _Tableau([1, 1, 1])
        assert lp.add([[(0, 1), (1, 1), (2, 1)], [(1, 1)], [(2, 1)]], [1, 1, 1]) == (
            2, [0, 1, 1], [0, 1, 1], 1
        )
        # cycle 3 on pairs 0 and 2 prices 0 + 1 against its cost 1 at those
        # duals, so the last vertex stays optimal and no pivot is made; a
        # cold run enters cycle 3 before slack 0 and ends at another vertex
        # of the same value
        assert lp.add([[(0, 1), (2, 1)]], [1]) == (2, [0, 1, 1, 0], [0, 1, 1], 1)
        assert _simplex_core(*RESUMED_LP) == (2, [0, 1, 0, 1], [0, 1, 1], 1)


class TestRcpExact:
    def test_dag_is_zero(self):
        g = Digraph(4, [(0, 1), (1, 2)])
        packing = rcp_exact(g)
        assert packing.value == 0 and packing.assignments == ()

    def test_two_disjoint_triangles(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        packing = rcp_exact(g)
        assert packing.value == 2
        assert dict(packing.assignments) == {
            (0, 1, 2): Fraction(1),
            (3, 4, 5): Fraction(1),
        }

    def test_two_triangles_sharing_a_vertex(self):
        g = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        packing = rcp_exact(g)
        # vertex 0 lies on both cycles: its unit budget caps the total, and
        # weight (1, 0) or any convex split attains it
        assert packing.value == 1

    def test_fractional_optimum(self):
        # three pairwise-overlapping two-cycles on a triangle: optimum 3/2
        g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        packing = rcp_exact(g)
        assert packing.value == Fraction(3, 2)
        validate_packing(g, packing)

    def test_cycle_cap(self):
        g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        with pytest.raises(CapacityError, match="approximation"):
            rcp_exact(g, cycle_cap=2)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_packings_validate_and_respect_duality(self, g):
        packing = rcp_exact(g)
        validate_packing(g, packing)
        assert packing.value <= g.n - mais_exact(g)[0]


class TestValidatePacking:
    def test_overload_rejected(self):
        g = directed_cycle(3)
        bad = CyclePacking(assignments=(((0, 1, 2), Fraction(2)),), value=Fraction(2))
        with pytest.raises(ContractViolation, match="overloaded"):
            validate_packing(g, bad)

    def test_missing_edge_rejected(self):
        g = directed_cycle(3)
        bad = CyclePacking(assignments=(((0, 2, 1), Fraction(1)),), value=Fraction(1))
        with pytest.raises(ContractViolation, match="missing edge"):
            validate_packing(g, bad)

    @pytest.mark.parametrize(
        "assignments, value, message",
        [
            ([((0, 1), Fraction(1, 2)), ((0, 1, 2), Fraction(2, 3))], Fraction(7, 6),
             "vertex 0 is overloaded: 7/6"),
            ([((0, 1), Fraction(1, 2)), ((1, 2), Fraction(1, 3))], Fraction(1, 2),
             "packing value does not match its assignments"),
            ([((0, 1), Fraction(-1, 2))], Fraction(-1, 2), "negative weight on cycle (0, 1)"),
            ([((1, 0), Fraction(1, 2))], Fraction(1, 2), "cycle not in canonical rotation: (1, 0)"),
            ([((0, 1, 0), Fraction(1, 2))], Fraction(1, 2), "not a simple cycle: (0, 1, 0)"),
        ],
    )
    def test_messages(self, assignments, value, message):
        # loads are summed on ints over the lcm of the denominators, and an
        # overload is printed as a Fraction
        g = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        with pytest.raises(ContractViolation) as info:
            validate_packing(g, CyclePacking(tuple(assignments), value))
        assert str(info.value) == message


class TestSpreadingMetric:
    def test_acyclic_closure(self):
        net = parse_network(TWO_DISJOINT)
        links = [e for e in net.regular_links()]
        metric = solve_spreading_metric(links, [s for s, _ in net.pairs])
        assert metric.objective == 0

    def test_single_two_cycle(self):
        net = parse_network("network\nnode s\nnode t\nlink s t\npair s t\n")
        metric = solve_spreading_metric(closure_links(net), ["s"])
        assert metric.objective == 1

    def test_parallel_links_objective_two(self):
        net = parse_network(PARALLEL_LINKS)
        metric = solve_spreading_metric(closure_links(net), ["s"])
        assert metric.objective == 2

    def test_equals_rcp_of_line_graph_on_networks(self):
        import itertools

        from gnskit.instances import random_dag_network

        count = 0
        for seed in itertools.count(1):
            if count == 10:
                break
            try:
                net = random_dag_network(6, 6, 1 + seed % 3, seed=seed)
            except ValueError:
                continue
            count += 1
            g, _ = to_index_graph(net)
            metric = solve_spreading_metric(
                closure_links(net), [s for s, _ in net.pairs]
            )
            assert metric.objective == rcp_exact(g).value

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=7))
    def test_strong_duality_via_vertex_split(self, g):
        links, terminals = vertex_split_links(g)
        metric = solve_spreading_metric(links, terminals)
        assert metric.objective == rcp_exact(g).value

    def test_iteration_cap(self):
        net = parse_network(PARALLEL_LINKS)
        with pytest.raises(CapacityError, match="converge"):
            solve_spreading_metric(closure_links(net), ["s"], iteration_cap=0)

    def test_every_cycle_covered_at_convergence(self):
        net = parse_network(PARALLEL_LINKS)
        metric = solve_spreading_metric(closure_links(net), ["s"])
        lengths = metric.as_dict()
        d = nx.DiGraph()
        for e in closure_links(net):
            d.add_edge(e.tail, e.head, ids=[])
        for cyc in nx.simple_cycles(d):
            pairs = list(zip(cyc, cyc[1:] + cyc[:1]))
            total = Fraction(0)
            for a, b in pairs:
                ids = [e.id for e in closure_links(net) if (e.tail, e.head) == (a, b)]
                total += lengths[ids[0]]
            assert total >= 1


def metric_and_packing(net):
    closed = closure_links(net)
    metric = solve_spreading_metric(closed, [s for s, _ in net.pairs])
    return metric, packing_from_metric(closed, metric)


class TestPackingFromMetric:
    def test_weight_split_across_parallel_links(self):
        net = parse_network(SHARED_BOTTLENECK)
        g, _ = to_index_graph(net)
        metric, packing = metric_and_packing(net)
        # s2's only cycle s2 -> a -> b -> t2 -> s2 has weight 1 and finds the
        # first a -> b link (5) half full, so it continues on link 6
        s2_cycle = (("s2", "a"), ("a", "b"), ("b", "t2"), ("t2", "s2"))
        assert dict(metric.packing)[s2_cycle] == 1
        weights = packing.weight_map()
        assert weights[(3, 5, 8, 11)] == weights[(3, 6, 8, 11)] == Fraction(1, 2)
        load = {v: sum(w for c, w in packing.assignments if v in c) for v in range(g.n)}
        assert load[5] == load[6] == 1
        assert max(load.values()) <= 1
        validate_packing(g, packing)
        assert packing.value == metric.objective == Fraction(5, 2)
        assert reference_rcp_exact(g).value == Fraction(5, 2)

    def test_sorted_canonical_cycles(self):
        _, packing = metric_and_packing(parse_network(PARALLEL_LINKS))
        assert packing.assignments == (((0, 2), Fraction(1)), ((1, 3), Fraction(1)))

    def test_acyclic_closure_is_empty(self):
        from helpers import crossed_unicasts

        metric, packing = metric_and_packing(crossed_unicasts())
        assert metric.packing == () and packing == CyclePacking((), Fraction(0))

    def test_value_must_equal_the_objective(self):
        import dataclasses

        net = parse_network(PARALLEL_LINKS)
        metric, _ = metric_and_packing(net)
        wrong = dataclasses.replace(metric, objective=metric.objective + 1)
        with pytest.raises(ContractViolation, match="differs"):
            packing_from_metric(closure_links(net), wrong)


class TestSubsetFesApprox:
    def test_acyclic_closure_empty(self):
        # zero-mincut pairs get no source links, so the closure stays acyclic
        from helpers import crossed_unicasts

        result = subset_fes_approx(crossed_unicasts())
        assert result.fes == frozenset()
        assert result.diagnostics.objective == 0
        assert result.diagnostics.ratio == 1.0

    def test_single_path_cuts_one(self):
        result = subset_fes_approx(parse_network(SINGLE_PATH))
        assert len(result.fes) == 1

    def test_parallel_links_cut_two_ratio_one(self):
        result = subset_fes_approx(parse_network(PARALLEL_LINKS))
        assert len(result.fes) == 2
        assert result.diagnostics.ratio == 1.0

    def test_output_is_verified_fes(self):
        import itertools

        from gnskit.instances import random_dag_network

        count = 0
        for seed in itertools.count(100):
            if count == 15:
                break
            try:
                net = random_dag_network(6, 7, 1 + seed % 3, seed=seed)
            except ValueError:
                continue
            count += 1
            result = subset_fes_approx(net)
            d = nx.DiGraph()
            for e in closure_links(net):
                if e.id not in result.fes:
                    d.add_edge(e.tail, e.head)
            assert nx.is_directed_acyclic_graph(d)
            # parallel links are cut all or none
            groups: dict[tuple[str, str], list[int]] = {}
            for e in closure_links(net):
                groups.setdefault((e.tail, e.head), []).append(e.id)
            for ids in groups.values():
                hit = sum(1 for i in ids if i in result.fes)
                assert hit in (0, len(ids))

    def test_regression_ratio_bound(self):
        import itertools

        from gnskit.instances import random_dag_network

        count = 0
        for seed in itertools.count(500):
            if count == 15:
                break
            try:
                net = random_dag_network(6, 6, 1 + seed % 3, seed=seed)
            except ValueError:
                continue
            count += 1
            g, _ = to_index_graph(net)
            rcp = rcp_exact(g).value
            weight = subset_fes_approx(net).diagnostics.weight
            if rcp == 0:
                assert weight == 0
            else:
                assert weight <= 8 * math.log(net.k + 1) ** 2 * rcp

    @pytest.mark.parametrize("shape", [(7, 12, 3), (8, 14, 3)])
    def test_zero_one_metric_cuts_exactly_its_length_one_links(self, shape):
        # the terminal order only breaks ties: on a 0/1 metric every cut
        # pair has length 1 and they cost the objective, so the cut is all
        # of them whatever the order
        for seed in range(1, 21):
            try:
                net = random_dag_network(*shape, seed=seed)
            except ValueError:
                continue
            result = subset_fes_approx(net)
            lengths = result.metric.as_dict()
            assert set(lengths.values()) <= {0, 1}
            assert result.fes == frozenset(i for i, x in lengths.items() if x == 1)

    @pytest.mark.parametrize(
        "g, objective, weight",
        [
            (symmetric_cycle(5), 3, 4),
            (symmetric_cycle(7), 4, 5),
            (symmetric_cycle(9), 5, 6),
            (random_digraph(7, 0.4, 3), Fraction(5, 2), 3),
        ],
    )
    def test_rounds_a_fractional_metric(self, g, objective, weight):
        # wrapping networks with an integrality gap, where the balls are
        # grown at fractional radii
        result = subset_fes_approx(network_from_side_info_graph(g))
        assert result.diagnostics.objective == objective
        assert result.diagnostics.weight == weight


class TestMinimalCut:
    """The minimality pass tests each cut pair by reachability in the
    acyclic rest of the numbered pair graph, which a dropped pair joins; the
    reference rebuilds the name-keyed pair graph and searches it for a cycle
    once per pair."""

    @staticmethod
    def minimal_cut(pairs, cut):
        """`_minimal_cut` on the pair graph of one link per pair, with the
        cut and the pairs it keeps as name pairs."""
        _, keys, _, out = _pair_graph(Link(i, *pair) for i, pair in enumerate(pairs))
        numbered = {keys.index(pair) for pair in cut}
        kept = _minimal_cut(out, numbered)
        assert numbered == {keys.index(pair) for pair in cut}  # left as it was
        return {keys[p] for p in kept}

    def test_a_dropped_pair_joins_the_rest(self):
        # either cut alone breaks the triangle: (a, b) goes first, so
        # (b, c) closes the triangle again and stays
        pairs = {("a", "b"), ("b", "c"), ("c", "a")}
        cut = {("a", "b"), ("b", "c")}
        assert self.minimal_cut(pairs, cut) == reference_minimal_cut(pairs, cut) == {("b", "c")}

    def test_a_cyclic_rest_is_refused(self):
        pairs = {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}
        with pytest.raises(ContractViolation, match="verification failed"):
            self.minimal_cut(pairs, {("b", "c")})

    @settings(max_examples=200, deadline=None)
    @given(st.permutations("abcdef"), st.data())
    def test_matches_reference(self, order, data):
        # every pair against `order` is cut, so the rest is acyclic
        pairs = data.draw(st.sets(st.permutations(order).map(lambda p: (p[0], p[1]))))
        cut = {(t, h) for t, h in pairs if order.index(t) > order.index(h)}
        if pairs:
            cut |= data.draw(st.sets(st.sampled_from(sorted(pairs))))
        assert self.minimal_cut(pairs, cut) == reference_minimal_cut(pairs, cut)


@st.composite
def pair_graphs(draw):
    """A small digraph as a pair graph: per node its out- and in-arcs as
    (pair, other node), pairs numbered in (tail, head) order, and random
    integer pair lengths, zeros and ties common."""
    g = draw(random_graphs(max_n=7, p=0.4))
    out, inn = [[] for _ in range(g.n)], [[] for _ in range(g.n)]
    for p, (u, v) in enumerate(sorted(g.edges)):
        out[u].append((p, v))
        inn[v].append((p, u))
    lengths = draw(st.lists(st.integers(0, 4), min_size=len(g.edges), max_size=len(g.edges)))
    return out, inn, lengths


class TestPricingCutoff:
    """Pricing stops Dijkstra before it settles a node at distance `below`
    (the LP's denominator) or more: no cycle through such a node is shorter."""

    @settings(max_examples=400, deadline=None)
    @given(pair_graphs(), st.data())
    def test_bounded_search_is_the_unbounded_one_kept_below(self, graph, data):
        out, inn, lengths = graph
        terminal = data.draw(st.integers(0, len(out) - 1))
        below = data.draw(st.integers(0, 12))
        full = _shortest_cycle_through(terminal, out, inn, lengths)
        kept = full if full is not None and full[0] < below else None
        assert _shortest_cycle_through(terminal, out, inn, lengths, below) == kept
        # the nodes settled are those nearer than `below`, in the same order
        dist, prev = _distances_from(terminal, out, lengths)
        near, near_prev = _distances_from(terminal, out, lengths, below=below)
        assert list(near.items()) == [(v, d) for v, d in dist.items() if d < below]
        assert near_prev == {v: prev[v] for v in near}
        # the unbounded walk, closed by an in-arc, is the reference's, which
        # scans every reached node's out-arcs (single-digit names sort as ints)
        keys = [(str(u), str(v)) for u, arcs in enumerate(out) for _, v in arcs]
        out_pairs = {str(u): [(str(v), keys[p]) for p, v in arcs] for u, arcs in enumerate(out)}
        expected = reference_shortest_cycle_through(
            str(terminal), out_pairs, {key: Fraction(x) for key, x in zip(keys, lengths)}
        )
        assert (full is None) == (expected is None)
        if full is not None:
            assert (full[0], tuple(keys[p] for p in full[1])) == expected


def simple_cycles_through(terminal, out):
    """Every simple cycle through `terminal` as its pair sequence from the
    terminal, by plain depth-first enumeration (no self-loops are drawn)."""
    found = []

    def extend(node, seq, seen):
        for p, head in out[node]:
            if head == terminal:
                found.append((*seq, p))
            elif head not in seen:
                extend(head, (*seq, p), seen | {head})

    extend(terminal, (), {terminal})
    return found


class TestPricingPrefersFewestPairs:
    """The cutting plane prices on x_p*H + 1 with the bound d*H, where H is
    one more than the number of pairs: a simple cycle C measures
    H*x(C) + |C| with 1 <= |C| < H, so it is violated (x(C) < d) exactly
    when that is below d*H, and among the shortest the fewest pairs win."""

    @settings(max_examples=400, deadline=None)
    @given(pair_graphs(), st.data())
    def test_a_shortest_violated_cycle_with_the_fewest_pairs(self, graph, data):
        out, inn, x = graph
        terminal = data.draw(st.integers(0, len(out) - 1))
        d = data.draw(st.integers(1, 12))
        hops = len(x) + 1
        found = _shortest_cycle_through(terminal, out, inn, [xp * hops + 1 for xp in x], d * hops)
        violated = [
            (sum(x[p] for p in cyc), len(cyc), cyc)
            for cyc in simple_cycles_through(terminal, out)
            if sum(x[p] for p in cyc) < d
        ]
        assert (found is None) == (not violated)
        if found is not None:
            total, seq = found
            assert seq in [cyc for *_, cyc in violated]
            length = sum(x[p] for p in seq)
            assert (length, len(seq)) == min((xc, n) for xc, n, _ in violated)
            assert total == length * hops + len(seq)


def line_graph(links):
    """One vertex per link, with an edge v -> w whenever link v's head is
    link w's tail: the graph a metric's packing is a vertex packing of."""
    edges = {(a.id, b.id) for a in links for b in links if a.head == b.tail}
    return Digraph(1 + max((e.id for e in links), default=-1), sorted(edges))


def check_optimal_metric(links, terminals, metric, reference):
    """Assert that `metric` is optimal: its objective equals that of the
    `reference` metric, no cycle through a terminal measures below 1, and
    its packing, mapped as `reference_packing_from_metric` maps it, passes
    `validate_packing` with the same value, so by weak duality both are
    optimal. Returns the packing."""
    assert metric.objective == reference.objective
    lengths = metric.as_dict()
    pair_length = {(e.tail, e.head): lengths[e.id] for e in links if e.tail is not None}
    out_pairs = {}
    for tail, head in pair_length:
        out_pairs.setdefault(tail, []).append((head, (tail, head)))
    for t in terminals:
        found = reference_shortest_cycle_through(t, out_pairs, pair_length)
        assert found is None or found[0] >= 1
    packing = packing_from_metric(links, metric)
    assert packing == reference_packing_from_metric(links, metric)
    validate_packing(line_graph(links), packing)
    assert packing.value == metric.objective
    return packing


class TestIntegerPathsMatchReference:
    """The cutting-plane loop, the sphere growing and the packing map run on
    ints over one common denominator; `tests/helpers.py` keeps their
    Fraction versions. The metric is an optimum of the same objective as the
    reference's, which re-solves every pricing round from scratch and may
    end at another optimal vertex; the sphere growing and the packing map
    are compared exactly on the metric solved here."""

    @staticmethod
    def check_network(net):
        closed = closure_links(net)
        terminals = [s for s, _ in net.pairs]
        metric = solve_spreading_metric(closed, terminals)
        check_optimal_metric(
            closed, terminals, metric, reference_solve_spreading_metric(closed, terminals)
        )
        assert subset_fes_approx(net) == reference_subset_fes_approx(net, metric=metric)
        return metric

    def test_random_dag_networks(self):
        for seed in range(1, 11):
            self.check_network(random_dag_network(7, 12, 3, seed=seed))

    @pytest.mark.parametrize(
        "g",
        [
            symmetric_cycle(5),
            symmetric_cycle(7),
            symmetric_cycle(9),
            random_digraph(7, 0.4, 3),
            # a ball grows past radius 0, and the objective/(2k) credit
            # decides which ball is cut
            random_digraph(6, 0.4, 14),
        ],
    )
    def test_wrappings_with_fractional_metrics(self, g):
        # fractional metrics: the sphere growing rounds at fractional radii
        # and the packing map splits fractional weights
        metric = self.check_network(network_from_side_info_graph(g))
        assert any(length.denominator > 1 for _, length in metric.lengths)

    def test_name_order_differs_from_declaration_order(self):
        # nodes and pairs are numbered in name order, where n10 sorts before
        # n2 and s10 before s2, so the heap and tie comparisons on numbers
        # must still be the comparisons on names
        for seed in range(1, 5):
            self.check_network(random_dag_network(12, 22, 4, seed=seed))
        metric = self.check_network(network_from_side_info_graph(symmetric_cycle(11)))
        assert any(length.denominator > 1 for _, length in metric.lengths)

    def test_a_terminal_on_no_link(self):
        # the pair (e, c) has mincut 0, so its source e gets no source link
        # and lies on no link of the closure
        net = build_network(
            "abcde", [("a", "b"), ("c", "d")], [("a", "b"), ("e", "c")], require_reachable=False
        )
        assert net.source_links[1] == ()
        self.check_network(net)
        assert subset_fes_approx(net).fes == {0}

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=7))
    @example(random_digraph(7, 0.5, 9))  # a tight cycle outside the master at convergence
    def test_vertex_splits(self, g):
        links, terminals = vertex_split_links(g)
        metric = solve_spreading_metric(links, terminals)
        reference = reference_solve_spreading_metric(links, terminals)
        packing = check_optimal_metric(links, terminals, metric, reference)
        public = [metric.objective, packing.value]
        public += [x for _, x in metric.lengths + metric.packing + packing.assignments]
        assert all(type(x) is Fraction for x in public)


class TestFesToFvs:
    def test_empty_on_acyclic(self):
        # single cross-link network: closure has cycles only through pairs
        net = parse_network(SINGLE_PATH)
        result = subset_fes_approx(net)
        fvs = fes_to_fvs(net, result.fes)
        assert len(fvs) == 1

    def test_two_cycle_instance(self):
        net = parse_network("network\nnode s\nnode t\nlink s t\npair s t\n")
        fvs = fes_to_fvs(net, {0})
        assert fvs == frozenset({0})

    def test_parallel_links_matches_min_fvs(self):
        net = parse_network(PARALLEL_LINKS)
        g, _ = to_index_graph(net)
        result = subset_fes_approx(net)
        fvs = fes_to_fvs(net, result.fes)
        assert len(fvs) == len(min_fvs_exact(g)) == 4 - mais_exact(g)[0]

    def test_rejects_non_fes(self):
        net = parse_network(PARALLEL_LINKS)
        with pytest.raises(ContractViolation, match="not a feedback edge set"):
            fes_to_fvs(net, set())

    def test_empty_on_acyclic_closure(self):
        from helpers import crossed_unicasts

        assert fes_to_fvs(crossed_unicasts(), set()) == frozenset()


class TestWeakDualityAgainstApproxFvs:
    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_n=5))
    def test_rcp_below_any_fvs(self, g):
        # every feedback vertex set produced anywhere weighs at least rcp
        packing = rcp_exact(g)
        fvs = min_fvs_exact(g)
        assert packing.value <= len(fvs)
