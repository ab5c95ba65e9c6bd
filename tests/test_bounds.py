"""Exact bound quantities, product/blowup identities, and the report."""

import math
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gnskit import (
    CapacityError,
    ContractViolation,
    Digraph,
    blowup,
    bound_report,
    closure_links,
    complement,
    parse_network,
    parse_report,
    serialize_report,
    solve_spreading_metric,
    strong_product,
    to_index_graph,
    verify_index_code,
)
import gnskit.bounds
from gnskit.bounds import (
    _max_acyclic,
    _mis_size,
    _search_order,
    alpha_exact,
    mais_exact,
    min_fvs_exact,
    shannon_capacity_lb,
    tensor_bound,
)
from gnskit.caps import Caps
from gnskit.cyclepack import rcp_exact, validate_packing, vertex_split_links
from gnskit.instances import (
    network_from_side_info_graph,
    random_dag_network,
    random_digraph,
)

from helpers import (
    PARALLEL_LINKS,
    SINGLE_PATH,
    TWO_DISJOINT,
    directed_cycle,
    oracle_alpha,
    oracle_mais,
    reference_alpha_exact,
    reference_max_acyclic,
    reference_rcp_exact,
    symmetric_cycle,
    to_nx,
)
from test_digraph import random_graphs


class TestMaisExact:
    def test_dag(self):
        g = Digraph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        assert mais_exact(g) == (5, frozenset(range(5)))

    def test_three_cycle(self):
        size, cert = mais_exact(directed_cycle(3))
        assert size == 2
        assert cert == frozenset({0, 1})  # lexicographically smallest

    def test_bidirected_k22(self):
        g, _ = __import__("gnskit").to_index_graph(parse_network(PARALLEL_LINKS))
        assert oracle_mais(g) == 2
        assert mais_exact(g)[0] == 2

    def test_certificate_induces_acyclic(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4)])
        size, cert = mais_exact(g)
        assert len(cert) == size == oracle_mais(g)

    def test_cap(self):
        with pytest.raises(CapacityError):
            mais_exact(Digraph(23), vertex_cap=22)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=6))
    def test_matches_subset_oracle(self, g):
        assert mais_exact(g)[0] == oracle_mais(g)


class TestAlphaExact:
    def test_empty_graph(self):
        assert alpha_exact(Digraph(6)) == (6, frozenset(range(6)))

    def test_c5(self):
        size, cert = alpha_exact(symmetric_cycle(5))
        assert size == 2
        assert cert == frozenset({0, 2})

    def test_c5_square(self):
        p = strong_product(symmetric_cycle(5), symmetric_cycle(5))
        assert alpha_exact(p)[0] == 5 == oracle_alpha(p)

    def test_matches_the_search_without_witnesses(self):
        c5, c6 = symmetric_cycle(5), symmetric_cycle(6)
        graphs = [strong_product(c5, c5), strong_product(c5, c6)]
        graphs += [random_digraph(30, (0.1, 0.15, 0.2)[s % 3], s) for s in range(1, 16)]
        for g in graphs:
            size, cert = alpha_exact(g)
            assert (size, cert) == reference_alpha_exact(g)
            # the probes' contract: a target is decided, and a set found is
            # an independent set of at least that size
            adj = [sum(1 << w for w in set(g._out[v]) | set(g._in[v])) for v in range(g.n)]
            for t in (None, size - 1, size, size + 1):
                found, members = _mis_size(adj, (1 << g.n) - 1, t)
                need = size if t is None else t
                assert found == size if t is None else (found >= t) == (size >= t)
                if found >= need:
                    assert members.bit_count() >= need
                    assert not any(adj[v] & members for v in range(g.n) if members >> v & 1)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=6))
    def test_matches_clique_oracle(self, g):
        size, cert = alpha_exact(g)
        assert size == oracle_alpha(g)
        assert all(
            (u, v) not in g.edges for u in cert for v in cert if u != v
        )


class TestMinFvsExact:
    def test_dag_empty(self):
        assert min_fvs_exact(Digraph(4, [(0, 1), (2, 3)])) == frozenset()

    def test_three_cycle_smallest_index(self):
        assert min_fvs_exact(directed_cycle(3)) == frozenset({0})

    def test_two_disjoint_two_cycles(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        fvs = min_fvs_exact(g)
        assert len(fvs) == 2
        assert fvs == frozenset({0, 2})

    def test_given_minimum_must_be_a_feedback_vertex_set(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert min_fvs_exact(g, minimum=frozenset({1, 3})) == frozenset({0, 2})
        for bad in (frozenset({0}), frozenset({0, 2, 4})):  # a cycle left; no vertex 4
            with pytest.raises(ContractViolation):
                min_fvs_exact(g, minimum=bad)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=6))
    def test_complementarity_and_validity(self, g):
        fvs = min_fvs_exact(g)
        assert len(fvs) == g.n - oracle_mais(g)
        rest = [v for v in range(g.n) if v not in fvs]
        sub = Digraph(
            len(rest),
            [
                (rest.index(u), rest.index(v))
                for (u, v) in g.edges
                if u in rest and v in rest
            ],
        )
        assert sub.is_acyclic()


class TestTensorBound:
    def test_q1_equals_gap(self):
        g = directed_cycle(3)
        tb = tensor_bound(g, 1, 3)
        assert tb == (1, 2, 1.0)

    def test_three_cycle_squared(self):
        tb = tensor_bound(directed_cycle(3), 2, 3, vertex_cap=25)
        assert tb.radicand == 4
        assert tb.value == 3 - 2.0  # 4 ** (1/2) is exactly 2

    def test_dag_all_powers(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        for q in (1, 2):
            tb = tensor_bound(g, q, 5, vertex_cap=30)
            assert tb.radicand == 3**q
            assert tb.value == pytest.approx(5 - 3)


class TestShannonLowerBound:
    def test_empty_graph(self):
        for power in (1, 2):
            sb = shannon_capacity_lb(Digraph(3), power, vertex_cap=30)
            assert sb.value == pytest.approx(3)

    def test_power_one_is_alpha(self):
        sb = shannon_capacity_lb(symmetric_cycle(5), 1)
        assert sb == (1, 2, 2.0)

    def test_c5_power_two(self):
        sb = shannon_capacity_lb(symmetric_cycle(5), 2)
        assert sb.radicand == 5
        assert sb.value == pytest.approx(math.sqrt(5))


class TestProductBlowupIdentities:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=4), random_graphs(max_n=4))
    def test_mais_supermultiplicative(self, g, h):
        assert (
            mais_exact(strong_product(g, h), vertex_cap=16)[0]
            >= mais_exact(g)[0] * mais_exact(h)[0]
        )

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=5), st.integers(1, 3))
    def test_blowup_scaling(self, g, k):
        b = blowup(g, k)
        assert alpha_exact(b)[0] == k * alpha_exact(g)[0]
        assert mais_exact(b, vertex_cap=15)[0] == k * mais_exact(g)[0]

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=5))
    def test_alpha_le_mais_le_n(self, g):
        a = alpha_exact(g)[0]
        m = mais_exact(g)[0]
        assert a <= m <= g.n

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=5))
    def test_diagonal_independent_in_complement_product(self, g):
        p = strong_product(g, complement(g))
        assert alpha_exact(p)[0] >= g.n


class TestBoundReport:
    def test_parallel_links_chain(self):
        report = bound_report(parse_network(PARALLEL_LINKS), exact_gns=True)
        assert (report.m, report.mais_value) == (4, 2)
        assert report.rcp_value == 2
        assert report.approx_weight == 2
        assert len(report.gns_exact.cut) == 2
        assert report.code_rate == 2
        assert report.co_rate_lb == 2
        assert report.skipped == ()

    def test_mais_and_fvs_match_searches_and_oracle(self):
        for seed in range(1, 13):
            k = 1 + seed % 3
            net = random_dag_network(2 * k + 3, 2 * k + 3 + seed % 4, k, seed=seed)
            g, _ = to_index_graph(net)
            report = bound_report(net)
            assert report.mais_value == mais_exact(g)[0] == oracle_mais(g)
            assert report.fvs == min_fvs_exact(g)

    def test_two_disjoint_unicasts(self):
        report = bound_report(parse_network(TWO_DISJOINT))
        assert (report.m, report.mais_value, report.rcp_value) == (4, 2, 2)

    def test_single_pair_collapses_to_mincut(self):
        report = bound_report(parse_network(SINGLE_PATH), exact_gns=True)
        assert report.m - report.mais_value == 1
        assert report.rcp_value == 1
        assert len(report.gns_exact.cut) == 1

    def test_tensor_and_shannon_fields(self):
        report = bound_report(
            parse_network(SINGLE_PATH), qs=(1, 2), shannon_powers=(1,)
        )
        assert [tb.q for tb in report.tensor_bounds] == [1, 2]
        assert len(report.shannon_lb) == 1

    def test_round_trip(self):
        for kwargs in (
            dict(exact_gns=True, qs=(1, 2), shannon_powers=(1, 2)),
            dict(),
        ):
            report = bound_report(parse_network(PARALLEL_LINKS), **kwargs)
            assert parse_report(serialize_report(report)) == report

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_constant_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="ratio constant"):
            bound_report(parse_network(PARALLEL_LINKS), ratio_constant=value)

    def test_skips_oversized_components(self):
        from gnskit.caps import Caps

        tight = Caps(mais_vertices=2, rcp_cycles=20000)
        report = bound_report(parse_network(PARALLEL_LINKS), caps=tight)
        assert report.mais_value is None
        assert "mais" in report.skipped
        assert parse_report(serialize_report(report)) == report

    @pytest.mark.parametrize(
        "text",
        [
            "m: 4\nk: 1\n",  # missing header
            "boundreport\nmais 2\n",  # missing separator
            "boundreport\nm: 4\nk: 1\npacking:\n  weightless: 1\n",
        ],
    )
    def test_parse_report_rejects_malformed(self, text):
        from gnskit import FormatError

        with pytest.raises(FormatError):
            parse_report(text)


class TestReportFvsPaths:
    """`bound_report` hands `min_fvs_exact` the checked approximate FVS when
    the packing proves it minimum (rcp > |approx_fvs| - 1) and lets it search
    for the size otherwise; both paths give the lexmin minimum FVS and the
    q = 1 tensor radicand."""

    @staticmethod
    def check(net, monkeypatch) -> bool:
        given_minimum = []

        def spy(g, vertex_cap, minimum=None):
            given_minimum.append(minimum)
            return min_fvs_exact(g, vertex_cap, minimum)

        monkeypatch.setattr(gnskit.bounds, "min_fvs_exact", spy)
        report = bound_report(net, caps=Caps(mais_vertices=64))
        monkeypatch.undo()
        g, _ = to_index_graph(net)
        sandwich = report.rcp_value > len(report.approx_fvs) - 1
        assert given_minimum == [report.approx_fvs if sandwich else None]
        assert report.fvs == min_fvs_exact(g, 64)
        assert report.tensor_bounds[0].q == 1
        assert report.tensor_bounds[0].radicand == report.mais_value == g.n - len(report.fvs)
        return sandwich

    def test_lp_tight_networks(self, monkeypatch):
        for seed in range(1, 11):
            assert self.check(random_dag_network(7, 12, 3, seed=seed), monkeypatch)

    def test_gap_network(self, monkeypatch):
        # objective 3, weight 4: the packing proves nothing, so the size is
        # searched (the wrappings of bidirected C7, C9 and other gap graphs
        # take seconds to minutes per report)
        net = network_from_side_info_graph(symmetric_cycle(5))
        assert not self.check(net, monkeypatch)


class TestReportPackingMatchesReference:
    """The report's packing is the dual of the spreading metric, mapped to
    the index graph; the reference solves one LP over every enumerated
    index-graph cycle."""

    @staticmethod
    def check(net):
        g, _ = to_index_graph(net)
        report = bound_report(net)
        validate_packing(g, report.packing)
        assert report.rcp_value == report.packing.value == reference_rcp_exact(g).value

    def test_seeded_networks(self):
        for seed in range(1, 11):
            self.check(random_dag_network(7, 12, 3, seed=seed))

    def test_sweep_family_with_parallel_links(self):
        checked = 0
        for seed in range(1, 201):  # the scripts/bound_chain_sweep.py family
            try:
                net = random_dag_network(4 + seed % 4, 3 + seed % 6, 1 + seed % 4, seed)
            except ValueError:
                continue
            closed = closure_links(net)
            if net.m <= 14 and len({(e.tail, e.head) for e in closed}) < len(closed):
                self.check(net)
                checked += 1
        assert checked == 97

    def test_past_the_enumeration_cap(self):
        net = random_dag_network(10, 18, 4, seed=11)  # m = 25
        g, _ = to_index_graph(net)
        with pytest.raises(CapacityError):
            reference_rcp_exact(g)  # more than 20000 cycles
        report = bound_report(net, caps=Caps(mais_vertices=64))
        assert report.skipped == ()
        links, terminals = vertex_split_links(g)
        assert report.rcp_value == solve_spreading_metric(links, terminals).objective
        assert verify_index_code(g, report.code) == (True, None)


class TestWeakDuality:
    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=6))
    def test_rcp_below_fvs(self, g):
        packing = rcp_exact(g)
        assert packing.value <= g.n - mais_exact(g)[0]


class TestCertificateTieBreaking:
    """Certificates are the lexicographically smallest optimal sets; checked
    against first-hit subset scans in combination order."""

    @staticmethod
    def _induced_acyclic(g, sub):
        import networkx as nx

        d = nx.DiGraph()
        d.add_nodes_from(sub)
        d.add_edges_from((u, v) for (u, v) in g.edges if u in sub and v in sub)
        return nx.is_directed_acyclic_graph(d)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_mais_certificate_is_lex_smallest(self, g):
        from itertools import combinations

        size, cert = mais_exact(g)
        first = next(
            sub
            for sub in combinations(range(g.n), size)
            if self._induced_acyclic(g, set(sub))
        )
        assert tuple(sorted(cert)) == first

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_fvs_certificate_is_lex_smallest(self, g):
        from itertools import combinations

        fvs = min_fvs_exact(g)
        first = next(
            sub
            for sub in combinations(range(g.n), len(fvs))
            if self._induced_acyclic(g, set(range(g.n)) - set(sub))
        )
        assert tuple(sorted(fvs)) == first

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_alpha_certificate_is_lex_smallest(self, g):
        from itertools import combinations

        size, cert = alpha_exact(g)
        und = {frozenset(e) for e in g.edges}
        first = next(
            sub
            for sub in combinations(range(g.n), size)
            if all(frozenset((u, v)) not in und for u in sub for v in sub if u < v)
        )
        assert tuple(sorted(cert)) == first


def _reference_lexmin(g, size, required_trial):
    """The lexmin certificate loop driven by the reference search: keep each
    vertex in order if a set of `size` still fits around the vertices so far
    (as required members for mais, as removed vertices for the FVS)."""
    order = _search_order(g)
    target = reference_max_acyclic(g._out, order)
    chosen = []
    for v in range(g.n):
        if len(chosen) == size:
            break
        trial = chosen + [v]
        cand = [c for c in order if c not in trial]
        required = trial if required_trial else ()
        if reference_max_acyclic(g._out, cand, required, target=target) >= target:
            chosen.append(v)
    return frozenset(chosen)


class TestSearchMatchesReference:
    """The bitmask search on an explicit stack against the set-based
    recursive search it replaced, on index graphs of benchmark size."""

    @staticmethod
    def _graphs():
        for seed in (1, 2, 3, 4, 6, 7, 9, 10, 11, 12):
            k = 3 + seed % 3
            net = random_dag_network(2 * k + 3, 2 * k + 8 + seed % 5, k, seed=seed)
            yield to_index_graph(net)[0]

    def test_certificates(self):
        for g in self._graphs():
            assert 18 <= g.n <= 27
            size = reference_max_acyclic(g._out, _search_order(g))
            assert mais_exact(g, 64) == (size, _reference_lexmin(g, size, True))
            assert min_fvs_exact(g, 64) == _reference_lexmin(g, g.n - size, False)

    def test_a_given_minimum_gives_the_lexmin_certificate(self):
        # F is the lexmin minimum FVS under reversed labels, so the search
        # starts from a minimum set that is not the lexmin one
        for g in self._graphs():
            n = g.n
            reversed_g = Digraph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
            other = frozenset(n - 1 - v for v in min_fvs_exact(reversed_g, 64))
            lexmin = min_fvs_exact(g, 64)
            assert other != lexmin and len(other) == len(lexmin)
            assert min_fvs_exact(g, 64, minimum=other) == lexmin

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=7))
    def test_small_graphs(self, g):
        size = reference_max_acyclic(g._out, _search_order(g))
        assert mais_exact(g) == (size, _reference_lexmin(g, size, True))
        assert min_fvs_exact(g) == _reference_lexmin(g, g.n - size, False)

    def test_targets_and_required_sets(self):
        # a target is a decision: the size says whether a set of that size
        # exists, and the mask is one; without a target both are the maximum
        for g in self._graphs():
            out = [sum(1 << w for w in ws) for ws in g._out]
            order = _search_order(g)
            size = _max_acyclic(out, order)[0]
            cases = [(order, (), t) for t in (None, 1, size - 1, size, size + 1)]
            for required in ([0, 1], list(range(0, g.n, 3)), order[:6]):
                cand = [v for v in order if v not in required]
                cases += [(cand, required, t) for t in (None, size)]
            for cand, required, t in cases:
                found, mask = _max_acyclic(out, cand, required, t)
                reference = reference_max_acyclic(g._out, cand, required, t)
                if t is None:
                    assert found == reference
                else:
                    assert (found >= t) == (reference >= t)
                if found < (0 if t is None else t):
                    continue  # no set, so no mask to check
                members = {v for v in range(g.n) if mask >> v & 1}
                assert len(members) == found if t is None else len(members) >= t
                assert set(required) <= members <= set(required) | set(cand)
                assert nx.is_directed_acyclic_graph(to_nx(g).subgraph(members))


DEEP = sys.getrecursionlimit() + 100  # more vertices than the recursion limit


class TestDeepInputs:
    """Inputs with more vertices than the recursion limit: the searches keep
    their own stacks, so no input depth raises RecursionError."""

    def _check_acyclic(self, g):
        assert min_fvs_exact(g, DEEP) == frozenset()
        assert mais_exact(g, DEEP) == (DEEP, frozenset(range(DEEP)))
        assert tensor_bound(g, 1, DEEP, DEEP, DEEP).radicand == DEEP

    def test_directed_path(self):
        self._check_acyclic(Digraph(DEEP, [(v, v + 1) for v in range(DEEP - 1)]))

    def test_dag(self):
        edges = [(v, w) for v in range(DEEP) for w in (v + 1, v + 2, v + 5) if w < DEEP]
        self._check_acyclic(Digraph(DEEP, edges))

    def test_directed_cycle(self):
        g = directed_cycle(DEEP)
        assert min_fvs_exact(g, DEEP) == frozenset({0})
        assert mais_exact(g, DEEP) == (DEEP - 1, frozenset(range(DEEP - 1)))

    def test_independence_of_a_clique(self):
        # every search node branches: the include side ends at once, the
        # exclude side goes one vertex deeper
        full = (1 << DEEP) - 1
        size, members = _mis_size([full & ~(1 << v) for v in range(DEEP)], full)
        assert (size, members.bit_count()) == (1, 1)
