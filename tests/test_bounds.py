"""Exact bound quantities, product/blowup identities, and the report."""

import dataclasses
import math
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from gnskit import (
    CapacityError,
    ContractViolation,
    Digraph,
    FormatError,
    LSParams,
    blowup,
    bound_report,
    closure_links,
    complement,
    is_gns_cut,
    min_gns_cut_exact,
    parse_network,
    parse_report,
    serialize_report,
    solve_spreading_metric,
    strong_product,
    tensor_power,
    tilde_transform,
    to_index_graph,
    verify_index_code,
)
import gnskit.bounds
import gnskit.cyclepack
import gnskit.digraph
import gnskit.network
from gnskit.bounds import (
    _mis_size,
    _neighbour_masks,
    mais_exact,
    min_fvs_exact,
    shannon_capacity_lb,
    tensor_bound,
)
from gnskit.caps import Caps
from gnskit.cyclepack import (
    CyclePacking,
    packing_from_metric,
    rcp_exact,
    subset_fes_approx,
    validate_packing,
    vertex_split_links,
)
from gnskit.digraph import _disjoint_cycles, _masks, _max_acyclic
from gnskit.instances import (
    lubetzky_stav,
    network_from_side_info_graph,
    random_dag_network,
    random_digraph,
)

from helpers import (
    PARALLEL_LINKS,
    SINGLE_PATH,
    TWO_DISJOINT,
    crossed_unicasts,
    directed_cycle,
    is_feedback_set,
    oracle_alpha,
    oracle_mais,
    reference_alpha_exact,
    reference_mais_size,
    reference_max_acyclic,
    reference_parse_report,
    reference_rcp_exact,
    search_order,
    symmetric_cycle,
    to_nx,
)
from test_digraph import random_graphs


class TestMaisExact:
    def test_dag(self):
        g = Digraph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        assert mais_exact(g) == (5, frozenset(range(5)))

    def test_three_cycle(self):
        g = directed_cycle(3)
        size, cert = mais_exact(g)
        assert size == len(cert) == oracle_mais(g) == 2
        assert is_feedback_set(g, frozenset(range(3)) - cert)

    def test_bidirected_k22(self):
        g, _ = __import__("gnskit").to_index_graph(parse_network(PARALLEL_LINKS))
        assert oracle_mais(g) == 2
        assert mais_exact(g)[0] == 2

    def test_certificate_induces_acyclic(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 4)])
        size, cert = mais_exact(g)
        assert len(cert) == size == oracle_mais(g)
        assert is_feedback_set(g, frozenset(range(6)) - cert)

    def test_cap(self):
        with pytest.raises(CapacityError):
            mais_exact(Digraph(23), vertex_cap=22)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=6))
    def test_matches_subset_oracle(self, g):
        size, cert = mais_exact(g)
        assert size == oracle_mais(g)
        assert is_feedback_set(g, frozenset(range(g.n)) - cert)


def alpha(g):
    """The independence number of g, as `shannon_capacity_lb(g, 1)` reports
    it, with the maximum independent set `_mis_size` finds."""
    size, members = _mis_size(_neighbour_masks(g), (1 << g.n) - 1)
    assert shannon_capacity_lb(g, 1).radicand == size
    return size, frozenset(v for v in range(g.n) if members >> v & 1)


def is_independent(g, members):
    return all((u, v) not in g.edges for u in members for v in members)


class TestAlphaExact:
    def test_empty_graph(self):
        assert alpha(Digraph(6)) == (6, frozenset(range(6)))

    def test_c5(self):
        g = symmetric_cycle(5)
        size, cert = alpha(g)
        assert size == len(cert) == 2
        assert is_independent(g, cert)

    def test_c5_square(self):
        p = strong_product(symmetric_cycle(5), symmetric_cycle(5))
        assert alpha(p)[0] == 5 == oracle_alpha(p)

    def test_matches_the_search_without_witnesses(self):
        c5, c6 = symmetric_cycle(5), symmetric_cycle(6)
        graphs = [strong_product(c5, c5), strong_product(c5, c6)]
        graphs += [random_digraph(30, (0.1, 0.15, 0.2)[s % 3], s) for s in range(1, 16)]
        for g in graphs:
            size, cert = alpha(g)
            assert size == len(cert) == reference_alpha_exact(g)[0]
            assert is_independent(g, cert)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=6))
    def test_matches_clique_oracle(self, g):
        size, cert = alpha(g)
        assert size == len(cert) == oracle_alpha(g)
        assert is_independent(g, cert)


class TestMinFvsExact:
    """A minimum feedback vertex set: its size is n minus the reference
    mais, and removing it leaves g acyclic (networkx)."""

    @staticmethod
    def check(g, fvs):
        assert len(fvs) == g.n - reference_mais_size(g)
        assert is_feedback_set(g, fvs)

    def test_dag_empty(self):
        assert min_fvs_exact(Digraph(4, [(0, 1), (2, 3)])) == frozenset()

    def test_three_cycle(self):
        g = directed_cycle(3)
        self.check(g, min_fvs_exact(g))

    def test_two_disjoint_two_cycles(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        fvs = min_fvs_exact(g)
        self.check(g, fvs)
        assert len(fvs & {0, 1}) == len(fvs & {2, 3}) == 1

    def test_given_minimum_must_be_a_feedback_vertex_set(self):
        # a given minimum set comes back as it is: no probe refutes a set
        # past the disjoint-cycle bound
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        for upper in (frozenset({1, 3}), frozenset({0, 3})):
            assert min_fvs_exact(g, upper=upper) == upper
        for bad in (frozenset({0}), frozenset({0, 2, 4}), frozenset({-1, 0, 2})):
            with pytest.raises(ContractViolation, match="is not a feedback vertex set"):
                min_fvs_exact(g, upper=bad)

    def test_upper_is_checked_before_the_cap(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ContractViolation):
            min_fvs_exact(g, 1, upper=frozenset({0}))
        with pytest.raises(CapacityError):
            min_fvs_exact(g, 1, upper=frozenset({0, 2}))

    def test_upper_is_probed_down_to_the_minimum(self):
        # a feedback vertex set that is not minimum gives no wrong certificate
        g = directed_cycle(3)
        for upper in (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})):
            self.check(g, min_fvs_exact(g, upper=upper))

    @staticmethod
    def approximate(net):
        """The index graph, the approximate FES (index-graph vertex v is
        link v) and the packing that `bound_report` pairs with it."""
        g, _ = to_index_graph(net)
        approx = subset_fes_approx(net)
        return g, approx.fes, packing_from_metric(closure_links(net), approx.metric)

    @pytest.mark.parametrize(
        "side_info",
        [symmetric_cycle(5), symmetric_cycle(7), random_digraph(7, 0.4, 3)],
        ids=["bidirected-C5", "bidirected-C7", "random_digraph(7,0.4,3)"],
    )
    def test_gap_wrappings(self, side_info):
        # the packing value is below the minimum, so only the search proves
        # it; from the approximate FES, from scratch and from every vertex
        # the search finds the same size
        g, fes, packing = self.approximate(network_from_side_info_graph(side_info))
        fvs = min_fvs_exact(g, 64, upper=fes)
        self.check(g, fvs)
        assert packing.value < len(fvs) <= len(fes)
        for upper in (None, frozenset(range(g.n))):
            assert len(min_fvs_exact(g, 64, upper)) == len(fvs)

    def test_an_approximate_fes_the_packing_proves_comes_back(self):
        for seed in range(1, 11):
            g, fes, packing = self.approximate(random_dag_network(7, 12, 3, seed=seed))
            assert len(fes) == math.ceil(packing.value)
            assert min_fvs_exact(g, 64, upper=fes) == fes
            self.check(g, fes)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=6))
    def test_complementarity_and_validity(self, g):
        fvs = min_fvs_exact(g)
        assert len(fvs) == g.n - oracle_mais(g)
        self.check(g, fvs)
        for upper in (fvs, frozenset(range(g.n))):
            self.check(g, min_fvs_exact(g, upper=upper))

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=9, p=0.4), st.data())
    def test_required_vertices_are_never_cut(self, g, data):
        # the largest acyclic superset of `required` is the reference's; the
        # cap counts only the other vertices, and within it a cyclic
        # `required` is refused
        kept = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        required = frozenset(v for v in range(g.n) if kept[v])
        cuttable = [v for v in search_order(g) if v not in required]
        most = reference_max_acyclic(g._out, cuttable, sorted(required))
        cap = data.draw(st.integers(0, g.n))
        if len(cuttable) > cap:
            with pytest.raises(CapacityError, match=f"{len(cuttable)} vertices exceed"):
                min_fvs_exact(g, cap, required=required)
            return
        if most < 0:
            with pytest.raises(ContractViolation, match="hold a cycle"):
                min_fvs_exact(g, cap, required=required)
            return
        fvs = min_fvs_exact(g, cap, required=required)
        assert len(fvs) == g.n - most
        assert is_feedback_set(g, fvs)
        assert not fvs & required
        # from every cuttable vertex the search finds the same size; an
        # upper set that cuts a required vertex is refused
        assert len(min_fvs_exact(g, cap, frozenset(cuttable), required)) == len(fvs)
        if required:
            with pytest.raises(ContractViolation, match="outside the required vertices"):
                min_fvs_exact(g, cap, frozenset(range(g.n)), required)


class TestProbeDown:
    """The size search with no witness probes down from the disjoint-cycle
    bound; it agrees with the search from scratch and with subset
    enumeration."""

    @staticmethod
    def check(g, oracle=True):
        size = reference_mais_size(g)
        if oracle:
            assert size == oracle_mais(g)
        assert mais_exact(g, g.n)[0] == size
        assert len(min_fvs_exact(g, 64)) == g.n - size

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=8, p=0.4))
    def test_small_graphs(self, g):
        self.check(g)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=3, p=0.5))
    def test_squares_of_small_graphs(self, g):
        g2 = tensor_power(g, 2)
        self.check(g2)
        assert tensor_bound(g, 2, g.n).radicand == reference_mais_size(g2)

    def test_index_graph_past_a_hundred_links(self):
        # m = 116 with mais 103: the q=1 probe ran for seconds while each
        # search state counted its disjoint cycles from scratch in bit order
        g = to_index_graph(random_dag_network(30, 100, 8, 2))[0]
        m = g.n
        assert m == 116
        assert tensor_bound(g, 1, m, vertex_cap=128).radicand == 103
        assert m - len(min_fvs_exact(g, 128)) == 103

    def test_squares(self):
        graphs = [directed_cycle(4), symmetric_cycle(4), symmetric_cycle(5)]
        graphs += [random_digraph(5, 0.4, seed) for seed in range(1, 6)]
        for g in graphs:
            self.check(tensor_power(g, 2), oracle=False)


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

    def test_power_refused_before_it_is_built(self, monkeypatch):
        g = directed_cycle(5)  # its square has 25 vertices
        built = []
        monkeypatch.setattr(gnskit.bounds, "tensor_power", lambda *args: built.append(args))
        refusal = "power graph has 25 vertices, exact-search cap is 24"
        with pytest.raises(CapacityError, match=refusal):
            tensor_bound(g, 2, 5, vertex_cap=24)
        with pytest.raises(CapacityError, match=refusal):
            shannon_capacity_lb(g, 2, vertex_cap=24)
        assert built == []
        monkeypatch.undo()  # past the tensor cap, tensor_power's own refusal
        with pytest.raises(CapacityError, match="tensor power would have 25 vertices"):
            tensor_bound(g, 2, 5, tensor_cap=20, vertex_cap=10)

    @staticmethod
    def wrong_search(monkeypatch, wrong):
        real = gnskit.bounds.min_fvs_exact

        def spy(*args, **kwargs):
            return wrong(real(*args, **kwargs))

        monkeypatch.setattr(gnskit.bounds, "min_fvs_exact", spy)

    def too_small(self, monkeypatch):
        # min_fvs_exact returning one vertex too few, so no feedback set
        self.wrong_search(monkeypatch, lambda fvs: fvs - {min(fvs)})

    def empty(self, monkeypatch):
        # min_fvs_exact returning no vertex, fewer than the packing allows
        self.wrong_search(monkeypatch, lambda fvs: frozenset())

    @staticmethod
    def swapped(monkeypatch):
        # approx_fvs with one vertex swapped for another: its size, but no
        # feedback set
        real = gnskit.bounds.subset_fes_approx

        def spy(net, *args):
            a = real(net, *args)
            g, _ = to_index_graph(net)
            swaps = (a.fes - {v} | {u} for v in sorted(a.fes) for u in range(g.n) if u not in a.fes)
            return dataclasses.replace(a, fes=next(f for f in swaps if not is_feedback_set(g, f)))

        monkeypatch.setattr(gnskit.bounds, "subset_fes_approx", spy)

    @staticmethod
    def raised(monkeypatch):
        # the packing with its first weight and its value raised by one, so
        # the value matches and a vertex is overloaded
        real = gnskit.bounds.packing_from_metric

        def spy(*args):
            p = real(*args)
            (cyc, w), *rest = p.assignments
            return CyclePacking(((cyc, w + 1), *rest), p.value + 1)

        monkeypatch.setattr(gnskit.bounds, "packing_from_metric", spy)

    # the C5 wrapping, where the packing leaves a gap (rcp 3, approx 4), and
    # a draw where it proves approx_fvs minimum (rcp 4, approx 4)
    GAP = network_from_side_info_graph(symmetric_cycle(5))
    CLOSED = random_dag_network(7, 12, 3, seed=1)

    @pytest.mark.parametrize(
        "net, mutation, refusal",
        [
            # the searched set is peeled like any other: its complement holds
            # a cycle, or it is shorter than the packing allows
            (GAP, "too_small", "is not a feedback vertex set of size 3 or more"),
            (GAP, "empty", r"\[\] is not a feedback vertex set of size 3 or more"),
            # nothing is searched: the printed approx_fvs is peeled, and the
            # packing that proves it minimum is checked
            (CLOSED, "swapped", "is not a feedback vertex set$"),
            (CLOSED, "raised", "is overloaded"),
        ],
        ids=["gap-dropped", "gap-empty", "closed-swapped", "closed-raised"],
    )
    def test_a_wrong_fvs_still_trips_the_report(self, net, mutation, refusal, monkeypatch):
        getattr(self, mutation)(monkeypatch)
        with pytest.raises(ContractViolation, match=refusal):
            bound_report(net, caps=Caps(mais_vertices=64))

    @pytest.mark.parametrize("qs", [(2,), ()], ids=["q2", "no-q"])
    def test_a_wrong_fvs_trips_the_report_without_q1(self, qs, monkeypatch):
        # with no q=1 radicand beside it, the searched set of the C5 wrapping
        # is still checked
        self.too_small(monkeypatch)
        net = network_from_side_info_graph(symmetric_cycle(5))
        with pytest.raises(ContractViolation, match="is not a feedback vertex set"):
            bound_report(net, qs=qs, caps=Caps(mais_vertices=64))


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
        assert alpha(b)[0] == k * alpha(g)[0]
        assert mais_exact(b, vertex_cap=15)[0] == k * mais_exact(g)[0]

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=5))
    def test_alpha_le_mais_le_n(self, g):
        a = alpha(g)[0]
        m = mais_exact(g)[0]
        assert a <= m <= g.n

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=5))
    def test_diagonal_independent_in_complement_product(self, g):
        p = strong_product(g, complement(g))
        assert alpha(p)[0] >= g.n


# reports with every section, skipped components, empty sets and fractions
REPORT_TEXTS = [
    serialize_report(bound_report(net, **kwargs))
    for net, kwargs in [
        (parse_network(PARALLEL_LINKS), dict(exact_gns=True, qs=(1, 2), shannon_powers=(1, 2))),
        (parse_network(PARALLEL_LINKS), dict(caps=Caps(mais_vertices=2))),
        (crossed_unicasts(), dict(exact_gns=True)),
        (network_from_side_info_graph(symmetric_cycle(3)), dict(field=3)),
        (random_dag_network(8, 14, 3, seed=5), dict(exact_gns=True)),
    ]
]
HOSTILE_TOKENS = [
    "", "x", "0", "-1", "1/0", "1/2", "1.5", "1_0", "nan", "1e999", ":", "=", "q=", "p=4", "gns:",
]


@st.composite
def mutated_reports(draw):
    """A real report with one to three lines dropped, duplicated, swapped,
    truncated, or with one space-separated token replaced. A duplicate may
    have a token replaced, so that the original, after it, has the last
    word."""

    def replace_token(line: str) -> str:
        tokens = line.split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(st.sampled_from(HOSTILE_TOKENS) | st.text(max_size=3))
        return " ".join(tokens)

    lines = draw(st.sampled_from(REPORT_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "replace"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, draw(st.sampled_from([lines[i], replace_token(lines[i])])))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            lines[i] = replace_token(lines[i])
    return "\n".join(lines) + "\n"


def printed_fraction(text: str) -> Fraction:
    """A rational in the forms a Fraction prints, `a` and `a/b`; ValueError
    for the decimals, exponents and underscores Fraction(str) also reads."""
    parts = text.removeprefix("-").split("/")
    if len(parts) > 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"{text!r} is not a printed Fraction")
    return Fraction(text)


SECTIONS = ("gns", "packing", "code")


def refused_past_the_reference(text: str) -> bool:
    """Whether `text` has one of the three shapes no serializer writes,
    which parse_report refuses although the reference reads them: a section
    key with a value on its own line, a `gns:` section whose `size:` is not
    the size of its `cut:`, and `packing:` assignments with no `value:`."""
    section, lines = None, {key: [] for key in SECTIONS}
    for raw in [ln for ln in text.splitlines() if ln.strip()][1:]:
        if raw.startswith("  ") and section is not None:
            key, _, value = raw.partition(":")
            lines[section].append((key.strip(), value.strip()))
            continue
        key, _, value = (part.strip() for part in raw.partition(":"))
        if key in SECTIONS and value:
            return True
        section = None if value or key not in SECTIONS else key
    gns, packing = dict(lines["gns"]), {key for key, _ in lines["packing"]}
    try:
        cut = {int(x) for x in gns.get("cut", "").split()}
        wrong_size = "size" in gns and int(gns["size"]) != len(cut)
    except ValueError:
        wrong_size = True  # the reference refuses a malformed cut as well
    return wrong_size or ("assign" in packing and "value" not in packing)


def assert_parses_like_the_reference(text: str) -> None:
    """parse_report returns the reference's report where it has one, and
    raises FormatError where the reference raises anything or where the
    text has a shape the reference reads but no serializer writes. The
    reference reads rationals only as `a` or `a/b`, the forms the serializer
    writes."""
    try:
        expected = reference_parse_report(text, fraction=printed_fraction)
    except (FormatError, ArithmeticError, LookupError, ValueError):
        expected = None
    if expected is None or refused_past_the_reference(text):
        with pytest.raises(FormatError):
            parse_report(text)
    else:
        assert parse_report(text) == expected


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
            assert len(min_fvs_exact(g)) == len(report.fvs) == g.n - report.mais_value
            assert is_feedback_set(g, report.fvs)

    def test_two_disjoint_unicasts(self):
        report = bound_report(parse_network(TWO_DISJOINT))
        assert (report.m, report.mais_value, report.rcp_value) == (4, 2, 2)

    def test_single_pair_collapses_to_mincut(self):
        report = bound_report(parse_network(SINGLE_PATH), exact_gns=True)
        assert report.m - report.mais_value == 1
        assert report.rcp_value == 1
        assert len(report.gns_exact.cut) == 1

    def test_exact_gns_on_a_gap_wrapping(self):
        # 36 cuttable links staged, past the 18 that subset enumeration took
        net = network_from_side_info_graph(symmetric_cycle(7))
        report = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=64))
        assert report.skipped == ()
        assert len(report.gns_exact.cut) == report.m - report.mais_value == 5

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
        # the wrapping of bidirected C5 (m = 26, rcp 3, approx 4): the
        # packing leaves a gap, so only a search gives mais, and the cap
        # refuses it
        tight = Caps(mais_vertices=25, rcp_cycles=20000)
        report = bound_report(network_from_side_info_graph(symmetric_cycle(5)), caps=tight)
        assert report.mais_value is None
        assert report.skipped == ("mais", "tensor:q=1")
        assert parse_report(serialize_report(report)) == report

    def test_a_proven_minimum_is_never_skipped(self):
        # PARALLEL_LINKS (m = 4, rcp 2, approx 2): the packing proves the
        # approximate set minimum, so the cap refuses no search
        net = parse_network(PARALLEL_LINKS)
        report = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=2))
        assert report.skipped == ()
        assert (report.mais_value, report.fvs) == (2, report.approx_fvs)
        assert report.tensor_bounds == ((1, 2, 2.0),)
        assert report.gns_exact.cut == report.fvs
        assert parse_report(serialize_report(report)) == report

    @pytest.mark.parametrize(
        "text",
        [
            "m: 4\nk: 1\n",  # missing header
            "boundreport\nmais 2\n",  # missing separator
            "boundreport\nm: 4\nk: 1\npacking:\n  weightless: 1\n",
            "boundreport\n",  # no m or k
            "boundreport\nm: x\nk: 1\n",
            "boundreport\nm: 4\nk: 1\ntensor_bound: q\n",
            "boundreport\nm: 4\nk: 1\nfvs: a\n",
            "boundreport\nm: 4\nk: 1\ngns:\n  cut: 1\n",  # no permutation
            "boundreport\nm: 4\nk: 1\npacking:\n  assign: 1/0 1\n",
            # rationals other than `a` or `a/b`; the exponent took 10 s to expand
            "boundreport\nm: 4\nk: 1\nrcp: 1e10000000\n",
            "boundreport\nm: 4\nk: 1\ncode_rate: 1.5\n",
            "boundreport\nm: 4\nk: 1\nco_rate_lb: 1_0\n",
            "boundreport\nm: 4\nk: 1\npacking:\n  value: 1e3\n",
            "boundreport\nm: 4\nk: 1\npacking:\n  value: 1\n  assign: 0.5 1\n",
            # bound_report skips a code whose field primality cannot decide
            "boundreport\nm: 4\nk: 1\ncode:\n"
            "  code p=3317044064679887385961981 t=1 n=2 r=1\n  row 1 1\n",
        ],
    )
    def test_parse_report_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_report(text)

    @pytest.mark.parametrize("index", range(len(REPORT_TEXTS)))
    def test_real_reports_round_trip(self, index):
        text = REPORT_TEXTS[index]
        assert not refused_past_the_reference(text)
        assert parse_report(text) == reference_parse_report(text)
        assert serialize_report(parse_report(text)) == text

    @settings(max_examples=400, deadline=None)
    @given(mutated_reports())
    def test_parse_report_matches_the_reference(self, text):
        assert_parses_like_the_reference(text)

    @pytest.mark.parametrize(
        "lines",
        [
            "mais: x\nmais: 2\n",  # the last line wins unread
            "packing:\n  value: x\n  value: 1\n",  # every value line is read
            # the next three are refused: see test_parse_report_refuses_what_no_serializer_writes
            "packing:\n  assign: 1 0 1\n",
            "gns: 3\n  cut: 1\nunknown: x\nskipped: a b\n",
            "gns:\n  size: x\n  cut: y\n  cut: 1\n  permutation: 1\n",
            "unknown: x\nskipped: a b\n",  # unknown keys are ignored
            "gns:\n  size: 1\n  cut: y\n  cut: 1\n  permutation: 1\n",  # the last cut wins
            "tensor_bound: q=1 q=2 radicand=3 value=1.0 extra=x\n",
            "  mais: 2\n\n   \nfvs:\napprox_fvs:\ncode:\n",
            "packing:\n  value: 1\n gns:\n  cut: 1\n",
        ],
    )
    def test_parse_report_keeps_the_reference_quirks(self, lines):
        assert_parses_like_the_reference("boundreport\nm: 4\nk: 1\n" + lines)

    @pytest.mark.parametrize(
        "lines",
        [
            "packing:\n  assign: 1 0 1\n",  # assignments without a value line
            "packing:\n  assign: 1 0 1\npacking:\n  assign: 1 2 3\n",
            "gns: 3\n",  # a section key with a value on its own line
            "packing: 1\n  value: 1\n",
            "code: x\n",
            "  gns: 3\n",  # no section is open, so this line is not indented content
            "gns:\n  size: x\n  cut: 1\n  permutation: 1\n",  # size is not the cut's
            "gns:\n  size: 2\n  cut: 1\n  permutation: 1\n",
            "gns:\n  size: 2\n  cut: 1 1\n  permutation: 1\n",
            "gns:\n  size: 0\n  cut: 1\n  cut:\n  size: 1\n  permutation: 1\n",
        ],
    )
    def test_parse_report_refuses_what_no_serializer_writes(self, lines):
        text = "boundreport\nm: 4\nk: 1\n" + lines
        reference_parse_report(text)  # which reads each of them
        assert refused_past_the_reference(text)
        with pytest.raises(FormatError):
            parse_report(text)


class TestReportFvsPaths:
    """Where the packing proves the approximate FVS minimum (ceil(rcp) ==
    approx_weight), `bound_report` prints it and searches nothing. Where it
    leaves a gap, `bound_report` hands the checked approximate FVS to
    `min_fvs_exact`, whose size search probes up from its complement. Either
    way `fvs` is a minimum FVS, and the q = 1 tensor radicand is its mais."""

    @staticmethod
    def check(net, monkeypatch):
        given = []

        def spy(g, vertex_cap, upper=None):
            given.append(upper)
            return min_fvs_exact(g, vertex_cap, upper)

        monkeypatch.setattr(gnskit.bounds, "min_fvs_exact", spy)
        report = bound_report(net, caps=Caps(mais_vertices=64))
        monkeypatch.undo()
        g, _ = to_index_graph(net)
        closed = math.ceil(report.rcp_value) == report.approx_weight
        assert given == ([] if closed else [report.approx_fvs])
        if closed:
            assert report.fvs == report.approx_fvs
        assert len(report.fvs) == len(min_fvs_exact(g, 64))
        assert is_feedback_set(g, report.fvs)
        assert report.tensor_bounds[0].q == 1
        assert report.tensor_bounds[0].radicand == report.mais_value == g.n - len(report.fvs)
        return report

    def test_lp_tight_networks(self, monkeypatch):
        for seed in range(1, 11):
            report = self.check(random_dag_network(7, 12, 3, seed=seed), monkeypatch)
            assert len(report.fvs) == math.ceil(report.rcp_value) == report.approx_weight

    def test_gap_network(self, monkeypatch):
        # objective 3, weight 4: the packing proves nothing, and the probe
        # refutes a set of 23 acyclic links
        report = self.check(network_from_side_info_graph(symmetric_cycle(5)), monkeypatch)
        assert (report.rcp_value, report.approx_weight, len(report.fvs)) == (3, 4, 4)

    @pytest.mark.parametrize(
        "side_info, rcp, fvs_size",
        [
            (symmetric_cycle(7), 4, 5),
            (symmetric_cycle(9), 5, 6),
            (random_digraph(7, 0.4, 3), Fraction(5, 2), 3),
        ],
        ids=["bidirected-C7", "bidirected-C9", "random_digraph(7,0.4,3)"],
    )
    def test_gap_wrappings(self, side_info, rcp, fvs_size, monkeypatch):
        # m = 36, 46 and 36, past the default mais cap; the packing leaves a
        # gap below the minimum, so only the searches prove it
        report = self.check(network_from_side_info_graph(side_info), monkeypatch)
        assert (report.rcp_value, len(report.fvs)) == (rcp, fvs_size)

    @pytest.mark.parametrize("mais_vertices", [64, 1])
    def test_one_index_graph_and_one_fvs_check(self, mais_vertices, monkeypatch):
        # the FES maps to the FVS through the report's own index graph, the
        # packing is checked once, and approx_fvs is peeled once. Where the
        # packing proves it minimum (the draw), the report peels it, and no
        # probe runs, at either cap. Where it leaves a gap (the C5 wrapping),
        # min_fvs_exact peels it as `upper` before its cap refuses the
        # search; within the cap the search returns it unchanged, as no
        # smaller set exists, and the report does not peel it again
        calls = {"to_index_graph": 0, "packing check": 0, "fvs check": 0, "probe": 0}
        counts = {
            "to_index_graph": "to_index_graph",
            "validate_packing": "packing check",
            "_residual_cycle": "fvs check",
            "_check_fvs": "fvs check",  # min_fvs_exact's and the report's peels
            "_max_acyclic": "probe",
        }

        def counted(name, real):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        patched = set()
        for module in (gnskit.network, gnskit.digraph, gnskit.cyclepack, gnskit.bounds):
            for name, key in counts.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
                    patched.add(name)
        assert patched == set(counts)
        nets = [(random_dag_network(7, 12, 3, seed=1), True)]
        nets.append((network_from_side_info_graph(symmetric_cycle(5)), False))
        for net, closed in nets:
            calls.update(dict.fromkeys(calls, 0))
            report = bound_report(net, caps=Caps(mais_vertices=mais_vertices))
            assert (math.ceil(report.rcp_value) == report.approx_weight) == closed
            assert ("mais" in report.skipped) == (mais_vertices == 1 and not closed)
            if not closed and mais_vertices == 64:
                assert report.fvs == report.approx_fvs
            assert calls["fvs check"] == 1
            assert calls["to_index_graph"] == calls["packing check"] == 1
            assert (calls["probe"] == 0) == (closed or mais_vertices == 1)


@st.composite
def dag_draws(draw):
    """A `random_dag_network` draw of 4-8 nodes."""
    nodes = draw(st.integers(4, 8))
    try:
        return random_dag_network(
            nodes,
            draw(st.integers(nodes - 1, nodes + 6)),
            draw(st.integers(1, nodes // 2)),
            seed=draw(st.integers(0, 2**16)),
        )
    except ValueError:  # no reachable pair assignment
        assume(False)


class TestStagedCutIsTheFvs:
    """`bound_report(exact_gns=True)` takes the GNS cut from its minimum
    FVS, certified on the staged network: a cut of the size that
    `min_gns_cut_exact` finds by its own search, with the checker's
    permutation."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(dag_draws(), random_graphs(max_n=5, p=0.4).map(network_from_side_info_graph)))
    def test_matches_the_exact_search(self, net):
        report = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=64))
        staged = tilde_transform(net)
        assert report.gns_exact.cut == report.fvs
        assert is_gns_cut(staged, report.fvs) == report.gns_exact
        assert len(report.fvs) == len(min_gns_cut_exact(staged, 64).cut)

    def test_the_report_runs_no_exact_gns_search(self, monkeypatch):
        calls = []
        real = gnskit.network.min_gns_cut_exact

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gnskit.network, "min_gns_cut_exact", spy)
        monkeypatch.setattr(gnskit.bounds, "min_gns_cut_exact", spy, raising=False)
        nets = [random_dag_network(7, 12, 3, seed=1), network_from_side_info_graph(symmetric_cycle(5))]
        for net in nets:
            report = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=64))
            assert len(report.gns_exact.cut) == len(report.fvs)
        assert calls == []

    def test_a_wrong_fvs_fails_the_staged_certificate(self):
        # the minimum FVS of the C5 wrapping less one vertex is no feedback
        # set, so no GNS cut of the staged network
        net = network_from_side_info_graph(symmetric_cycle(5))
        fvs = min_fvs_exact(to_index_graph(net)[0], 64)
        wrong = fvs - {min(fvs)}
        with pytest.raises(ContractViolation, match="failed the GNS check"):
            gnskit.network._staged_cut(tilde_transform(net), wrong)


# the side-information graphs of scripts/gap_wrappings.py, whose wrappings
# leave a gap between the packing and the minimum feedback vertex set
GAP_GRAPHS = [
    symmetric_cycle(5),
    symmetric_cycle(7),
    symmetric_cycle(9),
    symmetric_cycle(11),
    random_digraph(7, 0.4, 3),
    random_digraph(8, 0.4, 5),
    lubetzky_stav(LSParams(4, 2, 2, 1)),
]
GAP_IDS = ["C5", "C7", "C9", "C11", "rd(7,0.4,3)", "rd(8,0.4,5)", "LS(4,2,2,1)"]


class TestLpSandwich:
    """Where the packing proves the approximate feedback set minimum
    (ceil(rcp) == approx_weight, weak duality), the report's `fvs` is the
    approximate set itself at any size, mais and the staged GNS cut come
    from it, and nothing is searched or skipped. Where the packing leaves a
    gap, `fvs` is searched within `mais_vertices`. The q=1 radicand is mais
    wherever mais is known, as the first tensor power of g is g."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(dag_draws(), random_graphs(max_n=5, p=0.4).map(network_from_side_info_graph)),
        st.sampled_from([1, 64]),
    )
    def test_a_closed_sandwich_prints_a_feedback_set_of_size_ceil_rcp(self, net, cap):
        report = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=cap))
        g, _ = to_index_graph(net)
        closed = math.ceil(report.rcp_value) == report.approx_weight
        assert ("mais" in report.skipped) == (not closed and g.n > cap)
        if report.fvs is None:
            return
        rest = to_nx(g).subgraph(set(range(g.n)) - report.fvs)
        assert nx.is_directed_acyclic_graph(rest)
        assert report.mais_value == g.n - len(report.fvs)
        assert [tb.radicand for tb in report.tensor_bounds] == [report.mais_value]
        assert report.gns_exact.cut == report.fvs
        if closed:
            assert report.fvs == report.approx_fvs
            assert len(report.fvs) == math.ceil(report.rcp_value)
        if g.n <= cap:
            radicand = tensor_bound(g, 1, g.n, vertex_cap=64).radicand
            assert report.mais_value == radicand == reference_mais_size(g)

    @pytest.mark.parametrize("cap", [22, 64])
    @pytest.mark.parametrize("side_info", GAP_GRAPHS, ids=GAP_IDS)
    def test_the_q1_record_is_mais_on_the_gap_wrappings(self, side_info, cap):
        # m = 26-56: past the default cap the sandwich closes only on the
        # two random draws; within 64 every mais is searched
        net = network_from_side_info_graph(side_info)
        g, _ = to_index_graph(net)
        report = bound_report(net, caps=Caps(mais_vertices=cap))
        if report.mais_value is None:
            assert report.skipped == ("mais", "tensor:q=1")
            assert report.tensor_bounds == ()
            return
        assert report.tensor_bounds == ((1, report.mais_value, g.n - report.mais_value**1.0),)
        if g.n <= cap:
            radicand = tensor_bound(g, 1, g.n, vertex_cap=64).radicand
            assert report.mais_value == radicand == reference_mais_size(g)

    def test_a_lowered_tensor_cap_keeps_the_q1_record(self):
        # the C5 wrapping (m = 26, rcp 3, approx 4) leaves a gap, and its
        # mais is searched within the cap; the power tensor_vertices refuses
        # is g itself, so the q=1 record is that mais, as where the sandwich
        # closes (PARALLEL_LINKS, m = 4)
        gap = network_from_side_info_graph(symmetric_cycle(5))
        report = bound_report(gap, qs=(1, 2), caps=Caps(mais_vertices=64, tensor_vertices=25))
        assert math.ceil(report.rcp_value) < report.approx_weight
        assert report.skipped == ("tensor:q=2",)
        assert report.tensor_bounds == ((1, 22, 4.0),)
        closed = bound_report(parse_network(PARALLEL_LINKS), caps=Caps(tensor_vertices=3))
        assert closed.skipped == ()
        assert closed.tensor_bounds == ((1, 2, 2.0),)

    def test_past_the_cap_nothing_is_searched(self, monkeypatch):
        def refused(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} searched")

            return spy

        patched = set()
        for module in (gnskit.digraph, gnskit.bounds, gnskit.network):
            for name in ("_largest_acyclic", "_max_acyclic"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused(name))
                    patched.add(name)
        assert patched == {"_largest_acyclic", "_max_acyclic"}
        # m = 25 and 116, past the default mais_vertices=22
        for params in ((10, 18, 4, 11), (30, 100, 8, 2)):
            net = random_dag_network(*params)
            report = bound_report(net, exact_gns=True)
            assert math.ceil(report.rcp_value) == report.approx_weight
            assert report.skipped == ()
            assert report.fvs == report.approx_fvs == report.gns_exact.cut
            assert report.tensor_bounds == ((1, report.mais_value, float(len(report.fvs))),)
        monkeypatch.undo()
        # the same sizes as the searches within a raised cap
        searched = bound_report(net, exact_gns=True, caps=Caps(mais_vertices=128))
        assert searched.mais_value == report.mais_value == 103
        assert searched.tensor_bounds == report.tensor_bounds
        assert len(searched.gns_exact.cut) == len(report.gns_exact.cut)

    # a draw where the packing proves approx_fvs minimum (rcp 4, approx 4),
    # and the C5 wrapping, where it leaves a gap (rcp 3, approx 4)
    NETS = [random_dag_network(7, 12, 3, seed=1), network_from_side_info_graph(symmetric_cycle(5))]

    @pytest.mark.parametrize("cap", [1, 64])
    @pytest.mark.parametrize(
        "mutation, refusal",
        [
            ("value", "packing value does not match"),
            ("load", "is overloaded"),
            ("edge", "uses missing edge"),
            ("fvs", "not a feedback vertex set"),
        ],
    )
    def test_a_wrong_certificate_still_raises(self, mutation, refusal, cap, monkeypatch):
        # a packing that claims more than its assignments give, or its whole
        # value on one cycle (so ceil(rcp) still meets approx_weight where
        # it did), or its cycles run backwards; or an approximate set with a
        # vertex swapped for another, of its weight but no feedback set. The
        # report peels it where the sandwich closes, min_fvs_exact before
        # its cap on a gap
        real_packing, real_approx = packing_from_metric, subset_fes_approx

        def packing(*args):
            p = real_packing(*args)
            if mutation == "value":
                return CyclePacking(p.assignments, p.value + 1)
            if mutation == "load":
                return CyclePacking(((p.assignments[0][0], p.value),), p.value)
            if mutation == "edge":
                backwards = tuple(((c[0], *reversed(c[1:])), w) for c, w in p.assignments)
                return CyclePacking(backwards, p.value)
            return p

        def approx(*args):
            a = real_approx(*args)
            if mutation != "fvs":
                return a
            g, _ = to_index_graph(args[0])
            swaps = (a.fes - {v} | {u} for v in sorted(a.fes) for u in range(g.n) if u not in a.fes)
            return dataclasses.replace(a, fes=next(f for f in swaps if not is_feedback_set(g, f)))

        monkeypatch.setattr(gnskit.bounds, "packing_from_metric", packing)
        monkeypatch.setattr(gnskit.bounds, "subset_fes_approx", approx)
        for net in self.NETS:
            with pytest.raises(ContractViolation, match=refusal):
                bound_report(net, caps=Caps(mais_vertices=cap))

    @pytest.mark.parametrize("cap", [1, 64])
    def test_weak_duality_is_asserted(self, cap, monkeypatch):
        # a packing that passes its check is never worth more than a
        # feedback set, so the check is bypassed to reach the guard; raised
        # by 2, the packing's value is past approx_weight on both networks
        monkeypatch.setattr(gnskit.bounds, "validate_packing", lambda g, packing: None)
        real_packing = packing_from_metric

        def packing(*args):
            p = real_packing(*args)
            return CyclePacking(p.assignments, p.value + 2)

        monkeypatch.setattr(gnskit.bounds, "packing_from_metric", packing)
        for net in self.NETS:
            with pytest.raises(ContractViolation, match="below the packing value"):
                bound_report(net, caps=Caps(mais_vertices=cap))


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


class TestCertificatesAreOptimal:
    """The mais, alpha and minimum FVS certificates are optimal sets, of the
    size of a first-hit subset scan in combination order; no tie among
    optimal sets is broken."""

    @staticmethod
    def _induced_acyclic(g, sub):
        import networkx as nx

        d = nx.DiGraph()
        d.add_nodes_from(sub)
        d.add_edges_from((u, v) for (u, v) in g.edges if u in sub and v in sub)
        return nx.is_directed_acyclic_graph(d)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_mais_certificate_is_maximum(self, g):
        from itertools import combinations

        size, cert = mais_exact(g)
        first = next(
            sub
            for most in range(g.n, -1, -1)
            for sub in combinations(range(g.n), most)
            if self._induced_acyclic(g, set(sub))
        )
        assert len(cert) == size == len(first)
        assert self._induced_acyclic(g, cert)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_fvs_certificate_is_minimum(self, g):
        from itertools import combinations

        fvs = min_fvs_exact(g)
        first = next(
            sub
            for size in range(g.n + 1)
            for sub in combinations(range(g.n), size)
            if self._induced_acyclic(g, set(range(g.n)) - set(sub))
        )
        assert len(fvs) == len(first)
        assert self._induced_acyclic(g, set(range(g.n)) - fvs)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=6))
    def test_alpha_certificate_is_maximum(self, g):
        from itertools import combinations

        size, cert = alpha(g)
        und = {frozenset(e) for e in g.edges}
        first = next(
            sub
            for most in range(g.n, -1, -1)
            for sub in combinations(range(g.n), most)
            if all(frozenset((u, v)) not in und for u in sub for v in sub if u < v)
        )
        assert len(cert) == size == len(first)
        assert is_independent(g, cert)


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
            size = reference_max_acyclic(g._out, search_order(g))
            fvs = min_fvs_exact(g, 64)
            assert mais_exact(g, 64) == (size, frozenset(range(g.n)) - fvs)
            assert len(fvs) == g.n - size
            assert is_feedback_set(g, fvs)

    def test_a_given_minimum_is_kept(self):
        # F is a minimum FVS found under reversed labels, so the search
        # starts from a minimum set of its own: no larger acyclic set is
        # found, and F comes back. F plus a vertex and the whole vertex set
        # are not minimum: the search probes up from the complement of the
        # first, and down from the ceiling for the second, whose complement
        # is empty
        for g in self._graphs():
            n = g.n
            size = reference_max_acyclic(g._out, search_order(g))
            reversed_g = Digraph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
            other = frozenset(n - 1 - v for v in min_fvs_exact(reversed_g, 64))
            assert len(other) == n - size
            assert min_fvs_exact(g, 64, upper=other) == other
            larger = other | {min(frozenset(range(n)) - other)}
            for upper in (larger, frozenset(range(n))):
                fvs = min_fvs_exact(g, 64, upper=upper)
                assert len(fvs) == n - size
                assert is_feedback_set(g, fvs)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=7))
    def test_small_graphs(self, g):
        size = reference_max_acyclic(g._out, search_order(g))
        fvs = min_fvs_exact(g)
        assert mais_exact(g) == (size, frozenset(range(g.n)) - fvs)
        assert len(fvs) == g.n - size
        assert is_feedback_set(g, fvs)

    def test_targets_and_required_sets(self):
        # a target is a decision: the size says whether a set of that size
        # exists, and the mask is one; without a target both are the maximum
        for g in self._graphs():
            out, inn = _masks(g._out), _masks(g._in)
            order = search_order(g)
            size = _max_acyclic(out, inn, order)[0]
            cases = [(order, (), t) for t in (None, 1, size - 1, size, size + 1)]
            for required in ([0, 1], list(range(0, g.n, 3)), order[:6]):
                cand = [v for v in order if v not in required]
                cases += [(cand, required, t) for t in (None, size)]
            for cand, required, t in cases:
                self._check_probe(g, out, inn, cand, required, t)

    @settings(max_examples=80, deadline=None)
    @given(random_graphs(max_n=9, p=0.5), st.data())
    def test_dense_graphs(self, g, data):
        # the disjoint-cycle bound prunes most states here, and is sound in
        # any vertex order and from any valid root cycles: those of the whole
        # graph, some of which leave the candidates when vertices are dropped
        out, inn = _masks(g._out), _masks(g._in)
        order = search_order(g)
        size = reference_max_acyclic(g._out, order)
        root = _disjoint_cycles(out, inn, 0, (1 << g.n) - 1, data.draw(st.permutations(order)), g.n)
        assert len(root) <= g.n - size
        required = data.draw(st.lists(st.sampled_from(order), min_size=1, max_size=4, unique=True))
        dropped = data.draw(st.lists(st.sampled_from(order), max_size=3, unique=True))
        cand = [v for v in order if v not in required]
        fewer = [v for v in cand if v not in dropped]
        for t in (None, size - 1, size, size + 1):
            self._check_probe(g, out, inn, order, (), t)
            self._check_probe(g, out, inn, cand, required, t)
        for t in (None, *range(g.n + 2)):
            self._check_probe(g, out, inn, order, (), t, root)
            self._check_probe(g, out, inn, cand, required, t, root)
            self._check_probe(g, out, inn, fewer, required, t, root)
        # with an acyclic `fixed` part, every counted cycle costs the
        # largest acyclic superset of it one free vertex, in any order and
        # after keeping any of the root cycles
        most = reference_max_acyclic(g._out, cand, required)
        if most >= 0:
            free = sum(1 << v for v in cand)
            fixed = sum(1 << v for v in required)
            reuse = data.draw(st.lists(st.sampled_from(root), unique=True)) if root else []
            cycles = _disjoint_cycles(
                out, inn, fixed, free, data.draw(st.permutations(cand)), g.n, reuse
            )
            assert len(cycles) <= g.n - most

    @staticmethod
    def _check_probe(g, out, inn, cand, required, t, cycles=()):
        found, mask = _max_acyclic(out, inn, cand, required, t, cycles)
        reference = reference_max_acyclic(g._out, cand, required, t)
        if t is None:
            assert found == reference
        else:
            assert (found >= t) == (reference >= t)
        if found < (0 if t is None else t):
            return  # no set, so no mask to check
        members = {v for v in range(g.n) if mask >> v & 1}
        assert len(members) == found if t is None else len(members) >= t
        assert set(required) <= members <= set(required) | set(cand)
        assert nx.is_directed_acyclic_graph(to_nx(g).subgraph(members))


DEEP = sys.getrecursionlimit() + 100  # more vertices than the recursion limit


class TestDeepInputs:
    """Inputs with more vertices than the recursion limit: the searches keep
    their own stacks, so no input depth raises RecursionError."""

    def _check_acyclic(self, g):
        assert reference_mais_size(g) == DEEP
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
        assert reference_mais_size(g) == DEEP - 1
        fvs = min_fvs_exact(g, DEEP)
        assert len(fvs) == 1
        assert is_feedback_set(g, fvs)
        assert mais_exact(g, DEEP) == (DEEP - 1, frozenset(range(DEEP)) - fvs)

    def test_independence_of_a_clique(self):
        # every search node branches: the include side ends at once, the
        # exclude side goes one vertex deeper
        full = (1 << DEEP) - 1
        size, members = _mis_size([full & ~(1 << v) for v in range(DEEP)], full)
        assert (size, members.bit_count()) == (1, 1)
