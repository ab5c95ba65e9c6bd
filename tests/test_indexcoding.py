"""Finite-field ranks, minrank, cycle codes, and rate bookkeeping."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gnskit import (
    CapacityError,
    ContractViolation,
    Digraph,
    FormatError,
    GFMatrix,
    IndexCode,
    blowup,
    build_cycle_code,
    co_rate_from_beta,
    gf_rank,
    minrank,
    minrank_blowup_normalized,
    parse_index_code,
    rcp_exact,
    serialize_index_code,
    strong_product,
    uncertainty_check,
    verify_index_code,
)
from gnskit.bounds import mais_exact
from gnskit.cyclepack import CyclePacking
from gnskit import indexcoding
from gnskit.indexcoding import _GFBasis, derive_decoders, is_prime, minrank_edge_cap
from gnskit.instances import random_digraph

from helpers import (
    ReferenceGF2Basis,
    complete_digraph,
    decode_simulation,
    directed_cycle,
    gf_rank_oracle,
    oracle_minrank,
    reference_derive_decoders,
    reference_is_prime,
    reference_minrank,
    reference_rank_gf2,
    reference_rank_rows,
    reference_verify_index_code,
    symmetric_cycle,
)
from test_digraph import random_graphs


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        for p in range(-2, 10**5):
            assert is_prime(p) == reference_is_prime(p), p

    def test_nineteen_digit_prime_is_quick(self):
        start = time.perf_counter()
        assert is_prime(10**18 + 3)
        assert time.perf_counter() - start < 1

    def test_refuses_past_the_limit(self):
        # a strong pseudoprime to the first 12 prime bases, and the smallest
        # to all 13 (the limit itself)
        assert not is_prime(318665857834031151167461)
        with pytest.raises(CapacityError, match="primality"):
            is_prime(3317044064679887385961981)


class TestGfRank:
    def test_identity(self):
        mat = GFMatrix(5, 3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert gf_rank(mat) == 3

    def test_zero(self):
        mat = GFMatrix(3, 2, 2, ((0, 0), (0, 0)))
        assert gf_rank(mat) == 0

    def test_repeated_row_mod_two(self):
        mat = GFMatrix(2, 2, 2, ((1, 1), (1, 1)))
        assert gf_rank(mat) == 1

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="prime"):
            GFMatrix(4, 1, 1, ((1,),))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from([2, 3, 5]),
        st.randoms(use_true_random=False),
    )
    def test_matches_oracle(self, rows, cols, p, rng):
        entries = tuple(
            tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)
        )
        mat = GFMatrix(p, rows, cols, entries)
        assert gf_rank(mat) == gf_rank_oracle([list(r) for r in entries], p)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([2, 3, 5, 7]),
        st.randoms(use_true_random=False),
    )
    def test_matches_the_reference_elimination(self, rows, cols, p, rng):
        entries = tuple(
            tuple(rng.choice((0, 0, rng.randrange(p))) for _ in range(cols))
            for _ in range(rows)
        )
        rank = gf_rank(GFMatrix(p, rows, cols, entries))
        assert rank == reference_rank_rows([list(r) for r in entries], cols, p)
        if p == 2:
            bits = [sum(a << c for c, a in enumerate(r)) for r in entries]
            assert rank == reference_rank_gf2(bits)


class TestMinrank:
    def test_empty_graph(self):
        value, witness = minrank(Digraph(4), 2)
        assert value == 4
        assert witness.entries == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )

    def test_complete_graph_is_one(self):
        value, witness = minrank(complete_digraph(4), 2)
        assert value == 1
        assert all(all(a == 1 for a in row) for row in witness.entries)

    def test_directed_three_cycle(self):
        assert oracle_minrank(directed_cycle(3), 2) == 2
        value, witness = minrank(directed_cycle(3), 2)
        assert value == 2
        assert gf_rank(witness) == 2

    def test_c5_over_gf2(self):
        value, _ = minrank(symmetric_cycle(5), 2)
        assert value == 3

    def test_edge_cap(self):
        with pytest.raises(CapacityError):
            minrank(complete_digraph(5), 2, edge_cap=16)

    def test_cap_scales_down_with_field(self):
        assert minrank_edge_cap(2) == 16
        assert minrank_edge_cap(3) == 10
        assert minrank_edge_cap(5) == 6

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=4), st.sampled_from([2, 3]))
    def test_matches_oracle(self, g, p):
        assume(len(g.edges) <= minrank_edge_cap(p))  # minrank refuses above its cap
        assert minrank(g, p)[0] == oracle_minrank(g, p)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(random_graphs(max_n=4), random_graphs(max_n=6, p=0.3)),
        st.sampled_from([2, 3, 5]),
    )
    def test_value_and_witness_match_the_exhaustive_reference(self, g, p):
        assume(len(g.edges) <= minrank_edge_cap(p))  # minrank refuses above its cap
        assert minrank(g, p) == reference_minrank(g, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_c5_matches_the_exhaustive_reference(self, p):
        assert minrank(symmetric_cycle(5), p) == reference_minrank(symmetric_cycle(5), p)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=4))
    def test_mais_lower_bounds_minrank(self, g):
        assert mais_exact(g)[0] <= minrank(g, 2)[0]


class TestMinrankBlowup:
    def test_k1_reduces_to_minrank(self):
        g = directed_cycle(3)
        assert minrank_blowup_normalized(g, 2, 1) == Fraction(minrank(g, 2)[0])

    def test_empty_graph_any_k(self):
        assert minrank_blowup_normalized(Digraph(3), 2, 2) == 3

    def test_three_cycle_blowup_two(self):
        value = minrank_blowup_normalized(directed_cycle(3), 2, 2)
        assert value <= 2
        assert value == Fraction(minrank(blowup(directed_cycle(3), 2), 2)[0], 2)


class TestSubmultiplicativity:
    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_n=3, p=0.3), random_graphs(max_n=3, p=0.3))
    def test_product_minrank(self, g, h):
        prod = strong_product(g, h)
        assume(len(prod.edges) <= 16)  # inside the exhaustive search budget
        assert minrank(g, 2)[0] * minrank(h, 2)[0] >= minrank(prod, 2)[0]


class TestBlowupMinrankChain:
    @settings(max_examples=12, deadline=None)
    @given(random_graphs(max_n=3, p=0.4), st.integers(1, 2), st.integers(1, 2))
    def test_normalized_blowup_minrank_dominates_tensor_mais(self, g, k, m):
        # (minrk(blowup)/k) ** m >= mais of the m-fold power, exactly
        b = blowup(g, k)
        assume(len(b.edges) <= 16)  # inside the exhaustive search budget
        value = minrank(b, 2)[0]
        power_mais = mais_exact(strong_product(g, g) if m == 2 else g)[0]
        assert value**m >= k**m * power_mais


class TestRowScaling:
    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=4), st.randoms(use_true_random=False))
    def test_row_scaling_preserves_rank(self, g, rng):
        p = 3
        assume(len(g.edges) <= minrank_edge_cap(p))  # minrank refuses above its cap
        _, witness = minrank(g, p)
        scaled = tuple(
            tuple((a * scale) % p for a in row)
            for row, scale in zip(
                witness.entries,
                (rng.randrange(1, p) for _ in range(witness.rows)),
            )
        )
        assert gf_rank(witness) == gf_rank(GFMatrix(p, g.n, g.n, scaled))


class TestUncertainty:
    def test_empty_graph(self):
        assert uncertainty_check(Digraph(3), 2, 1, 1)

    def test_c5(self):
        assert minrank(symmetric_cycle(5), 2)[0] == 3
        assert uncertainty_check(symmetric_cycle(5), 2, 1, 1)

    def test_exhaustive_small(self):
        from itertools import product as iproduct

        n = 3
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in iproduct([0, 1], repeat=len(pairs)):
            g = Digraph(n, [e for e, b in zip(pairs, bits) if b])
            assert uncertainty_check(g, 2, 1, 1)


class TestBuildCycleCode:
    def test_empty_packing_uncoded(self):
        g = directed_cycle(3)
        code = build_cycle_code(g, CyclePacking((), Fraction(0)), 2)
        assert code.rate == 3
        assert code.blowup_t == 1
        assert len(code.rows) == 3

    def test_three_cycle_saves_one(self):
        g = directed_cycle(3)
        code = build_cycle_code(g, rcp_exact(g), 2)
        assert code.rows == ((1, 1, 0), (0, 1, 1))
        assert code.rate == 2
        assert decode_simulation(g, code) == (True, None)

    def test_two_disjoint_triangles(self):
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        code = build_cycle_code(g, rcp_exact(g), 2)
        assert code.rate == 4
        assert decode_simulation(g, code) == (True, None)

    def test_fractional_packing_blows_up(self):
        g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        packing = rcp_exact(g)
        assert packing.value == Fraction(3, 2)
        code = build_cycle_code(g, packing, 2)
        assert code.blowup_t == 2
        assert code.rate == 3 - Fraction(3, 2)
        assert verify_index_code(g, code) == (True, None)
        assert decode_simulation(g, code) == (True, None)

    def test_lcm_cap(self):
        g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        with pytest.raises(CapacityError, match="subsymbols"):
            build_cycle_code(g, rcp_exact(g), 2, lcm_cap=1)

    def test_nonbinary_field(self):
        g = directed_cycle(3)
        code = build_cycle_code(g, rcp_exact(g), 3)
        assert code.rows == ((1, 2, 0), (0, 1, 2))
        assert decode_simulation(g, code) == (True, None)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=5))
    def test_rate_equals_n_minus_packing(self, g):
        packing = rcp_exact(g)
        try:
            code = build_cycle_code(g, packing, 2)
        except CapacityError:
            return
        assert code.rate == g.n - packing.value
        assert verify_index_code(g, code) == (True, None)


@st.composite
def codes_on_graphs(draw):
    """A digraph and a code on it over F2, F3 or F5: the cycle code of its
    rcp packing, or random rows with t = 1-3, then maybe with a row dropped
    or a coefficient changed, so that codes fail at various users."""
    g = draw(random_graphs(max_n=4))
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        code = build_cycle_code(g, rcp_exact(g), p)
        t, rows = code.blowup_t, [list(row) for row in code.rows]
    else:
        t = draw(st.integers(1, 3))
        residues = st.lists(st.integers(0, p - 1), min_size=t * g.n, max_size=t * g.n)
        rows = draw(st.lists(residues, max_size=t * g.n + 1))
    change = draw(st.sampled_from(["none", "drop", "coefficient"]))
    if rows and change == "drop":
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif rows and rows[0] and change == "coefficient":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row) - 1))
        row[col] = (row[col] + draw(st.integers(1, p - 1))) % p
    return g, IndexCode(p=p, blowup_t=t, n=g.n, rows=tuple(map(tuple, rows)))


class TestVerifyIndexCode:
    @settings(max_examples=200, deadline=None)
    @given(codes_on_graphs())
    def test_matches_the_reference(self, case):
        # checking modulo the code's row space gives the verdict and the
        # first failing user of extending the code's basis per user
        g, code = case
        assert verify_index_code(g, code) == reference_verify_index_code(g, code)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=4), st.sampled_from([2, 3]), st.integers(1, 2), st.data())
    def test_zero_residues_match_the_reference(self, g, p, t, data):
        # unit rows send subsymbols uncoded, so their residues are zero: a
        # user wanting only those is not checked, and none joins a basis;
        # the random rows make codes fail at various users
        width = t * g.n
        units = data.draw(st.lists(st.integers(0, width - 1), unique=True))
        rows = [tuple(int(c == col) for c in range(width)) for col in units]
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(tuple)
        rows += data.draw(st.lists(row, max_size=2))
        code = IndexCode(p=p, blowup_t=t, n=g.n, rows=tuple(rows))
        assert verify_index_code(g, code) == reference_verify_index_code(g, code)

    def test_dropped_rows_fail_where_the_reference_fails(self):
        failing = set()
        for g in (directed_cycle(4), symmetric_cycle(5), random_digraph(6, 0.4, 3)):
            for p in (2, 3, 5):
                code = build_cycle_code(g, rcp_exact(g), p)
                assert verify_index_code(g, code) == (True, None)
                for i in range(code.r):
                    rows = code.rows[:i] + code.rows[i + 1 :]
                    short = IndexCode(p=p, blowup_t=code.blowup_t, n=code.n, rows=rows)
                    result = verify_index_code(g, short)
                    assert result == reference_verify_index_code(g, short)
                    failing.add(result[1])
        assert None not in failing and len(failing) > 2

    def test_uncoded_always_decodes(self):
        g = directed_cycle(4)
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        )
        from gnskit import IndexCode

        code = IndexCode(p=2, blowup_t=1, n=4, rows=rows)
        assert verify_index_code(g, code) == (True, None)

    def test_short_code_fails_with_user(self):
        from gnskit import IndexCode

        g = directed_cycle(3)
        code = IndexCode(p=2, blowup_t=1, n=3, rows=((1, 1, 0),))
        ok, failing = verify_index_code(g, code)
        assert not ok
        # users 1 and 2 both fail (oracle below); the checker reports the
        # smallest, while user 2 (side information x0 only) fails as well
        assert failing == 1
        sim_ok, sim_user = decode_simulation(g, code)
        assert not sim_ok and sim_user == 1

    @pytest.mark.parametrize(
        "p, first, second", [(2, 0b011, 0b010), (3, [1, 2, 0], [0, 1, 0])]
    )
    def test_basis_copy_is_independent(self, p, first, second):
        basis = _GFBasis(3, p)
        basis.add(first)
        twin = basis.copy()
        assert twin.add(second)
        assert (basis.rank, twin.rank) == (1, 2)
        assert not basis.contains(second) and twin.contains(second)
        assert basis.add(second) and basis.rank == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**12 - 1), max_size=30), st.integers(0, 2**12 - 1))
    def test_sorted_insert_matches_the_resorting_basis(self, rows, probe):
        # rows are kept in insertion order, not sorted, so only the row
        # space is compared: with the re-sorting basis and with the span
        # closed under sums by brute force
        basis, reference = _GFBasis(12, 2), ReferenceGF2Basis()
        span = {0}
        for row in rows:
            assert basis.add(row) == reference.add(row) == (row not in span)
            span |= {s ^ row for s in span}
            assert basis.rank == reference.rank
            assert 2**basis.rank == len(span)
            assert basis.contains(probe) == reference.contains(probe) == (probe in span)

    def test_dimension_mismatch(self):
        from gnskit import IndexCode

        code = IndexCode(p=2, blowup_t=1, n=3, rows=())
        with pytest.raises(ValueError, match="message count"):
            verify_index_code(directed_cycle(4), code)

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(max_n=4))
    def test_agrees_with_simulation(self, g):
        packing = rcp_exact(g)
        try:
            code = build_cycle_code(g, packing, 2)
        except CapacityError:
            return
        if code.blowup_t * code.n > 12:
            return  # simulation over 2**(t*n) assignments stays small
        assert decode_simulation(g, code) == (True, None)


class TestResiduesOffTheEchelonForm:
    """`verify_index_code` reduces the code's basis once and reads each unit
    row's residue off it. A wanted residue equal to a side residue decodes
    by a set lookup, one only in the span of several side residues by an
    elimination on them, and one outside that span fails; each case is
    compared with the reference, verdict and first failing user, over F2,
    F3 and F5."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.data())
    def test_residues_are_the_reduced_units(self, p, width, data):
        # the residue zero in every pivot column is unique, and reducing a
        # unit row by the rows in insertion order reaches it
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        basis = _GFBasis(width, p)
        for entries in data.draw(st.lists(row, max_size=width + 1)):
            basis.add(basis.row(entries))
        residues = basis.residues()
        assert len(residues) == width
        for col, residue in enumerate(residues):
            reduced = basis._reduce(basis.unit(col))
            assert residue == (reduced if p == 2 else tuple(reduced))

    @staticmethod
    def check(monkeypatch, g, p, rows, expected, bases):
        code = IndexCode(p=p, blowup_t=1, n=g.n, rows=tuple(tuple(a % p for a in r) for r in rows))
        built = []

        class Counted(_GFBasis):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        assert reference_verify_index_code(g, code) == expected
        monkeypatch.setattr(indexcoding, "_GFBasis", Counted)
        assert verify_index_code(g, code) == expected
        monkeypatch.undo()
        assert len(built) == bases  # the code's own basis, then one per elimination

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_a_wanted_residue_equal_to_a_side_residue(self, p, monkeypatch):
        # x0 - x1 leaves x0 and x1 with one residue, and x2 sent uncoded
        # leaves none: users 0 and 1 decode by lookup, user 2 is not checked
        g = Digraph(3, [(0, 1), (1, 0)])
        self.check(monkeypatch, g, p, [(1, -1, 0), (0, 0, 1)], (True, None), bases=1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_a_wanted_residue_in_the_span_of_two(self, p, monkeypatch):
        # x0 - x1 - x2: x0's residue is x1's plus x2's, and each user holds
        # the two other messages, so all three need an elimination
        g = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        self.check(monkeypatch, g, p, [(1, -1, -1)], (True, None), bases=4)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_a_wanted_residue_outside_the_span(self, p, monkeypatch):
        # as above without the edge 1 -> 2: user 0 decodes, user 1 holds
        # only x0, whose residue x1 + x2 does not give x1
        g = Digraph(3, [(0, 1), (0, 2), (1, 0), (2, 0), (2, 1)])
        self.check(monkeypatch, g, p, [(1, -1, -1)], (False, 1), bases=3)


class TestDecoders:
    def test_recipes_reconstruct(self):
        # each decoder row, applied to the code rows followed by the user's
        # side-information rows (out-neighbor, then slot order), must give the
        # unit vector of the wanted subsymbol
        for g in (directed_cycle(3), symmetric_cycle(5)):
            for p in (2, 3):
                code = build_cycle_code(g, rcp_exact(g), p)
                t, width = code.blowup_t, code.blowup_t * code.n
                decoders = derive_decoders(g, code)
                assert len(decoders) == g.n
                for user, rows in enumerate(decoders):
                    avail = [list(row) for row in code.rows]
                    for j in g.out_neighbors(user):
                        for s in range(t):
                            avail.append([int(c == j * t + s) for c in range(width)])
                    assert len(rows) == t
                    for s, coeffs in enumerate(rows):
                        assert len(coeffs) == len(avail)
                        got = [
                            sum(a * row[c] for a, row in zip(coeffs, avail)) % p
                            for c in range(width)
                        ]
                        assert got == [int(c == user * t + s) for c in range(width)]

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=5), st.sampled_from([2, 3, 5]))
    def test_dependent_rows_match_the_reference(self, g, p):
        # a duplicated row and the sum of two rows make the rows dependent,
        # so the coefficients depend on the elimination order; the code
        # without its first row may leave a user unable to decode
        try:
            code = build_cycle_code(g, rcp_exact(g), p)
        except CapacityError:
            return
        rows = code.rows
        if len(rows) >= 2:
            summed = tuple((a + b) % p for a, b in zip(rows[0], rows[1]))
            rows = rows + (rows[1], summed)
        for variant in (rows, code.rows[1:]):
            dependent = IndexCode(p, code.blowup_t, code.n, variant)
            assert decoders_or_error(derive_decoders, g, dependent) == decoders_or_error(
                reference_derive_decoders, g, dependent
            )


def decoders_or_error(derive, g, code):
    try:
        return derive(g, code)
    except ContractViolation as exc:
        return str(exc)


class TestCoRate:
    def test_extremes(self):
        assert co_rate_from_beta(4, Fraction(4)) == 0
        assert co_rate_from_beta(4, Fraction(0)) == 4

    def test_parallel_links_value(self):
        assert co_rate_from_beta(4, Fraction(2)) == 2

    def test_range_violation(self):
        with pytest.raises(ValueError, match="outside"):
            co_rate_from_beta(4, Fraction(5))


class TestCodeFormat:
    def test_round_trip(self):
        g = directed_cycle(3)
        code = build_cycle_code(g, rcp_exact(g), 2)
        assert parse_index_code(serialize_index_code(code)) == code

    def test_row_count_checked(self):
        with pytest.raises(Exception, match="rows"):
            parse_index_code("code p=2 t=1 n=2 r=2\nrow 1 0\n")

    @pytest.mark.parametrize("header", ["t=0 n=3", "t=-1 n=3", "t=1 n=-1"])
    def test_blowup_below_one_and_negative_n_are_refused(self, header):
        # with t = 0 the rate r/t divides by zero; t = -1 shifted by a
        # negative count in the verifier
        with pytest.raises(FormatError, match="t >= 1 and n >= 0"):
            parse_index_code(f"code p=2 {header} r=0\n")

    @pytest.mark.parametrize("row", ["3 0 1", "0 -1 1", "0 2 7"])
    def test_coefficients_outside_the_field_are_refused(self, row):
        with pytest.raises(FormatError, match=r"residues in \[0, p\)"):
            parse_index_code(f"code p=3 t=1 n=3 r=1\nrow {row}\n")

    def test_empty_rows_of_an_empty_code(self):
        code = parse_index_code("code p=5 t=2 n=0 r=2\nrow\nrow\n")
        assert code.rows == ((), ()) and serialize_index_code(code).endswith("row \nrow \n")
