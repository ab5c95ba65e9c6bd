"""Finite-field linear algebra, minrank search, and cycle-saving
vector-linear index codes with exact decodability verification.

Message layout convention: message v consists of t subsymbols occupying
columns v*t .. v*t + t - 1 of every coefficient row, matching the blowup
vertex ordering. Decodability is always a rank condition over the prime
field, never a sampling argument.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .caps import DEFAULT_CAPS
from .cyclepack import CyclePacking, validate_packing
from .digraph import Digraph, blowup, complement
from .errors import CapacityError, ContractViolation, FormatError


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime field size")
    return p


@dataclass(frozen=True)
class GFMatrix:
    """Dense matrix over a prime field, entries stored as residues."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_prime(self.p)
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            if any(not 0 <= a < self.p for a in row):
                raise ValueError("entries must be residues in [0, p)")


def gf_rank(mat: GFMatrix) -> int:
    """Rank over the prime field by Gaussian elimination."""
    return _rank_rows([list(row) for row in mat.entries], mat.cols, mat.p)


def _rank_rows(rows: list[list[int]], cols: int, p: int) -> int:
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < cols:
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(a * inv) % p for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def _rank_gf2(rows: Sequence[int]) -> int:
    """Rank of rows given as bitmask ints over the two-element field."""
    basis: list[int] = []
    rank = 0
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
            rank += 1
    return rank


class _GFBasis:
    """Incremental row space over a prime field with membership queries."""

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.pivots: dict[int, list[int]] = {}  # pivot column -> normalized row
        self.bit_basis: list[int] = []  # p == 2 fast path

    def copy(self) -> _GFBasis:
        twin = _GFBasis(self.width, self.p)
        twin.pivots = dict(self.pivots)  # rows are replaced, never mutated
        twin.bit_basis = list(self.bit_basis)
        return twin

    def _reduce(self, row):
        """`row` minus its part in the span (a bitmask int when p == 2)."""
        if self.p == 2:
            for b in self.bit_basis:
                if row & b & -b:
                    row ^= b
            return row
        vec = list(row)
        for col, base in self.pivots.items():
            f = vec[col]
            if f:
                vec = [(a - f * b) % self.p for a, b in zip(vec, base)]
        return vec

    def add(self, row) -> bool:
        reduced = self._reduce(row)
        if self.p == 2:
            if reduced:  # its lowest bit is no basis row's lowest bit
                bisect.insort(self.bit_basis, reduced, key=lambda b: b & -b)
            return bool(reduced)
        for col, a in enumerate(reduced):
            if a:
                inv = pow(a, self.p - 2, self.p)
                self.pivots[col] = [(x * inv) % self.p for x in reduced]
                return True
        return False

    def contains(self, row) -> bool:
        reduced = self._reduce(row)
        return not (reduced if self.p == 2 else any(reduced))

    @property
    def rank(self) -> int:
        return len(self.bit_basis) if self.p == 2 else len(self.pivots)


def minrank_edge_cap(p: int, base: int = DEFAULT_CAPS.minrank_base_edges) -> int:
    """Edge cap keeping the exhaustive search near 2**base candidates."""
    _check_prime(p)
    return max(1, int(base / math.log2(p)))


def minrank(
    g: Digraph, p: int, edge_cap: int | None = None
) -> tuple[int, GFMatrix]:
    """Minimum rank over matrices fitting g: unit diagonal (row scaling is
    rank- and fit-preserving, so this loses no generality), free entries on
    edges, zero elsewhere. Exhaustive over all edge assignments, returning
    the first witness in lexicographic assignment order."""
    _check_prime(p)
    cap = edge_cap if edge_cap is not None else minrank_edge_cap(p)
    edges = sorted(g.edges)
    if len(edges) > cap:
        raise CapacityError(
            f"{len(edges)} free entries exceed the minrank search cap of {cap}"
        )
    n = g.n
    if n == 0:
        return 0, GFMatrix(p, 0, 0, ())
    best: int | None = None
    best_assignment: tuple[int, ...] | None = None
    if p == 2:
        rank_cache: dict[tuple[int, ...], int] = {}
        diag = [1 << i for i in range(n)]
        for assignment in product(range(2), repeat=len(edges)):
            rows = list(diag)
            for val, (u, v) in zip(assignment, edges):
                if val:
                    rows[u] |= 1 << v
            key = tuple(sorted(rows))
            r = rank_cache.get(key)
            if r is None:
                r = _rank_gf2(rows)
                rank_cache[key] = r
            if best is None or r < best:
                best, best_assignment = r, assignment
                if best == 1:
                    break
    else:
        for assignment in product(range(p), repeat=len(edges)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 1
            for val, (u, v) in zip(assignment, edges):
                rows[u][v] = val
            r = _rank_rows([row[:] for row in rows], n, p)
            if best is None or r < best:
                best, best_assignment = r, assignment
                if best == 1:
                    break
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = 1
    for val, (u, v) in zip(best_assignment, edges):
        entries[u][v] = val
    witness = GFMatrix(p, n, n, tuple(tuple(row) for row in entries))
    return best, witness


def minrank_blowup_normalized(
    g: Digraph, p: int, k: int, edge_cap: int | None = None
) -> Fraction:
    """minrank of the k-blowup divided by k; an upper bound on the
    vector-linear broadcast rate over the field."""
    if k < 1:
        raise ValueError("blowup factor must be >= 1")
    value, _ = minrank(blowup(g, k), p, edge_cap)
    return Fraction(value, k)


def uncertainty_check(
    g: Digraph, p: int, k1: int, k2: int, edge_cap: int | None = None
) -> bool:
    """True iff minrank(blowup(g,k1)) * minrank(blowup(complement(g),k2))
    is at least k1*k2*n, the blowup form of the complementary-rate lower
    bound."""
    a, _ = minrank(blowup(g, k1), p, edge_cap)
    b, _ = minrank(blowup(complement(g), k2), p, edge_cap)
    return a * b >= k1 * k2 * g.n


@dataclass(frozen=True)
class IndexCode:
    """Vector-linear broadcast code: r coefficient rows over F_p, each of
    width t*n, message v owning columns v*t .. v*t+t-1.
    """

    p: int
    blowup_t: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_prime(self.p)
        width = self.blowup_t * self.n
        for row in self.rows:
            if len(row) != width:
                raise ValueError("row width must be t*n")
            if any(not 0 <= a < self.p for a in row):
                raise ValueError("coefficients must be residues in [0, p)")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.r, self.blowup_t)


def build_cycle_code(
    g: Digraph,
    packing: CyclePacking,
    p: int,
    lcm_cap: int = DEFAULT_CAPS.code_lcm,
) -> IndexCode:
    """Index code in which every packed cycle saves one transmission.

    The packing is scaled by the least common multiple t of its weight
    denominators into an integral multi-packing on t subsymbol slots per
    message. Each scaled cycle copy claims one fresh slot at each of its
    vertices and broadcasts the differences of consecutive claimed
    subsymbols (all but the closing pair); every remaining slot goes out
    uncoded. Total transmissions: t*(n - packing value).
    """
    _check_prime(p)
    validate_packing(g, packing)
    t = 1
    for _, w in packing.assignments:
        t = t * w.denominator // math.gcd(t, w.denominator)
    if t > lcm_cap:
        raise CapacityError(
            f"packing denominators need {t} subsymbols, cap is {lcm_cap}"
        )
    n = g.n
    width = t * n
    next_slot = [0] * n
    rows: list[tuple[int, ...]] = []
    minus_one = (p - 1) % p
    for cyc, w in packing.assignments:
        copies = w * t
        assert copies.denominator == 1
        for _ in range(int(copies)):
            slots = []
            for v in cyc:
                slots.append((v, next_slot[v]))
                next_slot[v] += 1
            for (u, su), (v, sv) in zip(slots, slots[1:]):
                row = [0] * width
                row[u * t + su] = 1
                row[v * t + sv] = (row[v * t + sv] + minus_one) % p
                rows.append(tuple(row))
    for v in range(n):
        for s in range(next_slot[v], t):
            row = [0] * width
            row[v * t + s] = 1
            rows.append(tuple(row))
    code = IndexCode(p=p, blowup_t=t, n=n, rows=tuple(rows))
    ok, failing = verify_index_code(g, code)
    if not ok:
        raise ContractViolation(f"constructed code failed decoding for user {failing}")
    return code


def _side_info_rows(g: Digraph, code: IndexCode, user: int) -> list:
    width = code.blowup_t * code.n
    rows = []
    for j in g.out_neighbors(user):
        for s in range(code.blowup_t):
            col = j * code.blowup_t + s
            if code.p == 2:
                rows.append(1 << col)
            else:
                vec = [0] * width
                vec[col] = 1
                rows.append(vec)
    return rows


def _code_rows(code: IndexCode) -> list:
    if code.p == 2:
        out = []
        for row in code.rows:
            acc = 0
            for col, a in enumerate(row):
                if a:
                    acc |= 1 << col
            out.append(acc)
        return out
    return [list(row) for row in code.rows]


def verify_index_code(g: Digraph, code: IndexCode) -> tuple[bool, int | None]:
    """Exact decodability: for every user, all t subsymbols of the wanted
    message must lie in the span of the received rows plus the user's
    side-information subsymbols. Returns (True, None) or (False, first
    failing user)."""
    if code.n != g.n:
        raise ValueError("code message count does not match the graph")
    width = code.blowup_t * code.n
    code_basis = _GFBasis(width, code.p)
    for row in _code_rows(code):
        code_basis.add(row)
    for user in range(g.n):
        basis = code_basis.copy()
        for row in _side_info_rows(g, code, user):
            basis.add(row)
        for s in range(code.blowup_t):
            col = user * code.blowup_t + s
            target = 1 << col if code.p == 2 else [int(c == col) for c in range(width)]
            if not basis.contains(target):
                return False, user
    return True, None


def derive_decoders(g: Digraph, code: IndexCode) -> tuple:
    """Per-user reconstruction coefficients over (code rows + side rows).

    For user i, returns a matrix with one row per wanted subsymbol whose
    entries weight the code's r rows followed by the user's side-information
    subsymbols (in out-neighbor, then slot order)."""
    width = code.blowup_t * code.n
    p = code.p
    decoders = []
    for user in range(g.n):
        avail = [list(row) for row in code.rows]
        for j in g.out_neighbors(user):
            for s in range(code.blowup_t):
                vec = [0] * width
                vec[j * code.blowup_t + s] = 1
                avail.append(vec)
        # row-reduce [avail | I] so reconstructions come with coefficients
        aug = [row[:] + [0] * len(avail) for row in avail]
        for i in range(len(avail)):
            aug[i][width + i] = 1
        pivots: dict[int, list[int]] = {}
        for vec in aug:
            cur = vec[:]
            for col, base in pivots.items():
                f = cur[col]
                if f:
                    cur = [(a - f * b) % p for a, b in zip(cur, base)]
            lead = next((c for c in range(width) if cur[c]), None)
            if lead is not None:
                inv = pow(cur[lead], p - 2, p)
                pivots[lead] = [(a * inv) % p for a in cur]
        user_rows = []
        for s in range(code.blowup_t):
            col = user * code.blowup_t + s
            target = [0] * width
            target[col] = 1
            coeffs = [0] * len(avail)
            cur = target + coeffs
            for c, base in pivots.items():
                f = cur[c]
                if f:
                    cur = [(a - f * b) % p for a, b in zip(cur, base)]
            if any(cur[:width]):
                raise ContractViolation(f"user {user} cannot decode subsymbol {s}")
            user_rows.append(tuple((-a) % p for a in cur[width:]))
        decoders.append(tuple(user_rows))
    return tuple(decoders)


def co_rate_from_beta(m: int, beta: Fraction | int) -> Fraction:
    """Joint source entropy rate of the correlated-sources network code dual
    to an index code of rate beta on the m-link network's index graph."""
    beta = Fraction(beta)
    if beta < 0 or beta > m:
        raise ValueError(f"rate {beta} outside [0, {m}]")
    return Fraction(m) - beta


def serialize_index_code(code: IndexCode, header_comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"code p={code.p} t={code.blowup_t} n={code.n} r={code.r}")
    for row in code.rows:
        lines.append("row " + " ".join(str(a) for a in row))
    return "\n".join(lines) + "\n"


def parse_index_code(text: str) -> IndexCode:
    header: dict[str, int] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "code":
                raise FormatError(f"line {lineno}: expected 'code' header")
            try:
                header = dict(
                    (kv.split("=")[0], int(kv.split("=")[1])) for kv in parts[1:]
                )
            except (IndexError, ValueError):
                raise FormatError(f"line {lineno}: malformed code header") from None
            if sorted(header) != ["n", "p", "r", "t"]:
                raise FormatError(f"line {lineno}: header needs p, t, n and r")
            continue
        if parts[0] != "row":
            raise FormatError(f"line {lineno}: expected 'row <coefficients>'")
        try:
            rows.append(tuple(int(a) for a in parts[1:]))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer coefficient") from None
    if header is None:
        raise FormatError("missing 'code' header")
    if len(rows) != header["r"]:
        raise FormatError(f"expected {header['r']} rows, found {len(rows)}")
    try:
        return IndexCode(p=header["p"], blowup_t=header["t"], n=header["n"], rows=tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
