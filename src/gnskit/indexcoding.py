"""Finite-field linear algebra, minrank search, and cycle-saving
vector-linear index codes with exact decodability verification.

Message layout convention: message v consists of t subsymbols occupying
columns v*t .. v*t + t - 1 of every coefficient row, matching the blowup
vertex ordering. Decodability is always a rank condition over the prime
field, never a sampling argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .caps import DEFAULT_CAPS
from .cyclepack import CyclePacking, _integer_weights, validate_packing
from .digraph import Digraph, blowup, complement
from .errors import CapacityError, ContractViolation, FormatError


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981  # exact below it (Sorenson and Webster, 2015)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test over `_PRIME_BASES`, up to `_PRIME_LIMIT`."""
    if p >= _PRIME_LIMIT:
        raise CapacityError(f"primality of {p} is decided only below {_PRIME_LIMIT}")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
    basis = _GFBasis(mat.cols, mat.p)
    for row in mat.entries:
        basis.add(basis.row(row))
    return basis.rank


class _GFBasis:
    """Incremental row space over a prime field with membership queries.

    Rows are passed in the basis's own format, which `row` and `unit` build:
    a bitmask int (bit c for column c) when p == 2, else a list of residues.
    Pivots lie in the first `width` columns; the `tags` trailing columns only
    ride along, so a row tagged with its unit vector there carries its
    coefficients through the elimination."""

    def __init__(self, width: int, p: int, tags: int = 0):
        self.width = width
        self.p = p
        self.tags = tags
        self._head = (1 << width) - 1  # the pivot columns of a p == 2 row
        # p == 2: pivot bit -> row; else pivot column -> row scaled to 1 there.
        # Each row is reduced by the rows before it in insertion order, so it
        # holds none of their pivots and one pass in that order reduces fully.
        self.pivots: dict = {}

    def copy(self) -> _GFBasis:
        twin = _GFBasis(self.width, self.p, self.tags)
        twin.pivots = dict(self.pivots)  # rows are replaced, never mutated
        return twin

    def row(self, entries: Sequence[int]):
        """The residues `entries` (width + tags of them) in this format."""
        if self.p != 2:
            return list(entries)
        bits = 0
        for col, a in enumerate(entries):
            if a:
                bits |= 1 << col
        return bits

    def unit(self, col: int):
        """The unit row of column `col` in this format."""
        if self.p == 2:
            return 1 << col
        vec = [0] * (self.width + self.tags)
        vec[col] = 1
        return vec

    def _reduce(self, row):
        """`row` minus its part in the span."""
        if self.p == 2:
            for bit, base in self.pivots.items():
                if row & bit:
                    row ^= base
            return row
        for col, base in self.pivots.items():
            f = row[col]
            if f:
                row = [(a - f * b) % self.p for a, b in zip(row, base)]
        return row

    def add(self, row) -> bool:
        """Add `row`; False when its first `width` columns were in the span."""
        reduced = self._reduce(row)
        if self.p == 2:
            head = reduced & self._head
            if head:
                self.pivots[head & -head] = reduced
            return bool(head)
        for col in range(self.width):
            a = reduced[col]
            if a:
                inv = pow(a, self.p - 2, self.p)
                self.pivots[col] = [(x * inv) % self.p for x in reduced]
                return True
        return False

    def contains(self, row) -> bool:
        """Whether the first `width` columns of `row` lie in the span."""
        reduced = self._reduce(row)
        if self.p == 2:
            return not reduced & self._head
        return not any(reduced[: self.width])

    def coefficients(self, row) -> list[int] | None:
        """The tag columns of `row` reduced by the span, or None when its
        first `width` columns do not lie in the span."""
        reduced = self._reduce(row)
        if self.p != 2:
            return None if any(reduced[: self.width]) else reduced[self.width :]
        if reduced & self._head:
            return None
        return [reduced >> col & 1 for col in range(self.width, self.width + self.tags)]

    def residues(self) -> list:
        """For each of the first `width` columns, its unit row minus its part
        in the span, the one such row that is zero in every pivot column:
        the unit itself off the pivots, and on a pivot the unit minus that
        pivot's row of the reduced row echelon form. Rows that are not ints
        are tuples, so residues hash and compare equal when they are."""
        p = self.p
        echelon: dict = {}  # pivot -> its row, zero in every other pivot
        for pivot, row in reversed(self.pivots.items()):  # clear the later pivots
            for later, base in echelon.items():
                if p == 2:
                    if row & later:
                        row ^= base
                else:
                    f = row[later]
                    if f:
                        row = [(a - f * b) % p for a, b in zip(row, base)]
            echelon[pivot] = row
        if p == 2:
            return [echelon.get(1 << c, 0) ^ 1 << c for c in range(self.width)]
        residues = []
        for col in range(self.width):
            if col in echelon:
                residue = [(-a) % p for a in echelon[col]]
                residue[col] = 0
            else:
                residue = self.unit(col)
            residues.append(tuple(residue))
        return residues

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
    # Rows are chosen in order, each extending a copy of the basis of the
    # rows before it. Sorted edges group by row, so this depth-first walk
    # meets the assignments in lexicographic order.
    free = [[v for u, v in edges if u == i] for i in range(n)]

    def entries(i: int, vals: tuple[int, ...]) -> list[int]:
        row = [int(j == i) for j in range(n)]
        for v, val in zip(free[i], vals):
            row[v] = val
        return row

    root = _GFBasis(n, p)
    choices = [  # per row: (its free entries, the row in the basis format)
        [(vals, root.row(entries(i, vals))) for vals in product(range(p), repeat=len(free[i]))]
        for i in range(n)
    ]
    best, best_vals = n + 1, ()
    walks = [(root, iter(choices[0]), ())]  # (prefix basis, row choices, prefix values)
    while walks and best > 1:
        prefix, picks, chosen = walks[-1]
        pick = next(picks, None)
        if pick is None:
            walks.pop()
            continue
        if len(walks) < n:
            basis = prefix.copy()
            basis.add(pick[1])
            walks.append((basis, iter(choices[len(walks)]), (*chosen, pick[0])))
        else:  # the last row: its rank needs no basis of its own
            rank = prefix.rank + (not prefix.contains(pick[1]))
            if rank < best:
                best, best_vals = rank, (*chosen, pick[0])
    rows = tuple(tuple(entries(i, vals)) for i, vals in enumerate(best_vals))
    return best, GFMatrix(p, n, n, rows)


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
        if self.blowup_t < 1 or self.n < 0:
            raise ValueError("a code needs t >= 1 and n >= 0")
        width = self.blowup_t * self.n
        for row in self.rows:
            if len(row) != width:
                raise ValueError("row width must be t*n")
            if row and not 0 <= min(row) <= max(row) < self.p:
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
    return _cycle_code(g, packing, p, lcm_cap)


def _cycle_code(g: Digraph, packing: CyclePacking, p: int, lcm_cap: int) -> IndexCode:
    """`build_cycle_code` on a packing already checked by `validate_packing`."""
    _check_prime(p)
    t, copies = _integer_weights(packing)
    if t > lcm_cap:
        raise CapacityError(
            f"packing denominators need {t} subsymbols, cap is {lcm_cap}"
        )
    n = g.n
    width = t * n
    next_slot = [0] * n
    rows: list[tuple[int, ...]] = []
    minus_one = (p - 1) % p
    for (cyc, _), count in zip(packing.assignments, copies):
        for _ in range(count):
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


def verify_index_code(g: Digraph, code: IndexCode) -> tuple[bool, int | None]:
    """Exact decodability: for every user, all t subsymbols of the wanted
    message must lie in the span of the received rows plus the user's
    side-information subsymbols, checked modulo the rows' span: the code's
    basis is reduced once, each unit row's residue is read off it
    (`_GFBasis.residues`), and a user decodes when its wanted residues lie
    in the span of its side-information residues: at once when each is one
    of them, else by an elimination on them. Zero residues lie in every
    span: a user wanting only those is not checked, and none joins a basis.
    Returns (True, None) or (False, first failing user)."""
    if code.n != g.n:
        raise ValueError("code message count does not match the graph")
    t, width = code.blowup_t, code.blowup_t * code.n
    code_basis = _GFBasis(width, code.p)
    for row in code.rows:
        code_basis.add(code_basis.row(row))
    zero = 0 if code.p == 2 else (0,) * width  # in the format of `residues`
    residues = code_basis.residues()
    nonzero = [[r for r in residues[v * t : (v + 1) * t] if r != zero] for v in range(g.n)]
    for user, wanted in enumerate(nonzero):
        if not wanted:
            continue
        side = [r for j in g.out_neighbors(user) for r in nonzero[j]]
        missing = [r for r in wanted if r not in side]
        if missing:
            basis = _GFBasis(width, code.p)
            for r in side:
                basis.add(r)
            if not all(basis.contains(r) for r in missing):
                return False, user
    return True, None


def derive_decoders(g: Digraph, code: IndexCode) -> tuple:
    """Per-user reconstruction coefficients over (code rows + side rows).

    For user i, returns a matrix with one row per wanted subsymbol whose
    entries weight the code's r rows followed by the user's side-information
    subsymbols (in out-neighbor, then slot order)."""
    t, p = code.blowup_t, code.p
    width = t * code.n
    decoders = []
    for user in range(g.n):
        side = [j * t + s for j in g.out_neighbors(user) for s in range(t)]
        avail = [*code.rows, *([int(c == col) for c in range(width)] for col in side)]
        # tag each available row with its unit vector, so reducing a wanted
        # subsymbol leaves its reconstruction coefficients in the tags
        basis = _GFBasis(width, p, tags=len(avail))
        for i, row in enumerate(avail):
            basis.add(basis.row([*row, *(int(c == i) for c in range(len(avail)))]))
        user_rows = []
        for s in range(t):
            coeffs = basis.coefficients(basis.unit(user * t + s))
            if coeffs is None:
                raise ContractViolation(f"user {user} cannot decode subsymbol {s}")
            user_rows.append(tuple((-a) % p for a in coeffs))
        decoders.append(tuple(user_rows))
    return tuple(decoders)


def co_rate_from_beta(m: int, beta: Fraction | int) -> Fraction:
    """Joint source entropy rate of the correlated-sources network code dual
    to an index code of rate beta on the m-link network's index graph."""
    beta = Fraction(beta)
    if beta < 0 or beta > m:
        raise ValueError(f"rate {beta} outside [0, {m}]")
    return Fraction(m) - beta


def _code_lines(code: IndexCode) -> list[str]:
    """The lines of `serialize_index_code` after its comments."""
    lines = [f"code p={code.p} t={code.blowup_t} n={code.n} r={code.r}"]
    lines.extend("row " + " ".join(map(str, row)) for row in code.rows)
    return lines


def serialize_index_code(code: IndexCode, header_comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in header_comments]
    lines.extend(_code_lines(code))
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
