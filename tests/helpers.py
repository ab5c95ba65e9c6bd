"""Shared fixtures, independent oracles and the CLI launcher for the test suite.

Oracles deliberately avoid the library's own algorithms: independence and
acyclicity checks go through networkx or plain subset enumeration, GNS cuts
through the permutation definition, decodability through exhaustive message
simulation. Expected values in tests were computed by these oracles.
"""

from __future__ import annotations

import heapq
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import networkx as nx

import gnskit
from gnskit import (
    CapacityError,
    ContractViolation,
    CyclePacking,
    Digraph,
    MUNetwork,
    build_network,
    enumerate_simple_cycles,
)
from gnskit.bounds import BoundReport, TensorBound
from gnskit.caps import DEFAULT_CAPS
from gnskit.cyclepack import (
    ApproxDiagnostics,
    ApproxFes,
    SpreadingMetric,
    _group_pairs,
    _simplex_max,
)
from gnskit.digraph import _find_cycle, _masks, _max_acyclic, _search_order
from gnskit.errors import FormatError
from gnskit.indexcoding import (
    GFMatrix,
    IndexCode,
    _check_prime,
    _GFBasis,
    minrank_edge_cap,
    parse_index_code,
)
from gnskit.network import GnsCertificate, Link, _gns_verdict, _link_graph, closure_links

F0 = Fraction(0)
F1 = Fraction(1)


def cli_env() -> dict[str, str]:
    """A copy of os.environ whose PYTHONPATH is led by the absolute directory
    holding the gnskit this process imported, so a `python -m gnskit` child
    runs the same code whatever its cwd: a relative PYTHONPATH such as `src`
    would otherwise be resolved against the child's cwd."""
    env = os.environ.copy()
    root = str(Path(gnskit.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, rest]) if rest else root
    return env


def run_cli(args: list[str], cwd: str | None = None) -> tuple[int, bytes, str]:
    """Run `python -m gnskit ARGS` in a separate process; the one way the
    suite launches the CLI. Returns the exit code, the stdout bytes and the
    decoded stderr (for failure messages)."""
    proc = subprocess.run(
        [sys.executable, "-m", "gnskit", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def symmetric_cycle(n: int) -> Digraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(v, u) for u, v in edges]
    return Digraph(n, edges)


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def to_nx(g: Digraph) -> nx.DiGraph:
    d = nx.DiGraph()
    d.add_nodes_from(range(g.n))
    d.add_edges_from(g.edges)
    return d


def is_feedback_set(g: Digraph, fvs) -> bool:
    """Are `fvs` vertices of g whose removal leaves it acyclic (networkx)?"""
    rest = set(range(g.n)) - set(fvs)
    return set(fvs) <= set(range(g.n)) and nx.is_directed_acyclic_graph(to_nx(g).subgraph(rest))


def oracle_alpha(g: Digraph) -> int:
    """Independence number via maximum clique of the undirected complement."""
    und = nx.Graph()
    und.add_nodes_from(range(g.n))
    und.add_edges_from((u, v) for u, v in g.edges)
    comp = nx.complement(und)
    best = 1 if g.n else 0
    for clique in nx.find_cliques(comp):
        best = max(best, len(clique))
    return best


def oracle_mais(g: Digraph) -> int:
    """Max acyclic induced set by subset enumeration (small n only)."""
    d = to_nx(g)
    for size in range(g.n, -1, -1):
        for sub in combinations(range(g.n), size):
            if nx.is_directed_acyclic_graph(d.subgraph(sub)):
                return size
    return 0


def reference_find_cycle(adj: dict) -> tuple | None:
    """The rescanning form of `gnskit.digraph._find_cycle`, the reference
    its linear-time peel is compared against: prune nodes without a live in-
    or out-edge by rescanning every edge each round, then walk minimal
    successors until a node repeats and rotate the cycle to start at its
    smallest node."""
    live = {v: {w for w in ws if w in adj} for v, ws in adj.items()}
    changed = True
    while changed:
        changed = False
        dead = [v for v, ws in live.items() if not ws]
        indeg: dict = {v: 0 for v in live}
        for v, ws in live.items():
            for w in ws:
                indeg[w] += 1
        dead += [v for v in live if indeg[v] == 0 and v not in dead]
        if dead:
            changed = True
            for v in dead:
                live.pop(v, None)
            for ws in live.values():
                ws.difference_update(dead)
    if not live:
        return None
    walk = [min(live)]
    seen_at = {walk[0]: 0}
    while True:
        nxt = min(live[walk[-1]])
        if nxt in seen_at:
            cycle = tuple(walk[seen_at[nxt]:])
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen_at[nxt] = len(walk)
        walk.append(nxt)


def _reference_closes_cycle(out_adj, members: set[int], v: int) -> bool:
    stack = [w for w in out_adj[v] if w in members]
    seen = set(stack)
    while stack:
        u = stack.pop()
        for w in out_adj[u]:
            if w == v:
                return True
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def reference_max_acyclic(out_adj, candidates, required=(), target=None) -> int:
    """The set-based, recursive form of `gnskit.digraph._max_acyclic` on tuple
    adjacency, the reference its bitmask stack search is compared against:
    largest acyclic induced superset of `required` inside required plus
    `candidates`, -1 if `required` has a cycle, stopping at `target`."""
    members: set[int] = set()
    for v in required:
        if _reference_closes_cycle(out_adj, members, v):
            return -1
        members.add(v)
    best = len(members)
    ncand = len(candidates)

    def rec(start: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for i in range(start, ncand):
            if count + (ncand - i) <= best:
                return
            if target is not None and best >= target:
                return
            v = candidates[i]
            if not _reference_closes_cycle(out_adj, members, v):
                members.add(v)
                rec(i + 1, count + 1)
                members.discard(v)

    if target is None or best < target:
        rec(0, best)
    return best


def reference_mais_size(g: Digraph) -> int:
    """The size of `gnskit.bounds.mais_exact` before its search probed down
    from the disjoint-cycle bound: one branch and bound without a target,
    whose best set grows from empty. The reference the probe-down search is
    compared against."""
    return _max_acyclic(_masks(g._out), _masks(g._in), search_order(g))[0]


def search_order(g: Digraph) -> list[int]:
    """`gnskit.digraph._search_order` of a Digraph's neighbour masks."""
    return _search_order(_masks(g._out), _masks(g._in))


def _reference_mis_size(masks, allowed: int, target: int | None = None) -> int:
    """Independence number inside `allowed`, by binary branch on the vertex
    of largest remaining degree: include it first, then exclude it."""
    best = 0
    stop = allowed.bit_count() if target is None else target
    stack = [(allowed, 0)]
    while stack:
        remaining, count = stack.pop()
        best = max(best, count)
        if best >= stop or count + remaining.bit_count() <= best:
            continue
        # branch on the vertex of largest remaining degree, smallest index first
        pick, pick_deg = -1, -1
        scan = remaining
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            d = (masks[v] & remaining).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            best = count + remaining.bit_count()
            continue
        bit = 1 << pick
        stack.append((remaining & ~bit, count))
        stack.append((remaining & ~(masks[pick] | bit), count + 1))
    return best


def _reference_lexmin(n: int, size: int, fits) -> list[int]:
    """Lexicographically smallest `size`-subset of range(n) all of whose
    prefixes `fits`: each vertex in order is kept if it still fits."""
    chosen: list[int] = []
    for v in range(n):
        if len(chosen) == size:
            break
        if fits(chosen + [v]):
            chosen.append(v)
    return chosen


def reference_alpha_exact(g: Digraph) -> tuple[int, frozenset[int]]:
    """`gnskit.bounds.alpha_exact` before its probes decided a target from
    target - 1 and handed their sets on as witnesses (no cap): the reference
    it is compared against. Independence number (no edge in either
    direction) with the lexicographically smallest maximum independent set."""
    masks = [
        sum(1 << w for w in o) | sum(1 << w for w in i) for o, i in zip(g._out, g._in)
    ]
    full = (1 << g.n) - 1
    size = _reference_mis_size(masks, full)

    def fits(trial: list[int]) -> bool:
        *chosen, v = trial
        if any(masks[v] >> u & 1 for u in chosen):
            return False
        rest = full
        for u in trial:
            rest &= ~(masks[u] | 1 << u)
        need = size - len(trial)
        return _reference_mis_size(masks, rest, target=need) >= need

    return size, frozenset(_reference_lexmin(g.n, size, fits))


class ReferenceGF2Basis:
    """The p = 2 row space of `gnskit.indexcoding._GFBasis` as it re-sorted
    its whole basis by lowest set bit after every insert, the reference its
    sorted insert is compared against."""

    def __init__(self) -> None:
        self.bit_basis: list[int] = []

    def _reduce(self, row: int) -> int:
        for b in self.bit_basis:
            if row & b & -b:
                row ^= b
        return row

    def add(self, row: int) -> bool:
        reduced = self._reduce(row)
        if reduced:
            self.bit_basis.append(reduced)
            self.bit_basis.sort(key=lambda b: b & -b)
        return bool(reduced)

    def contains(self, row: int) -> bool:
        return not self._reduce(row)

    @property
    def rank(self) -> int:
        return len(self.bit_basis)


def reference_rank_rows(rows: list[list[int]], cols: int, p: int) -> int:
    """The list-row Gaussian elimination that `gnskit.indexcoding.gf_rank`
    and the p > 2 `minrank` used before `_GFBasis` did every rank, the
    reference they are compared against. Reduces `rows` in place."""
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


def reference_rank_gf2(rows: Sequence[int]) -> int:
    """Rank of rows given as bitmask ints over the two-element field: the
    p = 2 rank of `gnskit.indexcoding.minrank` before `_GFBasis` did every
    rank, the reference it is compared against."""
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


def reference_minrank(
    g: Digraph, p: int, edge_cap: int | None = None
) -> tuple[int, GFMatrix]:
    """Minimum rank over matrices fitting g: unit diagonal (row scaling is
    rank- and fit-preserving, so this loses no generality), free entries on
    edges, zero elsewhere. Exhaustive over all edge assignments, returning
    the first witness in lexicographic assignment order.

    The exhaustive loops that `gnskit.indexcoding.minrank` replaced by one
    walk over the rows, the reference its value and witness are compared
    against."""
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
                r = reference_rank_gf2(rows)
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
            r = reference_rank_rows([row[:] for row in rows], n, p)
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


def reference_derive_decoders(g: Digraph, code: IndexCode) -> tuple:
    """Per-user reconstruction coefficients over (code rows + side rows).

    For user i, returns a matrix with one row per wanted subsymbol whose
    entries weight the code's r rows followed by the user's side-information
    subsymbols (in out-neighbor, then slot order).

    The augmented elimination that `gnskit.indexcoding.derive_decoders`
    replaced by a tagged `_GFBasis`, the reference its tuples are compared
    against."""
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


def reference_verify_index_code(g: Digraph, code: IndexCode) -> tuple[bool, int | None]:
    """`gnskit.indexcoding.verify_index_code` as it was before it checked
    modulo the code's row space, the reference it is compared against: the
    code's basis is copied for every user and extended by the unit rows of
    the user's side-information subsymbols."""
    if code.n != g.n:
        raise ValueError("code message count does not match the graph")
    t = code.blowup_t
    code_basis = _GFBasis(t * code.n, code.p)
    for row in code.rows:
        code_basis.add(code_basis.row(row))
    for user in range(g.n):
        basis = code_basis.copy()
        for j in g.out_neighbors(user):
            for s in range(t):
                basis.add(basis.unit(j * t + s))
        for s in range(t):
            if not basis.contains(basis.unit(user * t + s)):
                return False, user
    return True, None


def reference_simplex_max(
    num_vars: int,
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """The Fraction tableau that `gnskit.cyclepack._simplex_max` replaced,
    the reference its integer-preserving tableau is compared against.
    Maximize objective*x subject to rows*x <= rhs, x >= 0, rhs >= 0, on
    Fraction data.

    Dense tableau simplex, Bland's rule for both the entering column and
    ratio ties, so the optimum (and the returned vertex) is deterministic
    and cycling is impossible. Returns (value, primal x, dual y), the duals
    being the reduced costs of the slack columns.
    """
    m = len(rows)
    width = num_vars + m
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i]) + [F0] * m + [rhs[i]]
        row[num_vars + i] = F1
        tableau.append(row)
    cost = [-c for c in objective] + [F0] * (m + 1)
    basis = list(range(num_vars, width))

    while True:
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise ContractViolation("unbounded packing LP; constraints are malformed")
        pivot_row = tableau[leave]
        inv = F1 / pivot_row[enter]
        for j in range(width + 1):
            pivot_row[j] *= inv
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                row = tableau[i]
                for j in range(width + 1):
                    row[j] -= factor * pivot_row[j]
        if cost[enter] != 0:
            factor = cost[enter]
            for j in range(width + 1):
                cost[j] -= factor * pivot_row[j]
        basis[leave] = enter

    x = [F0] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = tableau[i][-1]
    duals = [cost[num_vars + i] for i in range(m)]
    return cost[-1], x, duals


def reference_rcp_exact(g: Digraph, cycle_cap: int = DEFAULT_CAPS.rcp_cycles) -> CyclePacking:
    """`gnskit.cyclepack.rcp_exact` as it was when `bound_report` still
    called it, the reference the packing from the spreading metric is
    compared against: one LP column per enumerated simple cycle."""
    try:
        cycles = enumerate_simple_cycles(g, cap=cycle_cap)
    except CapacityError as exc:
        raise CapacityError(
            f"{exc}; graph too cyclic for the exact packing LP, use the "
            "subset feedback-edge-set approximation instead"
        ) from None
    if not cycles:
        return CyclePacking(assignments=(), value=F0)
    touched = sorted({v for cyc in cycles for v in cyc})
    row_of = {v: i for i, v in enumerate(touched)}
    rows = [[0] * len(cycles) for _ in touched]
    for j, cyc in enumerate(cycles):
        for v in cyc:
            rows[row_of[v]][j] = 1
    value, weights, _ = _simplex_max(
        len(cycles), rows, [1] * len(touched), [1] * len(cycles)
    )
    assignments = tuple(
        (cyc, w) for cyc, w in zip(cycles, weights) if w > 0
    )
    return CyclePacking(assignments=assignments, value=value)


# The cutting-plane loop, the sphere growing and the packing map on Fractions,
# as they were before they moved to ints over a common denominator: the
# reference those paths are compared against, exactly.
HALF = Fraction(1, 2)


class Priced(NamedTuple):
    """A walk's length under the metric and its number of pairs, added by
    component and ordered as a tuple: the pricing's shortest cycle is one of
    least length, and of those one with the fewest pairs."""

    length: Fraction
    hops: int

    def __add__(self, other: "Priced") -> "Priced":
        return Priced(self.length + other.length, self.hops + other.hops)


def reference_distances_from(
    terminal: str,
    out_pairs: dict[str, list[tuple[str, tuple[str, str]]]],
    lengths: dict[tuple[str, str], Fraction | Priced],
) -> tuple[dict[str, Fraction | Priced], dict[str, tuple[str, tuple[str, str]]]]:
    """Dijkstra from the exit side of `terminal`, never re-entering it.
    Returns each reached node's distance and its (parent, pair) on one
    shortest path."""
    dist: dict[str, Fraction | Priced] = {}
    prev: dict[str, tuple[str, tuple[str, str]]] = {}
    heap: list[tuple[Fraction | Priced, str, str, tuple[str, str]]] = []
    for head, key in out_pairs.get(terminal, ()):
        if head == terminal:
            continue
        heapq.heappush(heap, (lengths[key], head, terminal, key))
    while heap:
        d, node, parent, key = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        prev[node] = (parent, key)
        for head, k2 in out_pairs.get(node, ()):
            if head == terminal or head in dist:
                continue
            heapq.heappush(heap, (d + lengths[k2], head, node, k2))
    return dist, prev


def reference_shortest_cycle_through(
    terminal: str,
    out_pairs: dict[str, list[tuple[str, tuple[str, str]]]],
    lengths: dict[tuple[str, str], Fraction | Priced],
) -> tuple[Fraction | Priced, tuple[tuple[str, str], ...]] | None:
    """Shortest closed walk through `terminal` under the given lengths,
    treating the terminal as split into an exit side and an entry side.
    Returns its length and the pair sequence, or None if no cycle passes."""
    dist, prev = reference_distances_from(terminal, out_pairs, lengths)
    best: tuple[Fraction, str, tuple[str, str]] | None = None
    for node, d in dist.items():
        for head, key in out_pairs.get(node, ()):
            if head == terminal:
                cand = d + lengths[key]
                if best is None or cand < best[0] or (cand == best[0] and node < best[1]):
                    best = (cand, node, key)
    if best is None:
        return None
    total, node, closing = best
    seq = [closing]
    while node != terminal:
        parent, key = prev[node]
        seq.append(key)
        node = parent
    seq.reverse()
    return total, tuple(seq)


def reference_solve_spreading_metric(
    links: Sequence[Link],
    terminals: Iterable[str],
    iteration_cap: int = DEFAULT_CAPS.spreading_iterations,
) -> SpreadingMetric:
    """Minimum-total fractional edge lengths making every cycle through a
    terminal measure at least 1 (the relaxation of the subset feedback
    edge set problem), by cutting-plane generation.

    Parallel links are grouped into one capacitated variable. Each round
    solves the current covering LP exactly through its packing dual, then a
    shortest-closed-walk oracle per terminal either finds a violated cycle
    or proves feasibility, which by LP duality makes the metric optimal and
    the last packing an optimal packing over all cycles through a terminal
    (column generation with a shortest-cycle pricing step). Pricing
    measures each pair as `Priced(x_p, 1)`, so of the shortest violated
    cycles it finds one with the fewest pairs.
    """
    grouped = _group_pairs(links)
    pair_keys = sorted(grouped)
    pair_index = {key: i for i, key in enumerate(pair_keys)}
    costs = [len(grouped[key]) for key in pair_keys]
    out_pairs: dict[str, list[tuple[str, tuple[str, str]]]] = {}
    for tail, head in pair_keys:
        out_pairs.setdefault(tail, []).append((head, (tail, head)))

    constraints: list[frozenset[int]] = []
    cycles: list[tuple[tuple[str, str], ...]] = []  # pair sequence of each constraint
    known: set[frozenset[int]] = set()
    x = [F0] * len(pair_keys)
    weights: list[Fraction] = []
    for _ in range(iteration_cap + 1):
        lengths = {key: Priced(x[pair_index[key]], 1) for key in pair_keys}
        violated = 0
        for t in sorted(set(terminals)):
            found = reference_shortest_cycle_through(t, out_pairs, lengths)
            if found is not None and found[0].length < 1:
                row = frozenset(pair_index[key] for key in found[1])
                if row not in known:
                    known.add(row)
                    constraints.append(row)
                    cycles.append(found[1])
                    violated += 1
        if not violated:
            objective = sum((c * xi for c, xi in zip(costs, x)), start=F0)
            metric = tuple(
                (e.id, x[pair_index[(e.tail, e.head)]])
                for e in sorted(links, key=lambda e: e.id)
                if e.tail is not None
            )
            packing = tuple((cyc, w) for cyc, w in zip(cycles, weights) if w > 0)
            return SpreadingMetric(lengths=metric, objective=objective, packing=packing)
        # packing dual of the covering LP: one variable per cycle constraint
        rows = [
            [1 if i in cyc_set else 0 for cyc_set in constraints]
            for i in range(len(pair_keys))
        ]
        _, weights, x = _simplex_max(len(constraints), rows, costs, [1] * len(constraints))
    raise CapacityError(
        f"spreading metric did not converge within {iteration_cap} generated constraints"
    )


def reference_packing_from_metric(closed_links: Sequence[Link], metric: SpreadingMetric) -> CyclePacking:
    """The metric's packing as a vertex packing of the index graph, whose
    vertex v is link v. Each pair's parallel links are filled in id order,
    one unit per link, so a cycle's weight splits where one of its pairs
    crosses to the next link. Raises ContractViolation unless the value is
    the metric's objective: with the metric proven feasible, a packing that
    passes `validate_packing` is then optimal."""
    grouped = _group_pairs(closed_links)
    used = {key: F0 for key in grouped}
    weights: dict[tuple[int, ...], Fraction] = {}
    for pairs, w in metric.packing:
        cuts = {F0, w}
        for key in pairs:
            start = used[key]
            cuts.update(j - start for j in range(math.floor(start) + 1, math.ceil(start + w)))
        points = sorted(cuts)
        for lo, hi in zip(points, points[1:]):
            cyc = tuple(grouped[key][math.floor(used[key] + lo)] for key in pairs)
            pivot = cyc.index(min(cyc))
            cyc = cyc[pivot:] + cyc[:pivot]
            weights[cyc] = weights.get(cyc, F0) + hi - lo
        for key in pairs:
            used[key] += w
    value = sum(weights.values(), F0)
    if value != metric.objective:
        raise ContractViolation(
            f"packing value {value} differs from the metric objective {metric.objective}"
        )
    return CyclePacking(assignments=tuple(sorted(weights.items())), value=value)


def reference_pair_graph(pairs: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    """The pair graph keyed by node name, as `gnskit.cyclepack` built it
    before it numbered nodes and pairs."""
    adj: dict[str, set[str]] = {}
    for tail, head in pairs:
        adj.setdefault(tail, set()).add(head)
        adj.setdefault(head, set())
    return adj


def reference_minimal_cut(pairs, cut_pairs: set) -> set:
    """The minimality pass of `reference_subset_fes_approx`, the reference
    `gnskit.cyclepack._minimal_cut` is compared against: each cut pair in
    sorted order is dropped if the pair graph of the uncut pairs plus it is
    acyclic, rebuilt and searched anew for every pair; a final search
    verifies the rest."""
    pairs, cut_pairs = set(pairs), set(cut_pairs)
    for key in sorted(cut_pairs):
        if _find_cycle(reference_pair_graph(pairs - cut_pairs | {key})) is None:
            cut_pairs.remove(key)

    if _find_cycle(reference_pair_graph(pairs - cut_pairs)) is not None:
        raise ContractViolation("feedback edge set verification failed")
    return cut_pairs


def reference_subset_fes_approx(
    net: MUNetwork,
    iteration_cap: int = DEFAULT_CAPS.spreading_iterations,
    metric: SpreadingMetric | None = None,
) -> ApproxFes:
    """Feedback edge set of the network closure by region growing on the
    spreading metric, always re-verified. The metric is `metric` if given
    (say, the one `gnskit` solved, so that the growing and the minimality
    pass are compared on one metric), else the reference cutting plane's.

    Every cycle of the closure passes through a source node (regular links
    are acyclic and closure links end at sources), so terminals are
    processed one by one, in name order: the terminal is split into
    exit/entry sides, metric distances are swept over their breakpoints
    below 1/2, and the outgoing boundary of the cheapest ball (cut cost
    relative to ball volume plus an objective/(2k) credit) is cut. Parallel
    links are cut all or none since the variables are capacitated. The ball
    chosen for source s cuts every surviving cycle through s: the cycle
    leaves the ball at the latest on its closing link, whose head s counts
    as outside. So once every source is processed no cycle survives; a
    final acyclicity check guards this argument.

    The order only breaks ties. On a 0/1 metric it does not change the cut
    at all: the only radius below 1/2 is 0, and a pair leaving a
    distance-0 ball has length 1, so every cut pair has length 1. Those
    pairs cost the LP objective in total, and any feedback edge set costs
    at least that much, so the cut is all of them, in any order.
    """
    closed = closure_links(net)
    terminals = sorted({s for s, _ in net.pairs})
    if metric is None:
        metric = reference_solve_spreading_metric(closed, terminals, iteration_cap)
    grouped = _group_pairs(closed)
    by_id = metric.as_dict()
    lengths = {key: by_id[ids[0]] for key, ids in grouped.items()}

    cut_pairs: set[tuple[str, str]] = set()
    credit = metric.objective / (2 * max(net.k, 1))
    for s in terminals:
        adj = reference_pair_graph(grouped.keys() - cut_pairs)
        out_pairs = {v: [(w, (v, w)) for w in ws] for v, ws in adj.items()}
        dist, _ = reference_distances_from(s, out_pairs, lengths)
        if not any(s in adj[v] for v in dist):
            continue  # no surviving cycle passes through s
        radii = sorted({d for d in dist.values() if d < HALF} | {F0})
        best: tuple[Fraction, Fraction, frozenset[tuple[str, str]]] | None = None
        for rho in radii:
            ball = {v for v, d in dist.items() if d <= rho}
            boundary = set()
            volume = credit
            for key, ids in grouped.items():
                tail, head = key
                if key in cut_pairs or (tail != s and tail not in ball):
                    continue  # cut, or its tail lies outside the ball
                d_tail = F0 if tail == s else dist[tail]
                volume += len(ids) * max(F0, min(rho, d_tail + lengths[key]) - d_tail)
                if head == s or head not in ball:
                    boundary.add(key)
            cost = Fraction(sum(len(grouped[key]) for key in boundary))
            ratio = cost / volume
            if best is None or ratio < best[0] or (ratio == best[0] and rho < best[1]):
                best = (ratio, rho, frozenset(boundary))
        if best is not None:
            cut_pairs |= best[2]

    cut_pairs = reference_minimal_cut(grouped.keys(), cut_pairs)
    fes = frozenset(eid for key in cut_pairs for eid in grouped[key])
    weight = len(fes)
    if metric.objective > 0:
        ratio_val = float(Fraction(weight) / metric.objective)
    else:
        ratio_val = 1.0 if weight == 0 else math.inf
    return ApproxFes(
        fes=fes,
        diagnostics=ApproxDiagnostics(
            objective=metric.objective,
            weight=weight,
            ratio=ratio_val,
        ),
        metric=metric,
    )


def _reference_scc_with_root(g: Digraph, root: int) -> frozenset[int]:
    """Strongly connected component of `root` in the subgraph induced on
    vertices >= root: the per-root split that `gnskit.digraph.
    enumerate_simple_cycles` made before it split each subgraph once."""
    fwd = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in g.out_neighbors(v):
            if w >= root and w not in fwd:
                fwd.add(w)
                stack.append(w)
    bwd = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in g.in_neighbors(v):
            if w >= root and w not in bwd and w in fwd:
                bwd.add(w)
                stack.append(w)
    return frozenset(bwd)


def reference_enumerate_simple_cycles(g: Digraph, cap: int) -> list[tuple[int, ...]]:
    """The recursive form of `gnskit.digraph.enumerate_simple_cycles`, the
    reference its explicit-stack search is compared against: Johnson's
    `circuit`/`unblock` as nested functions, so the path length is bounded
    by the recursion limit. The cycle order is part of the contract, since
    `rcp_exact` pivots over the cycles in this order."""
    cycles: list[tuple[int, ...]] = []
    for root in range(g.n):
        comp = _reference_scc_with_root(g, root)
        if len(comp) < 2:
            continue
        adj = {v: tuple(w for w in g.out_neighbors(v) if w in comp) for v in comp}
        blocked = {v: False for v in comp}
        blist: dict[int, set[int]] = {v: set() for v in comp}
        path: list[int] = []

        def unblock(v: int) -> None:
            blocked[v] = False
            while blist[v]:
                w = blist[v].pop()
                if blocked[w]:
                    unblock(w)

        def circuit(v: int) -> bool:
            found = False
            path.append(v)
            blocked[v] = True
            for w in adj[v]:
                if w == root:
                    if len(cycles) >= cap:
                        raise CapacityError(
                            f"cycle enumeration exceeded cap of {cap} cycles"
                        )
                    cycles.append(tuple(path))
                    found = True
                elif not blocked[w]:
                    if circuit(w):
                        found = True
            if found:
                unblock(v)
            else:
                for w in adj[v]:
                    blist[w].add(v)
            path.pop()
            return found

        circuit(root)
    return cycles


def oracle_cycles(g: Digraph) -> set[tuple[int, ...]]:
    """Canonical simple cycles via networkx."""
    out = set()
    for cyc in nx.simple_cycles(to_nx(g)):
        pivot = cyc.index(min(cyc))
        out.add(tuple(cyc[pivot:] + cyc[:pivot]))
    return out


def oracle_cycles_bruteforce(g: Digraph) -> set[tuple[int, ...]]:
    """Canonical simple cycles by scanning every vertex subset and every
    cyclic order on it (tiny n only)."""
    out = set()
    for size in range(2, g.n + 1):
        for sub in combinations(range(g.n), size):
            first, rest = sub[0], sub[1:]
            for perm in permutations(rest):
                order = (first,) + perm
                if all(
                    (order[i], order[(i + 1) % size]) in g.edges
                    for i in range(size)
                ):
                    out.add(order)
    return out


def network_paths_exist(net: MUNetwork, cut: frozenset[int], s: str, t: str) -> bool:
    d = nx.DiGraph()
    d.add_nodes_from(net.nodes)
    for e in net.links:
        if e.tail is not None and e.id not in cut:
            d.add_edge(e.tail, e.head)
    return nx.has_path(d, s, t)


def oracle_is_gns(net: MUNetwork, cut: frozenset[int]) -> bool:
    """Straight from the definition: some permutation forbids every path
    from a rank-greater-or-equal source to a destination."""
    k = net.k
    reach = [
        [network_paths_exist(net, cut, s, t) for (_, t) in net.pairs]
        for (s, _) in net.pairs
    ]
    for perm in permutations(range(1, k + 1)):
        if all(
            not reach[i][j]
            for i in range(k)
            for j in range(k)
            if perm[i] >= perm[j]
        ):
            return True
    return False


def oracle_min_gns_size(net: MUNetwork) -> int:
    cuttable = sorted(e.id for e in net.links if e.tail is not None)
    for size in range(len(cuttable) + 1):
        for combo in combinations(cuttable, size):
            if oracle_is_gns(net, frozenset(combo)):
                return size
    raise AssertionError("no GNS cut at all")


def reference_min_gns_cut_exact(net: MUNetwork) -> GnsCertificate:
    """`gnskit.network.min_gns_cut_exact` before it tested each pair's own
    reachability first, kept verbatim without its cap: every candidate gets
    the full verdict."""
    cuttable = sorted(e.id for e in net.links if e.tail is not None)
    index, out, _ = _link_graph(net.nodes, net.links)
    pair_idx = [(index[s], index[t]) for s, t in net.pairs]
    for size in range(len(cuttable) + 1):
        for combo in combinations(cuttable, size):
            perm, _ = _gns_verdict(out, pair_idx, frozenset(combo))
            if perm is not None:
                return GnsCertificate(cut=frozenset(combo), permutation=perm)
    raise AssertionError("no GNS cut found even after cutting every link")


def reference_unit_maxflow(links: Sequence[Link], nodes: Sequence[str], s: str, t: str) -> int:
    """`gnskit.network._unit_maxflow` before it read the network's one link
    graph, kept verbatim: it builds its own node index and adjacency."""
    index = {x: i for i, x in enumerate(nodes)}
    out: list[list[tuple[int, int]]] = [[] for _ in nodes]
    inn: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for e in links:
        if e.tail is None:
            continue
        out[index[e.tail]].append((e.id, index[e.head]))
        inn[index[e.head]].append((e.id, index[e.tail]))
    si, ti = index[s], index[t]
    flow: dict[int, bool] = {e.id: False for e in links if e.tail is not None}
    value = 0
    while True:
        parent: dict[int, tuple[int, int, bool]] = {}  # node -> (prev, link, forward)
        queue = [si]
        seen = {si}
        found = False
        while queue and not found:
            u = queue.pop(0)
            for eid, v in out[u]:
                if not flow[eid] and v not in seen:
                    seen.add(v)
                    parent[v] = (u, eid, True)
                    if v == ti:
                        found = True
                        break
                    queue.append(v)
            if found:
                break
            for eid, v in inn[u]:
                if flow[eid] and v not in seen:
                    seen.add(v)
                    parent[v] = (u, eid, False)
                    if v == ti:
                        found = True
                        break
                    queue.append(v)
        if not found:
            return value
        v = ti
        while v != si:
            u, eid, forward = parent[v]
            flow[eid] = forward
            v = u
        value += 1


def oracle_mincut(net: MUNetwork, s: str, t: str) -> int:
    """Smallest regular-link set whose removal disconnects s from t."""
    regular = sorted(e.id for e in net.links if e.tail is not None)
    if not network_paths_exist(net, frozenset(), s, t):
        return 0
    for size in range(len(regular) + 1):
        for combo in combinations(regular, size):
            if not network_paths_exist(net, frozenset(combo), s, t):
                return size
    return len(regular)


def decode_simulation(g: Digraph, code) -> tuple[bool, int | None]:
    """Exhaustive decodability check: every user must be able to identify
    their message from transmissions plus side information, for all message
    assignments. Only usable when p ** (t*n) is small."""
    p, t, n = code.p, code.blowup_t, code.n
    width = t * n
    assignments = list(product(range(p), repeat=width))
    for user in range(n):
        side_cols = [
            j * t + s for j in g.out_neighbors(user) for s in range(t)
        ]
        own_cols = [user * t + s for s in range(t)]
        seen: dict[tuple, tuple] = {}
        for x in assignments:
            received = tuple(
                sum(c * xv for c, xv in zip(row, x)) % p for row in code.rows
            )
            key = (received, tuple(x[c] for c in side_cols))
            message = tuple(x[c] for c in own_cols)
            if key in seen and seen[key] != message:
                return False, user
            seen[key] = message
    return True, None


def reference_is_prime(p: int) -> bool:
    """`gnskit.indexcoding.is_prime` before Miller-Rabin: trial division."""
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


def gf_rank_oracle(rows: list[list[int]], p: int) -> int:
    """Test-side fraction-free rank over a prime field."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_minrank(g: Digraph, p: int) -> int:
    """Exhaustive minrank with the test-side rank routine."""
    edges = sorted(g.edges)
    best = g.n
    for values in product(range(p), repeat=len(edges)):
        mat = [[0] * g.n for _ in range(g.n)]
        for i in range(g.n):
            mat[i][i] = 1
        for val, (u, v) in zip(values, edges):
            mat[u][v] = val
        best = min(best, gf_rank_oracle(mat, p))
    return best


PARALLEL_LINKS = """network
node s
node t
link s t
link s t
pair s t
"""

SINGLE_PATH = """network
node s
node a
node t
link s a
link a t
pair s t
"""

DIAMOND = """network
node s
node a
node b
node t
link s a
link s b
link a t
link b t
pair s t
"""

TWO_DISJOINT = """network
node s1
node t1
node s2
node t2
link s1 t1
link s2 t2
pair s1 t1
pair s2 t2
"""


# three pairs through one doubled bottleneck a -> b (links 5 and 6), with
# cross links s1 -> t3 and s3 -> t1; the optimal packing is fractional (5/2)
SHARED_BOTTLENECK = """network
node s1
node s2
node s3
node t1
node t2
node t3
node a
node b
link s1 t3
link s3 t1
link s1 a
link s2 a
link s3 a
link a b
link a b
link b t1
link b t2
link b t3
pair s1 t1
pair s2 t2
pair s3 t3
"""


def crossed_unicasts() -> MUNetwork:
    """Two pairs with only cross links; own-pair mincuts are zero, so this
    network exists only programmatically."""
    return build_network(
        ["s1", "t1", "s2", "t2"],
        [("s1", "t2"), ("s2", "t1")],
        [("s1", "t1"), ("s2", "t2")],
    )


def reference_parse_report(text: str, fraction=Fraction) -> BoundReport:
    """`gnskit.bounds.parse_report` before the report's lines were declared
    in one table, kept verbatim but for `fraction`, which reads every
    rational: on malformed text it may raise KeyError, ValueError,
    IndexError or ZeroDivisionError as well as FormatError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "boundreport":
        raise FormatError("missing 'boundreport' header")
    scalars: dict[str, str] = {}
    tensors: list[TensorBound] = []
    gns_fields: dict[str, str] = {}
    packing_value: Fraction | None = None
    assigns: list[tuple[tuple[int, ...], Fraction]] = []
    code_lines: list[str] = []
    section: str | None = None
    for raw in lines[1:]:
        if raw.startswith("  ") and section is not None:
            line = raw.strip()
            if section == "gns":
                key, _, value = line.partition(":")
                gns_fields[key.strip()] = value.strip()
            elif section == "packing":
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "value":
                    packing_value = fraction(value.strip())
                elif key == "assign":
                    parts = value.split()
                    assigns.append(
                        (tuple(int(x) for x in parts[1:]), fraction(parts[0]))
                    )
                else:
                    raise FormatError(f"unknown packing line {line!r}")
            elif section == "code":
                code_lines.append(line)
            else:
                raise FormatError(f"unexpected indented line {line!r}")
            continue
        section = None
        key, sep, value = raw.partition(":")
        if not sep:
            raise FormatError(f"malformed line {raw!r}")
        key = key.strip()
        value = value.strip()
        if key in ("gns", "packing", "code") and not value:
            section = key
            continue
        if key == "tensor_bound":
            kv = dict(item.split("=", 1) for item in value.split())
            tensors.append(
                TensorBound(int(kv["q"]), int(kv["radicand"]), float(kv["value"]))
            )
        else:
            scalars[key] = value

    def _opt_int(key: str) -> int | None:
        return int(scalars[key]) if key in scalars else None

    def _opt_frac(key: str) -> Fraction | None:
        return fraction(scalars[key]) if key in scalars else None

    def _opt_set(key: str) -> frozenset[int] | None:
        if key not in scalars:
            return None
        raw = scalars[key]
        return frozenset(int(x) for x in raw.split()) if raw else frozenset()

    gns = None
    if gns_fields:
        cut_raw = gns_fields.get("cut", "")
        gns = GnsCertificate(
            cut=frozenset(int(x) for x in cut_raw.split()) if cut_raw else frozenset(),
            permutation=tuple(int(x) for x in gns_fields["permutation"].split()),
        )
    packing = None
    if packing_value is not None:
        packing = CyclePacking(assignments=tuple(assigns), value=packing_value)
    code = None
    if code_lines:
        code = parse_index_code("\n".join(code_lines) + "\n")
    return BoundReport(
        m=int(scalars["m"]),
        k=int(scalars["k"]),
        mais_value=_opt_int("mais"),
        fvs=_opt_set("fvs"),
        rcp_value=_opt_frac("rcp"),
        packing=packing,
        approx_weight=_opt_int("approx_weight"),
        approx_fvs=_opt_set("approx_fvs"),
        gns_exact=gns,
        tensor_bounds=tuple(tensors),
        code_rate=_opt_frac("code_rate"),
        code=code,
        co_rate_lb=_opt_frac("co_rate_lb"),
        skipped=tuple(scalars.get("skipped", "").split()),
    )
