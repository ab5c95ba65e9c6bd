"""Fractional cycle packing, its spreading-metric dual, and the
sphere-growing subset feedback-edge-set approximation.

All linear programming here is exact: one dense primal simplex with
Bland's rule on an integer-preserving tableau (Python ints over one common
denominator), because the surrounding test suites assert exact equalities
such as strong LP duality and the packing-versus-feedback inequalities that
a floating-point solver would blur. The cutting-plane pricing, the sphere
growing and the packing map stay on ints over one common denominator too;
Fractions are built only for the values they return.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .caps import DEFAULT_CAPS
from .digraph import (
    Digraph,
    _find_cycle,
    _residual_cycle,
    enumerate_simple_cycles,
)
from .errors import CapacityError, ContractViolation
from .network import Link, MUNetwork, _Arcs, _reachable, closure_links, to_index_graph

F0 = Fraction(0)


@dataclass(frozen=True)
class CyclePacking:
    """Rational weights on simple cycles with per-vertex load at most 1.

    `assignments` holds (cycle, weight) pairs with positive weight, cycles in
    canonical rotation: in enumeration order from `rcp_exact`, in sorted
    order from `packing_from_metric`. `value` is the total weight.
    """

    assignments: tuple[tuple[tuple[int, ...], Fraction], ...]
    value: Fraction

    def weight_map(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.assignments)


@dataclass(frozen=True)
class SpreadingMetric:
    """Non-negative rational link lengths under which every cycle through a
    terminal measures at least 1; `objective` is the capacity-weighted total
    (parallel links share one length). `packing` is its LP dual: generated
    cycles as (tail, head) pair sequences with positive weights summing to
    `objective`, each pair loaded at most its link count. `solved` is the
    solve's (node index, link ids per pair, arcs, pair lengths x, d)."""

    lengths: tuple[tuple[int, Fraction], ...]  # (link id, length), id order
    objective: Fraction
    packing: tuple[tuple[tuple[tuple[str, str], ...], Fraction], ...]
    solved: tuple | None = field(default=None, compare=False, repr=False)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.lengths)


class _Tableau:
    """Maximize objective*x subject to rows*x <= rhs, x >= 0, on integer
    data with rhs >= 0, the columns arriving in batches.

    Integer-preserving dense tableau (Edmonds 1967, Bareiss 1968): Python
    ints over one common denominator d, the previous pivot element (d =
    |det| of the current basis, starting at 1), so every row update
    (p*x - f*y) // d divides exactly. Bland's rule for both the entering
    column and ratio ties, so cycling is impossible.

    Each `add` runs on from the last optimal basis, new columns numbered
    after the old ones and before the slacks. The right-hand side never
    changes, so that basis stays primal feasible, and the result is an
    optimum over all columns so far, though not always the vertex a cold
    run would reach. As the slack block is d times the basis inverse, a new
    column joins as its entries' sum of slack columns; at the slack basis
    (d = 1) that is the column itself.
    """

    def __init__(self, rhs: Sequence[int]):
        # row r: the m slack columns, the right-hand side at m, the structural columns
        self.tableau = [[0] * len(rhs) + [b] for b in rhs]
        for r, row in enumerate(self.tableau):
            row[r] = 1
        self.cost, self.basis, self.d = [0] * (len(rhs) + 1), list(range(len(rhs))), 1

    def add(
        self, columns: Iterable[Sequence[tuple[int, int]]], objective: Iterable[int]
    ) -> tuple[int, list[int], list[int], int]:
        """Add columns as (row, entry) pairs with their objective entries and
        solve: (value, primal x, dual y) as ints over the final d, then d > 0;
        the duals are the reduced costs of the slack columns."""
        tableau, cost, basis, d = self.tableau, self.cost, self.basis, self.d
        m = len(tableau)
        new = list(zip(columns, objective))
        if new:
            at = {b: r for r, b in enumerate(basis) if b < m}  # basic slack -> its row
            block = []
            for col, _ in new:
                entries = [0] * m
                for i, a in col:
                    if i in at:  # a basic slack's column is d at its row
                        entries[at[i]] += a * d
                    else:
                        for r, row in enumerate(tableau):
                            entries[r] += a * row[i]
                block.append(entries)
            for row, e in zip(tableau, zip(*block)):
                row += e
            cost += [sum(a * cost[i] for i, a in col) - d * c for col, c in new]
        order = [*range(m + 1, len(cost)), *range(m)]  # Bland's order: structurals, then slacks

        while True:
            enter = next((j for j in order if cost[j] < 0), -1)
            if enter < 0:
                break
            # ratio test b_i/a_i by cross-multiplication, ties in Bland's order
            leave = -1
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    b = tableau[i][m]
                    if leave < 0:
                        leave, best_b, best_a = i, b, a
                        continue
                    left, right = b * best_a, best_b * a
                    if left < right or left == right and (
                        (basis[i] < m, basis[i]) < (basis[leave] < m, basis[leave])
                    ):
                        leave, best_b, best_a = i, b, a
            if leave < 0:
                raise ContractViolation("unbounded packing LP; constraints are malformed")
            pivot_row = tableau[leave]
            p = pivot_row[enter]
            # every other row, the cost row too, becomes (p*x - f*y) // d, which
            # is p*x // d where y == 0: a rescale (none if p == d), patched on the
            # pivot row's support
            support = [(j, y) for j, y in enumerate(pivot_row) if y]
            for row in (*tableau, cost):
                f = row[enter]
                if row is pivot_row or not f and p == d:
                    continue
                patch = [(j, (p * row[j] - f * y) // d) for j, y in support] if f else ()
                if p != d:
                    row[:] = [p * x // d for x in row]
                for j, v in patch:
                    row[j] = v
            basis[leave] = enter
            self.d = d = p

        x = [0] * (len(cost) - m - 1)
        for i, b in enumerate(basis):
            if b > m:
                x[b - m - 1] = tableau[i][m]
        return cost[m], x, cost[:m], d


def _simplex_core(
    num_vars: int, rows: Sequence[Sequence[int]], rhs: Sequence[int], objective: Sequence[int]
) -> tuple[int, list[int], list[int], int]:
    """`_Tableau` on one batch of columns, given as dense rows."""
    columns = [[(i, row[j]) for i, row in enumerate(rows) if row[j]] for j in range(num_vars)]
    return _Tableau(rhs).add(columns, objective)


def _simplex_max(
    num_vars: int,
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    objective: Sequence[int],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """`_simplex_core` with its (value, primal x, dual y) as Fractions."""
    value, x, duals, d = _simplex_core(num_vars, rows, rhs, objective)
    return Fraction(value, d), [Fraction(v, d) for v in x], [Fraction(y, d) for y in duals]


def rcp_exact(g: Digraph, cycle_cap: int = DEFAULT_CAPS.rcp_cycles) -> CyclePacking:
    """Optimal fractional cycle packing over the enumerated simple cycles."""
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


def _integer_weights(packing: CyclePacking) -> tuple[int, list[int]]:
    """The packing's weights as ints over the lcm of their denominators,
    then that lcm."""
    scale = math.lcm(*(w.denominator for _, w in packing.assignments))
    return scale, [w.numerator * (scale // w.denominator) for _, w in packing.assignments]


def validate_packing(g: Digraph, packing: CyclePacking) -> None:
    """Raise ContractViolation unless every keyed cycle is a simple cycle of
    g in canonical rotation and every per-vertex load is at most 1. Loads
    are summed on ints over the lcm of the weight denominators."""
    scale, weights = _integer_weights(packing)
    load: dict[int, int] = {}
    for (cyc, _), w in zip(packing.assignments, weights):
        if w < 0:
            raise ContractViolation(f"negative weight on cycle {cyc}")
        if len(set(cyc)) != len(cyc) or len(cyc) < 2:
            raise ContractViolation(f"not a simple cycle: {cyc}")
        if cyc[0] != min(cyc):
            raise ContractViolation(f"cycle not in canonical rotation: {cyc}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (a, b) not in g.edges:
                raise ContractViolation(f"cycle {cyc} uses missing edge ({a}, {b})")
        for v in cyc:
            load[v] = load.get(v, 0) + w
    if Fraction(sum(weights), scale) != packing.value:
        raise ContractViolation("packing value does not match its assignments")
    for v, amount in load.items():
        if amount > scale:
            raise ContractViolation(f"vertex {v} is overloaded: {Fraction(amount, scale)}")


def _group_pairs(links: Sequence[Link]) -> dict[tuple[str, str], list[int]]:
    grouped: dict[tuple[str, str], list[int]] = {}
    for e in links:
        if e.tail is None:
            continue
        grouped.setdefault((e.tail, e.head), []).append(e.id)
    return grouped


def _pair_graph(
    links: Iterable[Link], terminals: Iterable[str] = ()
) -> tuple[dict[str, int], list[tuple[str, str]], list[list[int]], _Arcs]:
    """The node index, the sorted distinct (tail, head) pairs of the regular
    links, each pair's link ids, and for each node the (pair, head) arcs
    leaving it. Nodes, the terminals among them, and pairs are numbered in
    name order, so comparing numbers compares names."""
    grouped = _group_pairs(links)
    pairs = sorted(grouped)
    names = sorted({x for pair in pairs for x in pair}.union(terminals))
    index = {x: i for i, x in enumerate(names)}
    out: _Arcs = [[] for _ in names]
    for p, (tail, head) in enumerate(pairs):
        out[index[tail]].append((p, index[head]))
    return index, pairs, [grouped[pair] for pair in pairs], out


def _distances_from(
    terminal: int, out: _Arcs, lengths: Sequence[int], cut: Collection[int] = (),
    below: float = math.inf,
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Dijkstra from the exit side of `terminal` over the pairs not in `cut`,
    never re-entering it, on integer lengths (a metric over a common
    denominator), stopped before it settles a node at distance `below` or
    more. Returns each reached node's distance, in the order they were
    reached, and its (parent, pair) on one shortest path."""
    dist: dict[int, int] = {}
    prev: dict[int, tuple[int, int]] = {}
    heap = [
        (lengths[p], head, terminal, p)
        for p, head in out[terminal]
        if head != terminal and p not in cut
    ]
    heapq.heapify(heap)
    while heap:
        d, node, parent, p = heapq.heappop(heap)
        if d >= below:
            break
        if node in dist:
            continue
        dist[node] = d
        prev[node] = (parent, p)
        for p, head in out[node]:
            if head != terminal and head not in dist and p not in cut:
                heapq.heappush(heap, (d + lengths[p], head, node, p))
    return dist, prev


def _shortest_cycle_through(
    terminal: int, out: _Arcs, inn: _Arcs, lengths: Sequence[int], below: float = math.inf
) -> tuple[int, tuple[int, ...]] | None:
    """Shortest closed walk through `terminal` under the given lengths,
    treating the terminal as split into an exit side and an entry side, and
    closed by one of its in-arcs `inn[terminal]`, (pair, tail) per arc.
    Returns its length and the pair sequence, or None if no cycle shorter
    than `below` passes: the search settles no node that far out."""
    dist, prev = _distances_from(terminal, out, lengths, below=below)
    arcs = inn[terminal]
    best = min(((dist[u] + lengths[p], u, p) for p, u in arcs if u in dist), default=None)
    if best is None or best[0] >= below:
        return None
    total, node, closing = best
    seq = [closing]
    while node != terminal:
        node, p = prev[node]
        seq.append(p)
    seq.reverse()
    return total, tuple(seq)


def solve_spreading_metric(
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
    (column generation with a shortest-cycle pricing step).

    Pricing runs on the lengths x_p*H + 1 with H = len(pairs) + 1, so a
    simple cycle C measures H*x(C) + |C| with 1 <= |C| < H: it is violated
    (x(C) < d) exactly when that is below d*H, and of the shortest violated
    cycles Dijkstra returns one with the fewest pairs.
    """
    terminals = set(terminals)
    index, pairs, ids, out = _pair_graph(links, terminals)
    inn: _Arcs = [[] for _ in out]  # per node, its in-arcs as (pair, tail)
    for tail, arcs in enumerate(out):
        for p, head in arcs:
            inn[head].append((p, tail))
    costs = [len(group) for group in ids]
    order = sorted(index[t] for t in terminals)

    # the covering LP's packing dual: one row per pair, one column per cycle
    lp = _Tableau(costs)
    cycles: list[tuple[int, ...]] = []  # pair sequence of each column
    known: set[frozenset[int]] = set()
    x, d = [0] * len(pairs), 1  # pair lengths, over the common denominator d
    weights: list[int] = []
    hops = len(pairs) + 1  # H, more than any simple cycle's pair count
    for _ in range(iteration_cap + 1):
        violated = []
        priced = [xp * hops + 1 for xp in x]
        for t in order:
            found = _shortest_cycle_through(t, out, inn, priced, d * hops)  # x-length below d
            if found is not None:
                column = frozenset(found[1])
                if column not in known:
                    known.add(column)
                    cycles.append(found[1])
                    violated.append([(p, 1) for p in column])
        if not violated:
            objective = Fraction(sum(c * xi for c, xi in zip(costs, x)), d)
            length = [Fraction(xp, d) if xp else F0 for xp in x]  # shared by parallel links
            metric = tuple(sorted((eid, length[p]) for p, group in enumerate(ids) for eid in group))
            packing = tuple(
                (tuple(pairs[p] for p in cyc), Fraction(w, d))
                for cyc, w in zip(cycles, weights)
                if w > 0
            )
            return SpreadingMetric(metric, objective, packing, (index, ids, out, x, d))
        _, weights, x, d = lp.add(violated, [1] * len(violated))
    raise CapacityError(
        f"spreading metric did not converge within {iteration_cap} generated constraints"
    )


def packing_from_metric(closed_links: Sequence[Link], metric: SpreadingMetric) -> CyclePacking:
    """The metric's packing as a vertex packing of the index graph, whose
    vertex v is link v. Each pair's parallel links are filled in id order,
    one unit per link, so a cycle's weight splits where one of its pairs
    crosses to the next link. Raises ContractViolation unless the value is
    the metric's objective: with the metric proven feasible, a packing that
    passes `validate_packing` is then optimal."""
    grouped = _group_pairs(closed_links)
    scale = math.lcm(*(w.denominator for _, w in metric.packing))  # one link holds `scale`
    used = {key: 0 for key in grouped}
    weights: dict[tuple[int, ...], int] = {}
    for pairs, weight in metric.packing:
        w = weight.numerator * (scale // weight.denominator)
        cuts = {0, w}
        for key in pairs:  # where the cycle crosses to the pair's next link
            start = used[key]
            last = -(-(start + w) // scale)  # ceil
            cuts.update(j * scale - start for j in range(start // scale + 1, last))
        points = sorted(cuts)
        for lo, hi in zip(points, points[1:]):
            cyc = tuple(grouped[key][(used[key] + lo) // scale] for key in pairs)
            pivot = cyc.index(min(cyc))
            cyc = cyc[pivot:] + cyc[:pivot]
            weights[cyc] = weights.get(cyc, 0) + hi - lo
        for key in pairs:
            used[key] += w
    value = Fraction(sum(weights.values()), scale)
    if value != metric.objective:
        raise ContractViolation(
            f"packing value {value} differs from the metric objective {metric.objective}"
        )
    assignments = tuple((cyc, Fraction(w, scale)) for cyc, w in sorted(weights.items()))
    return CyclePacking(assignments=assignments, value=value)


@dataclass(frozen=True)
class ApproxDiagnostics:
    objective: Fraction
    weight: int
    ratio: float


@dataclass(frozen=True)
class ApproxFes:
    fes: frozenset[int]
    diagnostics: ApproxDiagnostics
    metric: SpreadingMetric  # the solved relaxation, with its optimal packing


def _minimal_cut(out: _Arcs, cut: Collection[int]) -> set[int]:
    """The pairs of `cut` that are needed: in pair order, a cut pair is
    dropped when its head does not reach its tail in the rest of the pair
    graph `out`, and then joins the rest. Raises ContractViolation unless
    the rest is acyclic at the end, and so all along, since it only grows."""
    kept = set(cut)
    ends = sorted((p, tail, head) for tail, arcs in enumerate(out) for p, head in arcs if p in kept)
    for p, tail, head in ends:
        if tail not in _reachable(out, head, kept, tail):
            kept.remove(p)
    rest = {tail: [head for p, head in arcs if p not in kept] for tail, arcs in enumerate(out)}
    if _find_cycle(rest) is not None:
        raise ContractViolation("feedback edge set verification failed")
    return kept


def subset_fes_approx(
    net: MUNetwork,
    iteration_cap: int = DEFAULT_CAPS.spreading_iterations,
) -> ApproxFes:
    """Feedback edge set of the network closure by region growing on the
    spreading metric, always re-verified.

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
    metric = solve_spreading_metric(closed, terminals, iteration_cap)
    index, ids, out, lengths, scale = metric.solved
    # lengths, distances and radii over `scale`, volumes over 2k * scale: the
    # objective/(2k) credit is then the integer objective * scale
    credit, two_k = sum(len(group) * x for group, x in zip(ids, lengths)), 2 * max(net.k, 1)

    cut: set[int] = set()
    for s in (index[t] for t in terminals):
        dist, _ = _distances_from(s, out, lengths, cut)
        if not any(head == s and p not in cut for v in dist for p, head in out[v]):
            continue  # no surviving cycle passes through s
        reached = [(s, 0), *dist.items()]  # by distance, so each ball is a prefix
        radii = sorted({d for d in dist.values() if 2 * d < scale} | {0})
        best: tuple[int, int, set[int]] | None = None  # cost, volume, cut
        for rho in radii:
            boundary = set()
            volume = 0
            for tail, d_tail in reached:
                if d_tail > rho:
                    break
                for p, head in out[tail]:
                    if p in cut:
                        continue
                    volume += len(ids[p]) * max(0, min(rho, d_tail + lengths[p]) - d_tail)
                    if head == s or dist[head] > rho:
                        boundary.add(p)
            volume = credit + two_k * volume
            cost = sum(len(ids[p]) for p in boundary)
            # radii ascend, so on equal cost/volume the smaller radius stays
            if best is None or cost * best[1] < best[0] * volume:
                best = (cost, volume, boundary)
        if best is not None:
            cut |= best[2]

    fes = frozenset(eid for p in _minimal_cut(out, cut) for eid in ids[p])
    weight = len(fes)
    if metric.objective > 0:
        # int true division rounds correctly, as float(Fraction) does
        ratio_val = weight * metric.objective.denominator / metric.objective.numerator
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


def fes_to_fvs(net: MUNetwork, fes: Iterable[int]) -> frozenset[int]:
    """Translate a feedback edge set of the closure into the corresponding
    feedback vertex set of the index graph (one vertex per link), verifying
    both directions."""
    fes_set = frozenset(fes)
    known = {e.id for e in net.links}
    unknown = fes_set - known
    if unknown:
        raise ValueError(f"unknown link ids: {sorted(unknown)}")
    live: dict[str, set[str]] = {}
    for e in closure_links(net):
        if e.id not in fes_set:
            live.setdefault(e.tail, set()).add(e.head)
    cycle = _find_cycle(live)
    if cycle is not None:
        raise ContractViolation(
            "input is not a feedback edge set of the closure", witness=cycle
        )
    g, _ = to_index_graph(net)  # index-graph vertex v is link v
    if _residual_cycle(g, fes_set) is not None:
        raise ContractViolation("translated vertex set is not a feedback vertex set")
    return fes_set


def vertex_split_links(g: Digraph) -> tuple[tuple[Link, ...], tuple[str, ...]]:
    """Edge list of the vertex-split of g, plus terminals covering all cycles.

    Each vertex v becomes an internal link "v.i" -> "v.o"; each edge (u, v)
    becomes a connector "u.o" -> "v.i". Cycles of the split correspond one
    to one to cycles of g, every one passing through an entry node, so the
    spreading metric of the split equals the fractional cycle packing value
    of g; this is the bridge used to cross-check LP duality on plain
    digraphs.
    """
    links: list[Link] = []
    for v in range(g.n):
        links.append(Link(len(links), f"{v}.i", f"{v}.o"))
    for u, v in sorted(g.edges):
        links.append(Link(len(links), f"{u}.o", f"{v}.i"))
    terminals = tuple(f"{v}.i" for v in range(g.n))
    return tuple(links), terminals
