"""Immutable simple digraphs and the graph algebra every bound is built on.

Vertices are the integers ``0..n-1``. Constructions use fixed row-major
vertex orderings (product index ``u*|V(h)| + v``, blowup index ``v*k + i``)
so outputs are reproducible byte for byte. Optional labels are opaque
provenance strings (blowup coordinates, subset contents); they ride along
through constructions but are ignored by equality and never serialized.

`min_fvs_exact`, the one exact feedback-set search, sits beside the bitmask
branch and bound over extendable acyclic sets that it drives. Exponential
only in practice-small quantities, it returns the set its size search
proves minimum and breaks no tie among minimum sets.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .caps import DEFAULT_CAPS
from .errors import CapacityError, ContractViolation, FormatError

CYCLE_CAP = 10**6
"""Default refusal point of `enumerate_simple_cycles`."""


class Digraph:
    """Simple directed graph: no self-loops, no duplicate edges.

    All operations treat instances as immutable values; adjacency is kept in
    both directions so traversals are linear-time.
    """

    __slots__ = ("n", "edges", "labels", "_out", "_in", "_search")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            edge_set.add((u, v))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count must match vertex count")
        self.n = n
        self.edges = frozenset(edge_set)
        self.labels = labels
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(edge_set):
            out[u].append(v)
            inn[v].append(u)
        self._out = tuple(map(tuple, out))
        self._in = tuple(map(tuple, inn))
        self._search: tuple | None = None  # see _search_masks

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def is_acyclic(self) -> bool:
        return _residual_cycle(self) is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={len(self.edges)})"


def strong_product(g: Digraph, h: Digraph) -> Digraph:
    """Product with an edge (u,v)->(u',v') iff each coordinate stays put or
    follows an edge of its factor. Vertex (u,v) has index ``u*h.n + v``."""
    n = g.n * h.n
    edges: list[tuple[int, int]] = []
    for u in range(g.n):
        u_next = (u,) + g.out_neighbors(u)
        for v in range(h.n):
            base = u * h.n + v
            v_next = (v,) + h.out_neighbors(v)
            for u2 in u_next:
                row = u2 * h.n
                for v2 in v_next:
                    if u2 == u and v2 == v:
                        continue
                    edges.append((base, row + v2))
    labels = tuple(
        f"({g.label(u)},{h.label(v)})" for u in range(g.n) for v in range(h.n)
    )
    return Digraph(n, edges, labels)


def complement(g: Digraph) -> Digraph:
    """Edge (u,v), u != v, present iff absent in g."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and (u, v) not in g.edges
    ]
    return Digraph(g.n, edges, g.labels)


def blowup(g: Digraph, k: int) -> Digraph:
    """Replace each vertex by k unconnected copies and each edge by a
    directed biclique between the copy groups. Copy (v,i) has index ``v*k + i``."""
    if k < 1:
        raise ValueError("blowup factor must be >= 1")
    edges = [
        (u * k + i, v * k + j)
        for (u, v) in sorted(g.edges)
        for i in range(k)
        for j in range(k)
    ]
    labels = tuple(f"({g.label(v)},{i})" for v in range(g.n) for i in range(k))
    return Digraph(g.n * k, edges, labels)


def tensor_power(g: Digraph, q: int, vertex_cap: int = DEFAULT_CAPS.tensor_vertices) -> Digraph:
    """Strong product of g with itself q times; q=1 returns g unchanged."""
    if q < 1:
        raise ValueError("tensor power must be >= 1")
    if g.n**q > vertex_cap:
        raise CapacityError(
            f"tensor power would have {g.n ** q} vertices, cap is {vertex_cap}"
        )
    result = g
    for _ in range(q - 1):
        result = strong_product(result, g)
    return result


def _find_cycle(adj: dict) -> tuple | None:
    """One directed cycle of a dict-adjacency graph, deterministically, or
    None if acyclic. Nodes must be mutually comparable (all ints or all strs);
    successors that are not keys of `adj` are ignored.

    Kahn's peel on in-degree counts tells an acyclic graph. Otherwise every
    node left has an in-edge from the others left, so peeling their sinks,
    on out-degree counts, leaves the nodes with a live in-edge and a live
    out-edge (both in linear time; the nodes left do not depend on the
    order). Then walks minimal successors until a node repeats; the cycle
    is rotated to start at its smallest node.
    """
    indeg = dict.fromkeys(adj, 0)
    for ws in adj.values():
        for w in ws:
            if w in indeg:
                indeg[w] += 1
    ready = [v for v in adj if not indeg[v]]
    for v in ready:  # grows while it is read
        for w in adj[v]:
            if w in adj:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
    if len(ready) == len(adj):
        return None
    live = {v for v in adj if indeg[v]}
    outdeg = dict.fromkeys(live, 0)
    preds: dict = {v: [] for v in live}
    for v in live:
        for w in adj[v]:
            if w in live:
                outdeg[v] += 1
                preds[w].append(v)
    sinks = [v for v in live if not outdeg[v]]
    for v in sinks:  # grows while it is read; removing a sink makes no source
        live.remove(v)
        for u in preds[v]:
            outdeg[u] -= 1
            if not outdeg[u]:
                sinks.append(u)
    walk = [min(live)]
    seen_at = {walk[0]: 0}
    while True:
        nxt = min(w for w in adj[walk[-1]] if w in live)
        if nxt in seen_at:
            cycle = tuple(walk[seen_at[nxt]:])
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen_at[nxt] = len(walk)
        walk.append(nxt)


def _residual_cycle(
    g: Digraph, removed: frozenset[int] = frozenset()
) -> tuple[int, ...] | None:
    """Deterministic cycle of g minus the `removed` vertices, if any."""
    return _find_cycle({v: g._out[v] for v in range(g.n) if v not in removed})


def _closes_cycle(out: Sequence[int], inn: Sequence[int], members: int, v: int) -> bool:
    """Does adding v to the acyclic induced set `members` close a cycle
    (necessarily through v)? Sets are bitmasks, `out[u]` and `inn[u]` are u's
    out- and in-neighbour masks: a breadth-first search from v inside
    `members` that stops at an in-neighbour of v."""
    goal = inn[v] & members
    if not goal:
        return False
    seen = frontier = out[v] & members
    while frontier:
        if frontier & goal:
            return True
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= out[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & members & ~seen
        seen |= frontier
    return False


def _acyclic(out: Sequence[int], inn: Sequence[int], members: int) -> bool:
    """Is the subgraph induced on the mask `members` acyclic (masks as in
    `_closes_cycle`)? Kahn's peel, in linear time: members go once they have
    no in-neighbour left, sought among the successors of the last to go."""
    rest, succ = members, members  # first every member is looked at
    while succ:
        ready = 0
        while succ:
            low = succ & -succ
            succ ^= low
            if not inn[low.bit_length() - 1] & rest:
                ready |= low
        rest ^= ready
        while ready:
            low = ready & -ready
            ready ^= low
            succ |= out[low.bit_length() - 1]
        succ &= rest
    return not rest


def _disjoint_cycles(
    out: Sequence[int], inn: Sequence[int], fixed: int, free: int, order: Sequence[int],
    limit: int, reuse: Sequence[int] = (),
) -> list[int]:
    """Greedy list, stopped at `limit`, of cycles (vertex masks) of the graph
    induced on `fixed | free` whose `free` parts are pairwise disjoint (masks
    as in `_closes_cycle`). Each `reuse` cycle inside the live vertices is
    kept; then each free vertex in `order` (a listing of `free`): a shortest
    cycle through it inside the live vertices is counted and its free part
    leaves the live set; a vertex on no such cycle leaves it by itself. With
    `fixed` acyclic every cycle meets `free`, so an acyclic set holding
    `fixed` inside `fixed | free` misses at least one free vertex per cycle."""
    live, cycles = fixed | free, []
    for cycle in reuse:
        if not cycle & ~live and len(cycles) < limit:
            live &= fixed | ~cycle
            free &= ~cycle
            cycles.append(cycle)
    for v in order:
        if not free or len(cycles) >= limit:
            break
        bit = 1 << v
        if not free & bit:
            continue
        free ^= bit
        goal = inn[v] & live
        frontier = out[v] & live if goal else 0
        seen, layers = frontier | bit, []
        while frontier and not frontier & goal:
            layers.append(frontier)
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= out[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & live & ~seen
            seen |= frontier
        if not frontier:
            live ^= bit
            continue
        # walk back from an in-neighbour of v, one BFS layer at a time
        hit = frontier & goal
        u = hit & -hit
        cycle = bit | u
        for layer in reversed(layers):
            u = layer & inn[u.bit_length() - 1]
            u &= -u
            cycle |= u
        live &= fixed | ~cycle
        free &= ~cycle
        cycles.append(cycle)
    return cycles


def _bitmask(vertices: Iterable[int]) -> int:
    """The mask with bit v for each vertex v (a loop: on the few vertices
    of a set here, summing a generator costs more)."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _masks(adj: Sequence[Sequence[int]]) -> list[int]:
    return [_bitmask(ws) for ws in adj]


def _max_acyclic(
    out: Sequence[int],
    inn: Sequence[int],
    candidates: Sequence[int],
    required: Sequence[int] = (),
    target: int | None = None,
    cycles: Sequence[int] = (),
) -> tuple[int, int]:
    """Largest acyclic induced superset of `required` inside required plus
    `candidates` (out- and in-neighbour bitmasks `out`, `inn`) as (size,
    members mask), size -1 if `required` has a cycle. With `target` the bound
    starts at target - 1, so the size is >= target exactly when such a set
    (the mask) exists. Branches on each candidate in order, including it
    first if it closes no cycle; a popped state is pruned unless its members
    plus the candidates left, less one per disjoint cycle among them, beat
    the best set, and otherwise runs down its include chain and stacks the
    exclude branches it passes. A state's count, in candidate order, first
    keeps the cycles of its parent's count (the root's: `cycles`, counted
    over a superset of the candidates) that lie inside its members and
    candidates; each still meets the candidates, as the members are acyclic."""
    members = _bitmask(required)
    if not _acyclic(out, inn, members):
        return -1, 0
    count = members.bit_count()
    ncand = len(candidates)
    suffix = [0] * (ncand + 1)  # suffix[i]: mask of candidates[i:]
    for i in range(ncand - 1, -1, -1):
        suffix[i] = suffix[i + 1] | 1 << candidates[i]
    best = count if target is None else max(count, target - 1)
    stop = count + ncand if target is None else target  # a set this large ends the search
    best_mask, stack = members, [(0, members, count, cycles)]
    while stack:
        i, members, count, reuse = stack.pop()
        bound = count + ncand - i
        if bound > best:
            cycles = _disjoint_cycles(
                out, inn, members, suffix[i], candidates[i:], bound - best, reuse
            )
            bound -= len(cycles)
        if bound <= best:
            continue
        if i == 0:  # only the root starts at the first candidate
            stop = min(stop, bound)
        while best < stop and count + (ncand - i) > best:
            v = candidates[i]
            i += 1
            if not _closes_cycle(out, inn, members, v):
                stack.append((i, members, count, cycles))
                members |= 1 << v
                count += 1
                if count > best:
                    best, best_mask = count, members
    return best, best_mask


def _search_order(out: Sequence[int], inn: Sequence[int]) -> list[int]:
    """Vertices by decreasing total degree (mask popcount), then index (the
    sort is stable)."""
    minus_degree = [-o.bit_count() - i.bit_count() for o, i in zip(out, inn)]
    return sorted(range(len(out)), key=minus_degree.__getitem__)


def _search_masks(g: Digraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """g's out- and in-neighbour masks and their `_search_order`, built on
    the first call and kept on g, which never changes."""
    if g._search is None:
        out, inn = _masks(g._out), _masks(g._in)
        g._search = (tuple(out), tuple(inn), tuple(_search_order(out, inn)))
    return g._search


def _largest_acyclic(
    out: Sequence[int], inn: Sequence[int], order: Sequence[int], required: Sequence[int] = (),
    witness: int = 0,
) -> tuple[int, int]:
    """Largest acyclic induced superset of `required` (the vertices not in
    `order`) as (size, members mask), size -1 if `required` has a cycle, by
    decision probes `_max_acyclic(target=t)`, whose roots keep the greedy
    disjoint cycles in `order`; no set is larger than n minus their count,
    the ceiling. A nonempty `witness` mask, which the caller has checked to
    be such a set, proves its own size: the probes go up from it one vertex
    at a time, up to the ceiling, each set found the next witness, until one
    is refuted. Otherwise they go down from the ceiling until one finds a
    set. The size is the same either way."""
    n, fixed = len(out), _bitmask(required)
    cycles = _disjoint_cycles(out, inn, fixed, (1 << n) - 1 & ~fixed, order, n)
    ceiling = n - len(cycles)
    if witness:
        size = witness.bit_count()
        while size < ceiling:
            found, larger = _max_acyclic(out, inn, order, required, size + 1, cycles)
            if found <= size:
                break
            size, witness = found, larger
        return size, witness
    target = ceiling
    while True:
        found, acyclic = _max_acyclic(out, inn, order, required, target, cycles)
        if found >= target or found < 0:
            return found, acyclic
        target -= 1


def _check_fvs(
    g: Digraph, fvs: frozenset[int], lower: int = 0, required: frozenset[int] = frozenset()
) -> None:
    """ContractViolation unless `fvs` is a feedback vertex set of g (one
    peel of its complement) with `lower` vertices or more and none of
    `required`."""
    out, inn, _ = _search_masks(g)
    if (
        len(fvs) < lower
        or not fvs <= frozenset(range(g.n))
        or fvs & required
        or not _acyclic(out, inn, (1 << g.n) - 1 & ~_bitmask(fvs))
    ):
        least = f" of size {lower} or more" if lower else ""
        outside = " outside the required vertices" if required else ""
        raise ContractViolation(f"{sorted(fvs)} is not a feedback vertex set{least}{outside}")


def min_fvs_exact(
    g: Digraph,
    vertex_cap: int = DEFAULT_CAPS.mais_vertices,
    upper: frozenset[int] | None = None,
    required: frozenset[int] = frozenset(),
) -> frozenset[int]:
    """A minimum feedback vertex set that cuts none of the `required`
    vertices: the complement of the largest acyclic set holding them that
    the size search finds, over the other vertices, of which there may be
    `vertex_cap`. A feedback vertex set `upper` that cuts none of them,
    checked before the cap refuses the search, gives the witness that
    `_largest_acyclic` probes up from; the last, refuted probe proves the
    set found largest. A cyclic `required` set is refused."""
    witness = 0
    if upper is not None:
        _check_fvs(g, upper, required=required)
        witness = (1 << g.n) - 1 & ~_bitmask(upper)
    if g.n - len(required) > vertex_cap:
        raise CapacityError(
            f"{g.n - len(required)} vertices exceed the exact-search cap of {vertex_cap}"
        )
    out, inn, order = _search_masks(g)
    if required and (
        not required <= frozenset(range(g.n)) or not _acyclic(out, inn, _bitmask(required))
    ):
        raise ContractViolation(f"required vertices {sorted(required)} hold a cycle or lie outside")
    cuttable = [v for v in order if v not in required]
    _, acyclic = _largest_acyclic(out, inn, cuttable, required, witness)
    return frozenset(v for v in range(g.n) if not acyclic >> v & 1)


def _strong_components(g: Digraph, low: int) -> list[list[int]]:
    """Strongly connected components of the subgraph induced on vertices
    >= `low`, by Tarjan's algorithm on an explicit stack of (vertex,
    successor iterator) frames. A vertex below `low`, or whose component is
    out, has index n: it is never entered and lowers no lowlink."""
    index = [g.n] * low + [-1] * (g.n - low)
    lowlink = [0] * g.n
    order = itertools.count()
    stack: list[int] = []
    comps: list[list[int]] = []
    for start in range(low, g.n):
        frames = [(start, iter(g.out_neighbors(start)))] if index[start] < 0 else []
        while frames:
            v, succ = frames[-1]
            if index[v] < 0:  # first visit
                index[v] = lowlink[v] = next(order)
                stack.append(v)
            for w in succ:
                if index[w] < 0:
                    frames.append((w, iter(g.out_neighbors(w))))
                    break
                lowlink[v] = min(lowlink[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    lowlink[u] = min(lowlink[u], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = g.n
                    comps.append(comp)
    return comps


def enumerate_simple_cycles(g: Digraph, cap: int = CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple directed cycles, each once, in canonical rotation.

    Johnson's backtracking search with blocked sets, rooted at each vertex in
    turn and restricted to vertices at least as large as the root, so every
    cycle is reported exactly once starting from its smallest vertex. The
    next root is the least vertex of a non-trivial strongly connected
    component above the last root, as in Johnson's algorithm, so the
    vertices on no cycle there are skipped without a search. The search
    runs on an explicit stack of (vertex, next successor, found) frames, so
    path length is not bounded by the recursion limit. Deterministic output
    order. Raises CapacityError once more than `cap` cycles are found.
    """
    cycles: list[tuple[int, ...]] = []
    low = 0
    while comps := [c for c in _strong_components(g, low) if len(c) > 1]:
        comp = set(min(comps, key=min))
        root = min(comp)
        low = root + 1
        adj = {v: tuple(w for w in g.out_neighbors(v) if w in comp) for v in comp}
        blocked = {v: False for v in comp}
        blist: dict[int, set[int]] = {v: set() for v in comp}
        path = [root]
        blocked[root] = True
        stack = [[root, 0, False]]
        while stack:
            frame = stack[-1]
            v, i, found = frame
            succ = adj[v]
            if i < len(succ):
                frame[1] = i + 1
                w = succ[i]
                if w == root:
                    if len(cycles) >= cap:
                        raise CapacityError(f"cycle enumeration exceeded cap of {cap} cycles")
                    cycles.append(tuple(path))
                    frame[2] = True
                elif not blocked[w]:
                    path.append(w)
                    blocked[w] = True
                    stack.append([w, 0, False])
                continue
            stack.pop()
            path.pop()
            if found:
                # unblock v and, transitively, every blocked vertex waiting on it
                blocked[v] = False
                pending = [v]
                while pending:
                    u = pending.pop()
                    for w in blist[u]:
                        if blocked[w]:
                            blocked[w] = False
                            pending.append(w)
                    blist[u].clear()
                if stack:
                    stack[-1][2] = True
            else:
                for w in succ:
                    blist[w].add(v)
    return cycles


def verify_product_blowup_embedding(
    graphs: Sequence[Digraph],
    ks: Sequence[int],
    vertex_cap: int = DEFAULT_CAPS.tensor_vertices,
) -> tuple[bool, tuple[int, ...]]:
    """Check that the product of blowups embeds edge-wise into the blowup of
    the product under the coordinate bijection, and return that bijection.

    Builds A = product of blowup(g_i, k_i) and B = blowup(product of g_i,
    prod(k_i)), maps each A-vertex through the mixed-radix coordinate
    re-grouping, and reports whether every A-edge lands on a B-edge.
    """
    if not graphs or len(graphs) != len(ks):
        raise ValueError("need equally many graphs and blowup factors, at least one")
    if any(k < 1 for k in ks):
        raise ValueError("blowup factors must be >= 1")
    total = 1
    for g, k in zip(graphs, ks):
        total *= g.n * k
    if total > vertex_cap:
        raise CapacityError(f"product would have {total} vertices, cap is {vertex_cap}")

    blown = [blowup(g, k) for g, k in zip(graphs, ks)]
    g_alpha = blown[0]
    for b in blown[1:]:
        g_alpha = strong_product(g_alpha, b)
    prod = graphs[0]
    for g in graphs[1:]:
        prod = strong_product(prod, g)
    big_k = 1
    for k in ks:
        big_k *= k
    g_beta = blowup(prod, big_k)

    sizes = [(g.n, k) for g, k in zip(graphs, ks)]
    mapping = []
    for idx in range(g_alpha.n):
        rem = idx
        coords: list[tuple[int, int]] = []
        for n_i, k_i in reversed(sizes):
            rem, a = divmod(rem, n_i * k_i)
            coords.append(divmod(a, k_i))
        coords.reverse()
        w = 0
        j = 0
        for (n_i, k_i), (v_i, j_i) in zip(sizes, coords):
            w = w * n_i + v_i
            j = j * k_i + j_i
        mapping.append(w * big_k + j)

    ok = all((mapping[u], mapping[v]) in g_beta.edges for (u, v) in g_alpha.edges)
    return ok, tuple(mapping)


def parse_digraph(text: str, vertex_cap: int = DEFAULT_CAPS.ls_vertices) -> Digraph:
    """Parse the ".dg" text format.

    First meaningful line is ``digraph <n>``; each following line is
    ``e <u> <v>`` with 0-based endpoints. ``#`` starts a comment. Self-loop
    and duplicate edge lines are format errors. A header of more than
    `vertex_cap` vertices is refused before anything is allocated for them.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "digraph":
                raise FormatError(f"line {lineno}: expected 'digraph <n>' header")
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex count is not an integer") from None
            if n < 0:
                raise FormatError(f"line {lineno}: vertex count must be non-negative")
            if n > vertex_cap:
                raise CapacityError(f"{n} vertices exceed the vertex cap of {vertex_cap}")
            continue
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints are not integers") from None
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint out of range")
        if (u, v) in seen:
            raise FormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise FormatError("missing 'digraph <n>' header")
    return Digraph(n, edges)


def serialize_digraph(g: Digraph, header_comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"digraph {g.n}")
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
