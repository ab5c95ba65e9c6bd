"""Seeded `.mun` corpora for the bound-chain benchmark.

The generator and the filters are written here, without importing gnskit,
so that a change to the program cannot change the inputs it is measured on.
`dag_network` draws exactly what `gnskit.random_dag_network(nodes, links, k,
seed)` draws at the commit that introduced this benchmark; the filters need
the link count m (regular links plus one source link per unit of each
pair's mincut) and the number of simple cycles of the index graph (the
reversed line graph of the cyclic closure), so both are computed here too.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RCP_CYCLES = 20_000
"""gnskit's default `rcp_cycles` cap: fvs-large keeps only instances above it."""


@dataclass(frozen=True)
class Network:
    nodes: tuple[str, ...]
    links: tuple[tuple[str, str], ...]
    pairs: tuple[tuple[str, str], ...]

    def text(self, comment: str) -> str:
        lines = [f"# {comment}", "network"]
        lines += [f"node {x}" for x in self.nodes]
        lines += [f"link {a} {b}" for a, b in self.links]
        lines += [f"pair {s} {t}" for s, t in self.pairs]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    name: str
    text: str


def dag_network(n_nodes: int, n_links: int, k: int, seed: int) -> Network | None:
    """Seeded random acyclic network with k reachable pairs, or None when no
    pair assignment is found in 200 retries."""
    if 2 * k > n_nodes:
        return None
    rng = random.Random(seed)
    nodes = [f"n{i + 1}" for i in range(n_nodes)]
    for _ in range(200):
        links = []
        for _ in range(n_links):
            i = rng.randrange(n_nodes - 1)
            j = rng.randrange(i + 1, n_nodes)
            links.append((i, j))
        reach = [{i} for i in range(n_nodes)]
        for i in reversed(range(n_nodes)):
            for a, b in links:
                if a == i:
                    reach[i] |= reach[b]
        endpoints = rng.sample(range(n_nodes), 2 * k)
        pairs = []
        for x in range(k):
            s, t = sorted(endpoints[2 * x: 2 * x + 2])
            if t not in reach[s]:
                break
            pairs.append((s, t))
        else:
            # endpoints are distinct, so sources and destinations are too
            return Network(
                tuple(nodes),
                tuple((nodes[a], nodes[b]) for a, b in links),
                tuple((nodes[s], nodes[t]) for s, t in pairs),
            )
    return None


def mincut(net: Network, s: str, t: str) -> int:
    """Unit-capacity max-flow from s to t (BFS augmenting paths)."""
    residual: dict[str, dict[str, int]] = {x: {} for x in net.nodes}
    for a, b in net.links:
        residual[a][b] = residual[a].get(b, 0) + 1
        residual[b].setdefault(a, 0)
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1


def closure_links(net: Network) -> list[tuple[str, str]]:
    """Regular links, then per pair one (destination, source) link per unit
    of mincut: the cyclic closure in gnskit's link-id order."""
    closed = list(net.links)
    for s, t in net.pairs:
        closed += [(t, s)] * mincut(net, s, t)
    return closed


def index_graph(closed: list[tuple[str, str]]) -> list[list[int]]:
    """Out-adjacency of the reversed line graph: v -> w iff head(v) == tail(w)."""
    by_tail: dict[str, list[int]] = {}
    for w, (a, _) in enumerate(closed):
        by_tail.setdefault(a, []).append(w)
    return [by_tail.get(b, []) for _, b in closed]


def count_cycles(adj: list[list[int]], limit: int) -> int:
    """Number of simple cycles, or limit + 1 once more than `limit` exist.

    Johnson's circuit search with blocked sets, with an explicit stack:
    each cycle is counted once, from its smallest vertex, inside the strong
    component of that vertex among the vertices not smaller than it."""
    n = len(adj)
    radj: list[list[int]] = [[] for _ in range(n)]
    for v, ws in enumerate(adj):
        for w in ws:
            radj[w].append(v)
    count = 0
    for root in range(n):
        comp = _reach(adj, root) & _reach(radj, root)
        if len(comp) < 2:
            continue
        succ = {v: [w for w in adj[v] if w in comp] for v in comp}
        blocked = {root}
        waiting: dict[int, set[int]] = {v: set() for v in comp}
        stack = [[root, iter(succ[root]), False]]
        while stack:
            frame = stack[-1]
            w = next(frame[1], None)
            if w == root:
                frame[2] = True
                count += 1
                if count > limit:
                    return count
            elif w is not None:
                if w not in blocked:
                    blocked.add(w)
                    stack.append([w, iter(succ[w]), False])
            else:
                v, _, found = stack.pop()
                if found:
                    todo = [v]
                    while todo:
                        x = todo.pop()
                        if x in blocked:
                            blocked.discard(x)
                            todo.extend(waiting[x])
                            waiting[x].clear()
                    if stack:
                        stack[-1][2] = True
                else:
                    for x in succ[v]:
                        waiting[x].add(v)
    return count


def _reach(adj: list[list[int]], root: int) -> set[int]:
    seen = {root}
    todo = [root]
    while todo:
        for w in adj[todo.pop()]:
            if w > root and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _index_cycles(net: Network, limit: int) -> int:
    return count_cycles(index_graph(closure_links(net)), limit)


def _sweep_family(seed: int) -> Network | None:
    # scripts/bound_chain_sweep.py draws instance `seed` this way
    return dag_network(4 + seed % 4, 3 + seed % 6, 1 + seed % 4, seed)


def _sweep_keep(net: Network) -> bool:
    # instances with 100 or more cycles are rcp-dense territory; without them
    # no single rcp solve dominates the corpus, so the small layers show
    return len(closure_links(net)) <= 14 and _index_cycles(net, 99) <= 99


def _rcp_family(seed: int) -> Network | None:
    return dag_network(8 + seed % 3, 14 + (seed // 3) % 4, 3, seed)


def _rcp_keep(net: Network) -> bool:
    # the dense LP takes ~0.5 s at 600 cycles and grows faster than
    # linearly, so a run of this length holds at least 100 reports
    return 100 <= _index_cycles(net, 600) <= 600


def _fvs_family(seed: int) -> Network | None:
    k = 4 + seed % 3
    return dag_network(2 * k + 2 + (seed // 3) % 4, 16 + (seed // 12) % 8, k, seed)


def _fvs_keep(net: Network) -> bool:
    # above the default mais_vertices cap of 22; from m = 29 on, the exact
    # searches take up to seconds per instance and a few of them would set a
    # run's corpus time
    m = len(closure_links(net))
    return 24 <= m <= 28 and _index_cycles(net, RCP_CYCLES) > RCP_CYCLES


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    flags: tuple[str, ...]
    """Arguments to `gnskit bounds` besides the network and the output."""
    cap_overrides: str
    """Value of GNSKIT_CAP_OVERRIDES for every call, "" for the defaults."""
    family: Callable[[int], Network | None]
    keep: Callable[[Network], bool]
    pooled: bool
    """Whether `keep` is too slow to run at set-up. A pooled workload draws
    its instance seeds from pools/<name>.txt, which make_pools.py fills with
    seeds that pass `keep`, each with the time stratum of its report."""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-small", 2000, ("--exact-gns",), "", _sweep_family, _sweep_keep, False),
        Workload("rcp-dense", 150, (), "", _rcp_family, _rcp_keep, True),
        Workload("fvs-large", 100, (), "mais_vertices=64", _fvs_family, _fvs_keep, True),
    )
}


def pool_path(workload: Workload) -> Path:
    return Path(__file__).resolve().parent / "pools" / f"{workload.name}.txt"


def read_pool(workload: Workload) -> list[list[int]]:
    """Instance seeds of a pooled workload, grouped by time stratum."""
    strata: dict[int, list[int]] = {}
    for line in pool_path(workload).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            seed, stratum, _ = line.split()
            strata.setdefault(int(stratum), []).append(int(seed))
    return [strata[k] for k in sorted(strata)]


def quotas(sizes: list[int], total: int) -> list[int]:
    """Split `total` over groups in proportion to their sizes, by largest
    remainder, ties to the earlier group."""
    pool = sum(sizes)
    exact = [total * n / pool for n in sizes]
    out = [int(x) for x in exact]
    by_remainder = sorted(range(len(sizes)), key=lambda i: (out[i] - exact[i], i))
    for i in by_remainder[: total - sum(out)]:
        out[i] += 1
    return out


def instance_seeds(workload: Workload, seed: int, size: int | None = None) -> list[int]:
    """The instance seeds of one corpus, in run order.

    A pooled workload draws from every time stratum in proportion to its
    size, so that two corpora hold as many slow instances as each other and
    their timings differ by instance, not by how many slow ones were drawn."""
    size = workload.size if size is None else size
    rng = random.Random(f"{workload.name}/{seed}")
    if workload.pooled:
        strata = read_pool(workload)
        seeds = [
            s
            for group, quota in zip(strata, quotas([len(g) for g in strata], size))
            for s in rng.sample(group, quota)
        ]
        rng.shuffle(seeds)
        return seeds
    seeds: list[int] = []
    seen: set[int] = set()
    while len(seeds) < size:
        s = rng.randrange(2**31)
        if s not in seen:
            seen.add(s)
            net = workload.family(s)
            if net is not None and workload.keep(net):
                seeds.append(s)
    return seeds


def corpus(workload: Workload, seed: int, size: int | None = None) -> list[Instance]:
    """The workload's `.mun` instances for a workload seed, in run order."""
    out = []
    for i, s in enumerate(instance_seeds(workload, seed, size)):
        net = workload.family(s)
        if net is None:
            raise ValueError(f"{workload.name}: instance seed {s} draws no network")
        name = f"{workload.name}-{i:04d}"
        out.append(Instance(name, net.text(f"{name}, instance seed {s}")))
    return out
