"""Multiple-unicasts networks with unit-capacity links.

Covers the ".mun" text format, unit-capacity max-flow mincuts, the cyclic
closure (destinations feeding back into their sources' tail-less links) and
its reversed line graph, the staging transform that turns source links into
cuttable regular links, and the exact GNS cut, a minimum feedback set of
the closing line graph that `digraph.min_fvs_exact` finds, with a
polynomial-time certificate checker.

Link ids are dense integers: regular links first in declaration order, then
synthesized source links grouped by pair. The staging transform preserves
every original link's id, so feedback-vertex-set certificates on the line
graph translate to cut link ids without any renumbering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .caps import DEFAULT_CAPS
from .digraph import Digraph, _find_cycle, _residual_cycle, min_fvs_exact
from .errors import CapacityError, ContractViolation, FormatError


@dataclass(frozen=True)
class Link:
    id: int
    tail: str | None  # None marks a tail-less source link
    head: str


@dataclass(frozen=True)
class MUNetwork:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    pairs: tuple[tuple[str, str], ...]
    source_links: tuple[tuple[int, ...], ...]  # per pair, ids of its source links

    def __post_init__(self):
        for i, link in enumerate(self.links):
            if link.id != i:
                raise ValueError("link ids must be dense and in order")
        if len(self.pairs) != len(self.source_links):
            raise ValueError("one source-link group per pair required")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        return len(self.links)

    def regular_links(self) -> tuple[Link, ...]:
        return tuple(e for e in self.links if e.tail is not None)

    # Built once per network, on first use, and shared by every caller:
    # nothing may mutate them. Neither is a field, so neither is compared.

    @cached_property
    def _graph(self) -> tuple[dict[str, int], _Arcs, _Arcs]:
        """`_link_graph` of the network (`build_network` hands it over)."""
        return _link_graph(self.nodes, self.links)

    @cached_property
    def _closure(self) -> tuple[Link, ...]:
        """`closure_links` of the network."""
        dest_of: dict[int, str] = {}
        for (s, t), group in zip(self.pairs, self.source_links):
            for eid in group:
                dest_of[eid] = t
        return tuple(
            Link(e.id, dest_of[e.id], e.head) if e.id in dest_of else e for e in self.links
        )


@dataclass(frozen=True)
class GnsCertificate:
    """A verified GNS cut: `permutation[i]` is the rank (1..k) assigned to
    pair i; every surviving source-to-destination path goes from a lower
    rank to a strictly higher one."""

    cut: frozenset[int]
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class GnsRefusal:
    """Witness that a cut is not a GNS cut: a sequence of pair indices whose
    source-to-destination paths close a cycle (length 1 means a direct
    path from a pair's own source to its destination survives)."""

    cut: frozenset[int]
    witness: tuple[int, ...]


@dataclass(frozen=True)
class LinkGraphMap:
    """Bidirectional correspondence between link ids and line-graph vertices."""

    id_to_vertex: tuple[int, ...]
    vertex_to_id: tuple[int, ...]


_Arcs = list[list[tuple[int, int]]]  # per node, its (link id, other node) pairs


def _check_name(name: str) -> str:
    if "#" in name or name.split() != [name]:  # also empty, or holding whitespace
        raise FormatError(f"bad node name {name!r}")
    return name


def _link_graph(nodes: Sequence[str], links: Iterable[Link]) -> tuple[dict[str, int], _Arcs, _Arcs]:
    """The node index, and for each node the (link id, other node) pairs of
    the regular links leaving it and entering it, in link-id order."""
    index = {x: i for i, x in enumerate(nodes)}
    out: _Arcs = [[] for _ in nodes]
    inn: _Arcs = [[] for _ in nodes]
    for e in links:
        if e.tail is not None:
            tail, head = index[e.tail], index[e.head]
            out[tail].append((e.id, head))
            inn[head].append((e.id, tail))
    return index, out, inn


def _unit_maxflow(out: _Arcs, inn: _Arcs, s: int, t: int) -> int:
    """Max-flow value from node s to node t with unit capacity per link, by
    breadth-first augmenting paths over the residual arcs: forward along the
    unused links, backward along the used ones."""
    used: set[int] = set()
    value = 0
    while True:
        parent: list[tuple[int, int] | None] = [None] * len(out)  # node -> (prev, link)
        parent[s] = (s, -1)
        queue = [s]
        for u in queue:  # grows while it is read
            if parent[t] is not None:
                break
            for eid, v in out[u]:
                if parent[v] is None and eid not in used:
                    parent[v] = (u, eid)
                    queue.append(v)
            for eid, v in inn[u]:
                if parent[v] is None and eid in used:
                    parent[v] = (u, eid)
                    queue.append(v)
        if parent[t] is None:
            return value
        v = t
        while v != s:
            v, eid = parent[v]
            used ^= {eid}
        value += 1


def build_network(
    nodes: Sequence[str],
    regular_links: Sequence[tuple[str, str]],
    pairs: Sequence[tuple[str, str]],
    require_reachable: bool = False,
) -> MUNetwork:
    """Validate and assemble a network; source links are always synthesized,
    one per unit of mincut between each pair, never user-specified."""
    node_list = [_check_name(x) for x in nodes]
    if len(set(node_list)) != len(node_list):
        raise FormatError("duplicate node name")
    node_set = set(node_list)
    for tail, head in regular_links:
        if tail not in node_set or head not in node_set:
            raise FormatError(f"link references unknown node: {tail} -> {head}")
        if tail == head:
            raise FormatError(f"link from {tail} to itself")
    links = [Link(i, tail, head) for i, (tail, head) in enumerate(regular_links)]
    index, out, inn = _link_graph(node_list, links)
    if _find_cycle({u: [v for _, v in arcs] for u, arcs in enumerate(out)}) is not None:
        raise FormatError("regular links form a directed cycle")

    sources_seen: set[str] = set()
    dests_seen: set[str] = set()
    for s, t in pairs:
        if s not in node_set or t not in node_set:
            raise FormatError(f"pair references unknown node: {s} -> {t}")
        if s == t:
            raise FormatError(f"pair with identical source and destination {s}")
        if s in sources_seen:
            raise FormatError(f"duplicate source node {s}")
        if t in dests_seen:
            raise FormatError(f"duplicate destination node {t}")
        sources_seen.add(s)
        dests_seen.add(t)

    cuts = []
    for s, t in pairs:
        c = _unit_maxflow(out, inn, index[s], index[t])
        if c == 0 and require_reachable:
            raise FormatError(f"pair {s} -> {t} is unreachable (mincut 0)")
        cuts.append(c)
    source_groups: list[tuple[int, ...]] = []
    next_id = len(links)
    for (s, t), c in zip(pairs, cuts):
        group = []
        for _ in range(c):
            links.append(Link(next_id, None, s))
            group.append(next_id)
            next_id += 1
        source_groups.append(tuple(group))
    net = MUNetwork(tuple(node_list), tuple(links), tuple(pairs), tuple(source_groups))
    vars(net)["_graph"] = index, out, inn  # fills the cached property: source links add no arc
    return net


def parse_network(text: str) -> MUNetwork:
    """Parse the ".mun" text format.

    A ``network`` header line, then ``node <name>``, ``link <tail> <head>``
    (repeat the line for parallel unit links) and ``pair <s> <t>`` lines in
    any order; ``#`` starts a comment. Link ids follow file order; source
    links are synthesized afterwards, grouped by pair. Rejected inputs
    include cyclic regular links, unknown node names, pairs with identical
    endpoints and unreachable pairs.
    """
    nodes: list[str] = []
    links: list[tuple[str, str]] = []
    pairs: list[tuple[str, str]] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not saw_header:
            if parts != ["network"]:
                raise FormatError(f"line {lineno}: expected 'network' header")
            saw_header = True
            continue
        if parts[0] == "node" and len(parts) == 2:
            nodes.append(parts[1])
        elif parts[0] == "link" and len(parts) == 3:
            links.append((parts[1], parts[2]))
        elif parts[0] == "pair" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
        else:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
    if not saw_header:
        raise FormatError("missing 'network' header")
    return build_network(nodes, links, pairs, require_reachable=True)


def serialize_network(net: MUNetwork, header_comments: Sequence[str] = ()) -> str:
    """Inverse of parse_network for any network whose pairs are reachable
    (source links are a function of the rest and are not written out)."""
    lines = [f"# {c}" for c in header_comments]
    lines.append("network")
    lines.extend(f"node {x}" for x in net.nodes)
    lines.extend(f"link {e.tail} {e.head}" for e in net.links if e.tail is not None)
    lines.extend(f"pair {s} {t}" for s, t in net.pairs)
    return "\n".join(lines) + "\n"


def mincut(net: MUNetwork, s: str, t: str) -> int:
    """Unit-capacity max-flow value from s to t over the regular links."""
    if s not in net.nodes or t not in net.nodes:
        raise ValueError(f"unknown node in mincut query: {s}, {t}")
    if s == t:
        raise ValueError("mincut endpoints must differ")
    index, out, inn = net._graph
    return _unit_maxflow(out, inn, index[s], index[t])


def closure_links(net: MUNetwork) -> tuple[Link, ...]:
    """The cyclic closure: every source link gets its pair's destination as
    tail, so delivered information feeds back and every residual cycle
    passes through a source node."""
    return net._closure


def to_index_graph(net: MUNetwork) -> tuple[Digraph, LinkGraphMap]:
    """The reversed line graph of the closure: one vertex per link, with an
    edge v -> w whenever link v's head is link w's closure tail. This is the
    side-information graph of the dual index-coding instance. The closure
    tails at a node are the regular links leaving it and, at a destination,
    its pair's source links; links keep their heads in the closure."""
    index, out, _ = net._graph
    succ = [[eid for eid, _ in arcs] for arcs in out]
    for (_, t), group in zip(net.pairs, net.source_links):
        succ[index[t]].extend(group)
    edges = [(e.id, w) for e in net.links for w in succ[index[e.head]]]
    ids = tuple(range(net.m))
    return Digraph(net.m, edges), LinkGraphMap(id_to_vertex=ids, vertex_to_id=ids)


def tilde_transform(net: MUNetwork) -> MUNetwork:
    """Reroute each pair's source links behind a fresh staging node so they
    become regular (cuttable) links; fresh tail-less links of the same
    multiplicity feed the staging nodes, and pairs restart from them.

    Original link ids are preserved; only the new source links get new ids.
    """
    taken = set(net.nodes)
    stage_names: list[str] = []
    for i in range(net.k):
        name = f"~s{i + 1}"
        while name in taken:
            name = "~" + name
        taken.add(name)
        stage_names.append(name)

    links = [e for e in net.links if e.tail is not None]
    for i, (s, t) in enumerate(net.pairs):
        for eid in net.source_links[i]:
            links.append(Link(eid, stage_names[i], s))
    links.sort(key=lambda e: e.id)
    next_id = len(links)
    groups: list[tuple[int, ...]] = []
    for i in range(net.k):
        group = []
        for _ in net.source_links[i]:
            links.append(Link(next_id, None, stage_names[i]))
            group.append(next_id)
            next_id += 1
        groups.append(tuple(group))
    pairs = tuple((stage_names[i], t) for i, (s, t) in enumerate(net.pairs))
    result = MUNetwork(
        net.nodes + tuple(stage_names), tuple(links), pairs, tuple(groups)
    )
    index, out, inn = result._graph
    for i, (s, t) in enumerate(result.pairs):
        if len(result.source_links[i]) != _unit_maxflow(out, inn, index[s], index[t]):
            raise ContractViolation("staging transform changed a pair's mincut")
    return result


def _reachable(out: _Arcs, start: int, cut: frozenset[int] | set[int], goal=None) -> set[int]:
    """Nodes reachable from `start` avoiding `cut`, or fewer once `goal` is."""
    seen = {start}
    stack = [start]
    while stack and goal not in seen:
        u = stack.pop()
        for eid, v in out[u]:
            if eid not in cut and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _gns_verdict(
    out: _Arcs,
    pair_idx: list[tuple[int, int]],
    cut: frozenset[int] | set[int],
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Returns (permutation, None) when the cut works, else (None, witness).

    Builds the k-vertex pair digraph with an edge i -> j whenever a path
    survives from pair i's source to pair j's destination; the cut is a GNS
    cut exactly when that digraph is loop-free and acyclic, and any
    topological numbering is a valid permutation.
    """
    k = len(pair_idx)
    reach = [_reachable(out, si, cut) for si, _ in pair_idx]
    for i in range(k):
        if pair_idx[i][1] in reach[i]:
            return None, (i,)
    succ: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and pair_idx[j][1] in reach[i]:
                succ[i].append(j)
                indeg[j] += 1
    order: list[int] = []
    heap = [i for i in range(k) if indeg[i] == 0]
    heapq.heapify(heap)
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) < k:
        live = set(range(k)) - set(order)
        cycle = _find_cycle({i: [j for j in succ[i] if j in live] for i in live})
        return None, cycle
    perm = [0] * k
    for rank, i in enumerate(order, start=1):
        perm[i] = rank
    return tuple(perm), None


def is_gns_cut(net: MUNetwork, cut: Iterable[int]) -> GnsCertificate | GnsRefusal:
    """Polynomial-time check of the GNS cut property for a set of link ids.

    Source links (tail-less) are not cuttable and are rejected; the staging
    transform is the way to expose them to cuts.
    """
    cutset = frozenset(cut)
    known = {e.id for e in net.links}
    unknown = cutset - known
    if unknown:
        raise ValueError(f"unknown link ids: {sorted(unknown)}")
    for eid in sorted(cutset):
        if net.links[eid].tail is None:
            raise ValueError(f"link {eid} is a source link and cannot be cut")
    index, out, _ = net._graph
    pair_idx = [(index[s], index[t]) for s, t in net.pairs]
    perm, witness = _gns_verdict(out, pair_idx, cutset)
    if perm is not None:
        return GnsCertificate(cut=cutset, permutation=perm)
    return GnsRefusal(cut=cutset, witness=witness)


def min_gns_cut_exact(
    net: MUNetwork, cuttable_cap: int = DEFAULT_CAPS.mais_vertices
) -> GnsCertificate:
    """A smallest GNS cut. With one closing link t_i -> s_i per pair, a
    cycle through closing links is a cycle or loop of `_gns_verdict`'s pair
    digraph and back, so the cut is a minimum feedback vertex set, over the
    regular links (ids 0..r-1), of the line graph of the regular and the
    never-cut closing links (r..r+k-1): `digraph.min_fvs_exact` with the
    closing links required, exponential only in r."""
    index, out, _ = net._graph
    pair_idx = [(index[s], index[t]) for s, t in net.pairs]
    ends = [(index[e.tail], index[e.head]) for e in net.links if e.tail is not None]
    r = len(ends)
    if r > cuttable_cap:
        raise CapacityError(
            f"{r} cuttable links exceed the exact-search cap of "
            f"{cuttable_cap}; use the subset feedback-edge-set approximation"
        )
    ends += [(t, s) for s, t in pair_idx]  # the closing links
    leave: list[list[int]] = [[] for _ in index]  # line-graph vertices by tail
    for i, (tail, _) in enumerate(ends):
        leave[tail].append(i)
    line = Digraph(len(ends), [(i, j) for i, (_, head) in enumerate(ends) for j in leave[head]])
    try:
        cut = min_fvs_exact(line, cuttable_cap, required=frozenset(range(r, len(ends))))
    except ContractViolation:  # the closing links alone close a cycle
        raise ContractViolation("no GNS cut found even after cutting every link") from None
    perm, _ = _gns_verdict(out, pair_idx, cut)
    if perm is None:
        raise ContractViolation("the minimum feedback cut failed the GNS check")
    return GnsCertificate(cut=cut, permutation=perm)


def fvs_to_gns_cut(net: MUNetwork, fvs: Iterable[int]) -> GnsCertificate:
    """Map a feedback vertex set of the index graph to a verified GNS cut of
    the staging-transformed network, of equal cardinality.

    Line-graph vertex v is link v; feedback links that were source links
    correspond to the staged links carrying the same id, so the cut is the
    id set itself. The input is re-verified to be a feedback vertex set
    first; the mapped cut is re-verified by the GNS checker.
    """
    g, _ = to_index_graph(net)
    fvs_set = frozenset(fvs)
    bad = [v for v in fvs_set if not (0 <= v < g.n)]
    if bad:
        raise ValueError(f"vertices out of range: {sorted(bad)}")
    cycle = _residual_cycle(g, fvs_set)
    if cycle is not None:
        raise ContractViolation(
            "input is not a feedback vertex set of the index graph", witness=cycle
        )
    return _staged_cut(tilde_transform(net), fvs_set)


def _staged_cut(staged: MUNetwork, fvs: frozenset[int]) -> GnsCertificate:
    """`is_gns_cut` of a feedback vertex set of the index graph of the
    network that `staged` stages; ContractViolation when it refuses."""
    result = is_gns_cut(staged, fvs)
    if isinstance(result, GnsRefusal):
        raise ContractViolation(
            "mapped feedback set failed the GNS check", witness=result.witness
        )
    return result
