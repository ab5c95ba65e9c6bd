"""Instance generators: the subset-intersection separation graphs, the
network construction that embeds a side-information graph, and seeded
random digraphs and unicast networks for the test corpora."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .caps import DEFAULT_CAPS
from .digraph import Digraph, complement
from .errors import CapacityError
from .indexcoding import is_prime
from .network import Link, MUNetwork, _link_graph, _reachable, build_network


@dataclass(frozen=True)
class LSParams:
    """Parameters of the subset-intersection graph family: vertices are the
    s-subsets of a ground set of size r, adjacency depends only on the
    intersection size modulo p**b. The (r, s, b) suitable for a given pair
    of fields is not derived here; callers choose them explicitly."""

    r: int
    s: int
    p: int
    b: int
    complemented: bool = False

    def __post_init__(self):
        if not 1 <= self.s <= self.r:
            raise ValueError("need 1 <= s <= r")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.b < 1:
            raise ValueError("exponent b must be >= 1")


def lubetzky_stav(
    params: LSParams, vertex_cap: int = DEFAULT_CAPS.ls_vertices
) -> Digraph:
    """Symmetric digraph on all s-subsets of the ground set, ordered
    colexicographically and labeled by their contents; X and Y are adjacent
    iff X != Y and |X intersect Y| is congruent to -1 mod p**b."""
    count = math.comb(params.r, params.s)
    if count > vertex_cap:
        raise CapacityError(f"{count} subsets exceed the vertex cap of {vertex_cap}")
    subsets = sorted(
        combinations(range(params.r), params.s), key=lambda c: tuple(reversed(c))
    )
    labels = [",".join(str(x) for x in sub) for sub in subsets]
    modulus = params.p**params.b
    want = (-1) % modulus
    edges = []
    for i, x in enumerate(subsets):
        xs = set(x)
        for j, y in enumerate(subsets):
            if i != j and len(xs.intersection(y)) % modulus == want:
                edges.append((i, j))
    g = Digraph(count, edges, labels)
    return complement(g) if params.complemented else g


def network_from_side_info_graph(g: Digraph) -> MUNetwork:
    """Unicast network whose index-coding dual embeds the given graph.

    One source/destination pair per vertex; a direct link from source i to
    destination j for every edge (i, j); a shared bottleneck a -> b wired
    from every source to every destination, so each pair's mincut is exactly
    one and a single source link is synthesized per pair.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    k = g.n
    sources = [f"s{i + 1}" for i in range(k)]
    dests = [f"t{i + 1}" for i in range(k)]
    nodes = sources + dests + ["a", "b"]
    links: list[tuple[str, str]] = []
    for i, j in sorted(g.edges):
        links.append((sources[i], dests[j]))
    for i in range(k):
        links.append((sources[i], "a"))
    links.append(("a", "b"))
    for i in range(k):
        links.append(("b", dests[i]))
    pairs = list(zip(sources, dests))
    return build_network(nodes, links, pairs, require_reachable=True)


def is_vertex_transitive_under_ground_permutations(g: Digraph) -> bool:
    """Check that permuting the ground set induces automorphisms and acts
    transitively on a subset-labeled graph.

    Adjacent transpositions generate the whole symmetric group and
    automorphisms compose, so checking the generators suffices; transitivity
    is confirmed by reaching every vertex from vertex 0 through generator
    moves.
    """
    if g.labels is None:
        raise ValueError("graph has no subset labels to permute")
    subsets = [frozenset(int(x) for x in label.split(",")) for label in g.labels]
    index = {sub: i for i, sub in enumerate(subsets)}
    if len(index) != g.n:
        raise ValueError("labels are not distinct subsets")
    ground = sorted(set().union(*subsets)) if subsets else []
    r = (max(ground) + 1) if ground else 0

    gen_maps: list[list[int]] = []
    for i in range(r - 1):
        swap = {i: i + 1, i + 1: i}
        mapping = []
        for sub in subsets:
            image = frozenset(swap.get(x, x) for x in sub)
            if image not in index:
                return False
            mapping.append(index[image])
        gen_maps.append(mapping)

    for mapping in gen_maps:
        mapped = {(mapping[u], mapping[v]) for (u, v) in g.edges}
        if mapped != g.edges:
            return False

    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for mapping in gen_maps:
            w = mapping[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def random_digraph(
    n: int, edge_prob: float, seed: int, vertex_cap: int = DEFAULT_CAPS.ls_vertices
) -> Digraph:
    """Seeded Erdos-Renyi style digraph; identical seeds give identical
    graphs. All n * (n - 1) pairs are drawn, so more than `vertex_cap`
    vertices are refused first."""
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    if n > vertex_cap:
        raise CapacityError(f"{n} vertices exceed the vertex cap of {vertex_cap}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < edge_prob
    ]
    return Digraph(n, edges)


def random_dag_network(
    n_nodes: int,
    n_links: int,
    k: int,
    seed: int,
    max_retries: int = 200,
    vertex_cap: int = DEFAULT_CAPS.ls_vertices,
) -> MUNetwork:
    """Seeded random acyclic network with k mutually reachable pairs.

    Links point forward along the node order (parallel duplicates allowed);
    pair endpoints are drawn from disjoint node sets until every source
    reaches its destination. Raises if no reachable pair assignment is found
    within the retry budget. More than `vertex_cap` nodes or links (each
    link a vertex of the index graph) are refused before anything is built.
    """
    if n_nodes < 2 or k < 1 or 2 * k > n_nodes:
        raise ValueError("need n_nodes >= 2 and 2*k <= n_nodes")
    if max(n_nodes, n_links) > vertex_cap:
        raise CapacityError(
            f"{n_nodes} nodes and {n_links} links: more than the vertex cap of {vertex_cap}"
        )
    rng = random.Random(seed)
    nodes = [f"n{i + 1}" for i in range(n_nodes)]
    for _ in range(max_retries):
        links = []
        for _ in range(n_links):
            i = rng.randrange(n_nodes - 1)
            j = rng.randrange(i + 1, n_nodes)
            links.append((nodes[i], nodes[j]))
        _, out, _ = _link_graph(nodes, (Link(i, *ends) for i, ends in enumerate(links)))
        endpoints = rng.sample(range(n_nodes), 2 * k)
        pairs = []
        for x in range(k):
            s, t = endpoints[2 * x], endpoints[2 * x + 1]
            if s > t:
                s, t = t, s
            if t not in _reachable(out, s, frozenset(), t):
                break
            pairs.append((nodes[s], nodes[t]))
        else:  # the 2k endpoints are distinct, so sources and destinations are too
            return build_network(nodes, links, pairs, require_reachable=True)
    raise ValueError(f"no reachable pair assignment found in {max_retries} retries")

