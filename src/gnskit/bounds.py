"""Exact combinatorial bound quantities and the assembled bound report.

Maximum acyclic induced subgraphs (and so minimum feedback vertex sets) are
found by branch and bound over extendable acyclic sets, exponential only in
practice-small quantities; independence numbers use a bitmask branch and
bound. Certificates are tie-broken to the lexicographically smallest optimal
vertex set. Roots of tensorized bounds are reported in floating point with
their exact integer radicands retained, and every inequality assertion
compares exact integers or rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .caps import Caps, DEFAULT_CAPS
from .cyclepack import (
    CyclePacking,
    fes_to_fvs,
    packing_from_metric,
    subset_fes_approx,
)
from .digraph import Digraph, _closes_cycle, _residual_cycle, tensor_power
from .errors import CapacityError, ContractViolation, FormatError
from .indexcoding import (
    IndexCode,
    build_cycle_code,
    co_rate_from_beta,
    parse_index_code,
    serialize_index_code,
)
from .network import (
    GnsCertificate,
    MUNetwork,
    closure_links,
    min_gns_cut_exact,
    tilde_transform,
    to_index_graph,
)


def _masks(adj: Sequence[Sequence[int]]) -> list[int]:
    return [sum(1 << w for w in ws) for ws in adj]


def _max_acyclic(
    out: Sequence[int],
    candidates: Sequence[int],
    required: Sequence[int] = (),
    target: int | None = None,
) -> tuple[int, int]:
    """Largest acyclic induced superset of `required` inside required plus
    `candidates` (out-neighbour bitmasks `out`) as (size, members mask), size
    -1 if `required` has a cycle. With `target` the bound starts at target - 1,
    so the size is >= target exactly when such a set (the mask) exists.
    Branches on each candidate in order, including it first if it closes no
    cycle; a popped state runs down its include chain and stacks the
    exclude branches it passes."""
    members = 0
    for v in required:
        if _closes_cycle(out, members, v):
            return -1, 0
        members |= 1 << v
    count = members.bit_count()
    ncand = len(candidates)
    best = count if target is None else max(count, target - 1)
    stop = count + ncand if target is None else target  # a set this large ends the search
    best_mask, stack = members, [(0, members, count)]
    while stack:
        i, members, count = stack.pop()
        while best < stop and count + (ncand - i) > best:
            v = candidates[i]
            i += 1
            if not _closes_cycle(out, members, v):
                stack.append((i, members, count))
                members |= 1 << v
                count += 1
                if count > best:
                    best, best_mask = count, members
    return best, best_mask


def _search_order(g: Digraph) -> list[int]:
    """Candidates by decreasing total degree, then index."""
    return sorted(range(g.n), key=lambda v: (-len(g._out[v]) - len(g._in[v]), v))


def _mais_size(g: Digraph) -> int:
    return _max_acyclic(_masks(g._out), _search_order(g))[0]


def _lexmin(n: int, size: int, fits: Callable[..., int | None], witness: int) -> list[int]:
    """Lexicographically smallest `size`-subset of range(n) inside a
    solution: each vertex in order is kept if some solution holds it and the
    vertices kept so far. `witness` masks one solution holding those, so a
    vertex in it is kept unsearched; `fits(trial)` returns the mask of a
    solution holding `trial`, or None."""
    chosen: list[int] = []
    for v in range(n):
        if len(chosen) == size:
            break
        found = witness if witness >> v & 1 else fits(chosen + [v])
        if found is not None:
            witness = found
            chosen.append(v)
    return chosen


def mais_exact(
    g: Digraph, vertex_cap: int = DEFAULT_CAPS.mais_vertices
) -> tuple[int, frozenset[int]]:
    """Maximum acyclic induced subgraph size with the lexicographically
    smallest witnessing vertex set."""
    if g.n > vertex_cap:
        raise CapacityError(f"{g.n} vertices exceed the exact-search cap of {vertex_cap}")
    out, order = _masks(g._out), _search_order(g)
    size, acyclic = _max_acyclic(out, order)

    def fits(trial: list[int]) -> int | None:
        skip = set(trial)
        cand = [v for v in order if v not in skip]
        found, members = _max_acyclic(out, cand, trial, target=size)
        return members if found >= size else None

    return size, frozenset(_lexmin(g.n, size, fits, acyclic))


def min_fvs_exact(
    g: Digraph,
    vertex_cap: int = DEFAULT_CAPS.mais_vertices,
    minimum: frozenset[int] | None = None,
) -> frozenset[int]:
    """Lexicographically smallest minimum feedback vertex set (complementary
    certificate of the maximum acyclic set). A `minimum` proven minimum by
    the caller replaces the size search; it must be a feedback vertex set."""
    if g.n > vertex_cap:
        raise CapacityError(f"{g.n} vertices exceed the exact-search cap of {vertex_cap}")
    out, order = _masks(g._out), _search_order(g)
    full = (1 << g.n) - 1
    if minimum is None:
        size, acyclic = _max_acyclic(out, order)
        witness = full & ~acyclic
    elif not minimum <= frozenset(range(g.n)) or _residual_cycle(g, minimum) is not None:
        raise ContractViolation("the given minimum is not a feedback vertex set")
    else:
        size, witness = g.n - len(minimum), sum(1 << v for v in minimum)

    def fits(trial: list[int]) -> int | None:
        skip = set(trial)
        cand = [v for v in order if v not in skip]
        found, acyclic = _max_acyclic(out, cand, target=size)
        return full & ~acyclic if found >= size else None

    return frozenset(_lexmin(g.n, g.n - size, fits, witness))


def _mis_size(
    masks: Sequence[int], allowed: int, target: int | None = None
) -> tuple[int, int]:
    """Independence number inside `allowed`, as (size, members mask), by
    binary branch on the vertex of largest remaining degree: include it
    first, then exclude it. A `target` is decided as in `_max_acyclic`."""
    best, best_mask = 0 if target is None else target - 1, 0
    stop = allowed.bit_count() if target is None else target
    stack = [(allowed, 0, 0)]
    while stack:
        remaining, count, members = stack.pop()
        if count > best:
            best, best_mask = count, members
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
            best, best_mask = count + remaining.bit_count(), members | remaining
            continue
        bit = 1 << pick
        stack.append((remaining & ~bit, count, members))
        stack.append((remaining & ~(masks[pick] | bit), count + 1, members | bit))
    return best, best_mask


def alpha_exact(
    g: Digraph, vertex_cap: int = DEFAULT_CAPS.alpha_vertices
) -> tuple[int, frozenset[int]]:
    """Independence number (no edge in either direction) with the
    lexicographically smallest maximum independent set."""
    if g.n > vertex_cap:
        raise CapacityError(f"{g.n} vertices exceed the exact-search cap of {vertex_cap}")
    masks = [o | i for o, i in zip(_masks(g._out), _masks(g._in))]
    full = (1 << g.n) - 1
    size, independent = _mis_size(masks, full)

    def fits(trial: list[int]) -> int | None:
        *chosen, v = trial
        if any(masks[v] >> u & 1 for u in chosen):
            return None
        rest = full
        for u in trial:
            rest &= ~(masks[u] | 1 << u)
        need = size - len(trial)
        found, members = _mis_size(masks, rest, target=need)
        return members | sum(1 << u for u in trial) if found >= need else None

    return size, frozenset(_lexmin(g.n, size, fits, independent))


class TensorBound(NamedTuple):
    q: int
    radicand: int  # exact acyclic-set maximum of the q-fold strong power
    value: float  # link count minus the q-th root


class ShannonBound(NamedTuple):
    power: int
    radicand: int  # exact independence number of the power
    value: float


def tensor_bound(
    g: Digraph,
    q: int,
    m_links: int,
    tensor_cap: int = DEFAULT_CAPS.tensor_vertices,
    vertex_cap: int = DEFAULT_CAPS.mais_vertices,
) -> TensorBound:
    """m_links minus the q-th root of the acyclic maximum of the q-fold
    strong power; tighter for larger powers on many graphs, though no
    monotonicity in q is claimed or asserted."""
    gq = tensor_power(g, q, tensor_cap)
    if gq.n > vertex_cap:
        raise CapacityError(
            f"power graph has {gq.n} vertices, exact-search cap is {vertex_cap}"
        )
    radicand = _mais_size(gq)
    return TensorBound(q=q, radicand=radicand, value=m_links - radicand ** (1.0 / q))


def shannon_capacity_lb(
    g: Digraph,
    power: int,
    tensor_cap: int = DEFAULT_CAPS.tensor_vertices,
    vertex_cap: int = DEFAULT_CAPS.alpha_vertices,
) -> ShannonBound:
    """Independence number of the strong power, taken to the 1/power; a
    finite-power lower bound on the broadcast rate."""
    gq = tensor_power(g, power, tensor_cap)
    if gq.n > vertex_cap:
        raise CapacityError(
            f"power graph has {gq.n} vertices, exact-search cap is {vertex_cap}"
        )
    size, _ = alpha_exact(gq, vertex_cap)
    return ShannonBound(power=power, radicand=size, value=size ** (1.0 / power))


@dataclass(frozen=True)
class BoundReport:
    """The assembled inequality chain for one network, with certificates.

    Optional fields are None when the matching computation was skipped for
    capacity reasons; `skipped` names them. All stored inequalities were
    re-verified exactly during assembly.
    """

    m: int
    k: int
    mais_value: int | None
    fvs: frozenset[int] | None
    rcp_value: Fraction | None
    packing: CyclePacking | None
    approx_weight: int | None
    approx_fvs: frozenset[int] | None
    gns_exact: GnsCertificate | None
    tensor_bounds: tuple[TensorBound, ...]
    shannon_lb: tuple[ShannonBound, ...]
    code_rate: Fraction | None
    code: IndexCode | None
    co_rate_lb: Fraction | None
    skipped: tuple[str, ...]


def bound_report(
    net: MUNetwork,
    qs: Sequence[int] = (1,),
    field: int = 2,
    exact_gns: bool = False,
    shannon_powers: Sequence[int] = (),
    ratio_constant: float = 8.0,
    caps: Caps = DEFAULT_CAPS,
) -> BoundReport:
    """Compute the full bound chain for a network and assert every
    inequality both of whose endpoints were computed.

    Chain: packing value <= m - mais == exact staged GNS cut <= approximate
    feedback weight; the cycle code achieves rate m - packing value, whose
    dual correlated-sources rate is the packing value itself. The
    approximation is also regression-checked against
    ratio_constant * ln(k+1)**2 times the packing value.

    The packing is the dual of the spreading metric that the approximation
    solves, mapped to the index graph by `packing_from_metric`, so rcp is
    never skipped and costs no cycle enumeration.
    """
    # a nan or infinite constant would switch the regression check off
    if not 0 < ratio_constant < math.inf:
        raise ValueError(f"ratio constant must be finite and positive, not {ratio_constant!r}")
    g, _ = to_index_graph(net)
    m, k = net.m, net.k
    skipped: list[str] = []

    approx = subset_fes_approx(net, caps.spreading_iterations)
    approx_fvs = fes_to_fvs(net, approx.fes)
    approx_weight = approx.diagnostics.weight
    rcp = packing_from_metric(closure_links(net), approx.metric)

    mais_value: int | None = None
    fvs: frozenset[int] | None = None
    # rcp <= min FVS size <= |approx_fvs|: a packing above |approx_fvs| - 1
    # proves the checked approx_fvs minimum, so the search skips its size
    # search. build_cycle_code validates the packing before its code_lcm
    # check, so a report that rested on a bad packing still raises.
    minimum = approx_fvs if rcp.value > len(approx_fvs) - 1 else None
    try:
        fvs = min_fvs_exact(g, caps.mais_vertices, minimum)
        mais_value = m - len(fvs)  # the index graph has one vertex per link
    except CapacityError:
        skipped.append("mais")

    gns: GnsCertificate | None = None
    if exact_gns:
        try:
            gns = min_gns_cut_exact(tilde_transform(net), caps.gns_cuttable)
        except CapacityError:
            skipped.append("gns")

    tensors: list[TensorBound] = []
    for q in qs:
        try:
            tensors.append(tensor_bound(g, q, m, caps.tensor_vertices, caps.mais_vertices))
        except CapacityError:
            skipped.append(f"tensor:q={q}")
    shannon: list[ShannonBound] = []
    for power in shannon_powers:
        try:
            shannon.append(
                shannon_capacity_lb(g, power, caps.tensor_vertices, caps.alpha_vertices)
            )
        except CapacityError:
            skipped.append(f"shannon:power={power}")

    code: IndexCode | None = None
    code_rate: Fraction | None = None
    co_rate: Fraction | None = None
    try:
        code = build_cycle_code(g, rcp, field, caps.code_lcm)
        code_rate = code.rate
        co_rate = co_rate_from_beta(m, code_rate)
    except CapacityError:
        skipped.append("code")

    # exact chain assertions over whatever was computed
    if mais_value is not None and rcp.value > m - mais_value:
        raise ContractViolation(
            f"packing value {rcp.value} exceeds m - mais = {m - mais_value}"
        )
    if mais_value is not None and approx_weight < m - mais_value:
        raise ContractViolation(
            f"approximate feedback weight {approx_weight} below m - mais"
        )
    if mais_value is not None and gns is not None and len(gns.cut) != m - mais_value:
        raise ContractViolation(
            f"staged GNS cut size {len(gns.cut)} differs from m - mais = {m - mais_value}"
        )
    if code_rate is not None and code_rate != m - rcp.value:
        raise ContractViolation("cycle code rate must equal m minus the packing value")
    if co_rate is not None and co_rate != rcp.value:
        raise ContractViolation("dual correlated rate must equal the packing value")
    if mais_value is not None:
        for tb in tensors:
            if tb.q == 1 and tb.radicand != mais_value:
                raise ContractViolation("first tensor bound disagrees with mais")
    if rcp.value == 0:
        if approx_weight != 0:
            raise ContractViolation("nonzero cut on an acyclic closure")
    else:
        limit = ratio_constant * math.log(k + 1) ** 2 * float(rcp.value)
        if approx_weight > limit:
            raise ContractViolation(
                f"approximation weight {approx_weight} exceeds the regression "
                f"bound {limit:.3f}"
            )

    return BoundReport(
        m=m,
        k=k,
        mais_value=mais_value,
        fvs=fvs,
        rcp_value=rcp.value,
        packing=rcp,
        approx_weight=approx_weight,
        approx_fvs=approx_fvs,
        gns_exact=gns,
        tensor_bounds=tuple(tensors),
        shannon_lb=tuple(shannon),
        code_rate=code_rate,
        code=code,
        co_rate_lb=co_rate,
        skipped=tuple(skipped),
    )


def _frac(value: Fraction) -> str:
    return str(value)  # "a" or "a/b", both parse back exactly


def _ints(values) -> str:
    return " ".join(str(v) for v in sorted(values))


def serialize_report(report: BoundReport) -> str:
    """Line-oriented machine form: `key: value` lines, nested sections
    indented by two spaces, stable order, loss-free round trip."""
    lines = ["boundreport", f"m: {report.m}", f"k: {report.k}"]
    if report.skipped:
        lines.append("skipped: " + " ".join(report.skipped))
    if report.mais_value is not None:
        lines.append(f"mais: {report.mais_value}")
    if report.fvs is not None:
        lines.append(f"fvs: {_ints(report.fvs)}".rstrip())
    if report.rcp_value is not None:
        lines.append(f"rcp: {_frac(report.rcp_value)}")
    if report.approx_weight is not None:
        lines.append(f"approx_weight: {report.approx_weight}")
    if report.approx_fvs is not None:
        lines.append(f"approx_fvs: {_ints(report.approx_fvs)}".rstrip())
    if report.code_rate is not None:
        lines.append(f"code_rate: {_frac(report.code_rate)}")
    if report.co_rate_lb is not None:
        lines.append(f"co_rate_lb: {_frac(report.co_rate_lb)}")
    for tb in report.tensor_bounds:
        lines.append(f"tensor_bound: q={tb.q} radicand={tb.radicand} value={tb.value!r}")
    for sb in report.shannon_lb:
        lines.append(
            f"shannon_lb: power={sb.power} radicand={sb.radicand} value={sb.value!r}"
        )
    if report.gns_exact is not None:
        lines.append("gns:")
        lines.append(f"  size: {len(report.gns_exact.cut)}")
        lines.append(f"  cut: {_ints(report.gns_exact.cut)}".rstrip())
        lines.append(
            "  permutation: " + " ".join(str(x) for x in report.gns_exact.permutation)
        )
    if report.packing is not None:
        lines.append("packing:")
        lines.append(f"  value: {_frac(report.packing.value)}")
        for cyc, w in report.packing.assignments:
            lines.append(f"  assign: {_frac(w)} " + " ".join(str(v) for v in cyc))
    if report.code is not None:
        lines.append("code:")
        for code_line in serialize_index_code(report.code).strip().splitlines():
            lines.append(f"  {code_line}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> BoundReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "boundreport":
        raise FormatError("missing 'boundreport' header")
    scalars: dict[str, str] = {}
    tensors: list[TensorBound] = []
    shannon: list[ShannonBound] = []
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
                    packing_value = Fraction(value.strip())
                elif key == "assign":
                    parts = value.split()
                    assigns.append(
                        (tuple(int(x) for x in parts[1:]), Fraction(parts[0]))
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
        elif key == "shannon_lb":
            kv = dict(item.split("=", 1) for item in value.split())
            shannon.append(
                ShannonBound(int(kv["power"]), int(kv["radicand"]), float(kv["value"]))
            )
        else:
            scalars[key] = value

    def _opt_int(key: str) -> int | None:
        return int(scalars[key]) if key in scalars else None

    def _opt_frac(key: str) -> Fraction | None:
        return Fraction(scalars[key]) if key in scalars else None

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
        shannon_lb=tuple(shannon),
        code_rate=_opt_frac("code_rate"),
        code=code,
        co_rate_lb=_opt_frac("co_rate_lb"),
        skipped=tuple(scalars.get("skipped", "").split()),
    )
