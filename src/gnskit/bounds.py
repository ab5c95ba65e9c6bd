"""Exact combinatorial bound quantities and the assembled bound report.

Maximum acyclic induced subgraphs (`mais_exact`), tensor radicands and the
report's searched feedback set all come from `digraph.min_fvs_exact`, the
one exact feedback-set search, which `network.min_gns_cut_exact` calls too;
independence numbers use a bitmask branch and bound. Roots of
tensorized bounds are reported in floating point with their exact integer
radicands retained, and every inequality assertion compares exact integers
or rationals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, TypeVar, get_type_hints

from .caps import Caps, DEFAULT_CAPS
from .cyclepack import (
    CyclePacking,
    packing_from_metric,
    subset_fes_approx,
    validate_packing,
)
from .digraph import Digraph, _check_fvs, _masks, min_fvs_exact, tensor_power
from .errors import CapacityError, ContractViolation, FormatError
from .indexcoding import IndexCode, _code_lines, _cycle_code, co_rate_from_beta, parse_index_code
from .network import GnsCertificate, MUNetwork, _staged_cut, closure_links
from .network import tilde_transform, to_index_graph


_T = TypeVar("_T")


def mais_exact(
    g: Digraph, vertex_cap: int = DEFAULT_CAPS.mais_vertices
) -> tuple[int, frozenset[int]]:
    """Maximum acyclic induced subgraph size with a witnessing vertex set:
    the complement of `min_fvs_exact`'s minimum feedback vertex set."""
    fvs = min_fvs_exact(g, vertex_cap)
    return g.n - len(fvs), frozenset(range(g.n)) - fvs


def _mis_size(masks: Sequence[int], allowed: int) -> tuple[int, int]:
    """Independence number inside `allowed`, as (size, members mask), by
    binary branch on the vertex of largest remaining degree: include it
    first, then exclude it."""
    best, best_mask = 0, 0
    stop = allowed.bit_count()
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


def _neighbour_masks(g: Digraph) -> list[int]:
    return [o | i for o, i in zip(_masks(g._out), _masks(g._in))]


class TensorBound(NamedTuple):
    q: int
    radicand: int  # exact acyclic-set maximum of the q-fold strong power
    value: float  # link count minus the q-th root


class ShannonBound(NamedTuple):
    power: int
    radicand: int  # exact independence number of the power
    value: float


def _searchable_power(g: Digraph, q: int, tensor_cap: int, vertex_cap: int) -> Digraph:
    """tensor_power(g, q, tensor_cap), refused before it is built when the
    exact search on it would exceed `vertex_cap` vertices."""
    if q >= 1 and vertex_cap < g.n**q <= tensor_cap:  # else tensor_power refuses
        raise CapacityError(
            f"power graph has {g.n ** q} vertices, exact-search cap is {vertex_cap}"
        )
    return tensor_power(g, q, tensor_cap)


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
    gq = _searchable_power(g, q, tensor_cap, vertex_cap)
    radicand = gq.n - len(min_fvs_exact(gq, vertex_cap))
    return TensorBound(q=q, radicand=radicand, value=m_links - radicand ** (1.0 / q))


def shannon_capacity_lb(
    g: Digraph,
    power: int,
    tensor_cap: int = DEFAULT_CAPS.tensor_vertices,
    vertex_cap: int = DEFAULT_CAPS.alpha_vertices,
) -> ShannonBound:
    """Independence number of the strong power, taken to the 1/power; a
    finite-power lower bound on the broadcast rate."""
    gq = _searchable_power(g, power, tensor_cap, vertex_cap)
    size, _ = _mis_size(_neighbour_masks(gq), (1 << gq.n) - 1)
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
    never skipped and costs no cycle enumeration. Checked, it bounds every
    feedback set from below by weak duality. Where that bound meets the
    approximate weight (ceil(rcp) == approx_weight), the approximate set is
    the minimum feedback vertex set `fvs` at any size, and nothing is
    searched. Otherwise `min_fvs_exact` searches `fvs` up from the
    approximate set within `caps.mais_vertices`, and past it mais and the GNS
    cut are skipped. The report asserts approx_weight >= ceil(rcp), peels the
    approximate set once (itself where the sandwich closes, through
    `min_fvs_exact`'s check of `upper` on a gap), and checks a searched
    `fvs` other than that set once: one peel, and |fvs| >= ceil(rcp). mais
    and the GNS cut come from `fvs`, and the q=1 radicand is mais, as
    tensor_power(g, 1) is g.
    """
    # a nan or infinite constant would switch the regression check off
    if not 0 < ratio_constant < math.inf:
        raise ValueError(f"ratio constant must be finite and positive, not {ratio_constant!r}")
    g, _ = to_index_graph(net)
    m, k = net.m, net.k
    skipped: list[str] = []

    def attempt(name: str, compute: Callable[[], _T]) -> _T | None:
        """compute(), or None with `name` skipped when a cap refuses it."""
        try:
            return compute()
        except CapacityError:
            skipped.append(name)
            return None

    approx = subset_fes_approx(net, caps.spreading_iterations)
    approx_fvs = approx.fes  # index-graph vertex v is link v
    approx_weight = approx.diagnostics.weight
    rcp = packing_from_metric(closure_links(net), approx.metric)
    validate_packing(g, rcp)  # so no feedback set is smaller than ceil(rcp), by weak duality
    lower = math.ceil(rcp.value)
    if approx_weight < lower:
        raise ContractViolation(
            f"approximate feedback weight {approx_weight} below the packing value {rcp.value}"
        )
    if approx_weight == lower:  # the LP sandwich proves approx_fvs minimum
        _check_fvs(g, approx_fvs)
        fvs = approx_fvs
    else:  # a gap: only the search proves a minimum, which must meet the packing
        # min_fvs_exact checks approx_fvs before its cap can refuse the search
        fvs = attempt("mais", lambda: min_fvs_exact(g, caps.mais_vertices, upper=approx_fvs))
        if fvs is not None and fvs != approx_fvs:  # approx_fvs was peeled, and exceeds lower
            _check_fvs(g, fvs, lower)
    mais_value = None if fvs is None else m - len(fvs)  # one vertex per link
    gns = None
    if exact_gns:
        staged = tilde_transform(net)  # checks that staging keeps each pair's mincut
        # a set of the staged network's m cuttable links is a GNS cut exactly
        # when it is a feedback set of the index graph, so a minimum FVS is a
        # minimum cut, refused only with mais
        if fvs is None:
            skipped.append("gns")
        else:
            gns = _staged_cut(staged, fvs)
    tensors = []
    for q in qs:
        if q != 1:
            tensors.append(attempt(
                f"tensor:q={q}",
                lambda: tensor_bound(g, q, m, caps.tensor_vertices, caps.mais_vertices),
            ))
        elif mais_value is None:  # past mais_vertices, which tensor_bound shares
            skipped.append("tensor:q=1")
        else:  # tensor_power(g, 1) is g: tensor_bound's record for the radicand mais
            tensors.append(TensorBound(1, mais_value, m - mais_value**1.0))
    shannon = [
        attempt(
            f"shannon:power={power}",
            lambda: shannon_capacity_lb(g, power, caps.tensor_vertices, caps.alpha_vertices),
        )
        for power in shannon_powers
    ]
    code = attempt("code", lambda: _cycle_code(g, rcp, field, caps.code_lcm))
    code_rate = None if code is None else code.rate
    co_rate = None if code_rate is None else co_rate_from_beta(m, code_rate)

    # exact chain assertions over whatever was computed
    if mais_value is not None and approx_weight < m - mais_value:
        raise ContractViolation(
            f"approximate feedback weight {approx_weight} below m - mais"
        )
    if code_rate is not None and code_rate != m - rcp.value:
        raise ContractViolation("cycle code rate must equal m minus the packing value")
    if co_rate is not None and co_rate != rcp.value:
        raise ContractViolation("dual correlated rate must equal the packing value")
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
        tensor_bounds=tuple(tb for tb in tensors if tb is not None),
        shannon_lb=tuple(sb for sb in shannon if sb is not None),
        code_rate=code_rate,
        code=code,
        co_rate_lb=co_rate,
        skipped=tuple(skipped),
    )


def _ints(values) -> str:
    return " ".join(map(str, sorted(values)))


def _int_set(text: str) -> frozenset[int]:
    return frozenset(int(x) for x in text.split())


def _rational(text: str) -> Fraction:
    # only the forms a Fraction prints: Fraction(str) also expands 1e10000000
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"{text!r} is not a rational a or a/b")
    return Fraction(text)


# The report's `key: value` lines in output order, as (key, BoundReport
# field, parser of the value). A None field or an empty `skipped` has no line.
_SCALARS: tuple[tuple[str, str, Callable[[str], object]], ...] = (
    ("m", "m", int),
    ("k", "k", int),
    ("skipped", "skipped", lambda text: tuple(text.split())),
    ("mais", "mais_value", int),
    ("fvs", "fvs", _int_set),
    ("rcp", "rcp_value", _rational),
    ("approx_weight", "approx_weight", int),
    ("approx_fvs", "approx_fvs", _int_set),
    ("code_rate", "code_rate", _rational),
    ("co_rate_lb", "co_rate_lb", _rational),
)
# Then one `key: name=value ...` line per record, as (key, BoundReport field,
# record type); the names are the record's fields, read by their annotations.
_RECORDS = (
    ("tensor_bound", "tensor_bounds", TensorBound),
    ("shannon_lb", "shannon_lb", ShannonBound),
)


def serialize_report(report: BoundReport) -> str:
    """Line-oriented machine form: `key: value` lines, nested sections
    indented by two spaces, stable order, loss-free round trip."""
    lines = ["boundreport"]
    for key, field, _ in _SCALARS:
        value = getattr(report, field)
        if value is None:
            continue
        if isinstance(value, frozenset):
            value = _ints(value)
        elif isinstance(value, tuple):
            if not value:
                continue
            value = " ".join(value)
        lines.append(f"{key}: {value}".rstrip())  # ints and Fractions print exactly
    for key, field, _ in _RECORDS:
        for record in getattr(report, field):
            pairs = (f"{name}={value!r}" for name, value in zip(record._fields, record))
            lines.append(f"{key}: " + " ".join(pairs))
    if report.gns_exact is not None:
        cut, permutation = report.gns_exact.cut, report.gns_exact.permutation
        lines += ["gns:", f"  size: {len(cut)}", f"  cut: {_ints(cut)}".rstrip()]
        lines.append("  permutation: " + " ".join(map(str, permutation)))
    if report.packing is not None:
        lines.append("packing:")
        lines.append(f"  value: {report.packing.value}")
        for cyc, w in report.packing.assignments:
            lines.append(f"  assign: {w} " + " ".join(map(str, cyc)))
    if report.code is not None:
        lines.append("code:")
        lines.extend(f"  {code_line}" for code_line in _code_lines(report.code))
    return "\n".join(lines) + "\n"


def _key_value(line: str) -> tuple[str, str, str]:
    key, sep, value = line.partition(":")
    return key.strip(), sep, value.strip()


def parse_report(text: str) -> BoundReport:
    """The report `serialize_report` wrote. Blank lines and unknown keys are
    ignored, and a repeated key keeps its last line; other malformed text
    raises FormatError, as do a section key with a value on its own line, a
    `gns:` size that is not its cut's and `packing:` assignments with no value."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "boundreport":
        raise FormatError("missing 'boundreport' header")
    top: dict[str, list[str]] = {}  # key -> its values, in order
    sections: dict[str, list[str]] = {"gns": [], "packing": [], "code": []}
    section: list[str] | None = None  # the open section's indented lines
    for raw in lines[1:]:
        if raw.startswith("  ") and section is not None:
            section.append(raw.strip())
            continue
        key, sep, value = _key_value(raw)
        if not sep or (value and key in sections):
            raise FormatError(f"malformed line {raw!r}")
        section = None if value else sections.get(key)
        if section is None:
            top.setdefault(key, []).append(value)
    try:
        fields: dict[str, object] = {field: None for _, field, _ in _SCALARS} | {"skipped": ()}
        fields.update((field, parse(top[key][-1])) for key, field, parse in _SCALARS if key in top)
        for key, field, kind in _RECORDS:
            parsers = get_type_hints(kind)  # the record's field types
            records = []
            for line in top.get(key, ()):
                items = dict(item.split("=", 1) for item in line.split())
                records.append(kind(*(parsers[name](items[name]) for name in kind._fields)))
            fields[field] = tuple(records)
        gns = {key: value for key, _, value in map(_key_value, sections["gns"])}
        fields["gns_exact"] = None
        if gns:
            cut, permutation = _int_set(gns.get("cut", "")), gns["permutation"].split()
            if int(gns.get("size", len(cut))) != len(cut):
                raise FormatError(f"gns size {gns['size']} is not the size of its cut")
            fields["gns_exact"] = GnsCertificate(cut, tuple(int(x) for x in permutation))
        total, assigns = None, []
        for line in sections["packing"]:
            key, _, rest = _key_value(line)
            if key == "value":
                total = _rational(rest)
            elif key == "assign":
                weight, *cycle = rest.split()
                assigns.append((tuple(int(v) for v in cycle), _rational(weight)))
            else:
                raise FormatError(f"unknown packing line {line!r}")
        if assigns and total is None:
            raise FormatError("packing assignments without a value line")
        fields["packing"] = None if total is None else CyclePacking(tuple(assigns), total)
        code = sections["code"]
        fields["code"] = parse_index_code("\n".join(code) + "\n") if code else None
    except (ArithmeticError, LookupError, ValueError, CapacityError) as exc:
        # a code's field past the primality limit: no report carries one
        raise FormatError(f"malformed report: {type(exc).__name__}: {exc}") from None
    if fields["m"] is None or fields["k"] is None:
        raise FormatError("missing m or k line")
    return BoundReport(**fields)
