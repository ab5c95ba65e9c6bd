"""Output check for `gnskit bounds --out machine` reports.

Every report is parsed, its certificates are re-verified with gnskit's
public checkers and the chain relations between its values are checked.
Where the benchmark stores expected values for the workload and seed
(expected/<workload>-<seed>.txt), the exact values are compared too.
Packing and code bytes are not compared: another optimal LP vertex may
change them without changing any value.
"""

from __future__ import annotations

from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
FIELDS = ("mais", "rcp", "gns", "code_rate", "co_rate", "skipped")
"""Stored per instance, in this order; `-` marks an absent value."""


def requested(flags: tuple[str, ...]) -> tuple[str, ...]:
    """Components a `gnskit bounds` call with these flags computes unless a
    cap refuses them, named as on the report's `skipped:` line."""
    return ("mais", "rcp", "approx", "code", "tensor:q=1") + (
        ("gns",) if "--exact-gns" in flags else ()
    )


def values(report) -> dict[str, str]:
    out = {}
    if report.mais_value is not None:
        out["mais"] = str(report.mais_value)
    if report.rcp_value is not None:
        out["rcp"] = str(report.rcp_value)
    if report.gns_exact is not None:
        out["gns"] = str(len(report.gns_exact.cut))
    if report.code_rate is not None:
        out["code_rate"] = str(report.code_rate)
    if report.co_rate_lb is not None:
        out["co_rate"] = str(report.co_rate_lb)
    out["skipped"] = ",".join(report.skipped) or "-"
    return out


def encode(vals: dict[str, str]) -> str:
    return " ".join(vals.get(f, "-") for f in FIELDS)


def decode(line: str) -> dict[str, str]:
    return {f: v for f, v in zip(FIELDS, line.split()) if v != "-" or f == "skipped"}


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED / f"{workload}-{seed}.txt"


def load_expected(workload: str, seed: int) -> list[dict[str, str]] | None:
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    return [decode(line) for line in lines if line and not line.startswith("#")]


def compare(stored: dict[str, str], now: dict[str, str]) -> tuple[list[str], list[str], list[str]]:
    """(mismatched, gained, lost) value names. A value computed now but not
    stored is coverage gained; one stored but now skipped is coverage lost."""
    mismatched, gained, lost = [], [], []
    for f in FIELDS[:-1]:
        if f in stored and f in now:
            if stored[f] != now[f]:
                mismatched.append(f"{f}: stored {stored[f]}, now {now[f]}")
        elif f in now:
            gained.append(f)
        elif f in stored:
            lost.append(f)
    return mismatched, gained, lost


def check_report(net_text: str, report_text: str, flags: tuple[str, ...]):
    """(report, problems): the parsed report (None if unparsable) and every
    certificate or chain relation that fails."""
    from gnskit import (
        FormatError,
        GnsCertificate,
        co_rate_from_beta,
        fvs_to_gns_cut,
        is_gns_cut,
        parse_network,
        parse_report,
        tilde_transform,
        to_index_graph,
        verify_index_code,
    )
    from gnskit.cyclepack import validate_packing

    try:
        report = parse_report(report_text)
    except (FormatError, ValueError, KeyError) as exc:
        return None, [f"report does not parse: {exc!r}"]
    net = parse_network(net_text)
    m = net.m
    problems = []

    def attempt(what: str, call):
        """call()'s result, or None with a problem recorded if it raised: a
        checker given a malformed certificate may raise instead of refusing."""
        try:
            return call()
        except Exception as exc:  # any raise fails the certificate
            problems.append(f"{what} raised {exc!r}")
            return None

    def is_fvs(name: str, fvs) -> None:
        # raises unless fvs is a feedback vertex set mapping to a GNS cut
        attempt(f"fvs_to_gns_cut on {name}", lambda: fvs_to_gns_cut(net, fvs))

    if (report.m, report.k) != (m, net.k):
        problems.append(f"m, k = {report.m}, {report.k}; network has {m}, {net.k}")
    wanted = requested(flags)
    present = {
        "mais": report.mais_value is not None and report.fvs is not None,
        "rcp": report.rcp_value is not None and report.packing is not None,
        "approx": report.approx_weight is not None and report.approx_fvs is not None,
        "code": report.code is not None,
        "tensor:q=1": any(tb.q == 1 for tb in report.tensor_bounds),
        "gns": report.gns_exact is not None,
    }
    for name in report.skipped:
        if name not in wanted or present[name]:
            problems.append(f"skipped component {name!r} was not requested or is present")
    for name in wanted:
        cascaded = name == "code" and "rcp" in report.skipped
        if not present[name] and name not in report.skipped and not cascaded:
            problems.append(f"component {name} missing and not skipped")

    g, _ = to_index_graph(net)
    gap = m - report.mais_value if present["mais"] else None
    if present["mais"]:
        if len(report.fvs) != gap:
            problems.append(f"fvs size {len(report.fvs)} != m - mais = {gap}")
        is_fvs("fvs", report.fvs)
    if present["approx"]:
        # the weight is the size of the feedback edge set, and fes_to_fvs maps
        # each link to one vertex, so the weight must be the set's size
        if report.approx_weight != len(report.approx_fvs):
            problems.append(
                f"approx weight {report.approx_weight} != |approx_fvs| = {len(report.approx_fvs)}"
            )
        if gap is not None and report.approx_weight < gap:
            problems.append(f"approx weight {report.approx_weight} < m - mais = {gap}")
        is_fvs("approx_fvs", report.approx_fvs)
    if present["rcp"]:
        attempt("validate_packing", lambda: validate_packing(g, report.packing))
        if report.packing.value != report.rcp_value:
            problems.append("packing value differs from rcp")
        if gap is not None and report.rcp_value > gap:
            problems.append(f"rcp {report.rcp_value} > m - mais = {gap}")
    if present["code"]:
        if attempt("verify_index_code", lambda: verify_index_code(g, report.code)) != (True, None):
            problems.append("code fails decoding")
        if report.code.rate != report.code_rate:
            problems.append("code rate differs from code_rate")
        if present["rcp"] and report.code_rate != m - report.rcp_value:
            problems.append("code rate != m - rcp")
        co_rate = attempt("co_rate_from_beta", lambda: co_rate_from_beta(m, report.code_rate))
        if report.co_rate_lb != co_rate:
            problems.append("co-rate differs from m - code rate")
    if present["gns"]:
        cut = report.gns_exact.cut
        verdict = attempt("is_gns_cut", lambda: is_gns_cut(tilde_transform(net), cut))
        if not isinstance(verdict, GnsCertificate):
            problems.append("exact GNS cut fails the GNS check on the staged network")
        if gap is not None and len(cut) != gap:
            problems.append(f"GNS cut size {len(cut)} != m - mais = {gap}")
    for tb in report.tensor_bounds:
        if tb.q == 1 and present["mais"] and tb.radicand != report.mais_value:
            problems.append("tensor bound q=1 radicand differs from mais")
    return report, problems
