"""Span recorder for the traced run.

Every call of a traced gnskit function becomes a span: name, start, end,
parent span and instance id. The functions are rebound by name in every
gnskit module namespace that holds them, so calls made through a module
attribute (`bounds_mod.bound_report`) and calls through a name imported
into another module (`enumerate_simple_cycles` inside `cyclepack`) are both
recorded. The original function objects are put back when the `traced`
block ends, also when a call inside it raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

TRACED = (
    "cli.main",
    "network.parse_network",
    "network.to_index_graph",
    "network.tilde_transform",
    "network.min_gns_cut_exact",
    "indexcoding.build_cycle_code",
    "indexcoding.verify_index_code",
    "indexcoding.derive_decoders",
    "cyclepack.subset_fes_approx",
    "cyclepack.solve_spreading_metric",
    "cyclepack.fes_to_fvs",
    "cyclepack.rcp_exact",
    "digraph.enumerate_simple_cycles",
    "bounds.mais_exact",
    "bounds.min_fvs_exact",
    "bounds.tensor_bound",
    "bounds.bound_report",
    "bounds.serialize_report",
)
"""Public functions traced, as `<module>.<function>` under the gnskit package."""

COUNTERS: dict[str, tuple[str, Callable[[object], int]]] = {
    "digraph.enumerate_simple_cycles": ("digraph.cycles", len),
    "indexcoding.build_cycle_code": (
        "indexcoding.code_cells",
        lambda code: code.r * code.blowup_t * code.n,
    ),
}
"""Counts taken from a traced function's return value: counter name and how."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    """Index of the enclosing span in the recorder, -1 for none."""
    instance: int
    refused: bool = False
    raised: bool = False


class Recorder:
    """Spans in call order, kept in memory until the run ends."""

    def __init__(self, refusal: type[BaseException]):
        self.refusal = refusal
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {name: 0 for name, _ in COUNTERS.values()}
        self.instance = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.instance)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self.refusal:
                span.refused = True
                raise
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced_call


def _gnskit_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "gnskit" or name.startswith("gnskit."))
    ]


@contextmanager
def traced(recorder: Recorder) -> Iterator[None]:
    """Rebind each TRACED function to a recording wrapper in every gnskit
    module that holds it, and restore the originals on exit."""
    originals = {}
    for qualname in TRACED:
        module, func = qualname.split(".")
        fn = getattr(importlib.import_module(f"gnskit.{module}"), func)
        originals[id(fn)] = (fn, recorder.wrap(qualname, fn))
    rebound = []
    try:
        for mod in _gnskit_modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        yield
    finally:
        for mod, attr, value in rebound:
            setattr(mod, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """`<function>.calls/.self_s/.refused/.wasted_s` per traced function,
    `<module>.self_s` per module, and the counters."""
    out: dict[str, float] = {}
    for name in TRACED:
        for key in ("calls", "self_s", "refused", "wasted_s"):
            out[f"{name}.{key}"] = 0
    for name in TRACED:
        out[name.split(".")[0] + ".self_s"] = 0.0
    for span, own in zip(recorder.spans, self_times(recorder.spans)):
        module = span.name.split(".")[0]
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own
        out[f"{module}.self_s"] += own
        if span.refused:
            out[f"{span.name}.refused"] += 1
            out[f"{span.name}.wasted_s"] += span.end - span.start
    out.update(recorder.counters)
    return out


def module_shares(metrics: dict[str, float]) -> dict[str, float]:
    modules = sorted({name.split(".")[0] for name in TRACED})
    total = sum(metrics[f"{m}.self_s"] for m in modules) or 1.0
    return {m: metrics[f"{m}.self_s"] / total for m in modules}
