"""Reference loop for the speed of the machine at the moment of a call.

Shared machines change speed by tens of percent from minute to minute, and
the program's timings with them. The benchmark times this fixed loop next to
the program's calls and scales each call's wall time by REFERENCE_S over
the loop's time around it, which turns wall seconds into seconds at one
fixed machine speed. The loop does the kinds of work gnskit's time goes to:
exact `Fraction` elimination, dict and set bookkeeping over a small graph,
and text formatting and parsing. It never imports gnskit.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0016
"""The loop's time at the reference speed: the median of its times on the
machine the baseline in README.md was measured on."""

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 + (i == j) * 4, 1 + (i + j) % 3) for j in range(7)] for i in range(6)]
_GRAPH = {v: [(v * 5 + 1) % 40, (v * 7 + 3) % 40, (v + 11) % 40] for v in range(40)}


def _work() -> int:
    rows = [row[:] for row in _MATRIX]
    for col in range(6):
        pivot = next(r for r in range(col, 6) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [a * inv for a in rows[col]]
        for r in range(6):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    reached = 0
    for root in range(0, 40, 4):
        seen = {root}
        stack = [root]
        while stack:
            for w in _GRAPH[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reached += len(seen)
    text = "\n".join(f"link n{v} n{w}" for v, ws in _GRAPH.items() for w in ws)
    parsed = [line.split() for line in text.splitlines()]
    return reached + len(parsed) + sum(row[-1].denominator for row in rows)


def loop_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
