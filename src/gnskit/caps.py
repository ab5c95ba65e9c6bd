"""Size caps for the exact solvers.

Every exhaustive routine refuses inputs beyond its cap instead of silently
running forever. The defaults are desk-scale; ``GNSKIT_CAP_OVERRIDES`` can
raise (or lower) any of them, at the user's risk, as a comma-separated list
of ``name=value`` entries, e.g. ``GNSKIT_CAP_OVERRIDES="mais_vertices=26"``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import FormatError

ENV_VAR = "GNSKIT_CAP_OVERRIDES"


@dataclass(frozen=True)
class Caps:
    tensor_vertices: int = 5000
    rcp_cycles: int = 20_000
    gns_cuttable: int = 18
    mais_vertices: int = 22
    alpha_vertices: int = 30
    minrank_base_edges: int = 16
    code_lcm: int = 64
    spreading_iterations: int = 10**4
    ls_vertices: int = 5000

    @classmethod
    def from_env(cls) -> "Caps":
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return cls()
        fields = {f.name for f in dataclasses.fields(cls)}
        overrides: dict[str, int] = {}
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep or name not in fields:
                raise FormatError(f"{ENV_VAR}: unknown or malformed entry {item!r}")
            try:
                overrides[name] = int(value)
            except ValueError:
                raise FormatError(f"{ENV_VAR}: non-integer value in {item!r}") from None
            if overrides[name] < 0:
                raise FormatError(f"{ENV_VAR}: negative value in {item!r}")
        return cls(**overrides)


DEFAULT_CAPS = Caps()
