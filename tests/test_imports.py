"""The modules of gnskit import one another without a cycle, so none needs
an import inside a function to load."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gnskit"


def relative_imports(path: Path, modules: set[str]) -> set[str]:
    """The gnskit modules that the module at `path` imports relatively, at
    any nesting depth: `from .m import x` and `from .m.sub import x` name m,
    `from . import m` names m, and `from . import x` of a non-module name
    names the package's `__init__`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_module_imports_are_acyclic():
    paths = sorted(SRC.glob("*.py"))
    modules = {p.stem for p in paths}
    graph = {p.stem: relative_imports(p, modules) for p in paths}
    assert graph["bounds"] >= {"digraph", "network"}  # the parse sees the imports
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
