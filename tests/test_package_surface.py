"""Every definition in the package has a caller in the package.

`src/zeroext` is parsed with `ast`, not imported.  A module-level function
or class, or a public method, that no code in `src/zeroext` names outside
its own body serves only the tests; a reference implementation of that kind
belongs in `tests/oracles.py`.  The allowlist holds the command-line entry
point and the names the traced bench reads, which `test_bench_names.py`
resolves from `bench/run.py` or pins.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from test_bench_names import _assigned

SRC = Path(__file__).resolve().parent.parent / "src" / "zeroext"

ALLOWED = (
    {"cli.main", "instance.GapOrigin.dx", "graphs.LevelCodes.nbytes"}
    | set(ast.literal_eval(_assigned("TARGETS")))
    | {ast.literal_eval(key) for key in _assigned("METERS").keys}
)


def _referenced(tree: ast.AST) -> Counter:
    """Each name read in tree, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of every module-level function and class, and
    of every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {"certificate", "cli", "graphs", "split"} <= set(trees)
    everywhere = sum((_referenced(tree) for tree in trees.values()), Counter())
    uncalled = [
        name
        for module, tree in trees.items()
        for name, node in _definitions(module, tree)
        if name not in ALLOWED
        and everywhere[node.name] == _referenced(node)[node.name]
    ]
    assert uncalled == []
