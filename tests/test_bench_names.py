"""The package names that the traced bench reads stay in the package.

`bench/run.py` wraps every `TARGETS` function at each module that binds it,
and its `METERS` read attributes of a traced call's arguments and result.
The unit tests run no traced bench, so these check the names instead.
`bench/run.py` is parsed with `ast`, not imported.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import zeroext.cli  # noqa: F401  (loads every package module)
from zeroext import certificate, graphs, instance, split

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _assigned(name: str) -> ast.expr:
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{RUN} assigns no {name}")


def _resolves(name: str) -> bool:
    module, function = name.split(".")
    return callable(getattr(importlib.import_module(f"zeroext.{module}"), function, None))


def test_traced_targets_and_meters_resolve():
    targets = ast.literal_eval(_assigned("TARGETS"))
    meters = [ast.literal_eval(key) for key in _assigned("METERS").keys]
    assert targets and meters
    assert [name for name in targets + meters if not _resolves(name)] == []


def test_tree_builder_bound_where_the_bench_patches_it():
    tree = graphs.single_source_shortest_paths
    assert split.single_source_shortest_paths is tree
    assert certificate.single_source_shortest_paths is tree


def test_meter_attributes_exist():
    assert isinstance(instance.GapOrigin.dx, property)
    assert isinstance(graphs.LevelCodes.nbytes, property)
