import ast
import importlib
from pathlib import Path

import busfactor
from busfactor.graph import ProjectGraph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _module(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == target for t in node.targets)
    )
    return value


def test_public_api():
    for name in busfactor.__all__:
        assert hasattr(busfactor, name), name

    # the benchmark harness imports these names and patches these targets
    imported = [
        alias.name
        for node in ast.walk(_module("prepare.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "busfactor"
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert hasattr(busfactor, name), name

    tracing = _module("tracing.py")
    for entry in _assigned(tracing, "FUNCTIONS").elts:
        module, function = (ast.literal_eval(e) for e in entry.elts[:2])
        target = getattr(importlib.import_module(f"busfactor.{module}"), function)
        assert callable(target), (module, function)
    for method, _ in ast.literal_eval(_assigned(tracing, "METHODS")):
        assert callable(getattr(ProjectGraph, method)), method
