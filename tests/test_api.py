import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import busfactor
from busfactor.graph import ProjectGraph

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_public_names_are_pinned():
    # a change to the public surface must be an explicit edit here
    assert busfactor.__all__ == [
        "AnnealingConfig",
        "BusFactorError",
        "CoverageReport",
        "DecayCurve",
        "DegenerateError",
        "GeneratorConfig",
        "InfeasibleError",
        "NullModelConfig",
        "ParseError",
        "PermutationTestResult",
        "ProjectGraph",
        "RobustnessResult",
        "SweepTable",
        "anneal",
        "anneal_restarts",
        "bus_factor_exact",
        "bus_factor_greedy",
        "calibrate_pvalues",
        "compare_decay",
        "coverage_report",
        "decay_curve",
        "disjoint_union",
        "generate_powerlaw",
        "load_edge_list",
        "mcs_exact",
        "mcs_greedy",
        "mrs_exact",
        "mrs_greedy",
        "normalize_delta",
        "null_sample",
        "parse_edge_list",
        "permutation_test",
        "render_edge_list",
        "robustness",
        "run_sweep",
        "save_edge_list",
    ]


def test_readme_library_example_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    (block,) = re.findall(r"```python\n(.*?)```", library[: library.index("\n## ", 1)], re.S)
    *_, last = block.strip().splitlines()
    expected = last.split("#", 1)[1].strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().strip()
    if expected.endswith("..."):
        assert printed.startswith(expected.removesuffix("...")), (printed, expected)
    else:
        assert printed == expected
