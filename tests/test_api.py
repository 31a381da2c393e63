import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

import busfactor
from busfactor import (
    AnnealingConfig,
    BusFactorError,
    NullModelConfig,
    anneal,
    anneal_restarts,
    bus_factor_exact,
    bus_factor_greedy,
    calibrate_pvalues,
    compare_decay,
    coverage_report,
    decay_curve,
    mcs_exact,
    mcs_greedy,
    mrs_exact,
    mrs_greedy,
    null_sample,
    permutation_test,
    render_edge_list,
    robustness,
    run_sweep,
)
from busfactor.generators import SWEEP_KINDS, GeneratorConfig, disjoint_union, generate_powerlaw
from busfactor.graph import FrozenGraph, ProjectGraph
from busfactor.io import json_pieces, load_edge_list, parse_edge_list, save_edge_list
from busfactor.robustness import greedy_order

from conftest import sparse_graphs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src" / "busfactor"


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


def test_project_graph_surface_is_pinned():
    # ProjectGraph builds a graph and is read through its freeze() view; a
    # change to what it offers must be an explicit edit here
    assert [name for name in dir(ProjectGraph) if not name.startswith("_")] == [
        "add_edge",
        "add_person",
        "add_task",
        "copy",
        "edges",
        "freeze",
        "n_edges",
        "n_people",
        "n_tasks",
        "people",
        "tasks",
    ]
    assert ProjectGraph.__hash__ is None  # it defines __eq__ and is mutable


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


_NULL = NullModelConfig(n_samples=4, swaps_per_edge=2, seed=5)
_ANNEAL = AnnealingConfig(steps_per_temperature=5, cooling_rate=0.5, min_temperature=0.01, seed=3)

# every public analysis and graph writer, by name
_ANALYSES = {
    "coverage_report": lambda g: coverage_report(g, "1/5"),
    "mrs_greedy": lambda g: mrs_greedy(g, 0.2),
    "mcs_greedy": lambda g: mcs_greedy(g, 0.5),
    "mrs_exact": lambda g: mrs_exact(g, "1/4"),
    "mcs_exact": lambda g: mcs_exact(g, "2/3"),
    "bus_factor_greedy": bus_factor_greedy,
    # seven or eight people take seconds; nine are refused
    "bus_factor_exact": lambda g: None if 6 < g.n_people <= 8 else bus_factor_exact(g),
    "greedy_order": greedy_order,
    "decay_curve": lambda g: decay_curve(g, sorted(g.people, reverse=True)),
    "robustness": lambda g: robustness(g, sorted(g.people, reverse=True)),
    **{
        f"run_sweep {kind}": lambda g, kind=kind: run_sweep(g, kind, 6, 2, seed=1)
        for kind in SWEEP_KINDS
    },
    "null_sample": lambda g: null_sample(g, _NULL, 2),
    "permutation_test": lambda g: permutation_test(g, _NULL),
    "calibrate_pvalues": lambda g: calibrate_pvalues(g, _NULL, trials=2),
    "anneal": lambda g: anneal(g, _ANNEAL),
    "anneal_restarts": lambda g: anneal_restarts(g, _ANNEAL, 2),
    "compare_decay": lambda g: compare_decay(g, g),
    "render_edge_list csv": lambda g: render_edge_list(g, "csv"),
    "render_edge_list json": lambda g: render_edge_list(g, "json"),
    "json_pieces": lambda g: "".join(json_pieces(g)),
}


def _outcome(analysis, graph):
    try:
        return analysis(graph)
    except (BusFactorError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_analyses_give_the_same_result_on_the_frozen_view(graph):
    frozen = graph.freeze()
    for name, analysis in _ANALYSES.items():
        assert _outcome(analysis, frozen) == _outcome(analysis, graph), name


@pytest.mark.parametrize("name", sorted(set(_ANALYSES) - {"compare_decay"}))
def test_analyses_freeze_a_project_graph_once(monkeypatch, name):
    # compare_decay is left out: it freezes each of its two graphs
    edges = [(p, t) for p in range(6) for t in range(8) if (3 * p + t) % 4 < 2]
    graph = ProjectGraph(edges=edges)
    frozen = []
    freeze = ProjectGraph.freeze

    def counted(g):
        frozen.append(g)
        return freeze(g)

    monkeypatch.setattr(ProjectGraph, "freeze", counted)
    _ANALYSES[name](graph)
    assert sum(g is graph for g in frozen) == 1


def test_producers_return_the_frozen_view(tmp_path):
    first = generate_powerlaw(GeneratorConfig(n_people=12, n_tasks=15, seed=4))
    second = generate_powerlaw(GeneratorConfig(n_people=10, n_tasks=12, seed=5))
    silo = disjoint_union(first, second)
    save_edge_list(silo, tmp_path / "silo.json")
    produced = {
        "generate_powerlaw": first,
        "disjoint_union": silo,
        "parse_edge_list csv": parse_edge_list(render_edge_list(silo, "csv"), "csv"),
        "parse_edge_list json": parse_edge_list(render_edge_list(silo, "json"), "json"),
        "load_edge_list": load_edge_list(tmp_path / "silo.json"),
        "anneal": anneal(silo, _ANNEAL)[0],
        "anneal_restarts": anneal_restarts(silo, _ANNEAL, 2)[0],
    }
    for name, graph in produced.items():
        assert type(graph) is FrozenGraph, name


def test_only_the_graph_module_names_project_graph():
    # every producer returns the frozen view; the mutable graph is for
    # graphs built by hand, and lives in graph.py (and the public names)
    naming = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("graph.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            if "ProjectGraph" in names:
                naming.append(path.name)
    assert naming == []


def test_no_test_reads_project_graph_fields():
    # the test oracles keep their own set-map graph (conftest.SetGraph), so
    # the library may change how ProjectGraph stores a graph
    private = {"_people", "_tasks", "_n_edges"}
    reads = [
        (path.name, node.lineno, node.attr)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []
