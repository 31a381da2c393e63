import ast
import contextlib
import importlib
import io
import re
import sys
import types
from pathlib import Path

import pytest

import busfactor
from busfactor import AnnealingConfig, anneal, anneal_restarts, render_edge_list
from busfactor.generators import GeneratorConfig, disjoint_union, generate_powerlaw
from busfactor.graph import FrozenGraph, ProjectGraph
from busfactor.io import load_edge_list, parse_edge_list, save_edge_list

from conftest import checkout_python

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


def test_public_names_resolve_to_their_defining_module(monkeypatch):
    # the package re-exports without hiding: each name is the object its
    # module defines, read from that module on every access
    for name in busfactor.__all__:
        value = getattr(busfactor, name)
        module = value.__module__
        assert module.startswith("busfactor."), (name, module)
        assert getattr(sys.modules[module], name) is value, name
    import busfactor.robustness as robustness

    assert isinstance(robustness, types.ModuleType)
    assert callable(robustness.greedy_order)
    # nothing is cached in the package: a rebinding on the module shows
    # through it, as the benchmark's tracer relies on
    monkeypatch.setattr(robustness, "decay_curve", len)
    assert busfactor.decay_curve is len


# Imports the module named by its argument in a fresh interpreter and
# prints the package modules then loaded.
_PACKAGE_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "busfactor"))
"""


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("busfactor", ""),
        ("busfactor.robustness", "errors graph robustness"),
        ("busfactor.reporting", "errors graph io reporting"),
    ],
)
def test_modules_load_only_what_they_run(tmp_path, module, loaded):
    # the package loads a module when one of its names is first read, and
    # reporting imports the result types only for its annotations
    result = checkout_python(tmp_path, "-c", _PACKAGE_PROBE, module, check=True)
    assert result.stdout.split() == ["busfactor", *(f"busfactor.{m}" for m in loaded.split())]


def test_public_names_are_pinned():
    # a change to the public surface must be an explicit edit here
    assert busfactor.__all__ == [
        "AnnealingConfig",
        "BusFactorError",
        "CoverageReport",
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
        "run_sweep",
        "save_edge_list",
    ]


def test_project_graph_surface_is_pinned():
    # ProjectGraph builds a graph and is read through its freeze() view; a
    # change to what it offers must be an explicit edit here
    assert [name for name in dir(ProjectGraph) if not name.startswith("_")] == ["copy", "freeze"]
    # builders compare by identity; their views compare by value
    assert ProjectGraph.__eq__ is object.__eq__
    assert ProjectGraph.__hash__ is object.__hash__


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


_ANNEAL = AnnealingConfig(steps_per_temperature=5, cooling_rate=0.5, min_temperature=0.01, seed=3)


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


def _names(path: Path) -> set[str]:
    """Every name that the module at ``path`` defines, binds, reads or
    imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_the_graph_module_names_project_graph():
    # every producer returns the frozen view; the builder is for graphs
    # built by hand, and lives in graph.py (and the public names)
    naming = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("graph.py", "__init__.py") and "ProjectGraph" in _names(path)
    ]
    assert naming == []


def test_no_module_names_a_second_graph_path():
    # analyses take the frozen view only: no union type, no conversion on
    # entry and no way back to a builder
    naming = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(_names(path) & {"GraphLike", "as_frozen", "thaw"})
    ]
    assert naming == []


def test_no_test_reads_project_graph_fields():
    # the test oracles keep their own set-map graph (conftest.SetGraph), so
    # the library may change how ProjectGraph stores a graph
    private = {"_people", "_tasks", "_n_edges", "_view"}
    reads = [
        (path.name, node.lineno, node.attr)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []


def test_no_module_imports_a_name_it_never_reads():
    # an import that nothing reads is dead code, and hides what a module uses
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [(path.name, name) for name in sorted(imported - read)]
    assert unread == []


def test_no_function_imports_a_package_module():
    # package modules are imported at the top of a module, where the import
    # graph is visible; only third-party and stdlib imports stay lazy
    lazy = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert lazy == []
    # a module imported by name hides the same edge of the import graph;
    # only the package's __getattr__ does so, to resolve the public names
    by_name = [
        (path.name, getattr(top, "name", "<module>"))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("import_module", "__import__")
    ]
    assert by_name == [("__init__.py", "__getattr__")]


def test_no_module_imports_a_private_name_from_another():
    # a name another module needs is public; a leading underscore means
    # the defining module may change it freely (dunders like __version__
    # are public)
    private = [
        (path.name, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "busfactor")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_only_the_cli_entry_point_touches_the_environment():
    # the library reads and sets no environment variable; cli.main alone
    # sets OPENBLAS_NUM_THREADS, for its own process and its pool workers
    touching = [
        (path.name, getattr(top, "name", "<module>"))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if "environ" in ast.unparse(top)
    ]
    assert touching == [("cli.py", "main")]


def _calls(function: ast.FunctionDef) -> set[str]:
    """The names that ``function`` calls, by name or as an attribute."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def _arg_names(function: ast.FunctionDef) -> list[str]:
    return [node.arg for node in ast.walk(function.args) if isinstance(node, ast.arg)]


def test_only_the_cli_main_loads_and_writes():
    # main checks the flags, loads the input, builds the manifest, stamps it
    # into what the handler returns and writes that; a handler only computes
    # its bare artifacts
    defs = {
        node.name: node
        for node in ast.parse((SRC / "cli.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    functions = {name: _calls(node) for name, node in defs.items()}
    protocol = {"write_text", "load_edge_list", "digest_file", "_manifest", "_stamped"}
    assert protocol <= functions["main"]
    callers = {
        name: sorted(f for f, calls in functions.items() if name in calls) for name in protocol
    }
    assert callers == {name: ["main"] for name in protocol}

    # nor does a handler open a file, directly or through a helper in cli.py
    opening = {"open", "read_text", "read_bytes", "write_bytes", "save_edge_list", *protocol}
    handlers = [name for name in functions if name.startswith("_cmd_")]
    assert len(handlers) == 6
    for handler in handlers:
        assert _arg_names(defs[handler]) == ["params", "graph"], handler
        reached, todo = set(), [handler]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += sorted(functions[name] & functions.keys())
        assert not set().union(*(functions[f] for f in reached)) & opening, handler

    # the manifest is read where it is built and where it is stamped, and
    # no renderer or writer takes one
    readers = [
        name
        for name, function in defs.items()
        if any(
            isinstance(node, ast.Name) and node.id == "manifest"
            for node in ast.walk(function)
        )
    ]
    assert sorted(readers) == ["_stamped", "main"]
    taking = [
        (module, node.name)
        for module in ("reporting.py", "io.py")
        for node in ast.walk(ast.parse((SRC / module).read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and "manifest" in _arg_names(node)
    ]
    assert taking == []


def test_each_flag_and_command_is_said_once():
    # cli._FLAGS and cli._COMMANDS build the parser and check --config
    # values: no flag is declared elsewhere, none twice, none unused, and no
    # module reads argparse's private list of actions back
    from busfactor import cli

    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    declaring = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".add_argument")
    }
    assert declaring == {"build_parser"}
    reading = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_actions"
    ]
    assert reading == []
    destinations = [ast.literal_eval(key) for key in _assigned(tree, "_FLAGS").keys]
    assert len(destinations) == len(set(destinations))
    parser = cli.build_parser()
    taken = set().union(*(vars(parser.parse_args([command])) for command in cli._COMMANDS))
    assert taken == {"command", *destinations}
