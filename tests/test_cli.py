import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import stat
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import busfactor
from busfactor import AnnealingConfig, GeneratorConfig, NullModelConfig, cli, optimize
from busfactor.cli import main
from busfactor.generators import SWEEP_KINDS, disjoint_union, generate_powerlaw
from busfactor.graph import ProjectGraph
from busfactor.io import load_edge_list, save_edge_list

from conftest import checkout_python, degree_maps, traced_peak

BENCH = Path(__file__).resolve().parent.parent / "bench"
FOUR_EDGE_CSV = "person,task\np1,t1\np1,t2\np2,t2\np2,t3\n"


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(FOUR_EDGE_CSV)
    return path


@pytest.fixture
def criterion9_path(tmp_path):
    """The input of acceptance criterion 9: two 15-person silos."""
    silo = disjoint_union(
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=61)),
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=62)),
    )
    path = tmp_path / "fixture.csv"
    save_edge_list(silo, path)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_analyze_report(tmp_path, fixture_path):
    out = tmp_path / "report.json"
    code = run("analyze", "--input", fixture_path, "--delta", "0.5", "--output", out)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mrs_size"] == 1
    assert report["mcs_size"] == 2
    assert report["z_best"] == 1
    assert report["z_worst"] == 1
    assert report["robustness"] == pytest.approx(7 / 9, abs=1e-15)
    assert report["curve"] == [3, 2, 0]
    assert report["removal_sequence"] == ["p1", "p2"]
    assert report["mrs_set"] == ["p2"]
    assert report["manifest"]["command"] == "analyze"
    assert report["manifest"]["input_sha256"]

    decay = tmp_path / "report.json.decay.csv"
    lines = decay.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "step,removed_person,tau"
    assert lines[2:] == ["0,,3", "1,p1,2", "2,p2,0"]


def test_analyze_missing_file(tmp_path):
    assert run("analyze", "--input", tmp_path / "nope.csv", "--output", tmp_path / "o") == 1


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("person,task\np1,p1\n")
    assert run("analyze", "--input", bad, "--output", tmp_path / "o.json") == 1


@pytest.mark.parametrize("person,task", [("p01", "t1"), ("p1", "t007"), ("p00", "t1")])
def test_analyze_rejects_leading_zeros(tmp_path, person, task):
    csv = tmp_path / "bad.csv"
    csv.write_text(f"person,task\n{person},{task}\n")
    doc = tmp_path / "bad.json"
    doc.write_text(
        json.dumps({"people": [person], "tasks": [task], "edges": [[person, task]]})
    )
    for bad in (csv, doc):
        assert run("analyze", "--input", bad, "--output", tmp_path / "o.json") == 1


def test_analyze_infeasible_delta(tmp_path):
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("person,task\np1,t1\n,t2\n,t3\n")
    assert run("analyze", "--input", sparse, "--delta", "0.9",
               "--output", tmp_path / "o.json") == 2


def test_delta_zero_rejected_with_usage(fixture_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("analyze", "--input", fixture_path, "--delta", "0", "--output", tmp_path / "o")
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_generate_deterministic(tmp_path):
    out = tmp_path / "a.csv"
    snapshots = []
    for _ in range(2):
        assert run("generate", "--people", 40, "--tasks", 50, "--seed", 42,
                   "--output", out) == 0
        snapshots.append(out.read_bytes())
    assert snapshots[0] == snapshots[1]
    g = load_edge_list(out)
    assert g.n_people == 40 and g.n_tasks == 50
    # identical content is produced at any output location
    elsewhere = tmp_path / "sub" / "b.csv"
    elsewhere.parent.mkdir()
    assert run("generate", "--people", 40, "--tasks", 50, "--seed", 42,
               "--output", elsewhere) == 0
    assert elsewhere.read_bytes() == snapshots[0]


def test_generate_json_embeds_manifest(tmp_path):
    out = tmp_path / "g.json"
    assert run("generate", "--people", 10, "--tasks", 12, "--seed", 1,
               "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["manifest"]["parameters"]["people"] == 10
    assert load_edge_list(out).n_people == 10


def test_sweep_csv(tmp_path, fixture_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--input", fixture_path, "--kind", "duplicates",
               "--steps", 4, "--stride", 2, "--output", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "modifications,mrs,mcs,robustness"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert [row.split(",")[0] for row in data] == ["0", "2", "4"]


def test_sweep_truncation_comment(tmp_path, fixture_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--input", fixture_path, "--kind", "sparsify",
               "--steps", 10, "--stride", 1, "--output", out) == 0
    text = out.read_text()
    assert "# truncated: true" in text
    assert "# note:" in text


@pytest.mark.parametrize("kind", ["densify", "sparsify", "singletons", "duplicates"])
def test_sweep_without_people_is_infeasible(tmp_path, capsys, kind):
    graph_path = tmp_path / "tasks_only.csv"
    graph_path.write_text("person,task\n,t0\n,t1\n")
    assert run("sweep", "--input", graph_path, "--kind", kind, "--steps", 2,
               "--stride", 1, "--output", tmp_path / "sweep.csv") == 2
    assert "graph has no people" in capsys.readouterr().err


def test_nulltest_k22(tmp_path):
    graph_path = tmp_path / "k22.csv"
    save_edge_list(ProjectGraph(edges=[(1, 1), (1, 2), (2, 1), (2, 2)]).freeze(), graph_path)
    out = tmp_path / "null.json"
    assert run("nulltest", "--input", graph_path, "--samples", 9, "--seed", 3,
               "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["p_value"] == 1.0
    assert payload["n_samples"] == 9
    assert "null_values" not in payload

    assert run("nulltest", "--input", graph_path, "--samples", 9, "--seed", 3,
               "--include-null-values", "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["null_values"] == [1.0] * 9


def test_nulltest_calibrate(tmp_path, fixture_path):
    out = tmp_path / "cal.json"
    assert run("nulltest", "--input", fixture_path, "--samples", 4,
               "--seed", 5, "--calibrate", 6, "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 6
    assert len(payload["p_values"]) == 6
    assert all(0 < p <= 1 for p in payload["p_values"])


def test_optimize_outputs(tmp_path):
    from busfactor.generators import GeneratorConfig, disjoint_union, generate_powerlaw
    from busfactor.robustness import bus_factor_greedy

    silo = disjoint_union(
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=61)),
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=62)),
    )
    graph_path = tmp_path / "silo.csv"
    save_edge_list(silo, graph_path)
    prefix = tmp_path / "opt"
    code = run("optimize", "--input", graph_path, "--seed", 7,
               "--steps-per-temperature", 40, "--cooling-rate", "0.8",
               "--min-temperature", "1e-3", "--output-prefix", prefix)
    assert code == 0

    optimized = load_edge_list(tmp_path / "opt.graph.csv")
    assert degree_maps(optimized)[0] == degree_maps(silo)[0]
    assert bus_factor_greedy(optimized).value > bus_factor_greedy(silo).value

    trace_lines = (tmp_path / "opt.trace.csv").read_text().splitlines()
    assert trace_lines[1] == "step,temperature,objective"

    decay_lines = (tmp_path / "opt.decay.csv").read_text().splitlines()
    assert decay_lines[1] == "step,tau_original,tau_optimized"
    assert len(decay_lines) == 2 + silo.n_people + 1


def _views_built(monkeypatch) -> list[tuple]:
    """Records each view built by ``graph.freeze_maps``, through which the
    parsers and ``ProjectGraph.freeze`` build one; ``io`` binds it by name."""
    calls = []
    original = busfactor.graph.freeze_maps

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(busfactor.graph, "freeze_maps", counted)
    monkeypatch.setattr(busfactor.io, "freeze_maps", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--delta", "0.5"),
        ("decay",),
        *(("sweep", "--kind", kind, "--steps", 40, "--stride", 10) for kind in SWEEP_KINDS),
        ("nulltest", "--samples", 40, "--workers", 1),
    ],
)
def test_commands_freeze_their_input_once(tmp_path, criterion9_path, monkeypatch, argv):
    # the parser builds the one view that the command reads
    calls = _views_built(monkeypatch)
    assert run(*argv, "--input", criterion9_path, "--output", tmp_path / "out") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("restarts", [1, 2])
def test_optimize_freezes_the_winner_once(tmp_path, criterion9_path, monkeypatch, restarts):
    # the parsed input is the one view built: each chain's best and the
    # winner come out of the annealer as views
    calls = _views_built(monkeypatch)
    argv = ("optimize", "--input", criterion9_path, "--restarts", restarts,
            "--workers", 1, "--steps-per-temperature", 5, "--cooling-rate", "0.5",
            "--min-temperature", "1e-3", "--output-prefix", tmp_path / "opt")
    assert run(*argv) == 0
    assert len(calls) == 1


def test_generate_freezes_nothing(tmp_path, monkeypatch):
    # the generator builds its view directly
    calls = _views_built(monkeypatch)
    argv = ("generate", "--people", 30, "--tasks", 40, "--output", tmp_path / "g.csv")
    assert run(*argv) == 0
    assert calls == []


def test_nulltest_holds_no_project_graph_while_sampling(tmp_path, criterion9_path, monkeypatch):
    # kept alive, so that no graph made later can take one of their ids
    earlier = [o for o in gc.get_objects() if isinstance(o, ProjectGraph)]
    known = {id(o) for o in earlier}
    held_while_sampling = []
    null_sample = optimize.null_sample

    def inspected(*args, **kwargs):
        held_while_sampling.extend(
            o for o in gc.get_objects() if isinstance(o, ProjectGraph) and id(o) not in known
        )
        return null_sample(*args, **kwargs)

    monkeypatch.setattr(optimize, "null_sample", inspected)
    argv = ("nulltest", "--input", criterion9_path, "--samples", 5, "--workers", 1)
    assert run(*argv, "--output", tmp_path / "null.json") == 0
    assert held_while_sampling == []


def test_trace_csv_renders_every_row():
    from busfactor.optimize import AnnealingTrace, TraceRow
    from busfactor.reporting import fmt_float, trace_csv

    values = [(0.05, 0.25), (0.05, 0.25), (0.05, 1 / 3), (0.0475, 1 / 3), (1e-4, 1.0)]
    rows = [TraceRow(i, t, o) for i, (t, o) in enumerate(values, start=1)]
    want = ["step,temperature,objective"] + [
        f"{r.step},{fmt_float(r.temperature)},{fmt_float(r.objective)}" for r in rows
    ]
    assert "".join(trace_csv(AnnealingTrace(rows))) == "\n".join(want) + "\n"


def test_trace_is_written_as_it_is_rendered(tmp_path):
    from busfactor.io import write_text
    from busfactor.optimize import AnnealingTrace, TraceRow
    from busfactor.reporting import trace_csv

    # a chain's shape: temperatures fall level by level, the best rises
    # now and then, and rows share their floats as anneal's do
    temperatures = [0.05 * 0.95**level for level in range(25)]
    objectives = [0.1 + i / 1000 for i in range(100)]
    rows = [
        TraceRow(step, temperatures[step // 200], objectives[step // 50])
        for step in range(5000)
    ]
    manifest = cli._manifest("optimize", {"seed": 0}, None)
    path = tmp_path / "trace.csv"

    def render_and_write():
        artifact = trace_csv(AnnealingTrace(rows))
        write_text(path, cli._stamped(str(path), artifact, manifest, None))

    render_and_write()  # warm-up
    # a whole-file string and its list of lines would hold several times it
    assert traced_peak(render_and_write) < path.stat().st_size


def test_generate_holds_no_project_graph(tmp_path, monkeypatch):
    # kept alive, so that no graph made later can take one of their ids
    earlier = [o for o in gc.get_objects() if isinstance(o, ProjectGraph)]
    known = {id(o) for o in earlier}
    held = []
    generate, write_text = cli.generate_powerlaw, cli.write_text

    def inspect():
        held.extend(
            o for o in gc.get_objects() if isinstance(o, ProjectGraph) and id(o) not in known
        )

    def generated(*args, **kwargs):
        graph = generate(*args, **kwargs)
        inspect()
        return graph

    def written(*args, **kwargs):
        inspect()
        return write_text(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_powerlaw", generated)
    monkeypatch.setattr(cli, "write_text", written)
    argv = ("generate", "--people", 30, "--tasks", 40, "--min-degree", 2)
    for output in (("graph.csv",), ("graph.json",), ("graph.out", "--format", "json")):
        name, *fmt = output
        assert run(*argv, *fmt, "--output", tmp_path / name) == 0
    assert held == []


@pytest.mark.parametrize(
    "writer",
    ["save_edge_list", "cli._stamped", "save_edge_list json", "cli._stamped json"],
)
def test_graph_csv_is_written_as_it_is_rendered(tmp_path, writer):
    from busfactor.io import write_text

    writer, _, fmt = writer.partition(" ")
    fmt = fmt or "csv"
    graph = generate_powerlaw(GeneratorConfig(n_people=3000, n_tasks=4000, seed=1))
    manifest = cli._manifest("generate", {"seed": 1}, None)
    path = tmp_path / f"graph.{fmt}"

    def render_and_write():
        if writer == "save_edge_list":
            save_edge_list(graph, path)
        else:
            write_text(path, cli._stamped(str(path), graph, manifest, None))

    render_and_write()  # warm-up
    # the whole text, or its list of lines, would hold more than the file
    assert traced_peak(render_and_write) < path.stat().st_size


def test_decay_command(tmp_path, fixture_path):
    out = tmp_path / "decay.csv"
    assert run("decay", "--input", fixture_path, "--output", out) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body == ["step,removed_person,tau", "0,,3", "1,p1,2", "2,p2,0"]
    # --adaptive is recorded; re-ranking provably gives the static order
    out2 = tmp_path / "decay2.csv"
    assert run("decay", "--input", fixture_path, "--adaptive", "--output", out2) == 0
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert strip(out2) == strip(out)
    for path, adaptive in ((out, False), (out2, True)):
        manifest = json.loads(path.read_text().splitlines()[0][len("# manifest: "):])
        assert manifest["parameters"]["adaptive"] is adaptive


def test_config_file_merging(tmp_path, fixture_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"delta": "0.8", "steps": 2, "stride": 1}))
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--input", fixture_path, "--kind", "duplicates",
               "--config", config, "--output", out) == 0
    manifest = json.loads(out.read_text().splitlines()[0][len("# manifest: "):])
    assert manifest["parameters"]["delta"] == "0.8"
    assert manifest["parameters"]["steps"] == 2

    # explicit flags win over config values
    assert run("sweep", "--input", fixture_path, "--kind", "duplicates",
               "--config", config, "--steps", 3, "--output", out) == 0
    manifest = json.loads(out.read_text().splitlines()[0][len("# manifest: "):])
    assert manifest["parameters"]["steps"] == 3

    # keys for other subcommands are tolerated, unknown keys are not
    shared = tmp_path / "shared.json"
    shared.write_text(
        json.dumps({"steps": 2, "stride": 1, "samples": 7, "kind": "duplicates"})
    )
    assert run("sweep", "--input", fixture_path, "--config", shared,
               "--output", out) == 0
    manifest = json.loads(out.read_text().splitlines()[0][len("# manifest: "):])
    assert "samples" not in manifest["parameters"]
    report = tmp_path / "report.json"
    assert run("analyze", "--input", fixture_path, "--config", shared,
               "--output", report) == 0
    assert "kind" not in json.loads(report.read_text())["manifest"]["parameters"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_flag": 1}))
    assert run("sweep", "--input", fixture_path, "--kind", "duplicates",
               "--config", bad, "--output", out) == 1


def test_flag_defaults_follow_the_config_classes():
    # one DEFAULTS entry per field name, so configs sharing a field (seed)
    # must agree on its default
    for config in (GeneratorConfig, NullModelConfig, AnnealingConfig):
        for f in dataclasses.fields(config):
            if f.default is not dataclasses.MISSING:
                assert cli.DEFAULTS[f.name] == f.default, (config.__name__, f.name)
    flags = set().union(*(flags for _, _, flags in cli._COMMANDS.values()))
    assert set(cli.DEFAULTS) <= flags


def test_missing_required_flag(fixture_path):
    assert run("analyze", "--input", fixture_path) == 1  # no --output


def test_missing_flag_is_reported_before_the_input_is_read(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("person,task\np1,p1\n")
    assert run("analyze", "--input", bad) == 1
    assert "missing required flag --output" in capsys.readouterr().err


def test_analyze_refuses_a_decay_output_naming_the_report(tmp_path, capsys, fixture_path):
    report = tmp_path / "d" / "x"
    report.parent.mkdir()
    for decay in (report, tmp_path / "d" / "." / "x"):
        assert run("analyze", "--input", fixture_path, "--output", report,
                   "--decay-output", decay) == 1
        assert "names the --output file" in capsys.readouterr().err
        assert list(report.parent.iterdir()) == []


@pytest.mark.parametrize(
    "name, argv",
    [
        ("g.csv", ["decay", "--input", "g.csv", "--output", "./g.csv"]),
        ("opt.graph.csv", ["optimize", "--input", "opt.graph.csv", "--output-prefix", "opt",
                           "--steps-per-temperature", 2, "--cooling-rate", "0.5"]),
    ],
    ids=["decay", "optimize"],
)
def test_no_output_may_replace_the_input(tmp_path, monkeypatch, capsys, name, argv):
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / name
    graph.write_text(FOUR_EDGE_CSV)
    assert run(*argv) == 1
    assert "names the --input file" in capsys.readouterr().err
    assert graph.read_bytes() == FOUR_EDGE_CSV.encode()
    assert [path.name for path in tmp_path.iterdir()] == [name]


def test_a_failed_run_writes_nothing(tmp_path, monkeypatch, fixture_path):
    # the report cannot be written, so the decay CSV written before it
    # must not appear, nor replace a file already there
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "--input", fixture_path, "--output", "nodir/r.json",
            "--decay-output", "d.csv"]
    assert run(*argv) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["fixture.csv"]
    (tmp_path / "d.csv").write_bytes(b"earlier bytes\n")
    assert run(*argv) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.csv", "fixture.csv"]
    assert (tmp_path / "d.csv").read_bytes() == b"earlier bytes\n"


def test_a_write_error_names_the_output_as_given(tmp_path, monkeypatch, capsys, fixture_path):
    monkeypatch.chdir(tmp_path)
    assert run("decay", "--input", fixture_path, "--output", "nodir/r.csv") == 1
    err = capsys.readouterr().err
    assert "'nodir/r.csv'" in err and ".tmp" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_output_is_written_in_place(tmp_path, fixture_path):
    # a FIFO cannot be replaced by a renamed file: its reader would wait
    # for bytes that go elsewhere
    assert run("decay", "--input", fixture_path, "--output", tmp_path / "decay.csv") == 0
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run("decay", "--input", fixture_path, "--output", fifo) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [(tmp_path / "decay.csv").read_bytes()]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "decay.csv", "fixture.csv", "out.fifo"
    ]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_dev_stdout_on_a_pipe_is_an_output(tmp_path, fixture_path):
    assert run("decay", "--input", fixture_path, "--output", tmp_path / "decay.csv") == 0
    argv = ("-m", "busfactor.cli", "decay", "--input", fixture_path, "--output", "/dev/stdout")
    done = checkout_python(tmp_path, *argv, timeout=60)  # stdout is a pipe
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (tmp_path / "decay.csv").read_text()


def test_generate_defaults_to_the_desk_size(tmp_path):
    out = tmp_path / "g.csv"
    assert run("generate", "--seed", 1, "--output", out) == 0
    graph = load_edge_list(out)
    assert (graph.n_people, graph.n_tasks) == (750, 1000)


def test_sweep_defaults_to_5000_steps(tmp_path, capsys, fixture_path):
    out = tmp_path / "s.csv"
    assert run("sweep", "--input", fixture_path, "--kind", "singletons", "--output", out) == 2
    assert "cannot add 5000 singletons" in capsys.readouterr().err
    assert not out.exists()


def test_seed_takes_every_unsigned_64_bit_value(tmp_path, capsys):
    argv = ("generate", "--people", 5, "--tasks", 6, "--output", tmp_path / "g.csv")
    for seed in (0, 2**64 - 1):
        assert run(*argv, "--seed", seed) == 0
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--seed", 2**64)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_workers_do_not_change_outputs(tmp_path, fixture_path):
    out = tmp_path / "null.json"
    outs = []
    for workers in (1, 4):
        assert run("nulltest", "--input", fixture_path, "--samples", 12,
                   "--seed", 9, "--workers", workers, "--output", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "config, code",
    [
        ({"workers": "2"}, 0),
        ({"swaps_per_edge": "x"}, 1),
        ({"seed": 1.5}, 1),
        ({"workers": 0}, 1),
        ({"format": "xml"}, 1),
        ({"output": 3}, 1),
        ({"include_null_values": "yes"}, 1),
    ],
)
def test_config_values_get_flag_checks(tmp_path, fixture_path, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run("nulltest", "--input", fixture_path, "--samples", 4, "--config", path,
               "--output", tmp_path / "null.json") == code


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
long_integers = pytest.mark.skipif(
    not 0 < _INT_DIGIT_LIMIT < 5000, reason="no integer digit limit below 5000"
)
_DEEP = "[" * 200_000
_LONG = "1" * 5000


@pytest.mark.parametrize(
    "name, text, as_config",
    [
        ("deep.json", _DEEP, False),
        ("deep.json", _DEEP, True),
        pytest.param(
            "long.json", f'{{"people": [], "tasks": [], "edges": [], "n": {_LONG}}}',
            False, marks=long_integers,
        ),
        pytest.param("long.json", f'{{"seed": {_LONG}}}', True, marks=long_integers),
        pytest.param("long.csv", f"person,task\np{_LONG},t1\n", False, marks=long_integers),
    ],
    ids=["deep-graph", "deep-config", "long-int-graph", "long-int-config", "long-csv-id"],
)
def test_malformed_input_files_are_input_errors(
    tmp_path, capsys, fixture_path, name, text, as_config
):
    path = tmp_path / name
    path.write_text(text)
    source = ["--input", fixture_path, "--config", path] if as_config else ["--input", path]
    assert run("analyze", *source, "--output", tmp_path / "report.json") == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1e-50000000", "0e99999999", "1e-400"])
def test_delta_text_is_refused_before_fraction_expands_it(tmp_path, fixture_path, delta):
    # in a subprocess with a timeout, so that a regression fails instead of
    # hanging: Fraction builds 10**50000000 for the first text
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"delta": delta}))
    analyze = ["-m", "busfactor.cli", "analyze", "--input", fixture_path,
               "--output", tmp_path / "report.json"]
    for source, code in ((["--delta", delta], 2), (["--config", config], 1)):
        result = checkout_python(tmp_path, *analyze, *source, timeout=30)
        assert result.returncode == code, result.stderr
        assert "delta must be in (0, 1]" in result.stderr
    assert not (tmp_path / "report.json").exists()


def test_decimal_delta_is_refused_before_fraction_expands_it(tmp_path):
    # in a subprocess with a timeout, so that a regression fails instead of
    # hanging: Fraction(Decimal("1e-50000000")) builds 10**50000000
    probe = (
        "from decimal import Decimal\n"
        "from busfactor.coverage import normalize_delta\n"
        "try:\n"
        "    normalize_delta(Decimal('1e-50000000'))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    result = checkout_python(tmp_path, "-c", probe, timeout=30, check=True)
    assert "delta must be in (0, 1]" in result.stdout


def test_fmt_float_marks_integral_floats():
    from busfactor.reporting import canonical_json, fmt_float

    # the 0.0 and 1.0 robustness of the edge cases stay floats in reports
    assert [fmt_float(v) for v in (0.0, 1.0, 2.0)] == ["0.0", "1.0", "2.0"]
    assert canonical_json([0.0, 1.0], None) == "[0.0,1.0]"


def test_canonical_json_refuses_what_has_no_canonical_text():
    from busfactor.reporting import canonical_json

    # a key that is not a string, and a set, whose order is not defined
    for obj in ({1: "a"}, {"a": {None: 1}}, {"a": {1, 2}}, [frozenset()]):
        for indent in (2, None):
            with pytest.raises(TypeError):
                canonical_json(obj, indent)


def test_canonical_json_escapes_every_control_character():
    from busfactor.reporting import canonical_json

    for code in range(0x20):
        text = f"a{chr(code)}b\\\""
        for indent in (2, None):
            assert json.loads(canonical_json({text: [text]}, indent)) == {text: [text]}


@pytest.mark.parametrize("via_config", [False, True])
def test_reports_stay_json_with_control_characters_in_delta(
    tmp_path, fixture_path, via_config
):
    # Fraction strips trailing whitespace such as \x0b and \x1f; the
    # manifest records the raw text
    out = tmp_path / "report.json"
    if via_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta": "0.5\u001f"}))
        args, delta = ["--config", config], "0.5\x1f"
    else:
        args, delta = ["--delta", "0.5\x0b"], "0.5\x0b"
    assert run("analyze", "--input", fixture_path, *args, "--output", out) == 0
    report = json.loads(out.read_text())
    assert report["manifest"]["parameters"]["delta"] == delta
    decay = tmp_path / "report.json.decay.csv"
    manifest = json.loads(decay.read_text().splitlines()[0][len("# manifest: "):])
    assert manifest["parameters"]["delta"] == delta


def test_non_utf8_input_is_input_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"person,task\np1,t\xff\n")
    assert run("analyze", "--input", bad, "--output", tmp_path / "o.json") == 1


def test_workers_is_offered_only_where_a_pool_runs(tmp_path, fixture_path, capsys):
    pooled = [c for c, (_, _, flags) in cli._COMMANDS.items() if "workers" in flags]
    assert pooled == ["nulltest", "optimize"]
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        run("analyze", "--input", fixture_path, "--workers", 2, "--output", out)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    # a shared config's workers key is a key of another subcommand here
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workers": 2}))
    assert run("analyze", "--input", fixture_path, "--config", config, "--output", out) == 0


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_rejected_with_usage(fixture_path, tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run("nulltest", "--input", fixture_path, "--samples", 4, "--workers", workers,
            "--output", tmp_path / "null.json")
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "null.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--people", 5, "--tasks", 5, "--exponent-people", "nan",
         "--output", "g.csv"],
        ["optimize", "--input", "fixture.csv", "--initial-temperature", "nan",
         "--output-prefix", "opt"],
    ],
)
def test_non_finite_floats_are_infeasible(tmp_path, fixture_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert [path.name for path in tmp_path.iterdir()] == ["fixture.csv"]


GRAPH_WITH_ISOLATED_NODES = {
    "people": ["p1", "p2", "p3", "p4", "p9"],
    "tasks": ["t1", "t2", "t3", "t4", "t5", "t9"],
    "edges": [["p1", "t1"], ["p1", "t2"], ["p2", "t2"], ["p2", "t3"],
              ["p3", "t4"], ["p3", "t5"], ["p4", "t5"]],
}


def test_json_graph_files_are_pinned(tmp_path, monkeypatch):
    # no benchmark digest covers JSON graph files, so these pin their bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixture.json").write_text(json.dumps(GRAPH_WITH_ISOLATED_NODES))
    schedule = ["--seed", 7, "--steps-per-temperature", 20, "--cooling-rate", "0.8",
                "--min-temperature", "1e-3"]
    assert run("generate", "--people", 12, "--tasks", 15, "--seed", 3,
               "--format", "json", "--output", "gen.json") == 0
    assert run("optimize", "--input", "fixture.json", "--format", "json", *schedule,
               "--output-prefix", "opt") == 0
    # five chains (seeds 7-11); seeds 8 and 11 tie for the best, 8 is kept
    assert run("optimize", "--input", "fixture.json", "--format", "json", *schedule,
               "--restarts", 5, "--output-prefix", "best") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("gen.json", "opt.graph.json", "best.graph.json", "best.trace.csv")
    }
    assert digests == {
        "gen.json": "fe6b384960d04a42619902265f22b7da412c335557e2da90d0b052445f28a71c",
        "opt.graph.json": "4ca147a97ae65178fb45653215b65d55e1f57f748d325ed9e207f5f8dc3b877d",
        "best.graph.json": "e3ca5c0c5f506bc82d280fac99449106c0dba4b42f69d16aa44fedfdb2b16bdd",
        "best.trace.csv": "ee8fcff13ccbdb1ba9a9ba394096fcbaf5d075f8189234fdee1b760fde46df55",
    }


def test_every_artifact_matches_the_bench_digests(tmp_path, criterion9_path, monkeypatch):
    # the bench's criterion-9 chain runs every command on the criterion-9
    # fixture; its reference digests pin the bytes of every artifact
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    workload = workloads.criterion9()
    reference = json.loads((BENCH / "digests.json").read_text())["criterion-9"]["0"]

    def sha256(name: str) -> str:
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert workload.prepared_input == ("criterion-9", criterion9_path.name)
    assert sha256(criterion9_path.name) == reference[criterion9_path.name]
    monkeypatch.chdir(tmp_path)
    for command in workload.commands:
        assert main(list(command.argv)) == 0, command.argv
    names = [criterion9_path.name, *(a for c in workload.commands for a in c.artifacts)]
    assert {name: sha256(name) for name in names} == reference


def _embedded_manifest(path: Path) -> dict:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["manifest"]
    first, _, _ = text.partition("\n")
    return json.loads(first.removeprefix("# manifest: "))


def test_the_manifest_alone_replays_every_artifact(tmp_path, criterion9_path, monkeypatch):
    # each command of the criterion-9 chain is rebuilt from the manifest in
    # its first artifact (plus its output flag) and rerun in a fresh
    # directory under the same file names; every artifact must repeat
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256(criterion9_path.read_bytes()).hexdigest()
    monkeypatch.chdir(tmp_path)
    commands = workloads.criterion9().commands
    for command in commands:
        assert main(list(command.argv)) == 0, command.argv
    for i, command in enumerate(commands):
        manifest = _embedded_manifest(tmp_path / command.artifacts[0])
        argv = [manifest["command"]]
        if manifest["input_sha256"] is not None:
            assert manifest["input_sha256"] == digest
            argv += ["--input", criterion9_path.name]
        for key, value in manifest["parameters"].items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not False:
                argv += [flag, str(value)]
        at = next(k for k, a in enumerate(command.argv) if a in ("--output", "--output-prefix"))
        argv += command.argv[at:at + 2]
        fresh = tmp_path / f"replay{i}"
        fresh.mkdir()
        (fresh / criterion9_path.name).write_bytes(criterion9_path.read_bytes())
        monkeypatch.chdir(fresh)
        assert main(argv) == 0, argv
        for name in command.artifacts:
            assert (fresh / name).read_bytes() == (tmp_path / name).read_bytes(), (argv, name)


# Valid values of each flag, as command-line text, kept small so that a run
# stays short; the paths name files in the run's directory.
_FLAG_TEXTS = {
    "format": st.sampled_from(["csv", "json"]),
    "delta": st.sampled_from(["0.5", "0.8", "1", "0.25"]),
    "decay_output": st.just("d.csv"),
    "people": st.integers(5, 30).map(str),
    "tasks": st.integers(5, 30).map(str),
    "exponent_people": st.sampled_from(["2.5", "3", "2.1"]),
    "exponent_tasks": st.sampled_from(["2.5", "3", "2.1"]),
    "min_degree": st.integers(1, 2).map(str),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "kind": st.sampled_from(SWEEP_KINDS),
    "steps": st.integers(1, 20).map(str),
    "stride": st.integers(1, 5).map(str),
    "workers": st.integers(1, 2).map(str),
    "samples": st.integers(1, 6).map(str),
    "swaps_per_edge": st.integers(1, 3).map(str),
    "calibrate": st.integers(1, 3).map(str),
    "include_null_values": st.booleans(),
    "initial_temperature": st.sampled_from(["0.05", "0.1"]),
    "cooling_rate": st.sampled_from(["0.5", "0.8"]),
    "steps_per_temperature": st.integers(1, 3).map(str),
    "min_temperature": st.sampled_from(["0.001", "0.01"]),
    "restarts": st.integers(1, 2).map(str),
    "adaptive": st.booleans(),
    "input": st.just("fixture.csv"),
    "output": st.just("out.csv"),
    "output_prefix": st.just("opt"),
}
# Always given: the required flags, and the sizes whose defaults run long.
_ALWAYS_GIVEN = {"input", "output", "output_prefix", "kind", "people", "tasks", "steps",
                 "samples", "steps_per_temperature"}


def _config_spelling(text):
    """A --config value for a flag's text: the text, or the JSON number it spells."""
    try:
        return st.sampled_from([text, json.loads(text)])
    except ValueError:
        return st.just(text)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_values_and_flags_are_one_input_path(tmp_path, criterion9_path, command, data):
    assert set(_FLAG_TEXTS) == set(cli._FLAGS) - {"config"}
    _, _, own = cli._COMMANDS[command]
    texts = {
        dest: data.draw(_FLAG_TEXTS[dest], label=dest)
        for dest in ("format", *own)
        if dest in _ALWAYS_GIVEN or data.draw(st.booleans(), label=f"give {dest}")
    }
    if "input" in texts:
        texts["input"] = f"fixture.{texts.get('format', 'csv')}"
    flags = []
    for dest, text in texts.items():
        name = "--" + dest.replace("_", "-")
        if text is True:
            flags.append(name)
        elif text is not False:  # a switch left off
            flags += [name, text]
    config = {
        dest: text if isinstance(text, bool) else data.draw(_config_spelling(text))
        for dest, text in texts.items()
    }
    graph = load_edge_list(criterion9_path)
    outcomes = []
    for argv, config_text in (([command, *flags], None),
                              ([command, "--config", "c.json"], json.dumps(config))):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        save_edge_list(graph, work / "fixture.csv")
        save_edge_list(graph, work / "fixture.json")
        if config_text is not None:
            (work / "c.json").write_text(config_text)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
        inputs = ("fixture.csv", "fixture.json", "c.json")
        made = {p.name: p.read_bytes() for p in work.iterdir() if p.name not in inputs}
        outcomes.append((code, made))
    assert outcomes[0] == outcomes[1]


# -- import cost ------------------------------------------------------------------

# Runs ``main(argv)``, or with no arguments ``import busfactor``, in a fresh
# interpreter and prints which of the costly optional modules got loaded.
_IMPORT_PROBE = """
import sys
if sys.argv[1:]:
    from busfactor.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --version exits through argparse
        code = exc.code
    assert code in (0, None), code
else:
    import busfactor
print(",".join(m for m in ("numpy", "concurrent.futures.process") if m in sys.modules))
"""


def costly_modules_loaded(tmp_path, *argv) -> set[str]:
    result = checkout_python(tmp_path, "-c", _IMPORT_PROBE, *argv, check=True)
    return set(filter(None, result.stdout.splitlines()[-1].split(",")))


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ([], set()),
        (["--version"], set()),
        (["analyze", "--input", "fixture.csv", "--output", "r.json"], set()),
        (["decay", "--input", "fixture.csv", "--output", "d.csv"], set()),
        (
            ["sweep", "--input", "fixture.csv", "--kind", "densify", "--steps", 4,
             "--output", "s.csv"],
            set(),
        ),
        (
            ["nulltest", "--input", "fixture.csv", "--samples", 4, "--workers", 1,
             "--output", "n.json"],
            {"numpy"},
        ),
        (
            ["nulltest", "--input", "fixture.csv", "--samples", 4, "--workers", 2,
             "--output", "n.json"],
            {"concurrent.futures.process"},  # the workers draw, not the parent
        ),
        (
            ["optimize", "--input", "fixture.csv", "--steps-per-temperature", 10,
             "--output-prefix", "o"],
            set(),
        ),
        (
            ["sweep", "--input", "fixture.csv", "--kind", "sparsify", "--steps", 2,
             "--output", "s.csv"],
            set(),
        ),
        (
            ["sweep", "--input", "fixture.csv", "--kind", "duplicates", "--steps", 2,
             "--output", "s.csv"],
            set(),
        ),
        (
            ["sweep", "--input", "fixture.csv", "--kind", "singletons", "--steps", 2,
             "--output", "s.csv"],
            set(),  # ScalarDraws.choice draws the hires
        ),
        (["generate", "--people", 30, "--tasks", 40, "--output", "g.csv"], {"numpy"}),
    ],
)
def test_commands_load_numpy_and_the_pool_only_when_used(
    tmp_path, fixture_path, argv, loaded
):
    # fixture_path is tmp_path / "fixture.csv", the probe's working directory
    assert costly_modules_loaded(tmp_path, *argv) == loaded


# Runs ``main(argv)`` in a fresh interpreter whose environment does not set
# OPENBLAS_NUM_THREADS and prints how many threads the process then has.
_THREAD_PROBE = """
import os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
from busfactor.cli import main
assert main(sys.argv[1:]) == 0
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--people", 30, "--tasks", 40, "--output", "g.csv"],
        ["nulltest", "--input", "fixture.csv", "--samples", 4, "--workers", 1,
         "--output", "n.json"],
    ],
)
def test_numpy_commands_run_on_one_thread(tmp_path, fixture_path, argv):
    # OpenBLAS would otherwise start a thread per core when numpy loads
    result = checkout_python(tmp_path, "-c", _THREAD_PROBE, *argv, check=True)
    assert result.stdout.split() == ["1"]


def test_main_asks_blas_for_one_thread_unless_told(monkeypatch, fixture_path, tmp_path):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run("decay", "--input", fixture_path, "--output", tmp_path / "d.csv") == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run("decay", "--input", fixture_path, "--output", tmp_path / "d.csv") == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_importing_the_cli_leaves_the_environment_alone(tmp_path):
    probe = "import os; before = dict(os.environ); import busfactor.cli; " \
            "print(dict(os.environ) == before)"
    assert checkout_python(tmp_path, "-c", probe, check=True).stdout.split() == ["True"]
