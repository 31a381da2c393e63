"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import pytest

import run
import tracing
from workloads import criterion9


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    spans = [
        tracing.Span("root", 0.0, 10.0, None, 1),
        tracing.Span("child", 1.0, 4.0, 0, 1),
        tracing.Span("grandchild", 2.0, 3.0, 1, 1),
        tracing.Span("child", 5.0, 9.0, 0, 1),
    ]
    assert tracing.self_times(spans) == {"root": 3.0, "child": 6.0, "grandchild": 1.0}


def test_tracer_records_nested_spans_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        lambda counters, args, result: counters.update(seen=args[0]))
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tracer.call_counts() == {"outer": 1, "inner": 2}
    assert tracer.counters["seen"] == 3
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_passes_step_through_the_variants_from_the_seed():
    assert [run.rotation("desk-cli", 18, k).variant for k in range(3)] == [8, 9, 0]
    assert run.rotation("silo-anneal", 5, 0) == run.rotation("silo-anneal", 5, 0)


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """Set-up plus one CLI pass of every command on the criterion-9 fixture."""
    workload = criterion9()
    work = tmp_path_factory.mktemp("criterion9")
    run.setup(workload, work)
    reference = run.reference_digests(workload)
    result = run.cli_pass(workload, work, perf_counter(), reference)
    return workload, work, reference, result


def test_every_artifact_matches_its_reference_digest(fixture_run):
    workload, work, reference, result = fixture_run
    assert result.problems == []
    assert not any(r.failed for r in result.results)
    assert run.sha256(work / "fixture.csv") == reference["fixture.csv"]
    assert all(r.maxrss_mb > 0 and r.cpu_s > 0 for r in result.results)


def test_changed_artifact_is_counted_as_failed(fixture_run):
    workload, work, reference, result = fixture_run
    (work / "null_w2.json").write_text("{}\n")
    results = [run.CommandResult(r.metric, r.seconds, 0) for r in result.results]
    problems = run.check_pass(workload.commands, workload.identical, work, results, reference)
    assert [r.failed for r in results] == [c.metric == "nulltest_w2" for c in workload.commands]
    assert any("null_w1.json and null_w2.json differ" in p for p in problems)


def declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_metrics_match_benchmark_json(fixture_run):
    _, _, _, result = fixture_run
    assert units(run.end_to_end([0.1], [result])) == declared("end_to_end")


def test_traced_counts_repeat_exactly(fixture_run):
    workload, work, reference, _ = fixture_run
    sys.path.insert(0, str(run.SRC))
    counts, traced = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced.append((run.inprocess_pass(workload, work, reference, tracer), tracer))
        finally:
            tracing.uninstall(undo)
        assert traced[-1][0].problems == []
        counts.append(run.counts_of(tracer))
    baseline = run.inprocess_pass(workload, work, reference)
    layers = run.per_layer(workload, [0.3], [baseline], traced, [1.0], [30.0])
    assert units(layers) == declared("per_layer")
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == sum(c.workers == 1 for c in workload.commands)
    assert counts[0]["optimize.anneal.steps"] == workload.anneal_steps
    assert counts[0]["optimize.null_sample"] == workload.null_samples
    from busfactor.graph import ProjectGraph

    owners = [m for name, m in sys.modules.items() if name.startswith("busfactor")]
    wrapped = [
        f"{owner.__name__}.{attr}"
        for owner in owners + [ProjectGraph]
        for attr, value in vars(owner).items() if hasattr(value, "__wrapped__")
    ]
    assert wrapped == []
