"""busfactor benchmark: times the CLI end to end and each module from outside.

Run from the repository root:

    python3 bench/run.py --workload desk-cli --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's command chain as CLI child processes,
over and over until ``--seconds`` have passed, each pass on the next input
variant, and reports the end-to-end metrics. ``--trace 1`` runs the same
chain in-process, alternating untraced passes with passes that put a span
around every call into each module, and reports the per-layer metrics and
the tracing overhead. Every artifact is checked against its reference
sha256 in ``digests.json``. Human-readable report lines come first; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from workloads import VARIANTS, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # no command may run past this point of a run
PROBE_LOOPS = 300_000


# -- child processes ---------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with only this checkout's ``src`` on the path,
    so each commit is measured on its own tree."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def cli_invocation() -> list[str]:
    return [sys.executable, "-m", "busfactor.cli"]


@dataclass
class CommandResult:
    metric: str
    seconds: float
    returncode: int
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    failed: bool = False


def run_child(argv: list[str], cwd: Path, timeout: float):
    """Run ``argv`` to completion; returns (seconds, exit code, rusage).

    ``wait4`` reaps the child itself, so the rusage is that one command's
    (its pool workers included), not everything the runner ever waited for.
    """
    with open(cwd / "stderr.log", "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


# -- set-up -------------------------------------------------------------------------


def setup(workload: Workload, work: Path) -> tuple[float, dict]:
    """Fresh work directory, package import check and any prepared input."""
    start = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "prepare.py")]
    if workload.prepared_input:
        argv += list(workload.prepared_input)
    out = subprocess.run(
        argv, cwd=work, env=child_env(), capture_output=True, text=True, timeout=60
    )
    seconds = perf_counter() - start
    if out.returncode != 0:
        raise SystemExit(f"bench: set-up failed:\n{out.stderr}")
    info = json.loads(out.stdout.splitlines()[-1])
    if not Path(info["busfactor"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: busfactor imported from {info['busfactor']}, not {SRC}")
    return seconds, info


def steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def host_probe_ms() -> float:
    """A fixed pure-Python loop; diagnoses host speed, gates nothing."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return (perf_counter() - start) * 1000


# -- correctness --------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rotation(name: str, seed: int, turn: int) -> Workload:
    """The workload of a run's ``turn``-th CLI pass. Passes step through the
    input variants from ``seed``, so a run's medians do not rest on one
    variant's graph."""
    return WORKLOADS[name]((seed + turn) % VARIANTS)


def reference_digests(workload: Workload) -> dict:
    return json.loads(DIGESTS.read_text())[workload.name][str(workload.variant)]


def check_pass(commands, identical, work: Path, results: list[CommandResult],
               reference: dict | None) -> list[str]:
    """Mark failed commands (non-zero exit, missing or wrong artifact) and
    return what went wrong, including ``identical`` pairs that differ."""
    problems = []
    for command, result in zip(commands, results):
        if result.returncode != 0:
            result.failed = True
            problems.append(f"{' '.join(command.argv)}: exit {result.returncode}")
            continue
        for name in command.artifacts:
            path = work / name
            digest = sha256(path) if path.exists() else None
            if reference is not None and digest != reference.get(name):
                result.failed = True
                problems.append(f"{name}: sha256 {digest} != reference {reference.get(name)}")
    for a, b in identical:
        pa, pb = work / a, work / b
        if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
            problems.append(f"{a} and {b} differ")
    return problems


def clear_artifacts(commands, work: Path) -> None:
    for command in commands:
        for name in command.artifacts:
            (work / name).unlink(missing_ok=True)


# -- CLI passes (--trace 0) -----------------------------------------------------------


@dataclass
class Pass:
    results: list[CommandResult]
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)


def cli_pass(workload: Workload, work: Path, run_start: float,
             reference: dict | None) -> Pass:
    clear_artifacts(workload.commands, work)
    results = []
    for command in workload.commands:
        timeout = RUN_LIMIT_S - (perf_counter() - run_start)
        seconds, code, usage = run_child(cli_invocation() + list(command.argv), work, timeout)
        results.append(CommandResult(
            metric=command.metric,
            seconds=seconds,
            returncode=code,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024,
        ))
    return Pass(results, check_pass(
        workload.commands, workload.identical, work, results, reference))


# -- in-process passes (--trace 1) ------------------------------------------------------


def inprocess_pass(workload: Workload, work: Path, reference: dict | None,
                   tracer: tracing.Tracer | None = None, only_metric: str | None = None) -> Pass:
    """The chain through ``busfactor.cli.main`` in this process. Traced
    passes skip multi-worker commands, whose work happens in children."""
    import busfactor.cli

    commands = [
        c for c in workload.commands
        if (tracer is None or c.workers == 1) and only_metric in (None, c.metric)
    ]
    clear_artifacts(commands, work)
    results = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in commands:
            if tracer is not None:
                tracer.request += 1
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = busfactor.cli.main(list(command.argv))
            results.append(CommandResult(command.metric, perf_counter() - start, code))
    finally:
        os.chdir(cwd)
    identical = workload.identical if len(commands) == len(workload.commands) else ()
    return Pass(results, check_pass(commands, identical, work, results, reference))


# -- metrics -------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_command(passes: list[Pass]) -> dict[str, list[float]]:
    """Seconds per command metric per pass; several sweeps in a pass add up."""
    out: dict[str, list[float]] = {}
    for p in passes:
        totals: dict[str, float] = {}
        for r in p.results:
            totals[r.metric] = totals.get(r.metric, 0.0) + r.seconds
        for name, seconds in totals.items():
            out.setdefault(name, []).append(seconds)
    return out


def end_to_end(setups: list[float], passes: list[Pass]) -> dict:
    commands = [r for p in passes for r in p.results]
    return {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": metric(max(r.maxrss_mb for r in commands), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def report_commands(workload: Workload, passes: list[Pass]) -> None:
    """Per-command medians, with the throughputs derived from them."""
    timings = per_command(passes)
    print(f"{'command':<14}{'n':>4}{'median_s':>12}{'max_s':>12}")
    for name, values in timings.items():
        print(f"{name + '_s':<14}{len(values):>4}{statistics.median(values):>12.4f}{max(values):>12.4f}")
    if workload.null_samples and "nulltest" in timings:
        print(f"null_samples_per_s {workload.null_samples / statistics.median(timings['nulltest']):.3f}")
    if workload.anneal_steps and "optimize" in timings:
        print(f"anneal_steps_per_s {workload.anneal_steps / statistics.median(timings['optimize']):.1f}")
    rss = {}
    for r in (r for p in passes for r in p.results):
        rss[r.metric] = max(rss.get(r.metric, 0.0), r.maxrss_mb)
    print("peak_rss_mb by command " + json.dumps({k: round(v, 1) for k, v in rss.items()}))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload: Workload, startup: list[float], baselines: list[Pass],
              traced: list[tuple[Pass, tracing.Tracer]], sweep_peaks: list[float],
              probes: list[float]) -> dict:
    selfs = [tracing.self_times(t.spans) for _, t in traced]

    def self_s(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in selfs)

    tracer = traced[0][1]
    calls, counts = tracer.call_counts(), tracer.counters
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    same = {c.metric for c in workload.commands if c.workers == 1}
    untraced_wall = statistics.median(
        sum(r.seconds for r in p.results if r.metric in same) for p in baselines)
    timings = {k: statistics.median(v) for k, v in per_command(baselines).items()}
    pool = (_ratio(timings["nulltest"], 2 * timings["nulltest_w2"])
            if "nulltest_w2" in timings else 0.0)
    steps, accepted = counts["optimize.anneal.steps"], counts["optimize.anneal.accepted"]
    s, c, r = "s", "count", "ratio"
    m = {
        "cli.startup_s": (statistics.median(startup), s),
        "cli.main.calls": (calls["cli.main"], c),
        "cli.main.self_s": (self_s("cli.main"), s),
        "io.parse_edge_list.self_s": (self_s("io.parse_edge_list"), s),
        "io.parse_edge_list.bytes_per_s": (
            _ratio(counts["io.parse_edge_list.bytes"], self_s("io.parse_edge_list")), "B/s"),
        "io.render_edge_list.self_s": (self_s("io.render_edge_list"), s),
        "graph.ProjectGraph.init.calls": (calls["graph.ProjectGraph.init"], c),
        "graph.ProjectGraph.init.self_s": (self_s("graph.ProjectGraph.init"), s),
        "graph.ProjectGraph.copy.calls": (calls["graph.ProjectGraph.copy"], c),
        "graph.ProjectGraph.copy.self_s": (self_s("graph.ProjectGraph.copy"), s),
        "generators.generate_powerlaw.self_s": (self_s("generators.generate_powerlaw"), s),
        "generators.edges_out": (counts["generators.edges_out"], c),
        "generators.run_sweep.self_s": (self_s("generators.run_sweep"), s),
        "generators.checkpoints": (counts["generators.checkpoints"], c),
        "generators.run_sweep.peak_alloc_mb": (max(sweep_peaks, default=0.0), "MB"),
        "coverage.mrs_greedy.calls": (calls["coverage.mrs_greedy"], c),
        "coverage.mrs_greedy.self_s": (self_s("coverage.mrs_greedy"), s),
        "coverage.mcs_greedy.calls": (calls["coverage.mcs_greedy"], c),
        "coverage.mcs_greedy.self_s": (self_s("coverage.mcs_greedy"), s),
        "robustness.decay_curve.calls": (calls["robustness.decay_curve"], c),
        "robustness.decay_curve.self_s": (self_s("robustness.decay_curve"), s),
        "robustness.decay_curve.edges_per_s": (
            _ratio(counts["robustness.decay_curve.edges"], self_s("robustness.decay_curve")),
            "edges/s"),
        "robustness.greedy_order.self_s": (self_s("robustness.greedy_order"), s),
        "robustness.bus_factor_greedy.self_s": (self_s("robustness.bus_factor_greedy"), s),
        "optimize.null_sample.calls": (calls["optimize.null_sample"], c),
        "optimize.null_sample.self_s": (self_s("optimize.null_sample"), s),
        "optimize.null_sample.swap_accept_ratio": (
            _ratio(counts["optimize.null_sample.swaps"], counts["optimize.null_sample.attempts"]), r),
        "optimize.anneal.self_s": (self_s("optimize.anneal"), s),
        "optimize.anneal.steps": (steps, c),
        "optimize.anneal.accepted": (accepted, c),
        "optimize.anneal.accept_ratio": (_ratio(accepted, steps), r),
        "optimize.pool_efficiency": (pool, r),
        "reporting.canonical_json.self_s": (self_s("reporting.canonical_json"), s),
        "reporting.digest_file.self_s": (self_s("reporting.digest_file"), s),
        "trace.overhead": (_ratio(traced_wall, untraced_wall) - 1, r),
        "host.probe_ms": (statistics.median(probes), "ms"),
    }
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def counts_of(tracer: tracing.Tracer) -> dict:
    return {**tracer.call_counts(), **tracer.counters}


def measure_traced(workload: Workload, work: Path, reference: dict, seconds: float,
                   measure_start: float, probes: list[float], problems: list[str]):
    """Alternate untraced and traced in-process passes until ``seconds`` are
    up, then one pass of the sweeps alone under tracemalloc. The first traced
    pass's spans are written to ``spans.jsonl`` in the work directory."""
    startup = [run_child(cli_invocation() + ["--version"], work, 60)[0] for _ in range(3)]
    sys.path.insert(0, str(SRC))
    baselines, traced = [], []
    while not traced or perf_counter() - measure_start < seconds:
        baselines.append(inprocess_pass(workload, work, reference))
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced.append((inprocess_pass(workload, work, reference, tracer), tracer))
        finally:
            tracing.uninstall(undo)
        probes.append(host_probe_ms())
    passes = baselines + [p for p, _ in traced]
    peaks: list[float] = []
    if any(c.metric == "sweep" for c in workload.commands):
        undo = tracing.install_sweep_alloc(peaks)
        try:
            passes.append(inprocess_pass(workload, work, reference, only_metric="sweep"))
        finally:
            tracing.uninstall(undo)
    with open(work / "spans.jsonl", "w") as fh:
        for span in traced[0][1].spans:
            fh.write(json.dumps(vars(span)) + "\n")
    counts = [counts_of(tracer) for _, tracer in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        problems.append("traced passes disagree on call or work counts")
    print(f"traced passes {len(traced)}; counts repeat exactly: {repeat}")
    return per_layer(workload, startup, baselines, traced, peaks, probes), passes


# -- main ----------------------------------------------------------------------------


def environment(info: dict) -> dict:
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": info["python"],
        "numpy": info["numpy"],
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "invocation": ["PYTHONPATH=" + str(SRC)] + cli_invocation(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "busfactor" / "__init__.py").is_file():
        print(f"bench: no busfactor package under {SRC}", file=sys.stderr)
        return 2
    if not DIGESTS.is_file():
        print(f"bench: missing {DIGESTS}", file=sys.stderr)
        return 2

    run_start = perf_counter()
    workload = rotation(args.workload, args.seed, 0)
    reference = reference_digests(workload)
    work = WORK / workload.name
    setups, info = [], {}
    for _ in range(SETUP_REPEATS):
        seconds, info = setup(workload, work)
        setups.append(seconds)
    problems = []
    if workload.prepared_input:
        name = workload.prepared_input[1]
        if sha256(work / name) != reference.get(name):
            problems.append(f"{name}: prepared input differs from its reference")
    print("environment " + json.dumps(environment(info)))
    print(f"workload {workload.name} variant {workload.variant} "
          f"setup_s median of {SETUP_REPEATS}: {statistics.median(setups):.4f}")

    probes = [host_probe_ms()]
    steal_start = steal_ticks()
    measure_start = perf_counter()
    if args.trace == 0:
        passes = []
        while not passes or perf_counter() - measure_start < args.seconds:
            if perf_counter() - run_start > RUN_LIMIT_S / 2:
                break  # a slowed-down program still ends within the run limit
            turn = rotation(args.workload, args.seed, len(passes))
            passes.append(cli_pass(turn, work, run_start, reference_digests(turn)))
            probes.append(host_probe_ms())
        for i, p in enumerate(passes):
            print(f"pass {i + 1} variant {rotation(args.workload, args.seed, i).variant}: "
                  f"wall_s {p.wall_s:.4f} cpu_s {p.cpu_s:.4f} commands_s "
                  + " ".join(f"{r.seconds:.4f}" for r in p.results))
        report_commands(workload, passes)
        metrics = end_to_end(setups, passes)
        all_passes = passes
    else:
        metrics, all_passes = measure_traced(
            workload, work, reference, args.seconds, measure_start, probes, problems)

    steal, total = (b - a for a, b in zip(steal_start, steal_ticks()))
    print("host probe ms: " + " ".join(f"{p:.1f}" for p in probes)
          + f"; steal share {_ratio(steal, total):.3f}")
    attempted = sum(len(p.results) for p in all_passes)
    failed = sum(r.failed for p in all_passes for r in p.results)
    problems += [msg for p in all_passes for msg in p.problems]
    for msg in problems:
        print("problem: " + msg)
    print(f"error_rate {failed}/{attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
