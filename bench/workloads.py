"""Workload definitions: the CLI command chains the benchmark times.

Every workload is a closed loop of one client: one command at a time, the
next starting when the previous one exits. The benchmark seed picks the
first of ``VARIANTS`` input variants (``seed % VARIANTS``) and the passes of
a run step through the rest; each variant shifts the command seeds, so the
same seed always gives the same inputs and every variant's artifacts have
a reference digest in ``digests.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 10

# Default annealing schedule of `busfactor optimize` (cli.DEFAULTS).
ANNEAL_SCHEDULE = {
    "initial_temperature": 0.05,
    "cooling_rate": 0.95,
    "steps_per_temperature": 200,
    "min_temperature": 1e-4,
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m busfactor.cli <argv>``."""

    metric: str  # per-command timing key in the report, e.g. "sweep"
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]  # files it writes, relative to the work dir

    @property
    def workers(self) -> int:
        if "--workers" in self.argv:
            return int(self.argv[self.argv.index("--workers") + 1])
        return 1


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    commands: tuple[Command, ...]
    # Input built during set-up by prepare.py (fixture name, file name).
    prepared_input: tuple[str, str] | None = None
    # Artifact pairs that must be byte-identical (worker-count invariance).
    identical: tuple[tuple[str, str], ...] = ()
    null_samples: int = 0
    anneal_steps: int = 0


def anneal_steps(schedule: dict) -> int:
    """Proposed steps of one annealing chain, replaying its cooling loop."""
    temperature, steps = schedule["initial_temperature"], 0
    while temperature >= schedule["min_temperature"]:
        steps += schedule["steps_per_temperature"]
        temperature *= schedule["cooling_rate"]
    return steps


def _cmd(metric: str, *argv, artifacts: tuple[str, ...]) -> Command:
    return Command(metric, tuple(str(a) for a in argv), artifacts)


def _generate(people: int, tasks: int, seed: int) -> Command:
    return _cmd(
        "generate", "generate", "--people", people, "--tasks", tasks,
        "--seed", seed, "--output", "graph.csv", artifacts=("graph.csv",),
    )


def _analyze(graph: str) -> Command:
    return _cmd(
        "analyze", "analyze", "--input", graph, "--delta", "0.5",
        "--output", "report.json",
        artifacts=("report.json", "report.json.decay.csv"),
    )


def _decay(graph: str) -> Command:
    return _cmd(
        "decay", "decay", "--input", graph, "--output", "decay.csv",
        artifacts=("decay.csv",),
    )


def _sweep(graph: str, kind: str, steps: int, stride: int, seed: int) -> Command:
    out = f"sweep_{kind}.csv"
    return _cmd(
        "sweep", "sweep", "--input", graph, "--kind", kind, "--steps", steps,
        "--stride", stride, "--seed", seed, "--output", out, artifacts=(out,),
    )


def _nulltest(graph: str, samples: int, seed: int, workers: int) -> Command:
    out = f"null_w{workers}.json"
    metric = "nulltest" if workers == 1 else f"nulltest_w{workers}"
    return _cmd(
        metric, "nulltest", "--input", graph, "--samples", samples,
        "--seed", seed, "--workers", workers, "--output", out, artifacts=(out,),
    )


def _optimize(graph: str, seed: int, *extra) -> Command:
    return _cmd(
        "optimize", "optimize", "--input", graph, "--seed", seed, *extra,
        "--output-prefix", "opt",
        artifacts=("opt.graph.csv", "opt.trace.csv", "opt.decay.csv"),
    )


def desk_cli(variant: int) -> Workload:
    """Desk scale, 750 x 1000: short commands, so interpreter start, io,
    coverage and the sweep engine carry a large share; generation is ~1 %."""
    seed = 42 + variant
    return Workload(
        name="desk-cli",
        variant=variant,
        commands=(
            _generate(750, 1000, seed),
            _analyze("graph.csv"),
            _decay("graph.csv"),
            _sweep("graph.csv", "densify", 5000, 100, seed),
            _sweep("graph.csv", "sparsify", 5000, 100, seed),
            _sweep("graph.csv", "singletons", 500, 25, seed),
            _sweep("graph.csv", "duplicates", 500, 10, seed),
            _nulltest("graph.csv", 100, seed, 1),
            _nulltest("graph.csv", 100, seed, 2),
        ),
        identical=(("null_w1.json", "null_w2.json"),),
        null_samples=100,
    )


def scale10x_cli(variant: int) -> Workload:
    """10x scale, 7500 x 10000: generation repair, per-edge parse cost and
    the sweep's held snapshots dominate."""
    seed = 42 + variant
    return Workload(
        name="scale10x-cli",
        variant=variant,
        commands=(
            _generate(7500, 10000, seed),
            _analyze("graph.csv"),
            _decay("graph.csv"),
            _sweep("graph.csv", "densify", 5000, 250, seed),
            _nulltest("graph.csv", 8, seed, 1),
        ),
        null_samples=8,
    )


def silo_anneal(variant: int) -> Workload:
    """Default-schedule annealing on the criterion-8 two-silo graph: ~24k
    decay curves of a 309-edge graph, so per-call overhead dominates."""
    return Workload(
        name="silo-anneal",
        variant=variant,
        commands=(_optimize("silo.csv", 9 + variant),),
        prepared_input=("silo", "silo.csv"),
        anneal_steps=anneal_steps(ANNEAL_SCHEDULE),
    )


def criterion9(variant: int = 0) -> Workload:
    """Every command on the tiny criterion-9 fixture; used by the
    benchmark's own tests, not timed."""
    schedule = {**ANNEAL_SCHEDULE, "steps_per_temperature": 10}
    return Workload(
        name="criterion-9",
        variant=variant,
        commands=(
            _generate(30, 40, 42),
            _analyze("fixture.csv"),
            _decay("fixture.csv"),
            _sweep("fixture.csv", "densify", 40, 10, 5),
            _nulltest("fixture.csv", 40, 6, 1),
            _nulltest("fixture.csv", 40, 6, 2),
            _optimize("fixture.csv", 7, "--steps-per-temperature", 10),
        ),
        prepared_input=("criterion-9", "fixture.csv"),
        identical=(("null_w1.json", "null_w2.json"),),
        null_samples=40,
        anneal_steps=anneal_steps(schedule),
    )


WORKLOADS = {
    "desk-cli": desk_cli,
    "scale10x-cli": scale10x_cli,
    "silo-anneal": silo_anneal,
}
