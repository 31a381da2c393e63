"""Synthetic heavy-tailed bipartite graphs and structural perturbations.

The generator draws person and task degree targets from truncated discrete
power laws and wires the two sides with a bipartite Chung-Lu pass (pair
(p, t) kept with probability ``min(1, w_p * w_t / S)``), followed by a
repair pass that tops up nodes below the minimum degree. Everything is
deterministic for a given seed.

Perturbations mimic managerial actions: densify/sparsify shift workload
density edge by edge, singletons hire one-task specialists, duplicates
clone existing contributors starting from the busiest. ``run_sweep``
replays a perturbation and records the coverage and robustness measures at
fixed checkpoints.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coverage import DeltaLike, mcs_greedy, mrs_greedy, normalize_delta
from .errors import InfeasibleError
from .graph import ProjectGraph, degree_order
from .robustness import bus_factor_greedy

logger = logging.getLogger(__name__)

SWEEP_KINDS = ("densify", "sparsify", "singletons", "duplicates")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...) with a stable mapping."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


@dataclass(frozen=True)
class GeneratorConfig:
    n_people: int
    n_tasks: int
    exponent_people: float = 2.5
    exponent_tasks: float = 2.5
    min_degree: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.n_people < 1 or self.n_tasks < 1:
            raise ValueError("n_people and n_tasks must be at least 1")
        if self.exponent_people <= 1 or self.exponent_tasks <= 1:
            raise ValueError("power-law exponents must exceed 1")
        if self.min_degree < 1:
            raise ValueError("min_degree must be at least 1")
        if self.min_degree > self.n_tasks or self.min_degree > self.n_people:
            raise ValueError(
                "min_degree exceeds the opposite side; degree sums infeasible"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {
            "n_people": self.n_people,
            "n_tasks": self.n_tasks,
            "exponent_people": self.exponent_people,
            "exponent_tasks": self.exponent_tasks,
            "min_degree": self.min_degree,
            "seed": self.seed,
        }


def _sample_powerlaw_degrees(
    rng: np.random.Generator, n: int, exponent: float, k_min: int, k_max: int
) -> np.ndarray:
    """n i.i.d. draws from a truncated discrete power law on [k_min, k_max]."""
    support = np.arange(k_min, k_max + 1, dtype=np.float64)
    pmf = support ** (-exponent)
    cdf = np.cumsum(pmf / pmf.sum())
    picks = np.searchsorted(cdf, rng.random(n), side="right")
    return picks.astype(np.int64) + k_min


def generate_powerlaw(config: GeneratorConfig) -> ProjectGraph:
    """Seeded power-law bipartite graph per the module docstring recipe."""
    config.validate()
    rng = make_rng(config.seed)
    n_p, n_t = config.n_people, config.n_tasks
    deg_p = _sample_powerlaw_degrees(
        rng, n_p, config.exponent_people, config.min_degree, n_t
    ).astype(np.float64)
    deg_t = _sample_powerlaw_degrees(
        rng, n_t, config.exponent_tasks, config.min_degree, n_p
    ).astype(np.float64)

    # match expected degree sums by scaling up the lighter side
    sum_p, sum_t = deg_p.sum(), deg_t.sum()
    if sum_p < sum_t:
        deg_p *= sum_t / sum_p
    elif sum_t < sum_p:
        deg_t *= sum_p / sum_t
    total = deg_p.sum()

    graph = ProjectGraph(people=range(n_p), tasks=range(n_t))
    for p in range(n_p):
        probs = deg_p[p] * deg_t / total
        hits = np.nonzero(rng.random(n_t) < probs)[0]
        for t in hits:
            graph.add_edge(p, int(t))

    _repair_min_degree(graph, config.min_degree, rng)
    return graph


def _repair_min_degree(
    graph: ProjectGraph, min_degree: int, rng: np.random.Generator
) -> None:
    all_tasks = np.array(sorted(graph.tasks))
    all_people = np.array(sorted(graph.people))
    for p in sorted(graph.people):
        missing = min_degree - graph.degree_of_person(p)
        if missing > 0:
            candidates = _absent(all_tasks, graph.tasks_of(p))
            for t in rng.choice(candidates, size=missing, replace=False):
                graph.add_edge(p, int(t))
    for t in sorted(graph.tasks):
        missing = min_degree - graph.degree_of_task(t)
        if missing > 0:
            candidates = _absent(all_people, graph.people_of(t))
            for p in rng.choice(candidates, size=missing, replace=False):
                graph.add_edge(int(p), t)


def _absent(ids: np.ndarray, present: frozenset[int]) -> np.ndarray:
    """The sorted ``ids`` not in ``present``, a subset of them, in order."""
    keep = np.ones(len(ids), dtype=bool)
    keep[np.searchsorted(ids, list(present))] = False
    return ids[keep]


def disjoint_union(first: ProjectGraph, second: ProjectGraph) -> ProjectGraph:
    """Combine two graphs, relabeling the second's ids above the first's."""
    merged = first.copy()
    p_off = merged.fresh_person_id()
    t_off = merged.fresh_task_id()
    for p in sorted(second.people):
        merged.add_person(p_off + p)
    for t in sorted(second.tasks):
        merged.add_task(t_off + t)
    for p, t in second.edges():
        merged.add_edge(p_off + p, t_off + t)
    return merged


# -- single-shot perturbations -------------------------------------------------


def add_singletons(graph: ProjectGraph, count: int, seed: int = 0) -> ProjectGraph:
    """Hire ``count`` one-task specialists on distinct uniformly-drawn tasks."""
    if count > graph.n_tasks:
        raise ValueError(
            f"cannot add {count} singletons: only {graph.n_tasks} tasks "
            "(at most one specialist per task)"
        )
    out = graph.copy()
    if count == 0:
        return out
    rng = make_rng(seed)
    tasks = rng.choice(np.array(sorted(graph.tasks)), size=count, replace=False)
    for t in tasks:
        p = out.fresh_person_id()
        out.add_person(p)
        out.add_edge(p, int(t))
    return out


def add_duplicates(graph: ProjectGraph, count: int) -> ProjectGraph:
    """Clone the ``count`` busiest people; beyond everyone, wrap and reclone.

    Cloning is deterministic (no randomness to seed): the order is fixed by
    the original degrees.
    """
    out = graph.copy()
    order = degree_order(graph)
    if count > len(order):
        logger.warning(
            "cloning %d people wraps around the %d available; "
            "top people are cloned more than once",
            count,
            len(order),
        )
    for i in range(count):
        out.clone_person(order[i % len(order)])
    return out


# -- checkpointed perturbation series ------------------------------------------


@dataclass
class CheckpointSeries:
    """Graph snapshots after each perturbation batch."""

    graphs: list[ProjectGraph]
    modifications: list[int]
    truncated: bool = False


class _EdgeAdder:
    """Streams uniformly random absent person-task pairs into a graph."""

    def __init__(self, graph: ProjectGraph, rng: np.random.Generator):
        self.graph = graph
        self.rng = rng
        self.people = sorted(graph.people)
        self.tasks = sorted(graph.tasks)

    def saturated(self) -> bool:
        return self.graph.n_edges >= len(self.people) * len(self.tasks)

    def step(self) -> bool:
        if self.saturated():
            return False
        # rejection sampling; falls back to enumeration near saturation
        for _ in range(200):
            p = self.people[int(self.rng.integers(len(self.people)))]
            t = self.tasks[int(self.rng.integers(len(self.tasks)))]
            if not self.graph.has_edge(p, t):
                self.graph.add_edge(p, t)
                return True
        absent = [
            (p, t)
            for p in self.people
            for t in self.tasks
            if not self.graph.has_edge(p, t)
        ]
        p, t = absent[int(self.rng.integers(len(absent)))]
        self.graph.add_edge(p, t)
        return True


class _EdgeRemover:
    """Removes uniformly random existing edges from a graph."""

    def __init__(self, graph: ProjectGraph, rng: np.random.Generator):
        self.graph = graph
        self.rng = rng
        self.edges = list(graph.edges())

    def step(self) -> bool:
        if not self.edges:
            return False
        i = int(self.rng.integers(len(self.edges)))
        p, t = self.edges[i]
        self.edges[i] = self.edges[-1]
        self.edges.pop()
        self.graph.remove_edge(p, t)
        return True


def densify(
    graph: ProjectGraph, batch_size: int, n_batches: int, seed: int = 0
) -> CheckpointSeries:
    """Add ``batch_size`` random absent edges per batch, snapshotting after
    each; truncates with a flag when the graph saturates."""
    return _edge_series(graph, batch_size, n_batches, seed, adding=True)


def sparsify(
    graph: ProjectGraph, batch_size: int, n_batches: int, seed: int = 0
) -> CheckpointSeries:
    """Remove ``batch_size`` random edges per batch, snapshotting after each;
    truncates with a flag when no edges remain."""
    return _edge_series(graph, batch_size, n_batches, seed, adding=False)


def _edge_series(
    graph: ProjectGraph, batch_size: int, n_batches: int, seed: int, adding: bool
) -> CheckpointSeries:
    if batch_size < 1 or n_batches < 1:
        raise ValueError("batch_size and n_batches must be at least 1")
    working = graph.copy()
    rng = make_rng(seed)
    stepper = _EdgeAdder(working, rng) if adding else _EdgeRemover(working, rng)
    series = CheckpointSeries(graphs=[], modifications=[])
    done = 0
    for _ in range(n_batches):
        progressed = 0
        for _ in range(batch_size):
            if not stepper.step():
                series.truncated = True
                break
            progressed += 1
        done += progressed
        if progressed:
            series.graphs.append(working.copy())
            series.modifications.append(done)
        if series.truncated:
            break
    return series


# -- metric sweeps --------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    modifications: int
    mrs_size: int
    mcs_size: int
    robustness: float


@dataclass
class SweepTable:
    """Metric readings along a perturbation, one row per checkpoint."""

    kind: str
    delta: Fraction
    rows: list[SweepRow] = field(default_factory=list)
    truncated: bool = False
    notes: list[str] = field(default_factory=list)


def _measure(graph: ProjectGraph, delta: Fraction) -> tuple[int, int, float] | None:
    try:
        mrs = len(mrs_greedy(graph, delta))
    except InfeasibleError:
        return None
    mcs = len(mcs_greedy(graph, delta))
    value = bus_factor_greedy(graph).value
    return mrs, mcs, value


def _measure_job(args: tuple[ProjectGraph, Fraction]) -> tuple[int, int, float] | None:
    return _measure(*args)


def _checkpoint_graphs(
    graph: ProjectGraph, kind: str, total_steps: int, stride: int, seed: int
) -> tuple[list[tuple[int, ProjectGraph]], bool, list[str]]:
    """Materialize (modification count, snapshot) pairs, baseline included."""
    notes: list[str] = []
    snapshots: list[tuple[int, ProjectGraph]] = [(0, graph.copy())]
    truncated = False

    if kind in ("densify", "sparsify"):
        working = graph.copy()
        rng = make_rng(seed)
        stepper = (
            _EdgeAdder(working, rng) if kind == "densify" else _EdgeRemover(working, rng)
        )
        done = 0
        while done < total_steps:
            if not stepper.step():
                truncated = True
                notes.append(f"no further edges to modify after {done} steps")
                break
            done += 1
            if done % stride == 0 or done == total_steps:
                snapshots.append((done, working.copy()))
        if truncated and done and snapshots[-1][0] != done:
            snapshots.append((done, working.copy()))
    elif kind == "singletons":
        if total_steps > graph.n_tasks:
            raise ValueError(
                f"cannot add {total_steps} singletons: only {graph.n_tasks} tasks"
            )
        rng = make_rng(seed)
        tasks = rng.choice(
            np.array(sorted(graph.tasks)), size=total_steps, replace=False
        )
        working = graph.copy()
        for i, t in enumerate(tasks, start=1):
            p = working.fresh_person_id()
            working.add_person(p)
            working.add_edge(p, int(t))
            if i % stride == 0 or i == total_steps:
                snapshots.append((i, working.copy()))
    elif kind == "duplicates":
        order = degree_order(graph)
        if total_steps > len(order):
            notes.append(
                f"cloning {total_steps} people wraps around the {len(order)} available"
            )
        working = graph.copy()
        for i in range(1, total_steps + 1):
            working.clone_person(order[(i - 1) % len(order)])
            if i % stride == 0 or i == total_steps:
                snapshots.append((i, working.copy()))
    else:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")

    # avoid a duplicate row when total_steps is a multiple of stride
    deduped = []
    seen = set()
    for mods, g in snapshots:
        if mods not in seen:
            seen.add(mods)
            deduped.append((mods, g))
    return deduped, truncated, notes


def run_sweep(
    graph: ProjectGraph,
    kind: str,
    total_steps: int,
    stride: int = 100,
    delta: DeltaLike = Fraction(1, 2),
    seed: int = 0,
    workers: int = 1,
) -> SweepTable:
    """Perturb ``graph`` step by step and measure MRS/MCS/robustness at every
    ``stride`` modifications (plus the unmodified baseline).

    Stops early, flagging truncation, when the perturbation runs out of
    material or the coverage target becomes unreachable; rows are identical
    for any ``workers`` count.
    """
    d = normalize_delta(delta)
    if total_steps < 1 or stride < 1:
        raise ValueError("total_steps and stride must be at least 1")
    snapshots, truncated, notes = _checkpoint_graphs(
        graph, kind, total_steps, stride, seed
    )
    table = SweepTable(kind=kind, delta=d, truncated=truncated, notes=notes)

    jobs = [(g, d) for _, g in snapshots]
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_measure_job, jobs, chunksize=4))
    else:
        results = [_measure(g, d) for g, d in jobs]

    for (mods, _), result in zip(snapshots, results):
        if result is None:
            table.truncated = True
            table.notes.append(
                f"coverage target unreachable from {mods} modifications on"
            )
            break
        mrs, mcs, value = result
        table.rows.append(
            SweepRow(modifications=mods, mrs_size=mrs, mcs_size=mcs, robustness=value)
        )
    return table
