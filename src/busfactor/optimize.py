"""Null-model testing and workload-preserving rewiring.

The null model scrambles who does what while keeping every person's and
every task's degree fixed (double-edge swaps), giving an ensemble against
which the observed robustness is scored with a lower-tail permutation
test. The annealer then searches for a better assignment outright: it
moves single edges between tasks, never changing anyone's workload and
never leaving a task uncovered, accepting downhill moves with the usual
temperature-controlled probability.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .errors import DegenerateError
from .generators import ScalarDraws, make_rng
from .graph import (
    GraphLike,
    PersonId,
    ProjectGraph,
    TaskId,
    as_frozen,
    degree_slots,
    require_nondegenerate,
    thaw,
)
from .robustness import (
    DecayCurve,
    InsertionState,
    bus_factor_greedy,
    insertion_area,
    insertion_maxima,
    _normalization,
)

_DRAW_PAIRS = 1 << 13  # swap attempts per draw chunk; bounds null_sample's memory
_SEGMENTS = 4  # saved kernel states per annealing chain


@dataclass(frozen=True)
class NullModelConfig:
    n_samples: int
    swaps_per_edge: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.swaps_per_edge < 1:
            raise ValueError("swaps_per_edge must be at least 1")


@dataclass(frozen=True)
class SwapResult:
    """One degree-preserving rewiring in dense form: ``held[k]`` is the set
    of indices into ``tasks`` covered by ``people[k]``. ``swaps == 0`` means
    the graph was returned unchanged (too few edges, or rigid like a
    complete graph). ``graph`` is built from ``held`` on first access."""

    people: tuple[PersonId, ...]
    tasks: tuple[TaskId, ...]
    held: tuple[set[int], ...]
    attempts: int
    swaps: int

    @cached_property
    def graph(self) -> ProjectGraph:
        return thaw(self.people, self.tasks, self.held)


def null_sample(
    graph: GraphLike, config: NullModelConfig, sample_index: int = 0
) -> SwapResult:
    """Degree-preserving random rewiring, deterministic per (seed, index).

    Attempts ``swaps_per_edge * n_edges`` double-edge swaps: two edges
    (p1,t1), (p2,t2) are crossed to (p1,t2), (p2,t1) when all four nodes are
    distinct and neither crossed edge exists.

    The swaps run on the dense view of ``graph``, which callers that draw
    many samples pass in its place: edge ``i``, in the canonical (person,
    task) order the draws index into, keeps its person's task set
    ``owned[i]`` (one of ``held``) for good, as a swap exchanges tasks
    only, and holds task index ``task[i]``. Since ``task[i]`` is always in
    ``owned[i]``, the crossed-edge check
    ``task[j] in owned[i]`` also rejects ``i == j``, a shared person and a
    shared task. No graph is built unless ``.graph`` is read.

    The ``2 * attempts`` edge draws are streamed in chunks of at most
    ``2 * _DRAW_PAIRS``; concatenated, the chunks equal one
    ``rng.integers(0, m, size=2 * attempts)`` draw.
    """
    config.validate()
    people, tasks, adjacency = as_frozen(graph)
    held = tuple(set(own) for own in adjacency)
    owned = [own for own in held for _ in own]
    task = [t for own in adjacency for t in own]
    m = len(task)
    if m < 2:
        return SwapResult(people, tasks, held, attempts=0, swaps=0)
    attempts = config.swaps_per_edge * m
    rng = make_rng(config.seed, sample_index)
    swaps = 0
    for start in range(0, attempts, _DRAW_PAIRS):
        pairs = min(_DRAW_PAIRS, attempts - start)
        draws = iter(rng.integers(0, m, size=2 * pairs).tolist())
        for i, j in zip(draws, draws):
            t1, t2 = task[i], task[j]
            own1, own2 = owned[i], owned[j]
            if t2 in own1 or t1 in own2:
                continue
            own1.remove(t1)
            own1.add(t2)
            own2.remove(t2)
            own2.add(t1)
            task[i], task[j] = t2, t1
            swaps += 1
    return SwapResult(people, tasks, held, attempts=attempts, swaps=swaps)


@dataclass(frozen=True)
class PermutationTestResult:
    observed: float
    null_values: tuple[float, ...]
    p_value: float

    def to_dict(self, include_null_values: bool = False) -> dict:
        nulls = self.null_values
        mean = sum(nulls) / len(nulls)
        out = {
            "observed": self.observed,
            "p_value": self.p_value,
            "n_samples": len(nulls),
            "null_mean": mean,
            "null_std": (sum((v - mean) ** 2 for v in nulls) / len(nulls)) ** 0.5,
            "null_min": min(nulls),
            "null_max": max(nulls),
        }
        if include_null_values:
            out["null_values"] = list(nulls)
        return out


def _null_objectives(
    graph: GraphLike, config: NullModelConfig, start: int, stop: int
) -> list[float]:
    """Greedy robustness of the null samples ``start .. stop - 1``.

    A sample keeps every person's degree, so the greedy order of ``graph``
    is every sample's greedy order: it is worked out once, with the dense
    view every sample is drawn from, and each sample is scored by one
    :func:`insertion_area` pass over its ``held`` sets, giving the same
    integer area and normalization as :func:`bus_factor_greedy`.
    """
    require_nondegenerate(graph)
    frozen = as_frozen(graph)
    reinsertion = degree_slots(frozen.adjacency)[::-1]
    n_tasks = frozen.n_tasks
    denom = _normalization(frozen.n_people, n_tasks)
    values = []
    for i in range(start, stop):
        held = null_sample(frozen, config, i).held
        values.append(insertion_area(n_tasks, [held[k] for k in reinsertion]) / denom)
        del held  # free this sample's sets before the next one is drawn
    return values


def _map_jobs(fn, jobs: list[tuple], workers: int) -> Iterator:
    """``fn(*job)`` for each job, yielded in order as the caller consumes
    them, so that it need hold no result it has moved past; at most one
    process per job."""
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*jobs))
    else:
        for job in jobs:
            yield fn(*job)


def null_objectives(
    graph: GraphLike, config: NullModelConfig, indices: range, workers: int = 1
) -> list[float]:
    """Greedy robustness of null samples at the given indices, in order.

    Worker payloads are chunked so the base graph's view crosses process
    boundaries once per chunk; results do not depend on the worker count.
    """
    graph = as_frozen(graph)
    chunk = max(1, math.ceil(len(indices) / (workers * 8)))
    jobs = [
        (graph, config, s, min(s + chunk, indices.stop))
        for s in range(indices.start, indices.stop, chunk)
    ]
    return [v for part in _map_jobs(_null_objectives, jobs, workers) for v in part]


def permutation_test(
    graph: GraphLike, config: NullModelConfig, workers: int = 1
) -> PermutationTestResult:
    """Lower-tail permutation test of the observed greedy robustness.

    p = (1 + #{null <= observed}) / (n_samples + 1); the add-one keeps p in
    (0, 1] and counts the observed value as its own null draw.
    """
    config.validate()
    graph = as_frozen(graph)
    observed = bus_factor_greedy(graph).value
    null_values = null_objectives(graph, config, range(config.n_samples), workers)
    below = sum(1 for v in null_values if v <= observed)
    p_value = (1 + below) / (config.n_samples + 1)
    return PermutationTestResult(
        observed=observed, null_values=tuple(null_values), p_value=p_value
    )


def _calibration_trial(
    graph: GraphLike, config: NullModelConfig, trial: int
) -> float:
    n = config.n_samples
    base = trial * (n + 1)
    observed, *nulls = _null_objectives(graph, config, base, base + n + 1)
    below = sum(1 for v in nulls if v <= observed)
    return (1 + below) / (n + 1)


def calibrate_pvalues(
    graph: GraphLike, config: NullModelConfig, trials: int, workers: int = 1
) -> list[float]:
    """p-values with the observed value itself drawn from the null.

    Under this self-calibration the p-values are uniform on the grid
    {1/(n+1), ..., 1}; each trial consumes its own block of sample indices
    so trials are independent.
    """
    config.validate()
    if trials < 1:
        raise ValueError("trials must be at least 1")
    graph = as_frozen(graph)
    jobs = [(graph, config, j) for j in range(trials)]
    return list(_map_jobs(_calibration_trial, jobs, workers))


# -- simulated annealing ---------------------------------------------------------


@dataclass(frozen=True)
class AnnealingConfig:
    initial_temperature: float = 0.05
    cooling_rate: float = 0.95
    steps_per_temperature: int = 200
    min_temperature: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        # also rejects nan, and inf, whose cooling loop would never end
        if not (
            0 < self.initial_temperature < math.inf
            and 0 < self.min_temperature < math.inf
        ):
            raise ValueError("temperatures must be positive and finite")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.steps_per_temperature < 1:
            raise ValueError("steps_per_temperature must be at least 1")


class TraceRow(NamedTuple):
    step: int
    temperature: float
    objective: float  # best objective seen up to this accepted step


@dataclass
class AnnealingTrace:
    rows: list[TraceRow] = field(default_factory=list)


def anneal(
    graph: GraphLike, config: AnnealingConfig
) -> tuple[ProjectGraph, AnnealingTrace]:
    """Rewire assignments to raise greedy robustness, workloads untouched.

    Proposal: take a random edge (p, t) and a random task the person does
    not already cover, and move the edge there. Moves off a task's last
    contributor are rejected before drawing a target, so every initially
    covered task stays covered; person degrees are invariant, which also
    pins the greedy removal order once and for all.

    The chain runs on dense indices: people sit at fixed slots in
    reinsertion order (the greedy order reversed), scored by the
    :func:`insertion_maxima` kernel, and a graph is built once, from the
    best edge list, at the end. The slots fall into ``_SEGMENTS`` segments
    of about equal edge shares, fixed as degrees are, and the kernel state
    at each segment start is kept for the current assignment. A move at
    slot ``k`` that joins the same components as before (as it always does
    for a person with one task) changes no later maximum, and the area
    stands. Insertions only merge components, so when the segment's saved
    state already shows this, the move is settled with no kernel work.
    Otherwise it resumes from a copy of that state, inserts the slots
    before ``k`` and asks again. Failing that, the kernel runs on, copying
    its state at each later start, until the partition rejoins the current
    one at a start: from there every maximum is the current one, so the
    area moves by twice the gap between the two sums of maxima. An
    accepted move takes the copies in place of the saved states before
    that start and shifts the sums of those from it on; without a rejoin
    it takes the copies and the area of a full pass.
    """
    config.validate()
    if graph.n_edges < 1:
        raise DegenerateError("annealing needs at least one edge")
    if graph.n_tasks < 2:
        raise DegenerateError("annealing needs at least two tasks")

    people, tasks, adjacency = frozen = as_frozen(graph)
    n_tasks = len(tasks)
    reinsertion = degree_slots(adjacency)[::-1]
    slot = {i: k for k, i in enumerate(reinsertion)}
    held = [set(adjacency[i]) for i in reinsertion]
    # (slot, task index) in the canonical (person, task) order, which is
    # the order the edge draws index into
    edges = [(slot[i], t) for i, own in enumerate(adjacency) for t in own]
    task_degree = frozen.task_degrees()
    if not any(
        len(own) < n_tasks and any(task_degree[t] >= 2 for t in own)
        for own in held
    ):
        return thaw(*frozen), AnnealingTrace()

    starts = _segment_starts(held)
    segment = [bisect_right(starts, k) - 1 for k in range(len(held))]
    state = InsertionState.empty(n_tasks)
    saved = [state.copy(), *_insert_from(state, held, 0, starts[1:])[0]]  # one per start

    rng = ScalarDraws(config.seed)
    denom = _normalization(len(people), n_tasks)
    current_area = best_area = state.area()
    objective = best_area / denom  # every row shares it until the next best
    best_edges = list(edges)
    trace = AnnealingTrace()

    temperature = config.initial_temperature
    step = 0
    while temperature >= config.min_temperature:
        for _ in range(config.steps_per_temperature):
            step += 1
            i = rng.below(len(edges))
            k, t = edges[i]
            if task_degree[t] < 2:
                continue  # would abandon t
            own = held[k]
            if len(own) >= n_tasks:
                continue  # covers every task already
            t_new = rng.below(n_tasks)
            while t_new in own:
                t_new = rng.below(n_tasks)
            own.remove(t)
            own.add(t_new)
            j = segment[k]
            later, shift = [], 0
            if not _joins_same_components(saved[j], own, t, t_new):
                state = saved[j].copy()
                insertion_maxima(state, held[starts[j]:k])
                if not _joins_same_components(state, own, t, t_new):
                    later, shift = _insert_from(
                        state, held, k, starts[j + 1:], (saved[j + 1:], t, t_new)
                    )
            candidate_area = state.area() if shift is None else current_area + 2 * shift
            delta = (candidate_area - current_area) / denom
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current_area = candidate_area
                kept = j + 1 + len(later)
                saved[j + 1:kept] = later
                if shift:
                    for kept_state in saved[kept:]:
                        kept_state.total += shift
                edges[i] = (k, t_new)
                task_degree[t] -= 1
                task_degree[t_new] += 1
                if candidate_area > best_area:
                    best_area = candidate_area
                    best_edges = list(edges)
                    objective = best_area / denom
                trace.rows.append(TraceRow(step, temperature, objective))
            else:
                own.remove(t_new)
                own.add(t)
        temperature *= config.cooling_rate
    edges = ((people[reinsertion[k]], tasks[t]) for k, t in best_edges)
    return ProjectGraph(people=people, tasks=tasks, edges=edges), trace


def _segment_starts(held: list[set[int]]) -> list[int]:
    """First slot of each of the ``_SEGMENTS`` segments: segment ``j``
    starts at the first slot with ``j / _SEGMENTS`` of the edges before it.
    A person holding more than a share leaves the segments after theirs
    empty, starting where the next one does."""
    reached = list(accumulate((len(own) * _SEGMENTS for own in held), initial=0))
    return [bisect_left(reached, j * reached[-1] // _SEGMENTS) for j in range(_SEGMENTS)]


def _insert_from(
    state: InsertionState,
    held: list[set[int]],
    k: int,
    starts: list[int],
    rejoin: tuple[list[InsertionState], int, int] | None = None,
) -> tuple[list[InsertionState], int | None]:
    """Insert ``held[k:]`` into ``state``, copying it at each of ``starts``
    (ascending, none before ``k``). Returns the copies and ``None``.

    ``rejoin`` is ``(current, t, t_new)`` when ``held[k]`` holds ``t_new``
    in place of ``t``, with ``current[n]`` the kernel state at
    ``starts[n]`` without that move. The insertion then stops at the first
    start where ``t`` and ``t_new`` share a component in both states: for
    a person with other tasks the two partitions are then equal, so every
    later maximum is too. It returns the copies made before that start and
    how far ``state.total`` runs ahead of ``current``'s there."""
    states = []
    for n, start in enumerate(starts):
        insertion_maxima(state, held[k:start])
        if rejoin is not None:
            current, t, t_new = rejoin
            root, now = state.root, current[n].root
            if root(t) == root(t_new) and now(t) == now(t_new):
                return states, state.total - current[n].total
        states.append(state.copy())
        k = start
    insertion_maxima(state, held[k:])
    return states, None


def _joins_same_components(
    state: InsertionState, own: set[int], t: int, t_new: int
) -> bool:
    """Whether inserting ``own``, which holds ``t_new`` in place of ``t``,
    into ``state`` merges the same components as inserting it with ``t``:
    true when ``t`` and ``t_new`` share a component, or both share one
    with the person's other tasks. The partition after the insertion, and
    so every later maximum, is then the same.

    A person with no other task joins nothing, and the maximum after
    their insertion is the same too: ``state.best``, or 1 if that is 0,
    since every component of two or more tasks was formed by an earlier
    insertion and is at most ``best``."""
    if len(own) == 1:
        return True
    root = state.root
    rt, rn = root(t), root(t_new)
    if rt == rn:
        return True
    others = {root(u) for u in own if u != t_new}
    return rt in others and rn in others


def _restart(graph: GraphLike, config: AnnealingConfig):
    best, trace = anneal(graph, config)
    return bus_factor_greedy(best).value, best, trace


def anneal_restarts(
    graph: GraphLike, config: AnnealingConfig, restarts: int, workers: int = 1
) -> tuple[ProjectGraph, AnnealingTrace]:
    """The best of ``restarts`` independent :func:`anneal` chains, seeded
    ``config.seed + r``: the highest greedy robustness wins, ties to the
    smallest seed. The result does not depend on ``workers``."""
    config.validate()
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    graph = as_frozen(graph)
    jobs = [(graph, replace(config, seed=config.seed + r)) for r in range(restarts)]
    # max keeps a running best over the lazy results, the first of ties,
    # so one finished chain is held besides the best, however many run
    results = _map_jobs(_restart, jobs, workers)
    _, best, trace = max(results, key=lambda result: result[0])
    return best, trace


@dataclass(frozen=True)
class PairedDecay:
    """Greedy decay curves of a graph and a rewired counterpart."""

    original: DecayCurve
    optimized: DecayCurve

    def rows(self):
        for step, (a, b) in enumerate(zip(self.original.values, self.optimized.values)):
            yield step, a, b


def compare_decay(original: GraphLike, optimized: GraphLike) -> PairedDecay:
    """Pair the two greedy decay curves for side-by-side export."""
    if (original.n_people, original.n_tasks) != (optimized.n_people, optimized.n_tasks):
        raise ValueError("graphs must have matching people and task counts")
    return PairedDecay(
        original=bus_factor_greedy(original).curve,
        optimized=bus_factor_greedy(optimized).curve,
    )
