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
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, islice
from typing import NamedTuple

from .errors import DegenerateError
from .generators import ScalarDraws, make_rng
from .graph import (
    FrozenGraph,
    PersonId,
    TaskId,
    degree_slots,
    require_nondegenerate,
)
from .robustness import (
    InsertionState,
    bus_factor_greedy,
    insertion_area,
    insertion_maxima,
    normalization,
)

_DRAW_PAIRS = 1 << 10  # swap attempts per draw chunk; bounds null_sample's memory
_SEGMENTS = 4  # saved kernel states per annealing chain


def _at_least_one(**counts: int) -> None:
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class NullModelConfig:
    n_samples: int
    swaps_per_edge: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        _at_least_one(n_samples=self.n_samples, swaps_per_edge=self.swaps_per_edge)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SwapResult:
    """One degree-preserving rewiring in dense form: ``held[k]`` is the set
    of indices into ``tasks`` covered by ``people[k]``. ``swaps == 0`` means
    the graph was returned unchanged (too few edges, or rigid like a
    complete graph)."""

    people: tuple[PersonId, ...]
    tasks: tuple[TaskId, ...]
    held: tuple[set[int], ...]
    attempts: int
    swaps: int


def null_sample(
    graph: FrozenGraph, config: NullModelConfig, sample_index: int = 0
) -> SwapResult:
    """Degree-preserving random rewiring, deterministic per (seed, index).

    Attempts ``swaps_per_edge * n_edges`` double-edge swaps: two edges
    (p1,t1), (p2,t2) are crossed to (p1,t2), (p2,t1) when all four nodes are
    distinct and neither crossed edge exists.

    The swaps run on the dense view: edge ``i``, in the canonical (person,
    task) order the draws index into, keeps its person's task set
    ``owned[i]`` (one of ``held``) for good, as a swap exchanges tasks
    only, and holds task index ``task[i]``. Since ``task[i]`` is always in
    ``owned[i]``, the crossed-edge check
    ``task[j] in owned[i]`` also rejects ``i == j``, a shared person and a
    shared task. No graph is built.

    The ``2 * attempts`` edge draws are streamed in chunks of at most
    ``2 * _DRAW_PAIRS``; concatenated, the chunks equal one
    ``rng.integers(0, m, size=2 * attempts)`` draw.
    """
    people, tasks, adjacency = graph
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
        draws = iter(rng.integers(0, m, size=2 * pairs).data)
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
    graph: FrozenGraph, config: NullModelConfig, start: int, stop: int
) -> list[float]:
    """Greedy robustness of the null samples ``start .. stop - 1``.

    A sample keeps every person's degree, so the greedy order of ``graph``
    is every sample's greedy order: it is worked out once, with the dense
    view every sample is drawn from, and each sample is scored by one
    :func:`insertion_area` pass over its ``held`` sets, giving the same
    integer area and normalization as :func:`bus_factor_greedy`.
    """
    require_nondegenerate(graph)
    reinsertion = degree_slots(graph.adjacency)[::-1]
    n_tasks = graph.n_tasks
    denom = normalization(graph.n_people, n_tasks)
    values = []
    for i in range(start, stop):
        held = null_sample(graph, config, i).held
        values.append(insertion_area(n_tasks, [held[k] for k in reinsertion]) / denom)
        del held  # free this sample's sets before the next one is drawn
    return values


def _map_jobs(fn, jobs: Iterable[tuple], workers: int) -> Iterator:
    """``fn(*job)`` for each job, yielded in order as the caller consumes
    them, so that it need hold no result it has moved past. ``jobs`` is
    drawn as results are taken, with at most ``2 * workers`` in flight, so
    a lazy iterable is never held in full; at most one process per job."""
    jobs = iter(jobs)
    head = list(islice(jobs, workers))
    workers = min(workers, len(head))
    jobs = chain(head, jobs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for job in jobs:
                pending.append(pool.submit(fn, *job))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    else:
        for job in jobs:
            yield fn(*job)


def _p_value(observed: float, nulls: Sequence[float]) -> float:
    """Lower-tail p = (1 + #{null <= observed}) / (len(nulls) + 1); the add-one
    keeps p in (0, 1] and counts the observed value as its own null draw."""
    return (1 + sum(1 for v in nulls if v <= observed)) / (len(nulls) + 1)


def permutation_test(
    graph: FrozenGraph, config: NullModelConfig, workers: int = 1
) -> PermutationTestResult:
    """Lower-tail permutation test of the observed greedy robustness against
    null samples ``0 .. n_samples - 1``, p from :func:`_p_value`.

    Worker payloads are chunked so the base graph's view crosses process
    boundaries once per chunk; results do not depend on the worker count.
    """
    _at_least_one(workers=workers)
    observed = bus_factor_greedy(graph).value
    n = config.n_samples
    chunk = max(1, math.ceil(n / (workers * 8)))
    jobs = ((graph, config, s, min(s + chunk, n)) for s in range(0, n, chunk))
    null_values = tuple(v for part in _map_jobs(_null_objectives, jobs, workers) for v in part)
    return PermutationTestResult(observed, null_values, _p_value(observed, null_values))


def calibrate_pvalues(
    graph: FrozenGraph, config: NullModelConfig, trials: int, workers: int = 1
) -> list[float]:
    """p-values with the observed value itself drawn from the null.

    Under this self-calibration the p-values are uniform on the grid
    {1/(n+1), ..., 1}. Trial ``j`` takes its own block of sample indices,
    ``j(n+1) .. (j+1)(n+1) - 1``, so trials are independent; the block's
    first sample is the observation and the other ``n`` its nulls.
    """
    _at_least_one(trials=trials, workers=workers)
    block = config.n_samples + 1
    jobs = ((graph, config, j * block, (j + 1) * block) for j in range(trials))
    blocks = _map_jobs(_null_objectives, jobs, workers)
    return [_p_value(observed, nulls) for observed, *nulls in blocks]


# -- simulated annealing ---------------------------------------------------------


@dataclass(frozen=True)
class AnnealingConfig:
    initial_temperature: float = 0.05
    cooling_rate: float = 0.95
    steps_per_temperature: int = 200
    min_temperature: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        # also rejects nan, and inf, whose cooling loop would never end
        if not (
            0 < self.initial_temperature < math.inf
            and 0 < self.min_temperature < math.inf
        ):
            raise ValueError("temperatures must be positive and finite")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")
        _at_least_one(steps_per_temperature=self.steps_per_temperature)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class TraceRow(NamedTuple):
    step: int
    temperature: float
    objective: float  # best objective seen up to this accepted step


@dataclass
class AnnealingTrace:
    rows: list[TraceRow] = field(default_factory=list)


def anneal(
    graph: FrozenGraph, config: AnnealingConfig
) -> tuple[FrozenGraph, AnnealingTrace]:
    """Rewire assignments to raise greedy robustness, workloads untouched.

    Proposal: take a random edge (p, t) and a random task the person does
    not already cover, and move the edge there. Moves off a task's last
    contributor are rejected before drawing a target, so every initially
    covered task stays covered; person degrees are invariant, which also
    pins the greedy removal order once and for all.

    The chain runs on dense indices: people sit at fixed slots in
    reinsertion order (the greedy order reversed), scored by the
    :func:`insertion_maxima` kernel, and the frozen view is built once, from
    the best edge list, at the end. The slots fall into ``_SEGMENTS`` segments
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
    if graph.n_edges < 1:
        raise DegenerateError("annealing needs at least one edge")
    if graph.n_tasks < 2:
        raise DegenerateError("annealing needs at least two tasks")

    people, tasks, adjacency = graph
    n_tasks = len(tasks)
    reinsertion = degree_slots(adjacency)[::-1]
    slot = {i: k for k, i in enumerate(reinsertion)}
    held = [set(adjacency[i]) for i in reinsertion]
    # (slot, task index) in the canonical (person, task) order, which is
    # the order the edge draws index into
    edges = [(slot[i], t) for i, own in enumerate(adjacency) for t in own]
    task_degree = graph.task_degrees()
    if not any(
        len(own) < n_tasks and any(task_degree[t] >= 2 for t in own)
        for own in held
    ):
        return graph, AnnealingTrace()

    starts = _segment_starts(held)
    segment = [bisect_right(starts, k) - 1 for k in range(len(held))]
    state = InsertionState.empty(n_tasks)
    saved = [state.copy(), *_insert_from(state, held, 0, starts[1:])[0]]  # one per start

    rng = ScalarDraws(config.seed)
    denom = normalization(len(people), n_tasks)
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
    runs = iter(best_edges)  # edge i keeps its person: a run of their degree
    adjacency = tuple(tuple(sorted(t for _, t in islice(runs, len(own)))) for own in adjacency)
    return FrozenGraph(people, tasks, adjacency), trace


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


def anneal_restarts(
    graph: FrozenGraph, config: AnnealingConfig, restarts: int, workers: int = 1
) -> tuple[FrozenGraph, AnnealingTrace]:
    """The best of ``restarts`` independent :func:`anneal` chains, seeded
    ``config.seed + r``: the highest greedy robustness wins, ties to the
    smallest seed. The result does not depend on ``workers``."""
    _at_least_one(restarts=restarts, workers=workers)
    jobs = ((graph, replace(config, seed=config.seed + r)) for r in range(restarts))

    def score(chain: tuple[FrozenGraph, AnnealingTrace]) -> float:
        # the last row's best objective is the returned graph's greedy
        # robustness, bit for bit; a chain that accepted no step is rescored
        best, trace = chain
        return trace.rows[-1].objective if trace.rows else bus_factor_greedy(best).value

    # max keeps a running best over the lazy results, the first of ties,
    # so one finished chain is held besides the best, however many run
    return max(_map_jobs(anneal, jobs, workers), key=score)
