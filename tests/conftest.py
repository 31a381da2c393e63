import heapq
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from busfactor.coverage import _coverage_target, normalize_delta
from busfactor.errors import DegenerateError, InfeasibleError
from busfactor.generators import SWEEP_KINDS, SweepRow, SweepTable, make_rng
from busfactor.graph import ProjectGraph
from busfactor.optimize import (
    AnnealingConfig,
    AnnealingTrace,
    NullModelConfig,
    TraceRow,
)
from busfactor.robustness import (
    DecayCurve,
    _area_numerator,
    _normalization,
    _validate_sequence,
    bus_factor_greedy,
    decay_curve,
    greedy_order,
)


@pytest.fixture
def four_edge_graph() -> ProjectGraph:
    """p1 on {t1,t2}, p2 on {t2,t3}."""
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 2), (2, 3)])


@pytest.fixture
def k22() -> ProjectGraph:
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 1), (2, 2)])


@pytest.fixture
def star_graph() -> ProjectGraph:
    """One person covering five tasks."""
    return ProjectGraph(edges=[(1, t) for t in range(1, 6)])


@pytest.fixture
def two_stars() -> ProjectGraph:
    """p1 on {t1,t2}; p2 on {t3,t4}; disconnected."""
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 3), (2, 4)])


def random_bipartite(
    rng: np.random.Generator,
    max_people: int,
    max_tasks: int,
    edge_prob: float | None = None,
    allow_isolated: bool = True,
) -> ProjectGraph:
    """Random test graph; sizes uniform up to the caps."""
    n_p = int(rng.integers(1, max_people + 1))
    n_t = int(rng.integers(1, max_tasks + 1))
    if edge_prob is None:
        edge_prob = float(rng.uniform(0.05, 0.6))
    graph = ProjectGraph(people=range(n_p), tasks=range(n_t))
    for p in range(n_p):
        for t in range(n_t):
            if rng.random() < edge_prob:
                graph.add_edge(p, t)
    if not allow_isolated:
        for p in range(n_p):
            if graph.degree_of_person(p) == 0:
                graph.add_edge(p, int(rng.integers(n_t)))
        for t in range(n_t):
            if graph.degree_of_task(t) == 0:
                graph.add_edge(int(rng.integers(n_p)), t)
    return graph


def degree_maps(graph: ProjectGraph) -> tuple[dict[int, int], dict[int, int]]:
    """Each person's degree and each task's degree."""
    return (
        {p: graph.degree_of_person(p) for p in graph.people},
        {t: graph.degree_of_task(t) for t in graph.tasks},
    )


@st.composite
def sparse_graphs(draw) -> ProjectGraph:
    """Sparse non-contiguous ids declared in any order, isolated nodes on
    both sides allowed."""
    people = draw(st.lists(st.integers(0, 40), unique=True, max_size=9))
    tasks = draw(st.lists(st.integers(0, 40), unique=True, max_size=9))
    pairs = st.tuples(st.sampled_from(people), st.sampled_from(tasks))
    edges = draw(st.sets(pairs, max_size=30)) if people and tasks else set()
    return ProjectGraph(people=people, tasks=tasks, edges=sorted(edges))


# -- brute-force oracles, kept independent of the library's algorithms --------


def coverage_bruteforce(graph: ProjectGraph, team) -> set[int]:
    covered = set()
    for p in team:
        covered |= set(graph.tasks_of(p))
    return covered


def mrs_bruteforce(graph: ProjectGraph, target) -> set[int] | None:
    """Largest removable set keeping coverage >= target, else None."""
    people = sorted(graph.people)
    for size in range(len(people), -1, -1):
        candidates = []
        for removed in itertools.combinations(people, size):
            kept = [p for p in people if p not in removed]
            if len(coverage_bruteforce(graph, kept)) >= target:
                candidates.append(removed)
        if candidates:
            return set(min(candidates))
    return None


def mcs_bruteforce(graph: ProjectGraph, target) -> set[int]:
    """Smallest set whose removal drops coverage below target."""
    people = sorted(graph.people)
    for size in range(len(people) + 1):
        for removed in itertools.combinations(people, size):
            kept = [p for p in people if p not in removed]
            if len(coverage_bruteforce(graph, kept)) < target:
                return set(removed)
    raise AssertionError("removing everyone always drops coverage")


def z_worst_bruteforce(graph: ProjectGraph, target) -> int:
    """Largest k such that every size-k removal keeps coverage >= target."""
    people = sorted(graph.people)
    z = -1
    for k in range(len(people) + 1):
        ok = all(
            len(coverage_bruteforce(graph, [p for p in people if p not in removed]))
            >= target
            for removed in itertools.combinations(people, k)
        )
        if not ok:
            break
        z = k
    return z


def remove_people(graph: ProjectGraph, people) -> ProjectGraph:
    """New graph without ``people``; tasks stay as (possibly isolated) nodes."""
    gone = set(people)
    for p in gone:
        graph._require_person(p)
    new = ProjectGraph.__new__(ProjectGraph)
    new._people = {
        p: set(adj) for p, adj in graph._people.items() if p not in gone
    }
    new._tasks = {t: adj - gone for t, adj in graph._tasks.items()}
    new._n_edges = sum(len(adj) for adj in new._people.values())
    return new


def largest_task_component_size(graph: ProjectGraph) -> int:
    """Tasks in the largest connected component that contains a person.

    Degree-0 tasks sit in person-free components and never contribute;
    a graph whose components all lack either a person or a task scores 0.
    """
    visited_p: set[int] = set()
    best = 0
    for start in graph._people:
        if start in visited_p:
            continue
        stack = [start]
        visited_p.add(start)
        comp_tasks: set[int] = set()
        while stack:
            p = stack.pop()
            for t in graph._people[p]:
                if t not in comp_tasks:
                    comp_tasks.add(t)
                    for q in graph._tasks[t]:
                        if q not in visited_p:
                            visited_p.add(q)
                            stack.append(q)
        if len(comp_tasks) > best:
            best = len(comp_tasks)
    return best


def decay_curve_naive(graph: ProjectGraph, order) -> DecayCurve:
    """Reference decay curve by full recomputation after each removal."""
    order = _validate_sequence(graph, order)
    values = [largest_task_component_size(graph)]
    current = graph
    for p in order:
        current = remove_people(current, [p])
        values.append(largest_task_component_size(current))
    return DecayCurve(tuple(values))


def greedy_order_adaptive_reference(graph: ProjectGraph) -> list[int]:
    """Greedy order re-ranked after every removal: decreasing degree in the
    remaining graph, ties to the smallest id. O(P^2) graph copies."""
    remaining = graph.copy()
    order: list[int] = []
    while remaining.n_people:
        nxt = min(
            remaining.people,
            key=lambda p: (-remaining.degree_of_person(p), p),
        )
        order.append(nxt)
        remaining = remove_people(remaining, [nxt])
    return order


# -- reference annealer: mutates a ProjectGraph, rescores it with decay_curve ----


def _has_feasible_move(graph: ProjectGraph) -> bool:
    n_tasks = graph.n_tasks
    for p in graph.people:
        if graph.degree_of_person(p) >= n_tasks:
            continue
        if any(graph.degree_of_task(t) >= 2 for t in graph.tasks_of(p)):
            return True
    return False


def anneal_reference(
    graph: ProjectGraph, config: AnnealingConfig
) -> tuple[ProjectGraph, AnnealingTrace]:
    """Rewire assignments to raise greedy robustness, workloads untouched.

    Proposal: take a random edge (p, t) and a random task the person does
    not already cover, and move the edge there. Moves off a task's last
    contributor are rejected before touching the graph, so every initially
    covered task stays covered; person degrees are invariant, which also
    pins the greedy removal order once and for all.
    """
    config.validate()
    if graph.n_edges < 1:
        raise DegenerateError("annealing needs at least one edge")
    if graph.n_tasks < 2:
        raise DegenerateError("annealing needs at least two tasks")
    if not _has_feasible_move(graph):
        return graph.copy(), AnnealingTrace()

    rng = make_rng(config.seed)
    working = graph.copy()
    order = greedy_order(working)  # person degrees never change below
    denom = _normalization(working.n_people, working.n_tasks)

    def objective_area(g: ProjectGraph) -> int:
        return _area_numerator(decay_curve(g, order))

    edges = list(working.edges())
    tasks = sorted(working.tasks)
    current_area = objective_area(working)
    best_area = current_area
    best_graph = working.copy()
    trace = AnnealingTrace()

    temperature = config.initial_temperature
    step = 0
    while temperature >= config.min_temperature:
        for _ in range(config.steps_per_temperature):
            step += 1
            i = int(rng.integers(len(edges)))
            p, t = edges[i]
            if working.degree_of_task(t) < 2:
                continue  # would abandon t; reject before mutating
            t_new = _draw_new_task(rng, working, p, tasks)
            if t_new is None:
                continue
            working.remove_edge(p, t)
            working.add_edge(p, t_new)
            candidate_area = objective_area(working)
            delta = (candidate_area - current_area) / denom
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current_area = candidate_area
                edges[i] = (p, t_new)
                if candidate_area > best_area:
                    best_area = candidate_area
                    best_graph = working.copy()
                trace.rows.append(
                    TraceRow(
                        step=step,
                        temperature=temperature,
                        objective=best_area / denom,
                    )
                )
            else:
                working.remove_edge(p, t_new)
                working.add_edge(p, t)
        temperature *= config.cooling_rate
    return best_graph, trace


def _draw_new_task(rng, graph: ProjectGraph, person: int, tasks: list[int]):
    """Uniform task outside the person's neighborhood, or None if covered."""
    degree = graph.degree_of_person(person)
    if degree >= len(tasks):
        return None
    while True:
        t = tasks[int(rng.integers(len(tasks)))]
        if not graph.has_edge(person, t):
            return t


# -- reference null sampler: swaps (person, task) tuples through a set ----------


class SwapResult(NamedTuple):
    """The reference's result: the rewired graph itself."""

    graph: ProjectGraph
    attempts: int
    swaps: int


def null_sample_reference(
    graph: ProjectGraph, config: NullModelConfig, sample_index: int = 0
) -> SwapResult:
    """Degree-preserving random rewiring, deterministic per (seed, index).

    Attempts ``swaps_per_edge * n_edges`` double-edge swaps: two edges
    (p1,t1), (p2,t2) are crossed to (p1,t2), (p2,t1) when all four nodes are
    distinct and neither crossed edge exists.
    """
    config.validate()
    if graph.n_edges < 2:
        return SwapResult(graph=graph.copy(), attempts=0, swaps=0)
    rng = make_rng(config.seed, sample_index)
    edges = list(graph.edges())
    edge_set = set(edges)
    m = len(edges)
    attempts = config.swaps_per_edge * m
    draws = rng.integers(0, m, size=2 * attempts).tolist()
    swaps = 0
    for k in range(attempts):
        i, j = draws[2 * k], draws[2 * k + 1]
        if i == j:
            continue
        p1, t1 = edges[i]
        p2, t2 = edges[j]
        if p1 == p2 or t1 == t2:
            continue
        new_a, new_b = (p1, t2), (p2, t1)
        if new_a in edge_set or new_b in edge_set:
            continue
        edge_set.remove((p1, t1))
        edge_set.remove((p2, t2))
        edge_set.add(new_a)
        edge_set.add(new_b)
        edges[i] = new_a
        edges[j] = new_b
        swaps += 1
    sampled = ProjectGraph(
        people=graph.people, tasks=graph.tasks, edges=edges
    )
    return SwapResult(graph=sampled, attempts=attempts, swaps=swaps)


# -- reference greedies: set-based, over ProjectGraph accessors -----------------


def mrs_greedy_reference(graph: ProjectGraph, delta) -> set[int]:
    """Lazy greedy keep-set grown against the rational target; everyone
    else is redundant."""
    target = _coverage_target(graph, delta)
    if graph.covered_task_count() < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable: "
            f"only {graph.covered_task_count()} of {graph.n_tasks} tasks covered"
        )
    covered: set[int] = set()
    keep: set[int] = set()
    heap = [(-graph.degree_of_person(p), p) for p in graph.people]
    heapq.heapify(heap)
    while len(covered) < target:
        neg_gain, p = heapq.heappop(heap)
        gain = len(graph.tasks_of(p) - covered)
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, p))
            continue
        keep.add(p)
        covered |= graph.tasks_of(p)
    return set(graph.people) - keep


def mcs_greedy_reference(graph: ProjectGraph, delta) -> set[int]:
    """People removed in decreasing degree order, ties to the smallest id,
    until coverage drops below the rational target."""
    target = _coverage_target(graph, delta)
    degrees, live = degree_maps(graph)
    order = sorted(degrees, key=lambda p: (-degrees[p], p))
    covered = graph.covered_task_count()
    removed: set[int] = set()
    for p in order:
        if covered < target:
            break
        for t in graph.tasks_of(p):
            live[t] -= 1
            if live[t] == 0:
                covered -= 1
        removed.add(p)
    return removed


# -- reference sweep: perturbs graph copies, measures every held snapshot --------


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


def _measure(graph: ProjectGraph, delta: Fraction) -> tuple[int, int, float] | None:
    try:
        mrs = len(mrs_greedy_reference(graph, delta))
    except InfeasibleError:
        return None
    mcs = len(mcs_greedy_reference(graph, delta))
    value = bus_factor_greedy(graph).value
    return mrs, mcs, value


def checkpoint_graphs_reference(
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
        order = greedy_order(graph)
        if total_steps > len(order):
            notes.append(
                f"cloning {total_steps} people wraps around the {len(order)} available"
            )
        working = graph.copy()
        for i in range(1, total_steps + 1):
            original = order[(i - 1) % len(order)]
            clone = working.fresh_person_id()
            working.add_person(clone)
            for t in working.tasks_of(original):
                working.add_edge(clone, t)
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


def run_sweep_reference(
    graph: ProjectGraph,
    kind: str,
    total_steps: int,
    stride: int = 100,
    delta=Fraction(1, 2),
    seed: int = 0,
) -> SweepTable:
    """Perturb ``graph`` step by step and measure MRS/MCS/robustness at every
    ``stride`` modifications (plus the unmodified baseline).

    Stops early, flagging truncation, when the perturbation runs out of
    material or the coverage target becomes unreachable.
    """
    d = normalize_delta(delta)
    if total_steps < 1 or stride < 1:
        raise ValueError("total_steps and stride must be at least 1")
    snapshots, truncated, notes = checkpoint_graphs_reference(
        graph, kind, total_steps, stride, seed
    )
    table = SweepTable(kind=kind, delta=d, truncated=truncated, notes=notes)
    for mods, g in snapshots:
        result = _measure(g, d)
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
