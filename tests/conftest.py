import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from busfactor.errors import DegenerateError
from busfactor.generators import make_rng
from busfactor.graph import ProjectGraph
from busfactor.optimize import (
    AnnealingConfig,
    AnnealingTrace,
    NullModelConfig,
    TraceRow,
)
from busfactor.robustness import (
    _area_numerator,
    _normalization,
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
    denom = _normalization(working)

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
