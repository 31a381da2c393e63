import heapq
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

import busfactor
from busfactor.coverage import _coverage_target, normalize_delta
from busfactor.errors import DegenerateError, InfeasibleError, ParseError
from busfactor.generators import (
    SWEEP_KINDS,
    GeneratorConfig,
    SweepRow,
    SweepTable,
    _checkpoints,
    _perturbation,
    _sample_powerlaw_degrees,
    make_rng,
)
from busfactor.graph import FrozenGraph, ProjectGraph, freeze_maps
from busfactor.optimize import (
    AnnealingConfig,
    AnnealingTrace,
    NullModelConfig,
    TraceRow,
)
from busfactor.robustness import (
    bus_factor_greedy,
    decay_curve,
    greedy_order,
    normalization,
)


@pytest.fixture
def four_edge_graph() -> FrozenGraph:
    """p1 on {t1,t2}, p2 on {t2,t3}."""
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 2), (2, 3)]).freeze()


@pytest.fixture
def k22() -> FrozenGraph:
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 1), (2, 2)]).freeze()


@pytest.fixture
def star_graph() -> FrozenGraph:
    """One person covering five tasks."""
    return ProjectGraph(edges=[(1, t) for t in range(1, 6)]).freeze()


@pytest.fixture
def two_stars() -> FrozenGraph:
    """p1 on {t1,t2}; p2 on {t3,t4}; disconnected."""
    return ProjectGraph(edges=[(1, 1), (1, 2), (2, 3), (2, 4)]).freeze()


def random_bipartite(
    rng: np.random.Generator,
    max_people: int,
    max_tasks: int,
    edge_prob: float | None = None,
    allow_isolated: bool = True,
) -> FrozenGraph:
    """Random test graph; sizes uniform up to the caps."""
    n_p = int(rng.integers(1, max_people + 1))
    n_t = int(rng.integers(1, max_tasks + 1))
    if edge_prob is None:
        edge_prob = float(rng.uniform(0.05, 0.6))
    edges = [(p, t) for p in range(n_p) for t in range(n_t) if rng.random() < edge_prob]
    if not allow_isolated:
        linked = {p for p, _ in edges}
        edges += [(p, int(rng.integers(n_t))) for p in range(n_p) if p not in linked]
        linked = {t for _, t in edges}
        edges += [(int(rng.integers(n_p)), t) for t in range(n_t) if t not in linked]
    return ProjectGraph(people=range(n_p), tasks=range(n_t), edges=edges).freeze()


class SetGraph:
    """The oracles' own editable graph, kept apart from the library's:
    ``by_person`` maps each person to their task set and ``by_task`` each
    task to its person set, and the edit methods keep the two in step.
    It equals a ``SetGraph`` or a view with the same people, tasks and
    edges; hand it to the library through :meth:`freeze`."""

    def __init__(self, people=(), tasks=(), edges=()):
        self.by_person: dict[int, set[int]] = {p: set() for p in people}
        self.by_task: dict[int, set[int]] = {t: set() for t in tasks}
        for p, t in edges:
            self.add_edge(p, t)

    @property
    def people(self):
        return self.by_person.keys()

    @property
    def tasks(self):
        return self.by_task.keys()

    @property
    def n_people(self) -> int:
        return len(self.by_person)

    @property
    def n_tasks(self) -> int:
        return len(self.by_task)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.by_person.values()))

    def tasks_of(self, person: int) -> frozenset[int]:
        self._require_person(person)
        return frozenset(self.by_person[person])

    def degree_of_person(self, person: int) -> int:
        self._require_person(person)
        return len(self.by_person[person])

    def degree_of_task(self, task: int) -> int:
        self._require_task(task)
        return len(self.by_task[task])

    def has_edge(self, person: int, task: int) -> bool:
        return task in self.by_person.get(person, ())

    def edges(self):
        """All edges sorted by (person, task)."""
        for p in sorted(self.by_person):
            for t in sorted(self.by_person[p]):
                yield p, t

    def fresh_person_id(self) -> int:
        return max(self.by_person, default=-1) + 1

    def copy(self) -> "SetGraph":
        graph = SetGraph()
        graph.by_person = {p: set(own) for p, own in self.by_person.items()}
        graph.by_task = {t: set(own) for t, own in self.by_task.items()}
        return graph

    def freeze(self):
        return freeze_maps(self.by_person, self.by_task)

    def add_person(self, person: int) -> None:
        if person in self.by_person:
            raise ValueError(f"person {person} already exists")
        self.by_person[person] = set()

    def add_task(self, task: int) -> None:
        if task in self.by_task:
            raise ValueError(f"task {task} already exists")
        self.by_task[task] = set()

    def add_edge(self, person: int, task: int) -> None:
        self._require_person(person)
        self._require_task(task)
        if task in self.by_person[person]:
            raise ValueError(f"duplicate edge ({person}, {task})")
        self.by_person[person].add(task)
        self.by_task[task].add(person)

    def remove_edge(self, person: int, task: int) -> None:
        if not self.has_edge(person, task):
            raise ValueError(f"no edge ({person}, {task}) to remove")
        self.by_person[person].remove(task)
        self.by_task[task].remove(person)

    def _require_person(self, person: int) -> None:
        if person not in self.by_person:
            raise ValueError(f"unknown person {person}")

    def _require_task(self, task: int) -> None:
        if task not in self.by_task:
            raise ValueError(f"unknown task {task}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SetGraph, FrozenGraph)):
            return NotImplemented
        return self.freeze() == thawed(other).freeze()

    def __repr__(self) -> str:
        return f"SetGraph({sorted(self.people)}, {sorted(self.tasks)}, {list(self.edges())})"


def thawed(graph: FrozenGraph | SetGraph) -> SetGraph:
    """The view ``graph`` as a :class:`SetGraph`; one already is returned as
    it is. Every oracle thaws its input on entry."""
    if isinstance(graph, SetGraph):
        return graph
    return held_graph(*graph)


def held_graph(people, tasks, held) -> SetGraph:
    """The graph in which ``people[k]`` does ``tasks[t]`` for each ``t`` in
    ``held[k]``."""
    edges = ((people[k], tasks[t]) for k, own in enumerate(held) for t in own)
    return SetGraph(people, tasks, edges)


def swapped(result) -> SetGraph:
    """The graph of a ``null_sample`` result, thawed from its ``held`` sets."""
    return held_graph(result.people, result.tasks, result.held)


def covered_task_count(graph) -> int:
    """Number of tasks with at least one contributor."""
    graph = thawed(graph)
    return sum(1 for t in graph.tasks if graph.degree_of_task(t))


def degree_maps(graph) -> tuple[dict[int, int], dict[int, int]]:
    """Each person's degree and each task's degree."""
    graph = thawed(graph)
    return (
        {p: graph.degree_of_person(p) for p in graph.people},
        {t: graph.degree_of_task(t) for t in graph.tasks},
    )


@st.composite
def sparse_graph_parts(draw) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The declared people, tasks and edges of a graph: sparse
    non-contiguous ids declared in any order, isolated nodes on both sides
    allowed."""
    people = draw(st.lists(st.integers(0, 40), unique=True, max_size=9))
    tasks = draw(st.lists(st.integers(0, 40), unique=True, max_size=9))
    pairs = st.tuples(st.sampled_from(people), st.sampled_from(tasks))
    edges = draw(st.sets(pairs, max_size=30)) if people and tasks else set()
    return people, tasks, sorted(edges)


def sparse_graphs():
    """The views of :func:`sparse_graph_parts` graphs."""
    return sparse_graph_parts().map(lambda parts: ProjectGraph(*parts).freeze())


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def checkout_python(cwd, *argv, **run_options) -> subprocess.CompletedProcess:
    """``python argv...`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(busfactor.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        **run_options,
    )


# -- brute-force oracles, kept independent of the library's algorithms --------


def coverage_bruteforce(graph, team) -> set[int]:
    graph = thawed(graph)
    covered = set()
    for p in team:
        covered |= set(graph.tasks_of(p))
    return covered


def mrs_bruteforce(graph, target) -> set[int] | None:
    """Largest removable set keeping coverage >= target, else None."""
    graph = thawed(graph)
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


def mcs_bruteforce(graph, target) -> set[int]:
    """Smallest set whose removal drops coverage below target."""
    graph = thawed(graph)
    people = sorted(graph.people)
    for size in range(len(people) + 1):
        for removed in itertools.combinations(people, size):
            kept = [p for p in people if p not in removed]
            if len(coverage_bruteforce(graph, kept)) < target:
                return set(removed)
    raise AssertionError("removing everyone always drops coverage")


def coverage_milp(graph: FrozenGraph, delta) -> tuple[int | None, int]:
    """The exact sizes of the maximum redundant set (None when the target is
    unreachable) and of the minimum critical set, from two mixed-integer
    programs that HiGHS solves. Binary x_p marks a person who leaves and
    c_t in [0, 1] a task that stays covered; need = ceil(delta * tasks).

    - MRS: c_t <= sum over t's people of (1 - x_p), sum of c_t >= need;
      maximize the sum of x_p.
    - MCS: c_t >= 1 - x_p for each edge (p, t), sum of c_t <= need - 1;
      minimize the sum of x_p.
    """
    need = math.ceil(_coverage_target(graph, delta))
    n, m = graph.n_people, graph.n_tasks
    edges = [(k, t) for k, own in enumerate(graph.adjacency) for t in own]
    e = len(edges)
    person = np.array([k for k, _ in edges], dtype=np.intp)
    task = np.array([t for _, t in edges], dtype=np.intp)
    leaving = np.r_[np.ones(n), np.zeros(m)]  # sum of x_p; the x_p are integral
    covered = np.r_[np.zeros(n), np.ones(m)][None, :]  # sum of c_t
    options = {"integrality": leaving, "bounds": Bounds(0, 1)}

    # MRS: for each task, c_t + the sum of its people's x_p <= its degree
    by_task = sparse.csr_array(
        (np.ones(e + m), (np.r_[task, np.arange(m)], np.r_[person, n + np.arange(m)])),
        shape=(m, n + m),
    )
    mrs = milp(-leaving, constraints=[
        LinearConstraint(by_task, ub=np.bincount(task, minlength=m)),
        LinearConstraint(covered, lb=need),
    ], **options)
    # MCS: for each edge, x_p + c_t >= 1
    by_edge = sparse.csr_array(
        (np.ones(2 * e), (np.tile(np.arange(e), 2), np.r_[person, n + task])),
        shape=(e, n + m),
    )
    mcs = milp(leaving, constraints=[
        LinearConstraint(by_edge, lb=1),
        LinearConstraint(covered, ub=need - 1),
    ], **options)
    assert mcs.success, mcs.message
    if mrs.status == 2:  # infeasible: the target is out of reach
        return None, round(mcs.fun)
    assert mrs.success, mrs.message
    return round(-mrs.fun), round(mcs.fun)


def z_worst_bruteforce(graph, target) -> int:
    """Largest k such that every size-k removal keeps coverage >= target."""
    graph = thawed(graph)
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


def remove_people(graph, people) -> SetGraph:
    """New graph without ``people``; tasks stay as (possibly isolated) nodes."""
    graph = thawed(graph)
    gone = set(people)
    for p in gone:
        graph._require_person(p)
    new = SetGraph()
    new.by_person = {
        p: set(adj) for p, adj in graph.by_person.items() if p not in gone
    }
    new.by_task = {t: adj - gone for t, adj in graph.by_task.items()}
    return new


def largest_task_component_size(graph) -> int:
    """Tasks in the largest connected component that contains a person.

    Degree-0 tasks sit in person-free components and never contribute;
    a graph whose components all lack either a person or a task scores 0.
    """
    graph = thawed(graph)
    visited_p: set[int] = set()
    best = 0
    for start in graph.by_person:
        if start in visited_p:
            continue
        stack = [start]
        visited_p.add(start)
        comp_tasks: set[int] = set()
        while stack:
            p = stack.pop()
            for t in graph.by_person[p]:
                if t not in comp_tasks:
                    comp_tasks.add(t)
                    for q in graph.by_task[t]:
                        if q not in visited_p:
                            visited_p.add(q)
                            stack.append(q)
        if len(comp_tasks) > best:
            best = len(comp_tasks)
    return best


def decay_curve_naive(graph, order) -> tuple[int, ...]:
    """Reference decay curve by full recomputation after each removal."""
    graph = thawed(graph)
    order = list(order)
    if len(order) != graph.n_people or set(order) != set(graph.people):
        raise ValueError("removal sequence must be a permutation of all people")
    values = [largest_task_component_size(graph)]
    current = graph
    for p in order:
        current = remove_people(current, [p])
        values.append(largest_task_component_size(current))
    return tuple(values)


def greedy_order_adaptive_reference(graph) -> list[int]:
    """Greedy order re-ranked after every removal: decreasing degree in the
    remaining graph, ties to the smallest id. O(P^2) graph copies."""
    remaining = thawed(graph).copy()
    order: list[int] = []
    while remaining.n_people:
        nxt = min(
            remaining.people,
            key=lambda p: (-remaining.degree_of_person(p), p),
        )
        order.append(nxt)
        remaining = remove_people(remaining, [nxt])
    return order


# -- reference generator: set maps on both sides, repaired from the absent ids ----


def generate_powerlaw_reference(config: GeneratorConfig) -> SetGraph:
    """What ``generate_powerlaw`` gives, built as a ``SetGraph`` from
    person-to-tasks and task-to-people set maps. Each repair draws by
    ``rng.choice`` from the array of absent ids itself, where the library
    draws ranks into it."""
    rng = make_rng(config.seed)
    n_p, n_t = config.n_people, config.n_tasks
    deg_p = _sample_powerlaw_degrees(
        rng, n_p, config.exponent_people, config.min_degree, n_t
    ).astype(np.float64)
    deg_t = _sample_powerlaw_degrees(
        rng, n_t, config.exponent_tasks, config.min_degree, n_p
    ).astype(np.float64)
    sum_p, sum_t = deg_p.sum(), deg_t.sum()
    if sum_p < sum_t:
        deg_p *= sum_t / sum_p
    elif sum_t < sum_p:
        deg_t *= sum_p / sum_t
    total = deg_p.sum()

    graph = SetGraph(range(n_p), range(n_t))
    people, tasks = graph.by_person, graph.by_task
    for p, own in people.items():
        probs = deg_p[p] * deg_t / total
        own.update(np.nonzero(rng.random(n_t) < probs)[0].tolist())
        for t in own:
            tasks[t].add(p)
    _repair_min_degree_reference(people, tasks, config.min_degree, rng)
    _repair_min_degree_reference(tasks, people, config.min_degree, rng)
    return graph


def _repair_min_degree_reference(
    nodes: dict[int, set], others: dict[int, set], min_degree: int, rng: np.random.Generator
) -> None:
    """Link each of ``nodes`` below ``min_degree`` to as many more of
    ``others`` as it lacks, drawn by ``rng.choice`` without replacement from
    the array of the ids it is not linked to; both sides have ids
    ``0, 1, ...``."""
    for n, own in nodes.items():
        missing = min_degree - len(own)
        if missing > 0:
            absent = np.ones(len(others), dtype=bool)
            absent[list(own)] = False
            picks = rng.choice(np.flatnonzero(absent), size=missing, replace=False)
            for m in picks.tolist():
                own.add(m)
                others[m].add(n)


# -- reference parsers: row by row, through the checked SetGraph methods ---------


def parse_edge_list_reference(data: str, fmt: str) -> SetGraph:
    """What ``parse_edge_list`` gives, or the ``ParseError`` it raises, with
    every row going through ``add_person``, ``add_task``, ``has_edge`` and
    ``add_edge``."""
    return _parse_csv_reference(data) if fmt == "csv" else _parse_json_reference(data)


_PERSON_RE = re.compile(r"p(0|[1-9][0-9]*)")
_TASK_RE = re.compile(r"t(0|[1-9][0-9]*)")


def _id_number(digits: str, line: int | None) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise ParseError(str(exc), line) from exc


def _parse_person(field: str, line: int | None = None) -> int:
    m = _PERSON_RE.fullmatch(field)
    if not m:
        if _TASK_RE.fullmatch(field):
            raise ParseError(f"task id {field!r} in person column", line)
        raise ParseError(f"invalid person id {field!r}", line)
    return _id_number(m.group(1), line)


def _parse_task(field: str, line: int | None = None) -> int:
    m = _TASK_RE.fullmatch(field)
    if not m:
        if _PERSON_RE.fullmatch(field):
            raise ParseError(f"person id {field!r} in task column", line)
        raise ParseError(f"invalid task id {field!r}", line)
    return _id_number(m.group(1), line)


def _parse_csv_reference(data: str) -> SetGraph:
    graph = SetGraph()
    header_seen = False
    for lineno, raw in enumerate(data.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "person,task":
                raise ParseError(
                    f"expected header 'person,task', got {line!r}", lineno
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", lineno)
        p_field, t_field = fields[0].strip(), fields[1].strip()
        if p_field and t_field:
            p = _parse_person(p_field, lineno)
            t = _parse_task(t_field, lineno)
            if p not in graph.people:
                graph.add_person(p)
            if t not in graph.tasks:
                graph.add_task(t)
            if graph.has_edge(p, t):
                raise ParseError(f"duplicate edge ({p_field},{t_field})", lineno)
            graph.add_edge(p, t)
        elif p_field:
            p = _parse_person(p_field, lineno)
            if p in graph.people:
                raise ParseError(f"duplicate declaration of {p_field}", lineno)
            graph.add_person(p)
        elif t_field:
            t = _parse_task(t_field, lineno)
            if t in graph.tasks:
                raise ParseError(f"duplicate declaration of {t_field}", lineno)
            graph.add_task(t)
        else:
            raise ParseError("empty row", lineno)
    if not header_seen:
        raise ParseError("missing 'person,task' header")
    return graph


def _parse_json_reference(data: str) -> SetGraph:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, long integers
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("people", "tasks", "edges"):
        if not isinstance(obj.get(key), list):
            raise ParseError(f"missing or non-array {key!r} field")

    graph = SetGraph()
    for label in obj["people"]:
        p = _parse_person(str(label))
        if p in graph.people:
            raise ParseError(f"duplicate declaration of {label}")
        graph.add_person(p)
    for label in obj["tasks"]:
        t = _parse_task(str(label))
        if t in graph.tasks:
            raise ParseError(f"duplicate declaration of {label}")
        graph.add_task(t)
    for pair in obj["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edge {pair!r} is not a [person, task] pair")
        p = _parse_person(str(pair[0]))
        t = _parse_task(str(pair[1]))
        if p not in graph.people or t not in graph.tasks:
            raise ParseError(f"edge [{pair[0]}, {pair[1]}] references undeclared node")
        if graph.has_edge(p, t):
            raise ParseError(f"duplicate edge [{pair[0]}, {pair[1]}]")
        graph.add_edge(p, t)
    return graph


# -- reference annealer: mutates a SetGraph, rescores it with decay_curve -------


def _has_feasible_move(graph: SetGraph) -> bool:
    n_tasks = graph.n_tasks
    for p in graph.people:
        if graph.degree_of_person(p) >= n_tasks:
            continue
        if any(graph.degree_of_task(t) >= 2 for t in graph.tasks_of(p)):
            return True
    return False


def anneal_reference(
    graph: FrozenGraph | SetGraph, config: AnnealingConfig
) -> tuple[SetGraph, AnnealingTrace]:
    """Rewire assignments to raise greedy robustness, workloads untouched.

    Proposal: take a random edge (p, t) and a random task the person does
    not already cover, and move the edge there. Moves off a task's last
    contributor are rejected before touching the graph, so every initially
    covered task stays covered; person degrees are invariant, which also
    pins the greedy removal order once and for all.
    """
    graph = thawed(graph)
    if graph.n_edges < 1:
        raise DegenerateError("annealing needs at least one edge")
    if graph.n_tasks < 2:
        raise DegenerateError("annealing needs at least two tasks")
    if not _has_feasible_move(graph):
        return graph.copy(), AnnealingTrace()

    rng = make_rng(config.seed)
    working = graph.copy()
    order = greedy_order(working.freeze())  # person degrees never change below
    denom = normalization(working.n_people, working.n_tasks)

    def objective_area(g: SetGraph) -> int:
        return trapezoid_area(decay_curve(g.freeze(), order))

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


def trapezoid_area(curve: tuple[int, ...]) -> int:
    """Twice the trapezoidal area under ``curve``, summed step by step."""
    return sum(curve[i - 1] + curve[i] for i in range(1, len(curve)))


def order_robustness(graph: FrozenGraph, order) -> float:
    """The robustness score of removing ``order``: :func:`trapezoid_area`
    of its decay curve over the complete graph's."""
    return trapezoid_area(decay_curve(graph, order)) / normalization(graph.n_people, graph.n_tasks)


def _draw_new_task(rng, graph: SetGraph, person: int, tasks: list[int]):
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

    graph: SetGraph
    attempts: int
    swaps: int


def null_sample_reference(
    graph: FrozenGraph | SetGraph, config: NullModelConfig, sample_index: int = 0
) -> SwapResult:
    """Degree-preserving random rewiring, deterministic per (seed, index).

    Attempts ``swaps_per_edge * n_edges`` double-edge swaps: two edges
    (p1,t1), (p2,t2) are crossed to (p1,t2), (p2,t1) when all four nodes are
    distinct and neither crossed edge exists.
    """
    graph = thawed(graph)
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
    sampled = SetGraph(
        people=graph.people, tasks=graph.tasks, edges=edges
    )
    return SwapResult(graph=sampled, attempts=attempts, swaps=swaps)


# -- reference greedies: set-based, over SetGraph accessors --------------------


def mrs_greedy_reference(graph, delta) -> set[int]:
    """Lazy greedy keep-set grown against the rational target; everyone
    else is redundant."""
    graph = thawed(graph)
    target = _coverage_target(graph, delta)
    if covered_task_count(graph) < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable: "
            f"only {covered_task_count(graph)} of {graph.n_tasks} tasks covered"
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


def mcs_greedy_reference(graph, delta) -> set[int]:
    """People removed in decreasing degree order, ties to the smallest id,
    until coverage drops below the rational target."""
    graph = thawed(graph)
    target = _coverage_target(graph, delta)
    degrees, live = degree_maps(graph)
    order = sorted(degrees, key=lambda p: (-degrees[p], p))
    covered = covered_task_count(graph)
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

    def __init__(self, graph: SetGraph, rng: np.random.Generator):
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

    def __init__(self, graph: SetGraph, rng: np.random.Generator):
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


def _measure(graph: SetGraph, delta: Fraction) -> tuple[int, int, float] | None:
    try:
        mrs = len(mrs_greedy_reference(graph, delta))
    except InfeasibleError:
        return None
    mcs = len(mcs_greedy_reference(graph, delta))
    value = bus_factor_greedy(graph.freeze()).value
    return mrs, mcs, value


def checkpoint_graphs_reference(
    graph: FrozenGraph | SetGraph, kind: str, total_steps: int, stride: int, seed: int
) -> tuple[list[tuple[int, SetGraph]], bool, list[str]]:
    """Materialize (modification count, snapshot) pairs, baseline included."""
    graph = thawed(graph)
    notes: list[str] = []
    snapshots: list[tuple[int, SetGraph]] = [(0, graph.copy())]
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
        order = greedy_order(graph.freeze())
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


def engine_snapshots(
    graph: FrozenGraph, kind: str, steps: int, stride: int, seed: int = 0
) -> tuple[list[tuple[int, SetGraph]], bool, list[str]]:
    """What :func:`checkpoint_graphs_reference` gives, from the sweep's own
    engine: the state at each checkpoint thawed into a graph, whether the
    material ran out, and the engine's notes. Each added slot's person
    takes the next fresh id: ``max + 1``, ``max + 2``, ..."""
    held, _, modifications, available, notes = _perturbation(graph, kind, steps, seed)
    first_fresh = graph.people[-1] + 1
    snapshots = []
    for done in _checkpoints(modifications, available, stride):
        added = len(held) - graph.n_people
        people = graph.people + tuple(range(first_fresh, first_fresh + added))
        snapshots.append((done, held_graph(people, graph.tasks, held)))
    return snapshots, available < steps, notes


def run_sweep_reference(
    graph: FrozenGraph | SetGraph,
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
    table = SweepTable(truncated=truncated, notes=notes)
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
