"""Bipartite person-task graph and its dense-index snapshot.

People and tasks are plain non-negative integers living in two disjoint
namespaces; an edge (p, t) means person ``p`` contributes to task ``t``.
Every producer of a graph returns the frozen view, and every analysis
takes it and treats it as read-only; :class:`ProjectGraph` builds one by
hand.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence, Sized
from typing import NamedTuple

from .errors import DegenerateError

PersonId = int
TaskId = int


class FrozenGraph(NamedTuple):
    """Dense-index snapshot of a graph: ``adjacency[i]`` holds the sorted
    indices into ``tasks`` of the tasks done by ``people[i]``."""

    people: tuple[PersonId, ...]
    tasks: tuple[TaskId, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n_people(self) -> int:
        return len(self.people)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.adjacency))

    def task_degrees(self) -> list[int]:
        """The number of people doing each task, by task index."""
        degrees = [0] * len(self.tasks)
        for t in itertools.chain.from_iterable(self.adjacency):
            degrees[t] += 1
        return degrees


class ProjectGraph:
    """Checked builder of a simple bipartite graph between people and
    tasks: duplicate edges are rejected rather than collapsed, isolated
    nodes on either side are representable, and :meth:`freeze` gives the
    view that analyses take.
    """

    __slots__ = ("_people", "_tasks")

    def __init__(
        self,
        people: Iterable[PersonId] = (),
        tasks: Iterable[TaskId] = (),
        edges: Iterable[tuple[PersonId, TaskId]] = (),
    ):
        self._people: dict[PersonId, set[TaskId]] = {}
        self._tasks: dict[TaskId, None] = {}  # the task ids, in insertion order
        for p in people:
            self.add_person(p)
        for t in tasks:
            self.add_task(t)
        for p, t in edges:
            if p not in self._people:
                self.add_person(p)
            if t not in self._tasks:
                self.add_task(t)
            self.add_edge(p, t)

    def copy(self) -> ProjectGraph:
        graph = ProjectGraph.__new__(ProjectGraph)
        graph._people = {p: set(adj) for p, adj in self._people.items()}
        graph._tasks = dict(self._tasks)
        return graph

    def freeze(self) -> FrozenGraph:
        """The dense view, built afresh on every call: the graph is
        mutable, so a cached view could go stale."""
        return freeze_maps(self._people, self._tasks)

    # -- mutation ----------------------------------------------------------

    def add_person(self, person: PersonId) -> None:
        if person < 0:
            raise ValueError(f"person id must be non-negative, got {person}")
        if person in self._people:
            raise ValueError(f"person {person} already exists")
        self._people[person] = set()

    def add_task(self, task: TaskId) -> None:
        if task < 0:
            raise ValueError(f"task id must be non-negative, got {task}")
        if task in self._tasks:
            raise ValueError(f"task {task} already exists")
        self._tasks[task] = None

    def add_edge(self, person: PersonId, task: TaskId) -> None:
        own = self._people.get(person)
        if own is None:
            raise ValueError(f"unknown person {person}")
        if task not in self._tasks:
            raise ValueError(f"unknown task {task}")
        if task in own:
            raise ValueError(f"duplicate edge ({person}, {task})")
        own.add(task)


def degree_slots(held: Sequence[Sized]) -> list[int]:
    """Slots by decreasing ``len(held[k])``, ties to the smallest slot (the
    sort is stable); with slots in id order, the greedy removal order."""
    return sorted(range(len(held)), key=lambda k: -len(held[k]))


def freeze_maps(
    people: dict[PersonId, Iterable[TaskId]], tasks: Iterable[TaskId]
) -> FrozenGraph:
    """Sorted people and tasks with per-person dense task indices, from
    ``people`` (each person's task ids) and the task ids, which hold every
    task of ``people``."""
    people_ids = tuple(sorted(people))
    task_ids = tuple(sorted(tasks))
    index = {t: i for i, t in enumerate(task_ids)}.__getitem__
    adjacency = tuple(tuple(sorted(map(index, people[p]))) for p in people_ids)
    return FrozenGraph(people_ids, task_ids, adjacency)


def require_nondegenerate(graph: FrozenGraph) -> None:
    """Raise unless the graph has at least one person and one task."""
    if graph.n_people == 0:
        raise DegenerateError("graph has no people")
    if graph.n_tasks == 0:
        raise DegenerateError("graph has no tasks")
