"""Bipartite person-task graph and its dense-index snapshot.

People and tasks are plain non-negative integers living in two disjoint
namespaces; an edge (p, t) means person ``p`` contributes to task ``t``.
Analyses treat a graph as read-only; code that needs to perturb one works
on its own :meth:`ProjectGraph.copy`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence, Sized
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


class ProjectGraph:
    """Simple bipartite graph between people and tasks.

    Duplicate edges are rejected rather than collapsed, and isolated nodes
    on either side are representable.
    """

    __slots__ = ("_people", "_tasks", "_n_edges")

    def __init__(
        self,
        people: Iterable[PersonId] = (),
        tasks: Iterable[TaskId] = (),
        edges: Iterable[tuple[PersonId, TaskId]] = (),
    ):
        self._people: dict[PersonId, set[TaskId]] = {}
        self._tasks: dict[TaskId, set[PersonId]] = {}
        self._n_edges = 0
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

    # -- basic accessors ---------------------------------------------------

    @property
    def people(self):
        """View of all person ids."""
        return self._people.keys()

    @property
    def tasks(self):
        """View of all task ids."""
        return self._tasks.keys()

    @property
    def n_people(self) -> int:
        return len(self._people)

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def tasks_of(self, person: PersonId) -> frozenset[TaskId]:
        self._require_person(person)
        return frozenset(self._people[person])

    def people_of(self, task: TaskId) -> frozenset[PersonId]:
        self._require_task(task)
        return frozenset(self._tasks[task])

    def degree_of_person(self, person: PersonId) -> int:
        self._require_person(person)
        return len(self._people[person])

    def degree_of_task(self, task: TaskId) -> int:
        self._require_task(task)
        return len(self._tasks[task])

    def has_edge(self, person: PersonId, task: TaskId) -> bool:
        adj = self._people.get(person)
        return adj is not None and task in adj

    def edges(self) -> Iterator[tuple[PersonId, TaskId]]:
        """All edges sorted by (person, task); the canonical order."""
        for p in sorted(self._people):
            for t in sorted(self._people[p]):
                yield p, t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectGraph):
            return NotImplemented
        return (
            self._people.keys() == other._people.keys()
            and self._tasks.keys() == other._tasks.keys()
            and self._people == other._people
        )

    def __hash__(self):  # graphs are mutable containers
        raise TypeError("ProjectGraph is unhashable")

    def __repr__(self) -> str:
        return (
            f"ProjectGraph(|P|={self.n_people}, |T|={self.n_tasks}, "
            f"|E|={self.n_edges})"
        )

    def copy(self) -> ProjectGraph:
        new = ProjectGraph.__new__(ProjectGraph)
        new._people = {p: set(adj) for p, adj in self._people.items()}
        new._tasks = {t: set(adj) for t, adj in self._tasks.items()}
        new._n_edges = self._n_edges
        return new

    def freeze(self) -> FrozenGraph:
        """Sorted people and tasks with per-person dense task indices.

        Built afresh on every call: the graph is mutable, so a cached view
        could go stale.
        """
        people = tuple(sorted(self._people))
        tasks = tuple(sorted(self._tasks))
        index = {t: i for i, t in enumerate(tasks)}.__getitem__
        adjacency = tuple(tuple(sorted(map(index, self._people[p]))) for p in people)
        return FrozenGraph(people, tasks, adjacency)

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
        self._tasks[task] = set()

    def add_edge(self, person: PersonId, task: TaskId) -> None:
        self._require_person(person)
        self._require_task(task)
        if task in self._people[person]:
            raise ValueError(f"duplicate edge ({person}, {task})")
        self._people[person].add(task)
        self._tasks[task].add(person)
        self._n_edges += 1

    def remove_edge(self, person: PersonId, task: TaskId) -> None:
        self._require_person(person)
        self._require_task(task)
        if task not in self._people[person]:
            raise ValueError(f"no edge ({person}, {task}) to remove")
        self._people[person].remove(task)
        self._tasks[task].remove(person)
        self._n_edges -= 1

    def fresh_person_id(self) -> PersonId:
        return max(self._people, default=-1) + 1

    def fresh_task_id(self) -> TaskId:
        return max(self._tasks, default=-1) + 1

    # -- analyses ------------------------------------------------------------

    def covered_task_count(self) -> int:
        """Number of tasks with at least one contributor."""
        return sum(1 for adj in self._tasks.values() if adj)

    # -- internal ------------------------------------------------------------

    def _require_person(self, person: PersonId) -> None:
        if person not in self._people:
            raise ValueError(f"unknown person {person}")

    def _require_task(self, task: TaskId) -> None:
        if task not in self._tasks:
            raise ValueError(f"unknown task {task}")


def degree_slots(held: Sequence[Sized]) -> list[int]:
    """Slots by decreasing ``len(held[k])``, ties to the smallest slot (the
    sort is stable); with slots in id order, the greedy removal order."""
    return sorted(range(len(held)), key=lambda k: -len(held[k]))


def thaw(
    people: Sequence[PersonId], tasks: Sequence[TaskId], held: Iterable[Iterable[int]]
) -> ProjectGraph:
    """The graph in which ``people[k]`` does ``tasks[t]`` for each ``t`` in
    ``held[k]``: the inverse of :meth:`ProjectGraph.freeze`."""
    edges = ((people[k], tasks[t]) for k, own in enumerate(held) for t in own)
    return ProjectGraph(people=people, tasks=tasks, edges=edges)


def require_nondegenerate(graph: ProjectGraph) -> None:
    """Raise unless the graph has at least one person and one task."""
    if graph.n_people == 0:
        raise DegenerateError("graph has no people")
    if graph.n_tasks == 0:
        raise DegenerateError("graph has no tasks")
