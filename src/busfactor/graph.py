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
    """Checked constructor of a simple bipartite graph between people and
    tasks: duplicate edges are rejected rather than collapsed, isolated
    nodes on either side are representable, and an edge declares either
    endpoint not declared before it. :meth:`freeze` gives the view that
    analyses take.
    """

    __slots__ = ("_view",)

    def __init__(
        self,
        people: Iterable[PersonId] = (),
        tasks: Iterable[TaskId] = (),
        edges: Iterable[tuple[PersonId, TaskId]] = (),
    ):
        held: dict[PersonId, set[TaskId]] = {}
        task_ids: dict[TaskId, None] = {}

        def declare(ids: dict, kind: str, node: int, value) -> None:
            if node < 0:
                raise ValueError(f"{kind} id must be non-negative, got {node}")
            if node in ids:
                raise ValueError(f"{kind} {node} already exists")
            ids[node] = value

        for p in people:
            declare(held, "person", p, set())
        for t in tasks:
            declare(task_ids, "task", t, None)
        for p, t in edges:
            if p not in held:
                declare(held, "person", p, set())
            if t not in task_ids:
                declare(task_ids, "task", t, None)
            if t in held[p]:
                raise ValueError(f"duplicate edge ({p}, {t})")
            held[p].add(t)
        self._view = freeze_maps(held, task_ids)

    def copy(self) -> ProjectGraph:
        # immutable, so its own copy; kept as bench/tracing.py wraps it by name
        return self

    def freeze(self) -> FrozenGraph:
        return self._view


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
