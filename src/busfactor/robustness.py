"""Largest-task-component decay under people removal, and its area score.

Removing people one by one shrinks the largest connected component that
still contains a person; recording its task count after every removal gives
a decay curve. The robustness score is the trapezoidal area under that
curve, normalized so a complete bipartite graph scores exactly 1 and an
edgeless one 0. Lower scores under destructive removal orders mean the
project shatters quickly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .graph import (
    FrozenGraph,
    PersonId,
    degree_slots,
    require_nondegenerate,
)

EXACT_GUARD = 8  # permutation enumeration refuses larger people sets

RemovalSequence = Sequence[PersonId]


@dataclass(frozen=True)
class RobustnessResult:
    value: float
    sequence: tuple[PersonId, ...]
    curve: tuple[int, ...]  # the largest component's task count after 0..n_people removals


@dataclass(slots=True)
class InsertionState:
    """Where :func:`insertion_maxima` stands after some insertions: the
    disjoint-set forest over the tasks (``parent``, and ``count``, the task
    count at each root), the running maximum ``best`` and ``total``, the
    sum of the maxima so far."""

    parent: list[int]
    count: list[int]
    best: int = 0
    total: int = 0

    @classmethod
    def empty(cls, n_tasks: int) -> InsertionState:
        """``n_tasks`` isolated tasks, nobody inserted yet."""
        return cls(list(range(n_tasks)), [1] * n_tasks)

    def copy(self) -> InsertionState:
        return InsertionState(self.parent.copy(), self.count.copy(), self.best, self.total)

    def root(self, t: int) -> int:
        """The root of task ``t``'s component, halving its path as the
        kernel does."""
        parent = self.parent
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    def area(self) -> int:
        """Integer trapezoid area of the decay curve once everyone is back
        in: the maxima reversed, then 0, give twice their sum less the last."""
        return 2 * self.total - self.best


def insertion_maxima(
    state: InsertionState, reinserted: Iterable[Iterable[int]]
) -> list[int]:
    """Running maximum of the largest component's task count as people are
    inserted back into ``state``, one per entry of ``reinserted`` (their
    dense task indices); ``state`` is advanced in place.

    Newman-Ziff style reverse percolation: a disjoint-set forest over the
    tasks alone, with path halving and union by task count. A person joins
    their tasks into one component; one with no tasks forms a task-free
    component, which never raises the maximum. Components only merge and
    grow, so a running maximum is the largest component after each step.
    """
    parent, count, best = state.parent, state.count, state.best
    maxima = []
    for tasks in reinserted:
        root = -1
        for t in tasks:
            while parent[t] != t:  # path halving
                parent[t] = t = parent[parent[t]]
            if root < 0:
                root = t
            elif t != root:
                if count[t] > count[root]:
                    root, t = t, root
                parent[t] = root
                count[root] += count[t]
        if root >= 0 and count[root] > best:
            best = count[root]
        maxima.append(best)
    state.best = best
    state.total += sum(maxima)
    return maxima


def insertion_area(n_tasks: int, reinserted: Iterable[Iterable[int]]) -> int:
    """:meth:`InsertionState.area` of ``reinserted`` inserted into
    ``n_tasks`` isolated tasks."""
    state = InsertionState.empty(n_tasks)
    insertion_maxima(state, reinserted)
    return state.area()


def decay_curve(graph: FrozenGraph, order: RemovalSequence) -> tuple[int, ...]:
    """Decay curve for a full removal order, which must list every person
    once, by reverse simulation.

    People are inserted back in reverse order into the task-only graph by
    :func:`insertion_maxima`; the curve is its running maxima read
    backwards, ending at 0 once everyone is gone.
    """
    order = list(order)
    if len(order) != graph.n_people or set(order) != set(graph.people):
        raise ValueError("removal sequence must be a permutation of all people")
    position = {p: i for i, p in enumerate(graph.people)}
    return _removal_curve(graph, [position[p] for p in order])[0]


def _removal_curve(frozen: FrozenGraph, slots: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Decay curve of removing ``frozen.people[k]`` for each ``k`` of
    ``slots`` in turn, which must list every slot once, and its integer
    trapezoid area :meth:`InsertionState.area`."""
    adjacency = frozen.adjacency
    state = InsertionState.empty(len(frozen.tasks))
    maxima = insertion_maxima(state, [adjacency[k] for k in reversed(slots)])
    return (*reversed(maxima), 0), state.area()


def normalization(n_people: int, n_tasks: int) -> int:
    """The complete graph's unhalved decay area, which scales an area into [0, 1]."""
    return n_tasks * (2 * n_people - 1)


def greedy_order(graph: FrozenGraph) -> list[PersonId]:
    """Most-destructive-first heuristic order: decreasing degree, ties to
    the smallest id.

    Removing a person never changes anyone else's degree in a bipartite
    person-task graph, so re-ranking after every removal gives this same
    order.
    """
    people, _, adjacency = graph
    return [people[k] for k in degree_slots(adjacency)]


def bus_factor_greedy(graph: FrozenGraph) -> RobustnessResult:
    """Upper bound on worst-case robustness via the degree-order heuristic."""
    require_nondegenerate(graph)
    return _result(graph, degree_slots(graph.adjacency))  # the greedy_order


def _result(frozen: FrozenGraph, slots: Sequence[int]) -> RobustnessResult:
    """The normalized score, sequence and curve of removing ``slots``."""
    curve, area = _removal_curve(frozen, slots)
    return RobustnessResult(
        value=area / normalization(frozen.n_people, frozen.n_tasks),
        sequence=tuple(frozen.people[k] for k in slots),
        curve=curve,
    )


def bus_factor_exact(graph: FrozenGraph) -> RobustnessResult:
    """Exhaustive minimum over all removal orders (smallest graphs only).

    All orders share the same normalization, so candidates are compared by
    integer area; ties go to the lexicographically smallest sequence.
    """
    require_nondegenerate(graph)
    if graph.n_people > EXACT_GUARD:
        raise ValueError(
            f"exact search refused: {graph.n_people} people exceeds the "
            f"{EXACT_GUARD}-person guard"
        )
    n_tasks, adjacency = len(graph.tasks), graph.adjacency
    # slots are in id order, so permutations come in lexicographic id order
    # and min keeps the first, the lexicographically smallest, least area
    slots = min(
        itertools.permutations(range(graph.n_people)),
        key=lambda order: insertion_area(n_tasks, [adjacency[k] for k in reversed(order)]),
    )
    return _result(graph, slots)
