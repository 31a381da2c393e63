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
    ProjectGraph,
    degree_slots,
    require_nondegenerate,
)

EXACT_GUARD = 8  # permutation enumeration refuses larger people sets

RemovalSequence = Sequence[PersonId]


@dataclass(frozen=True)
class DecayCurve:
    """Task counts of the largest person-containing component after
    0..n_people removals."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class RobustnessResult:
    value: float
    sequence: tuple[PersonId, ...]
    curve: DecayCurve


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


def _validate_sequence(graph: ProjectGraph, order: RemovalSequence) -> list[PersonId]:
    order = list(order)
    if len(order) != graph.n_people or set(order) != set(graph.people):
        raise ValueError("removal sequence must be a permutation of all people")
    return order


def decay_curve(graph: ProjectGraph, order: RemovalSequence) -> DecayCurve:
    """Decay curve for a full removal order, by reverse simulation.

    People are inserted back in reverse order into the task-only graph by
    :func:`insertion_maxima`; the curve is its running maxima read
    backwards, ending at 0 once everyone is gone.
    """
    order = _validate_sequence(graph, order)
    frozen = graph.freeze()
    position = {p: i for i, p in enumerate(frozen.people)}
    return _removal_curve(frozen, [position[p] for p in order])


def _removal_curve(frozen: FrozenGraph, slots: Sequence[int]) -> DecayCurve:
    """Decay curve of removing ``frozen.people[k]`` for each ``k`` of
    ``slots`` in turn, which must list every slot once."""
    adjacency = frozen.adjacency
    maxima = insertion_maxima(
        InsertionState.empty(len(frozen.tasks)), [adjacency[k] for k in reversed(slots)]
    )
    return DecayCurve((*reversed(maxima), 0))


def _area_numerator(curve: DecayCurve) -> int:
    values = curve.values
    return sum(values[i - 1] + values[i] for i in range(1, len(values)))


def _normalization(n_people: int, n_tasks: int) -> int:
    return n_tasks * (2 * n_people - 1)


def robustness(graph: ProjectGraph, order: RemovalSequence) -> float:
    """Normalized trapezoidal area under the decay curve, in [0, 1].

    The area sum(tau[i-1] + tau[i]) / 2 is divided by the complete-graph
    maximum n_tasks * (2 * n_people - 1) / 2; the halves cancel. A graph
    with a single person scores 1 by this normalization (its own curve is
    the theoretical maximum for one person), fragile as it is.
    """
    require_nondegenerate(graph)
    curve = decay_curve(graph, order)
    return _area_numerator(curve) / _normalization(graph.n_people, graph.n_tasks)


def greedy_order(graph: ProjectGraph) -> list[PersonId]:
    """Most-destructive-first heuristic order: decreasing degree, ties to
    the smallest id.

    Removing a person never changes anyone else's degree in a bipartite
    person-task graph, so re-ranking after every removal gives this same
    order.
    """
    people, _, adjacency = graph.freeze()
    return [people[k] for k in degree_slots(adjacency)]


def bus_factor_greedy(graph: ProjectGraph) -> RobustnessResult:
    """Upper bound on worst-case robustness via the degree-order heuristic."""
    require_nondegenerate(graph)
    frozen = graph.freeze()
    slots = degree_slots(frozen.adjacency)  # the greedy_order of graph
    curve = _removal_curve(frozen, slots)
    value = _area_numerator(curve) / _normalization(graph.n_people, graph.n_tasks)
    sequence = tuple(frozen.people[k] for k in slots)
    return RobustnessResult(value=value, sequence=sequence, curve=curve)


def bus_factor_exact(graph: ProjectGraph) -> RobustnessResult:
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
    best_area: int | None = None
    best: tuple[tuple[PersonId, ...], DecayCurve] | None = None
    for order in itertools.permutations(sorted(graph.people)):
        curve = decay_curve(graph, order)
        area = _area_numerator(curve)
        if best_area is None or area < best_area:
            best_area = area
            best = (order, curve)
    assert best is not None and best_area is not None
    return RobustnessResult(
        value=best_area / _normalization(graph.n_people, graph.n_tasks),
        sequence=best[0],
        curve=best[1],
    )
