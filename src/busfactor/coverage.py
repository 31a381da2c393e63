"""Coverage-threshold bus factor measures.

Two complementary quantities for a coverage threshold ``delta``:

* the maximum redundant set (MRS): the largest team that can leave while
  the remaining people still cover at least ``delta * n_tasks`` tasks;
* the minimum critical set (MCS): the smallest team whose departure drops
  coverage strictly below that target.

Greedy approximations handle real sizes; exhaustive oracles (guarded to
small graphs) provide ground truth. Threshold comparisons use exact
rational arithmetic so integral targets never drift to a neighboring count;
the greedies compare integer counts against the target's ceiling, ``need``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateError, InfeasibleError
from .graph import PersonId, ProjectGraph, degree_slots, require_nondegenerate

EXACT_GUARD = 20  # subset enumeration refuses larger people sets

DeltaLike = Fraction | float | str | int


def normalize_delta(delta: DeltaLike) -> Fraction:
    """Coerce a threshold to an exact fraction in (0, 1].

    Floats go through their shortest decimal repr, so a CLI-style ``0.55``
    means exactly 55/100 rather than the nearest binary float. Text other
    than ``n/d`` is screened by ``float`` first, so that ``1e-50000000`` is
    refused before ``Fraction`` builds its power of ten, and so is any
    text that rounds to 0. ``Fraction`` strips the same whitespace.
    """
    if isinstance(delta, float):
        delta = repr(delta)
    if isinstance(delta, str) and "/" not in delta and not 0 < float(delta.strip()) <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    value = Fraction(delta)
    if not 0 < value <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return value


def _coverage_target(graph: ProjectGraph, delta: DeltaLike) -> Fraction:
    require_nondegenerate(graph)
    return normalize_delta(delta) * graph.n_tasks


def greedy_keep(held: Sequence[Collection[int]], need: int) -> list[int]:
    """Slots :func:`mrs_greedy` keeps to cover ``need`` of the task indices
    in ``held`` (``need`` must be reachable)."""
    covered: set[int] = set()
    keep = []
    # Lazy greedy: gains only shrink as coverage grows, so a popped entry
    # whose recount is unchanged is the true maximum.
    heap = [(-len(own), k) for k, own in enumerate(held)]
    heapq.heapify(heap)
    while len(covered) < need:
        neg_gain, k = heapq.heappop(heap)
        gain = len(held[k]) - len(covered.intersection(held[k]))
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, k))
            continue
        keep.append(k)
        covered.update(held[k])
    return keep


def greedy_critical(
    held: Sequence[Collection[int]],
    order: Sequence[int],
    task_degree: list[int],
    need: int,
) -> int:
    """How many slots of ``order`` :func:`mcs_greedy` removes: up to the
    first loss of coverage below ``need`` tasks, else all of them."""
    live = list(task_degree)
    covered = len(live) - live.count(0)
    for removed, k in enumerate(order):
        if covered < need:
            return removed
        for t in held[k]:
            live[t] -= 1
            if live[t] == 0:
                covered -= 1
    return len(order)


def mrs_greedy(graph: ProjectGraph, delta: DeltaLike) -> set[PersonId]:
    """Approximate maximum redundant set.

    Greedily grows a keep-set, always adding the person who covers the most
    still-uncovered tasks (ties to the smallest id), until the keep-set
    covers the target; everyone else is redundant.
    """
    target = _coverage_target(graph, delta)
    if graph.covered_task_count() < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable: "
            f"only {graph.covered_task_count()} of {graph.n_tasks} tasks covered"
        )
    people, _, adjacency = graph.freeze()
    keep = greedy_keep(adjacency, math.ceil(target))
    return set(people).difference(people[k] for k in keep)


def mcs_greedy(graph: ProjectGraph, delta: DeltaLike) -> set[PersonId]:
    """Approximate minimum critical set.

    Removes people in decreasing order of degree (ties to the smallest id)
    until coverage drops below the target. A remaining person keeps all of
    their own tasks covered, so degrees never change as others leave and the
    one-shot order equals per-step recomputation.
    """
    target = _coverage_target(graph, delta)
    people, tasks, adjacency = graph.freeze()
    order = degree_slots(adjacency)
    task_degree = [graph.degree_of_task(t) for t in tasks]
    removed = greedy_critical(adjacency, order, task_degree, math.ceil(target))
    return {people[k] for k in order[:removed]}


def _guard(graph: ProjectGraph) -> None:
    if graph.n_people > EXACT_GUARD:
        raise ValueError(
            f"exact oracle refused: {graph.n_people} people exceeds the "
            f"{EXACT_GUARD}-person guard"
        )


def mrs_exact(graph: ProjectGraph, delta: DeltaLike) -> set[PersonId]:
    """Exhaustive maximum redundant set (smallest graphs only)."""
    _guard(graph)
    target = _coverage_target(graph, delta)
    people = sorted(graph.people)
    masks = _task_masks(graph, people)
    if _union_mask(masks).bit_count() < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable"
        )
    for keep_size in range(len(people) + 1):
        best: tuple[int, ...] | None = None
        for keep in itertools.combinations(range(len(people)), keep_size):
            mask = 0
            for i in keep:
                mask |= masks[i]
            if mask.bit_count() >= target:
                removed = tuple(
                    people[i] for i in range(len(people)) if i not in keep
                )
                if best is None or removed < best:
                    best = removed
        if best is not None:
            return set(best)
    raise AssertionError("unreachable: keeping everyone was checked feasible")


def mcs_exact(graph: ProjectGraph, delta: DeltaLike) -> set[PersonId]:
    """Exhaustive minimum critical set (smallest graphs only)."""
    _guard(graph)
    target = _coverage_target(graph, delta)
    people = sorted(graph.people)
    masks = _task_masks(graph, people)
    for size in range(len(people) + 1):
        for removed in itertools.combinations(range(len(people)), size):
            gone = set(removed)
            mask = 0
            for i in range(len(people)):
                if i not in gone:
                    mask |= masks[i]
            if mask.bit_count() < target:
                return {people[i] for i in removed}
    raise AssertionError("unreachable: removing everyone drops coverage to 0")


def _task_masks(graph: ProjectGraph, people: list[PersonId]) -> list[int]:
    task_bit = {t: 1 << i for i, t in enumerate(sorted(graph.tasks))}
    return [
        sum(task_bit[t] for t in graph.tasks_of(p)) for p in people
    ]


def _union_mask(masks: list[int]) -> int:
    mask = 0
    for m in masks:
        mask |= m
    return mask


@dataclass(frozen=True)
class CoverageReport:
    """Greedy coverage measures for one graph and threshold."""

    delta: Fraction
    mrs_set: tuple[PersonId, ...]
    mcs_set: tuple[PersonId, ...]

    @property
    def z_best(self) -> int:
        return len(self.mrs_set)

    @property
    def z_worst(self) -> int:
        return len(self.mcs_set) - 1

    def to_dict(self) -> dict:
        from .io import person_label

        return {
            "delta": float(self.delta),
            "mrs_set": [person_label(p) for p in self.mrs_set],
            "mcs_set": [person_label(p) for p in self.mcs_set],
            "mrs_size": len(self.mrs_set),
            "mcs_size": len(self.mcs_set),
            "z_best": self.z_best,
            "z_worst": self.z_worst,
        }


def coverage_report(graph: ProjectGraph, delta: DeltaLike) -> CoverageReport:
    """Greedy MRS/MCS witnesses plus the derived Z quantities."""
    d = normalize_delta(delta)
    mrs = mrs_greedy(graph, d)
    mcs = mcs_greedy(graph, d)
    return CoverageReport(
        delta=d,
        mrs_set=tuple(sorted(mrs)),
        mcs_set=tuple(sorted(mcs)),
    )
