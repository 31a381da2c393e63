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
from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import InfeasibleError
from .graph import FrozenGraph, PersonId, degree_slots, require_nondegenerate
from .io import person_label

EXACT_GUARD = 20  # subset enumeration refuses larger people sets

DeltaLike = Fraction | float | str | int


def normalize_delta(delta: DeltaLike) -> Fraction:
    """Coerce a threshold to an exact fraction in (0, 1].

    Floats go through their shortest decimal repr, so a CLI-style ``0.55``
    means exactly 55/100 rather than the nearest binary float, and a
    ``Decimal`` through its exact text. Text other than ``n/d`` is screened
    by ``float`` first, so that ``1e-50000000`` is refused before
    ``Fraction`` builds its power of ten, and so is any text that rounds
    to 0. ``Fraction`` strips the same whitespace.
    """
    if isinstance(delta, float):
        delta = repr(delta)
    elif isinstance(delta, Decimal):
        delta = str(delta)
    if isinstance(delta, str) and "/" not in delta and not 0 < float(delta.strip()) <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    value = Fraction(delta)
    if not 0 < value <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return value


def _coverage_target(graph: FrozenGraph, delta: DeltaLike) -> Fraction:
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


def mrs_greedy(graph: FrozenGraph, delta: DeltaLike) -> set[PersonId]:
    """Approximate maximum redundant set.

    Greedily grows a keep-set, always adding the person who covers the most
    still-uncovered tasks (ties to the smallest id), until the keep-set
    covers the target; everyone else is redundant.
    """
    people, tasks, adjacency = graph
    target = _coverage_target(graph, delta)
    covered = len(set().union(*adjacency))
    if covered < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable: "
            f"only {covered} of {len(tasks)} tasks covered"
        )
    keep = greedy_keep(adjacency, math.ceil(target))
    return set(people).difference(people[k] for k in keep)


def mcs_greedy(graph: FrozenGraph, delta: DeltaLike) -> set[PersonId]:
    """Approximate minimum critical set.

    Removes people in decreasing order of degree (ties to the smallest id)
    until coverage drops below the target. A remaining person keeps all of
    their own tasks covered, so degrees never change as others leave and the
    one-shot order equals per-step recomputation.
    """
    people, _, adjacency = graph
    target = _coverage_target(graph, delta)
    order = degree_slots(adjacency)
    removed = greedy_critical(adjacency, order, graph.task_degrees(), math.ceil(target))
    return {people[k] for k in order[:removed]}


def _exact_inputs(
    graph: FrozenGraph, delta: DeltaLike
) -> tuple[tuple[PersonId, ...], list[int], Fraction]:
    """The people in id order, each one's tasks as a bitmask, and the
    coverage target; refuses graphs above the guard."""
    if graph.n_people > EXACT_GUARD:
        raise ValueError(
            f"exact oracle refused: {graph.n_people} people exceeds the "
            f"{EXACT_GUARD}-person guard"
        )
    target = _coverage_target(graph, delta)
    people, _, adjacency = graph
    return people, [sum(1 << t for t in own) for own in adjacency], target


def mrs_exact(graph: FrozenGraph, delta: DeltaLike) -> set[PersonId]:
    """Exhaustive maximum redundant set (smallest graphs only)."""
    people, masks, target = _exact_inputs(graph, delta)
    if _union_mask(masks).bit_count() < target:
        raise InfeasibleError(
            f"coverage target {float(target):g} tasks unreachable"
        )
    sizes = range(len(people), -1, -1)
    return _first_removal(people, masks, sizes, lambda covered: covered >= target)


def mcs_exact(graph: FrozenGraph, delta: DeltaLike) -> set[PersonId]:
    """Exhaustive minimum critical set (smallest graphs only)."""
    people, masks, target = _exact_inputs(graph, delta)
    sizes = range(len(people) + 1)
    return _first_removal(people, masks, sizes, lambda covered: covered < target)


def _first_removal(
    people: Sequence[PersonId], masks: list[int], sizes: range, kept_ok: Callable[[int], bool]
) -> set[PersonId]:
    """The first removal, by size in ``sizes`` order, whose kept people cover
    a task count that ``kept_ok`` accepts; within a size, the first in
    ``combinations`` order, which is the lexicographically smallest."""
    n = len(people)
    for size in sizes:
        for removed in itertools.combinations(range(n), size):
            kept = (masks[i] for i in range(n) if i not in removed)
            if kept_ok(_union_mask(kept).bit_count()):
                return {people[i] for i in removed}
    raise AssertionError("unreachable: the last removal size always passes")


def _union_mask(masks: Iterable[int]) -> int:
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
        return {
            "delta": float(self.delta),
            "mrs_set": [person_label(p) for p in self.mrs_set],
            "mcs_set": [person_label(p) for p in self.mcs_set],
            "mrs_size": len(self.mrs_set),
            "mcs_size": len(self.mcs_set),
            "z_best": self.z_best,
            "z_worst": self.z_worst,
        }


def coverage_report(graph: FrozenGraph, delta: DeltaLike) -> CoverageReport:
    """Greedy MRS/MCS witnesses plus the derived Z quantities."""
    d = normalize_delta(delta)
    mrs = mrs_greedy(graph, d)
    mcs = mcs_greedy(graph, d)
    return CoverageReport(
        delta=d,
        mrs_set=tuple(sorted(mrs)),
        mcs_set=tuple(sorted(mcs)),
    )
