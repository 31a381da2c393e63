"""Synthetic heavy-tailed bipartite graphs and perturbation sweeps.

The generator draws person and task degree targets from truncated discrete
power laws and wires the two sides with a bipartite Chung-Lu pass (pair
(p, t) kept with probability ``min(1, w_p * w_t / S)``), followed by a
repair pass that tops up nodes below the minimum degree. Everything is
deterministic for a given seed.

``run_sweep`` perturbs a graph step by step, mimicking managerial actions:
densify/sparsify shift workload density edge by edge, singletons hire
one-task specialists, duplicates clone existing contributors starting from
the busiest. Every kind modifies one dense state, built once from the
graph's frozen view, in place; the sweep measures it at fixed checkpoints
as it reaches them and keeps no snapshot graph.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .coverage import DeltaLike, greedy_critical, greedy_keep, normalize_delta
from .graph import (
    GraphLike,
    ProjectGraph,
    as_frozen,
    degree_slots,
    from_maps,
    require_nondegenerate,
)
from .robustness import _normalization, insertion_area

# numpy is imported inside the functions that use it, so that commands
# that make no vectorised draws (analyze, decay, optimize, the edge and
# duplicate sweeps) never load it.

SWEEP_KINDS = ("densify", "sparsify", "singletons", "duplicates")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...) with a stable mapping:
    numpy's PCG64 seeded by ``SeedSequence([seed, *stream])``. The
    vectorised draws use it; the scalar ones use :class:`ScalarDraws`,
    which yields the same stream without numpy
    (``tests/test_generators.py::test_scalar_draws_match_make_rng`` checks
    this against the installed numpy)."""
    import numpy as np
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """``SeedSequence``'s word hash, whose multiplier steps on each call."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


class ScalarDraws:
    """The draws of ``make_rng(seed, *stream)``, one at a time, in pure
    Python: ``below(n)`` is ``int(rng.integers(n))`` and ``random()`` is
    ``rng.random()``, interleaved in any order.

    The state is rebuilt as numpy builds it: ``SeedSequence`` hashes the
    32-bit words of ``seed`` and each ``stream`` value into a pool of four,
    and the pool's ``generate_state(4, uint64)`` seeds PCG64's 128-bit LCG,
    whose outputs are XSL-RR (O'Neill 2014). Bounded integers below
    ``2**32`` are Lemire's method (Lemire 2019) on the outputs' 32-bit
    halves, low half first, with the high half kept for the next such
    draw; larger bounds take whole outputs. ``random()`` takes a whole
    output and leaves a kept half alone. Equality with the installed numpy
    is checked by ``tests/test_generators.py::test_scalar_draws_match_make_rng``.
    """

    def __init__(self, seed: int, *stream: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = []
        for n in (seed, *stream):
            if n < 0:
                raise ValueError("expected non-negative integer")
            words.append(n & _MASK32)
            while n > _MASK32:
                n >>= 32
                words.append(n & _MASK32)
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        out = _hasher(0x8B51F9DD, 0x58F38DED)
        state = [out(pool[i % 4]) for i in range(8)]
        # uint64 words are little-endian pairs; PCG64 reads (high, low)
        # pairs of them as its 128-bit seed and stream
        seed128 = state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2]
        stream128 = state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6]
        self._inc = (stream128 << 1 | 1) & _MASK128
        self._state = ((self._inc + seed128) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the kept high half of the last 32-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        r = s >> 122
        return (x >> r | x << 64 - r) & _MASK64

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, as ``int(rng.integers(n))``."""
        if n <= 1:
            if n == 1:
                return 0  # numpy draws nothing for an empty range
            raise ValueError("high <= 0")
        if n > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        bits = 32 if n <= 1 << 32 else 64
        mask, threshold = (1 << bits) - 1, (1 << bits) % n
        half = self._half
        while True:
            if bits == 64:
                m = self._next64() * n
            elif half is None:
                x = self._next64()
                m, half = (x & _MASK32) * n, x >> 32
            else:
                m, half = half * n, None
            if m & mask >= threshold:  # else one of the biased low products
                self._half = half
                return m >> bits

    def random(self) -> float:
        """A uniform float in ``[0, 1)``, as ``rng.random()``."""
        return (self._next64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class GeneratorConfig:
    n_people: int
    n_tasks: int
    exponent_people: float = 2.5
    exponent_tasks: float = 2.5
    min_degree: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.n_people < 1 or self.n_tasks < 1:
            raise ValueError("n_people and n_tasks must be at least 1")
        if not (
            1 < self.exponent_people < math.inf and 1 < self.exponent_tasks < math.inf
        ):
            raise ValueError("power-law exponents must be finite and exceed 1")
        if self.min_degree < 1:
            raise ValueError("min_degree must be at least 1")
        if self.min_degree > self.n_tasks or self.min_degree > self.n_people:
            raise ValueError(
                "min_degree exceeds the opposite side; degree sums infeasible"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _sample_powerlaw_degrees(
    rng: np.random.Generator, n: int, exponent: float, k_min: int, k_max: int
) -> np.ndarray:
    """n i.i.d. draws from a truncated discrete power law on [k_min, k_max]."""
    import numpy as np
    support = np.arange(k_min, k_max + 1, dtype=np.float64)
    pmf = support ** (-exponent)
    cdf = np.cumsum(pmf / pmf.sum())
    picks = np.searchsorted(cdf, rng.random(n), side="right")
    return picks.astype(np.int64) + k_min


def generate_powerlaw(config: GeneratorConfig) -> ProjectGraph:
    """Seeded power-law bipartite graph per the module docstring recipe."""
    import numpy as np
    config.validate()
    rng = make_rng(config.seed)
    n_p, n_t = config.n_people, config.n_tasks
    deg_p = _sample_powerlaw_degrees(
        rng, n_p, config.exponent_people, config.min_degree, n_t
    ).astype(np.float64)
    deg_t = _sample_powerlaw_degrees(
        rng, n_t, config.exponent_tasks, config.min_degree, n_p
    ).astype(np.float64)

    # match expected degree sums by scaling up the lighter side
    sum_p, sum_t = deg_p.sum(), deg_t.sum()
    if sum_p < sum_t:
        deg_p *= sum_t / sum_p
    elif sum_t < sum_p:
        deg_t *= sum_p / sum_t
    total = deg_p.sum()

    people = {p: set() for p in range(n_p)}
    tasks = {t: set() for t in range(n_t)}
    for p, own in people.items():
        probs = deg_p[p] * deg_t / total
        own.update(np.nonzero(rng.random(n_t) < probs)[0].tolist())
        for t in own:
            tasks[t].add(p)
    _repair_min_degree(people, tasks, config.min_degree, rng)
    _repair_min_degree(tasks, people, config.min_degree, rng)
    return from_maps(people, tasks)


def _repair_min_degree(
    nodes: dict[int, set], others: dict[int, set], min_degree: int, rng: np.random.Generator
) -> None:
    """Link each of ``nodes`` below ``min_degree`` to as many more of
    ``others`` as it lacks, drawn without replacement from those it is not
    linked to; both sides have ids ``0, 1, ...``.

    The draw is ``rng.choice(absent, missing, replace=False)`` over the
    ascending absent ids, made without building them: ``choice`` draws
    indices into its population and returns the ids at them, so drawing
    the indices and mapping each to the absent id of that rank consumes
    the same random numbers and picks the same ids."""
    for n, own in nodes.items():
        missing = min_degree - len(own)
        if missing > 0:
            linked = sorted(own)
            picks = rng.choice(len(others) - len(linked), size=missing, replace=False)
            for m in picks.tolist():
                for linked_id in linked:  # the m-th id not in own
                    if linked_id > m:
                        break
                    m += 1
                own.add(m)
                others[m].add(n)


def disjoint_union(first: ProjectGraph, second: ProjectGraph) -> ProjectGraph:
    """Combine two graphs, relabeling the second's ids above the first's."""
    p_off, t_off = first.fresh_person_id(), first.fresh_task_id()
    return ProjectGraph(
        people=[*first.people, *(p_off + p for p in second.people)],
        tasks=[*first.tasks, *(t_off + t for t in second.tasks)],
        edges=[*first.edges(), *((p_off + p, t_off + t) for p, t in second.edges())],
    )


# -- the perturbation engine ----------------------------------------------------


class _Perturbation:
    """A graph in dense form, modified in place: people at slots in id
    order, ``held[k]`` the task indices of slot ``k``, the task degrees and
    the covered-task count. A new person takes the fresh id ``max + 1`` and
    the next slot, which keeps the slots in id order."""

    def __init__(self, graph: GraphLike):
        people, self.tasks, adjacency = frozen = as_frozen(graph)
        self.people = list(people)
        self.held = [set(own) for own in adjacency]
        self.task_degree = frozen.task_degrees()
        self.covered = len(self.tasks) - self.task_degree.count(0)

    def add_edge(self, k: int, t: int) -> None:
        self.held[k].add(t)
        if self.task_degree[t] == 0:
            self.covered += 1
        self.task_degree[t] += 1

    def remove_edge(self, k: int, t: int) -> None:
        self.held[k].remove(t)
        self.task_degree[t] -= 1
        if self.task_degree[t] == 0:
            self.covered -= 1

    def add_person(self, tasks: Iterable[int]) -> None:
        self.people.append(self.people[-1] + 1)
        self.held.append(set())
        for t in tasks:
            self.add_edge(len(self.held) - 1, t)


def _edge_additions(state: _Perturbation, rng: ScalarDraws) -> Iterator[None]:
    """Adds one uniformly random absent pair per item; some must be left."""
    held, n_tasks = state.held, len(state.tasks)
    while True:
        for _ in range(200):
            k = rng.below(len(held))
            t = rng.below(n_tasks)
            if t not in held[k]:
                break
        else:
            # near saturation: the absent pair of uniform rank in canonical
            # order, located by the per-slot counts of absent tasks
            rank = rng.below(sum(n_tasks - len(own) for own in held))
            for k, own in enumerate(held):
                if rank < n_tasks - len(own):
                    break
                rank -= n_tasks - len(own)
            t = [t for t in range(n_tasks) if t not in own][rank]
        state.add_edge(k, t)
        yield


def _edge_removals(state: _Perturbation, rng: ScalarDraws) -> Iterator[None]:
    """Removes one uniformly random edge per item; some must be left."""
    edges = [(k, t) for k, own in enumerate(state.held) for t in sorted(own)]
    while True:
        i = rng.below(len(edges))
        k, t = edges[i]
        edges[i] = edges[-1]
        edges.pop()
        state.remove_edge(k, t)
        yield


def _perturbation(
    graph: GraphLike, kind: str, total_steps: int, seed: int
) -> tuple[_Perturbation, Iterator[None], int, list[str]]:
    """The dense state of ``graph``, an iterator each item of which applies
    one modification of ``kind`` to it, how many of ``total_steps`` the
    graph has material for, and notes on the run."""
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")
    if kind == "singletons" and total_steps > graph.n_tasks:
        raise ValueError(
            f"cannot add {total_steps} singletons: only {graph.n_tasks} tasks "
            "(at most one specialist per task)"
        )
    state = _Perturbation(graph)
    notes = []
    available = total_steps
    if kind == "densify":
        modifications = _edge_additions(state, ScalarDraws(seed))
        available = graph.n_people * graph.n_tasks - graph.n_edges
    elif kind == "sparsify":
        modifications = _edge_removals(state, ScalarDraws(seed))
        available = graph.n_edges
    elif kind == "singletons":
        picks = make_rng(seed).choice(graph.n_tasks, size=total_steps, replace=False)
        modifications = (state.add_person((t,)) for t in picks.tolist())
    else:
        order = degree_slots(state.held)
        if total_steps > len(order):
            notes.append(
                f"cloning {total_steps} people wraps around the {len(order)} available"
            )
        clones = itertools.cycle(order)
        modifications = (state.add_person(state.held[k]) for k in clones)
    if total_steps > available:
        notes.append(f"no further edges to modify after {available} steps")
    return state, modifications, min(total_steps, available), notes


def _checkpoints(
    modifications: Iterator[None], steps: int, stride: int
) -> Iterator[int]:
    """Apply ``steps`` modifications, yielding the count done before the
    first, after every ``stride``-th and after the last."""
    yield 0
    for done, _ in enumerate(itertools.islice(modifications, steps), 1):
        if done % stride == 0 or done == steps:
            yield done


# -- metric sweeps --------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    modifications: int
    mrs_size: int
    mcs_size: int
    robustness: float


@dataclass
class SweepTable:
    """Metric readings along a perturbation, one row per checkpoint."""

    kind: str
    delta: Fraction
    rows: list[SweepRow] = field(default_factory=list)
    truncated: bool = False
    notes: list[str] = field(default_factory=list)


def run_sweep(
    graph: GraphLike,
    kind: str,
    total_steps: int,
    stride: int = 100,
    delta: DeltaLike = Fraction(1, 2),
    seed: int = 0,
) -> SweepTable:
    """Perturb ``graph`` step by step and measure MRS/MCS/robustness at every
    ``stride`` modifications, plus the unmodified baseline and the last step.

    Each checkpoint is measured on the dense state as it is reached, by the
    kernels behind :func:`mrs_greedy`, :func:`mcs_greedy` and
    :func:`bus_factor_greedy`. Stops early, flagging truncation, when the
    perturbation runs out of material or the coverage target becomes
    unreachable.
    """
    d = normalize_delta(delta)
    if total_steps < 1 or stride < 1:
        raise ValueError("total_steps and stride must be at least 1")
    require_nondegenerate(graph)
    state, modifications, steps, notes = _perturbation(graph, kind, total_steps, seed)
    table = SweepTable(kind=kind, delta=d, truncated=steps < total_steps, notes=notes)
    held, n_tasks = state.held, len(state.tasks)
    need = math.ceil(d * n_tasks)
    for mods in _checkpoints(modifications, steps, stride):
        if state.covered < need:
            table.truncated = True
            table.notes.append(
                f"coverage target unreachable from {mods} modifications on"
            )
            break
        order = degree_slots(held)
        mrs = len(held) - len(greedy_keep(held, need))
        mcs = greedy_critical(held, order, state.task_degree, need)
        area = insertion_area(n_tasks, [held[k] for k in reversed(order)])
        value = area / _normalization(len(held), n_tasks)
        table.rows.append(SweepRow(mods, mrs, mcs, value))
    return table
