"""Spans recorded from outside the package, around calls into each module.

``install`` replaces each target function on every ``busfactor`` module that
binds it (``optimize`` imports ``decay_curve`` by name, ``generators``
imports ``mrs_greedy`` ...), and the two ``ProjectGraph`` methods on the
class. Spans stay in memory; self time is computed afterwards as a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from workloads import anneal_steps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    request: int  # one CLI command is one request


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(counters, args,
        result)`` adds the call's work counts."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def call_counts(self) -> Counter:
        return Counter(span.name for span in self.spans)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        totals[span.name] += span.end - span.start - child_time
    return dict(totals)


# -- work counts observed at the layer boundaries --------------------------------


def _parsed_bytes(counters, args, graph):
    counters["io.parse_edge_list.bytes"] += len(args[0])


def _edges_out(counters, args, graph):
    counters["generators.edges_out"] += graph.n_edges


def _checkpoints(counters, args, table):
    counters["generators.checkpoints"] += len(table.rows)


def _decay_edges(counters, args, curve):
    counters["robustness.decay_curve.edges"] += args[0].n_edges


def _swaps(counters, args, result):
    counters["optimize.null_sample.attempts"] += result.attempts
    counters["optimize.null_sample.swaps"] += result.swaps


def _anneal_steps(counters, args, result):
    config = args[1]
    counters["optimize.anneal.steps"] += anneal_steps(vars(config))
    counters["optimize.anneal.accepted"] += len(result[1].rows)


# (module, function, observer); the span is named "<module>.<function>".
FUNCTIONS = (
    ("cli", "main", None),
    ("io", "parse_edge_list", _parsed_bytes),
    ("io", "render_edge_list", None),
    ("generators", "generate_powerlaw", _edges_out),
    ("generators", "run_sweep", _checkpoints),
    ("coverage", "mrs_greedy", None),
    ("coverage", "mcs_greedy", None),
    ("robustness", "decay_curve", _decay_edges),
    ("robustness", "greedy_order", None),
    ("robustness", "bus_factor_greedy", None),
    ("optimize", "null_sample", _swaps),
    ("optimize", "anneal", _anneal_steps),
    ("reporting", "canonical_json", None),
    ("reporting", "digest_file", None),
)
METHODS = (("__init__", "graph.ProjectGraph.init"), ("copy", "graph.ProjectGraph.copy"))


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every busfactor module attribute bound to ``original`` at
    ``replacement``; returns what to restore."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "busfactor" or mod_name.startswith("busfactor.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo list for ``uninstall``."""
    import busfactor.cli  # noqa: F401  (loads every module that binds a target)
    from busfactor.graph import ProjectGraph

    undo = []
    for module, name, observe in FUNCTIONS:
        original = getattr(sys.modules[f"busfactor.{module}"], name)
        undo += _rebind(original, tracer.wrap(f"{module}.{name}", original, observe))
    for attr, span_name in METHODS:
        original = vars(ProjectGraph)[attr]
        setattr(ProjectGraph, attr, tracer.wrap(span_name, original))
        undo.append((ProjectGraph, attr, original))
    return undo


def install_sweep_alloc(peaks: list[float]) -> list[tuple[object, str, object]]:
    """Wrap ``run_sweep`` alone to record its tracemalloc peak, in MB."""
    import busfactor.cli  # noqa: F401
    from busfactor.generators import run_sweep

    @functools.wraps(run_sweep)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return run_sweep(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    return _rebind(run_sweep, measured)


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
