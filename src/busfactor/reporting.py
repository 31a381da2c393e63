"""Deterministic artifact serialization.

JSON is rendered by ``io.json_pieces``, the one canonical writer (keys
sorted, floats printed with 17 significant digits so they round-trip
exactly), and CSV rows here; LF line endings throughout. Re-running a
command with the same inputs must reproduce files byte for byte. The
renderers emit bare artifacts; the command line embeds the run manifest
(command, parameters, seed, input digest, tool version) in each file.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from .io import fmt_float, json_pieces, person_label

if TYPE_CHECKING:  # read only in annotations
    from .generators import SweepTable
    from .optimize import AnnealingTrace
    from .robustness import RobustnessResult


def canonical_json(obj, indent: int | None = 2) -> str:
    """The text of :func:`~busfactor.io.json_pieces`, joined."""
    return "".join(json_pieces(obj, indent))


def digest_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- CSV renderers ----------------------------------------------------------------


def _csv(header: str, rows: Iterable[str], comments: Iterable[str] = ()) -> Iterator[str]:
    """The lines of a CSV artifact: the ``#`` comments, the header, then the
    rows. They are yielded one at a time, so that a writer holds no more
    than a buffer of them."""
    for comment in comments:
        yield f"# {comment}\n"
    yield header + "\n"
    for row in rows:
        yield row + "\n"


def sweep_csv(table: SweepTable) -> Iterator[str]:
    comments = [f"note: {note}" for note in table.notes]
    if table.truncated:
        comments.append("truncated: true")
    rows = (
        f"{row.modifications},{row.mrs_size},{row.mcs_size},"
        f"{fmt_float(row.robustness)}"
        for row in table.rows
    )
    return _csv("modifications,mrs,mcs,robustness", rows, comments)


def decay_csv(result: RobustnessResult) -> Iterator[str]:
    removed = itertools.chain([""], map(person_label, result.sequence))
    rows = map("{},{},{}".format, itertools.count(), removed, result.curve)
    return _csv("step,removed_person,tau", rows)


class _FloatText(dict):
    """``fmt_float`` of each key, worked out on first lookup. Keys compare
    by value, so 0.0 and -0.0 would share a text; callers hold neither or
    only one of them."""

    def __missing__(self, value: float) -> str:
        self[value] = text = fmt_float(value)
        return text


def trace_csv(trace: AnnealingTrace) -> Iterator[str]:
    """One row per accepted step. A chain has few distinct temperatures and
    best objectives, so each is formatted once."""
    text = _FloatText()  # temperatures are positive, objectives non-negative
    rows = (
        f"{step},{text[temperature]},{text[objective]}"
        for step, temperature, objective in trace.rows
    )
    return _csv("step,temperature,objective", rows)


def paired_decay_csv(original: Sequence[int], optimized: Sequence[int]) -> Iterator[str]:
    rows = map("{},{},{}".format, itertools.count(), original, optimized)
    return _csv("step,tau_original,tau_optimized", rows)
