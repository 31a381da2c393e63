"""Deterministic artifact serialization.

Artifacts are rendered through a canonical writer: keys sorted, floats
printed with 17 significant digits so they round-trip exactly, LF line
endings. Re-running a command with the same inputs must reproduce files
byte for byte. The renderers here emit bare artifacts; the command line
embeds the run manifest (command, parameters, seed, input digest, tool
version) in each file it writes.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence
from json.encoder import encode_basestring as _json_string  # RFC 8259 escapes
from pathlib import Path
from typing import TYPE_CHECKING

from .io import person_label

if TYPE_CHECKING:  # read only in annotations
    from .generators import SweepTable
    from .optimize import AnnealingTrace
    from .robustness import RobustnessResult


def fmt_float(value: float) -> str:
    """17-significant-digit decimal; always carries a float marker."""
    text = format(float(value), ".17g")
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def canonical_json(obj, indent: int | None = 2) -> str:
    """Render JSON with sorted keys and fmt_float floats."""
    pieces: list[str] = []
    _write_json(obj, pieces, indent, 0)
    return "".join(pieces) + ("\n" if indent is not None else "")


def _write_json(obj, out: list[str], indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    closing_pad = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(("," if i else "") + pad)
            out.append(_json_string(key))
            out.append(": " if indent is not None else ":")
            _write_json(obj[key], out, indent, level + 1)
        out.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append(("," if i else "") + pad)
            _write_json(item, out, indent, level + 1)
        out.append(closing_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


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
