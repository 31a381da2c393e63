"""Deterministic artifact serialization.

Every output file embeds a run manifest (command, parameters, seed, input
digest, tool version) and is rendered through a canonical writer: keys
sorted, floats printed with 17 significant digits so they round-trip
exactly, LF line endings. Re-running a command with the same inputs must
reproduce files byte for byte.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string  # RFC 8259 escapes
from pathlib import Path

from .generators import SweepTable
from .io import person_label
from .optimize import AnnealingTrace, PairedDecay
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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a command bit for bit."""

    command: str
    parameters: dict
    seed: int | None
    input_sha256: str | None
    version: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "input_sha256": self.input_sha256,
            "version": self.version,
        }

    def comment_line(self) -> str:
        return "# manifest: " + canonical_json(self.to_dict(), indent=None)


def digest_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or the pieces of a rendering as they are yielded."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines([text] if isinstance(text, str) else text)


# -- CSV renderers ----------------------------------------------------------------


def sweep_csv(table: SweepTable, manifest: RunManifest) -> str:
    lines = [manifest.comment_line()]
    for note in table.notes:
        lines.append(f"# note: {note}")
    if table.truncated:
        lines.append("# truncated: true")
    lines.append("modifications,mrs,mcs,robustness")
    for row in table.rows:
        lines.append(
            f"{row.modifications},{row.mrs_size},{row.mcs_size},"
            f"{fmt_float(row.robustness)}"
        )
    return "\n".join(lines) + "\n"


def decay_csv(result: RobustnessResult, manifest: RunManifest) -> str:
    lines = [manifest.comment_line(), "step,removed_person,tau"]
    values = result.curve.values
    lines.append(f"0,,{values[0]}")
    for i, person in enumerate(result.sequence, start=1):
        lines.append(f"{i},{person_label(person)},{values[i]}")
    return "\n".join(lines) + "\n"


class _FloatText(dict):
    """``fmt_float`` of each key, worked out on first lookup. Keys compare
    by value, so 0.0 and -0.0 would share a text; callers hold neither or
    only one of them."""

    def __missing__(self, value: float) -> str:
        self[value] = text = fmt_float(value)
        return text


def trace_csv(trace: AnnealingTrace, manifest: RunManifest) -> Iterator[str]:
    """The lines of the trace, one row per accepted step, yielded so that a
    writer holds no more than a buffer of them. A chain has few distinct
    temperatures and best objectives, so each is formatted once."""
    yield manifest.comment_line() + "\nstep,temperature,objective\n"
    text = _FloatText()  # temperatures are positive, objectives non-negative
    for step, temperature, objective in trace.rows:
        yield f"{step},{text[temperature]},{text[objective]}\n"


def paired_decay_csv(paired: PairedDecay, manifest: RunManifest) -> str:
    lines = [manifest.comment_line(), "step,tau_original,tau_optimized"]
    for step, a, b in paired.rows():
        lines.append(f"{step},{a},{b}")
    return "\n".join(lines) + "\n"

