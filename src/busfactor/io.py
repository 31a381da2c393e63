"""Edge-list serialization, and :func:`json_pieces`, the one JSON writer.

Two interchangeable on-disk formats:

* CSV with header ``person,task``; ids look like ``p12`` / ``t7``, without
  leading zeros, so each id has one spelling. Edge rows carry both fields,
  isolated nodes are declared by leaving the other field empty (``p3,`` /
  ``,t9``). Lines starting with ``#`` are ignored so tools can prepend
  provenance headers.
* JSON object with ``people``, ``tasks`` and ``edges`` arrays using the same
  prefixed ids. Unknown keys (e.g. an embedded manifest) are ignored.

Parsing returns the frozen view. Saving is canonical and streamed: edges
sorted by (person, task), then isolated people, then isolated tasks (in JSON
under sorted keys); reserializing a loaded file is byte-identical.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring as _json_string  # RFC 8259 escapes
from pathlib import Path

from .errors import ParseError
from .graph import FrozenGraph, freeze_maps

FORMATS = ("csv", "json")

_ID_RE = re.compile(r"([pt])(0|[1-9][0-9]*)")
_SIDES = {"p": "person", "t": "task"}


def person_label(person: int) -> str:
    return f"p{person}"


def task_label(task: int) -> str:
    return f"t{task}"


def _parse_id(field: str, side: str, line: int | None = None) -> int:
    """The number in ``field``, an id of ``side`` (``"person"`` or ``"task"``)."""
    m = _ID_RE.fullmatch(field)
    if m is None:
        raise ParseError(f"invalid {side} id {field!r}", line)
    if _SIDES[m[1]] != side:
        raise ParseError(f"{_SIDES[m[1]]} id {field!r} in {side} column", line)
    try:
        return int(m[2])
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise ParseError(str(exc), line) from exc


def _declare(field: str, side: str, ids: dict, line: int | None = None) -> int:
    """Add the new node ``field``, an id of ``side``, to ``ids`` (each label
    read so far to its id, one to one: no id has two spellings)."""
    if field in ids:
        raise ParseError(f"duplicate declaration of {field}", line)
    ids[field] = n = _parse_id(field, side, line)
    return n


def parse_edge_list(data: str | bytes, fmt: str = "csv") -> FrozenGraph:
    """Parse edge-list ``data`` in the given format into a frozen graph."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return (_parse_csv if _known(fmt) == "csv" else _parse_json)(data)


def render_edge_list(graph: FrozenGraph, fmt: str = "csv") -> str:
    """Serialize ``graph`` canonically in the given format."""
    return "".join(_pieces(graph, fmt))


def _pieces(graph: FrozenGraph, fmt: str) -> Iterator[str]:
    return csv_pieces(graph) if _known(fmt) == "csv" else json_pieces(graph_fields(graph))


def _known(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return fmt


def file_format(path: str | Path, fmt: str | None = None) -> str:
    """``fmt`` if given, else the format the file name implies: ``json``
    for a ``.json`` suffix, ``csv`` otherwise."""
    if fmt is not None:
        return fmt
    return "json" if Path(path).suffix == ".json" else "csv"


def load_edge_list(path: str | Path, fmt: str | None = None) -> FrozenGraph:
    return parse_edge_list(Path(path).read_bytes(), file_format(path, fmt))


def save_edge_list(
    graph: FrozenGraph, path: str | Path, fmt: str | None = None
) -> None:
    write_text(path, _pieces(graph, file_format(path, fmt)))


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or the pieces of a rendering as they are yielded."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines([text] if isinstance(text, str) else text)


# -- CSV ---------------------------------------------------------------------


def _lines(data: str) -> Iterator[str]:
    """The items of ``data.split("\n")``, split a block of about 8,192
    characters at a time, so that no list of every line is held."""
    start = 0
    while (end := data.find("\n", start + 8192)) >= 0:
        yield from data[start:end].split("\n")
        start = end + 1
    yield from data[start:].split("\n")


def _parse_csv(data: str) -> FrozenGraph:
    people: dict[int, set[int]] = {}  # each person's task ids
    person_ids: dict[str, int] = {}  # see _declare
    task_ids: dict[str, int] = {}
    header_seen = False
    for lineno, raw in enumerate(_lines(data), start=1):
        line = raw.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "person,task":
                raise ParseError(
                    f"expected header 'person,task', got {line!r}", lineno
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", lineno)
        p_field, t_field = fields[0].strip(), fields[1].strip()
        if p_field and t_field:
            p = person_ids.get(p_field)
            if p is None:
                p = _declare(p_field, "person", person_ids, lineno)
                people[p] = set()
            t = task_ids.get(t_field)
            if t is None:
                t = _declare(t_field, "task", task_ids, lineno)
            own = people[p]
            if t in own:
                raise ParseError(f"duplicate edge ({p_field},{t_field})", lineno)
            own.add(t)
        elif p_field:
            people[_declare(p_field, "person", person_ids, lineno)] = set()
        elif t_field:
            _declare(t_field, "task", task_ids, lineno)
        else:
            raise ParseError("empty row", lineno)
    if not header_seen:
        raise ParseError("missing 'person,task' header")
    return freeze_maps(people, task_ids.values())


def csv_pieces(graph: FrozenGraph) -> Iterator[str]:
    """The canonical CSV of ``graph``, yielded a person's edges at a time,
    then an isolated node at a time, so that a writer need not hold the
    whole text."""
    people, tasks, adjacency = graph
    yield "person,task\n"
    linked = bytearray(len(tasks))
    for p, own in zip(people, adjacency):
        if own:
            prefix = f"{person_label(p)},"
            yield "".join([f"{prefix}{task_label(tasks[t])}\n" for t in own])
            for t in own:
                linked[t] = 1
    for p, own in zip(people, adjacency):
        if not own:
            yield f"{person_label(p)},\n"
    for t, task in enumerate(tasks):
        if not linked[t]:
            yield f",{task_label(task)}\n"


# -- JSON --------------------------------------------------------------------


def _parse_json(data: str) -> FrozenGraph:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, long integers
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("people", "tasks", "edges"):
        if not isinstance(obj.get(key), list):
            raise ParseError(f"missing or non-array {key!r} field")

    people: dict[int, set[int]] = {}  # each person's task ids
    person_ids: dict[str, int] = {}  # see _declare
    task_ids: dict[str, int] = {}
    for label in obj["people"]:
        people[_declare(str(label), "person", person_ids)] = set()
    for label in obj["tasks"]:
        _declare(str(label), "task", task_ids)
    for pair in obj["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edge {pair!r} is not a [person, task] pair")
        p, t = person_ids.get(str(pair[0])), task_ids.get(str(pair[1]))
        if p is None or t is None:
            _parse_id(str(pair[0]), "person")  # an invalid id is reported first
            _parse_id(str(pair[1]), "task")
            raise ParseError(f"edge [{pair[0]}, {pair[1]}] references undeclared node")
        own = people[p]
        if t in own:
            raise ParseError(f"duplicate edge [{pair[0]}, {pair[1]}]")
        own.add(t)
    return freeze_maps(people, task_ids.values())


def graph_fields(graph: FrozenGraph) -> dict[str, Iterator]:
    """The arrays of ``graph``'s JSON file, each drawn as it is written."""
    people, tasks, adjacency = graph
    edges = ((person_label(p), task_label(tasks[t]))
             for p, own in zip(people, adjacency) for t in own)
    return {"edges": edges, "people": map(person_label, people), "tasks": map(task_label, tasks)}


def fmt_float(value: float) -> str:
    """17-significant-digit decimal; always carries a float marker."""
    text = format(float(value), ".17g")
    return text if "." in text or "e" in text or "n" in text else text + ".0"


def json_pieces(obj, indent: int | None = 2) -> Iterator[str]:
    """The canonical JSON text of ``obj``: sorted keys, :func:`fmt_float`
    floats, each member on its own line ``indent`` spaces in and a final
    newline, or one line if ``indent`` is None. Lists, tuples and iterators
    are arrays, drawn as they are written. Any other type (a set among
    them) or a key that is not a string raises ``TypeError``."""
    pad, step, colon = ("", "", ":") if indent is None else ("\n", " " * indent, ": ")
    yield from _json(obj, pad, step, colon)
    yield pad  # the final newline of the indented form


def _json(obj, pad: str, step: str, colon: str) -> Iterator[str]:
    """``obj`` at the depth whose line break and indentation is ``pad``."""
    inner = pad + step
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):  # _json_string refuses a key not a str
            text = _json_scalar(obj[key])
            yield ("," if i else "{") + inner + _json_string(key) + colon + (text or "")
            if text is None:  # a member is yielded as it is rendered
                yield from _json(obj[key], inner, step, colon)
        yield pad + "}" if obj else "{}"
    elif isinstance(obj, (list, tuple, Iterator)):
        sep = "["
        for item in obj:  # an element is yielded whole
            yield sep + inner + (_json_scalar(item) or "".join(_json(item, inner, step, colon)))
            sep = ","
        yield "[]" if sep == "[" else pad + "]"
    else:
        yield _json_scalar(obj)


def _json_scalar(obj) -> str | None:
    """The JSON text of ``obj``, or None if ``obj`` is a container."""
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (dict, list, tuple, Iterator)):
        return None
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return fmt_float(obj) if isinstance(obj, float) else str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")
