"""Edge-list serialization.

Two interchangeable on-disk formats:

* CSV with header ``person,task``; ids look like ``p12`` / ``t7``, without
  leading zeros, so each id has one spelling. Edge rows carry both fields,
  isolated nodes are declared by leaving the other field empty (``p3,`` /
  ``,t9``). Lines starting with ``#`` are ignored so tools can prepend
  provenance headers.
* JSON object with ``people``, ``tasks`` and ``edges`` arrays using the same
  prefixed ids. Unknown keys (e.g. an embedded manifest) are ignored.

Saving is canonical: edges sorted by (person, task), then isolated people,
then isolated tasks; reserializing a loaded file is byte-identical.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import ParseError
from .graph import ProjectGraph

FORMATS = ("csv", "json")

_PERSON_RE = re.compile(r"p(0|[1-9][0-9]*)")
_TASK_RE = re.compile(r"t(0|[1-9][0-9]*)")


def person_label(person: int) -> str:
    return f"p{person}"


def task_label(task: int) -> str:
    return f"t{task}"


def _id_number(digits: str, line: int | None) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise ParseError(str(exc), line) from exc


def _parse_person(field: str, line: int | None = None) -> int:
    m = _PERSON_RE.fullmatch(field)
    if not m:
        if _TASK_RE.fullmatch(field):
            raise ParseError(f"task id {field!r} in person column", line)
        raise ParseError(f"invalid person id {field!r}", line)
    return _id_number(m.group(1), line)


def _parse_task(field: str, line: int | None = None) -> int:
    m = _TASK_RE.fullmatch(field)
    if not m:
        if _PERSON_RE.fullmatch(field):
            raise ParseError(f"person id {field!r} in task column", line)
        raise ParseError(f"invalid task id {field!r}", line)
    return _id_number(m.group(1), line)


def parse_edge_list(data: str | bytes, fmt: str = "csv") -> ProjectGraph:
    """Parse edge-list ``data`` in the given format into a graph."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if fmt == "csv":
        return _parse_csv(data)
    if fmt == "json":
        return _parse_json(data)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def render_edge_list(graph: ProjectGraph, fmt: str = "csv") -> str:
    """Serialize ``graph`` canonically in the given format."""
    if fmt == "csv":
        return _render_csv(graph)
    if fmt == "json":
        return _render_json(graph)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def file_format(path: str | Path, fmt: str | None = None) -> str:
    """``fmt`` if given, else the format the file name implies: ``json``
    for a ``.json`` suffix, ``csv`` otherwise."""
    if fmt is not None:
        return fmt
    return "json" if Path(path).suffix == ".json" else "csv"


def load_edge_list(path: str | Path, fmt: str | None = None) -> ProjectGraph:
    return parse_edge_list(Path(path).read_bytes(), file_format(path, fmt))


def save_edge_list(
    graph: ProjectGraph, path: str | Path, fmt: str | None = None
) -> None:
    text = render_edge_list(graph, file_format(path, fmt))
    Path(path).write_text(text, encoding="utf-8", newline="\n")


# -- CSV ---------------------------------------------------------------------


def _parse_csv(data: str) -> ProjectGraph:
    graph = ProjectGraph()
    header_seen = False
    for lineno, raw in enumerate(data.split("\n"), start=1):
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
            p = _parse_person(p_field, lineno)
            t = _parse_task(t_field, lineno)
            if p not in graph.people:
                graph.add_person(p)
            if t not in graph.tasks:
                graph.add_task(t)
            if graph.has_edge(p, t):
                raise ParseError(f"duplicate edge ({p_field},{t_field})", lineno)
            graph.add_edge(p, t)
        elif p_field:
            p = _parse_person(p_field, lineno)
            if p in graph.people:
                raise ParseError(f"duplicate declaration of {p_field}", lineno)
            graph.add_person(p)
        elif t_field:
            t = _parse_task(t_field, lineno)
            if t in graph.tasks:
                raise ParseError(f"duplicate declaration of {t_field}", lineno)
            graph.add_task(t)
        else:
            raise ParseError("empty row", lineno)
    if not header_seen:
        raise ParseError("missing 'person,task' header")
    return graph


def _render_csv(graph: ProjectGraph) -> str:
    lines = ["person,task"]
    linked_people: set[int] = set()
    linked_tasks: set[int] = set()
    for p, t in graph.edges():
        lines.append(f"{person_label(p)},{task_label(t)}")
        linked_people.add(p)
        linked_tasks.add(t)
    for p in sorted(graph.people - linked_people):
        lines.append(f"{person_label(p)},")
    for t in sorted(graph.tasks - linked_tasks):
        lines.append(f",{task_label(t)}")
    return "\n".join(lines) + "\n"


# -- JSON --------------------------------------------------------------------


def _parse_json(data: str) -> ProjectGraph:
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

    graph = ProjectGraph()
    for label in obj["people"]:
        p = _parse_person(str(label))
        if p in graph.people:
            raise ParseError(f"duplicate declaration of {label}")
        graph.add_person(p)
    for label in obj["tasks"]:
        t = _parse_task(str(label))
        if t in graph.tasks:
            raise ParseError(f"duplicate declaration of {label}")
        graph.add_task(t)
    for pair in obj["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"edge {pair!r} is not a [person, task] pair")
        p = _parse_person(str(pair[0]))
        t = _parse_task(str(pair[1]))
        if p not in graph.people or t not in graph.tasks:
            raise ParseError(f"edge [{pair[0]}, {pair[1]}] references undeclared node")
        if graph.has_edge(p, t):
            raise ParseError(f"duplicate edge [{pair[0]}, {pair[1]}]")
        graph.add_edge(p, t)
    return graph


def graph_object(graph: ProjectGraph) -> dict:
    """The ``people``, ``tasks`` and ``edges`` arrays of the JSON format, in
    canonical order; writers may add keys, such as a manifest."""
    return {
        "people": [person_label(p) for p in sorted(graph.people)],
        "tasks": [task_label(t) for t in sorted(graph.tasks)],
        "edges": [[person_label(p), task_label(t)] for p, t in graph.edges()],
    }


def _render_json(graph: ProjectGraph) -> str:
    return json.dumps(graph_object(graph), indent=2, sort_keys=True) + "\n"
