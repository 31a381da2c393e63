import json

import pytest
from hypothesis import given, settings, strategies as st

from busfactor.errors import ParseError
from busfactor.graph import ProjectGraph
from busfactor.io import (
    FORMATS,
    load_edge_list,
    parse_edge_list,
    render_edge_list,
    save_edge_list,
)

from conftest import parse_edge_list_reference, sparse_graph_parts

FOUR_EDGE_CSV = "person,task\np1,t1\np1,t2\np2,t2\np2,t3\n"


def test_parse_csv_basic():
    g = parse_edge_list(FOUR_EDGE_CSV)
    assert g.n_people == 2
    assert g.n_tasks == 3
    assert g.n_edges == 4


def test_parse_csv_node_sections():
    g = parse_edge_list("person,task\np1,\np2,\np3,\n,t1\n,t2\n")
    assert g.n_people == 3
    assert g.n_tasks == 2
    assert g.n_edges == 0


def test_parse_accepts_bytes_and_comments():
    g = parse_edge_list(b"# provenance header\nperson,task\np1,t1\n")
    assert g.n_edges == 1


def test_namespace_violation_reports_line():
    with pytest.raises(ParseError, match="line 3.*person column"):
        parse_edge_list("person,task\np1,t1\nt2,t1\n")
    with pytest.raises(ParseError, match="task column"):
        parse_edge_list("person,task\np1,p1\n")


def test_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_edge_list("who,what\np1,t1\n")
    with pytest.raises(ParseError, match="line 2.*2 fields"):
        parse_edge_list("person,task\np1,t1,t2\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_edge_list("person,task\np1,t1\np1,t1\n")
    with pytest.raises(ParseError, match="invalid person id"):
        parse_edge_list("person,task\nalice,t1\n")
    with pytest.raises(ParseError, match="invalid task id"):
        parse_edge_list("person,task\np1,t\u0661\u0662\n")  # Arabic-Indic digits
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_edge_list("person,task\np1,\np1,\n")
    # leading zeros: p01 would load as p1, re-render as p1 and clash with p1
    for row in ("p01,t1", "p00,t1"):
        with pytest.raises(ParseError, match="invalid person id"):
            parse_edge_list(f"person,task\n{row}\n")
    with pytest.raises(ParseError, match="invalid task id 't007'"):
        parse_edge_list("person,task\np1,t007\n")


def test_csv_round_trip(four_edge_graph):
    text = render_edge_list(four_edge_graph, "csv")
    assert parse_edge_list(text, "csv") == four_edge_graph
    # canonical order makes reserialization byte-identical
    assert render_edge_list(parse_edge_list(text, "csv"), "csv") == text


def test_round_trip_preserves_isolated_nodes():
    g = ProjectGraph(people=[1, 5], tasks=[2, 7], edges=[(1, 2)]).freeze()
    for fmt in ("csv", "json"):
        back = parse_edge_list(render_edge_list(g, fmt), fmt)
        assert back == g


def test_csv_rows_sorted():
    g = ProjectGraph(edges=[(2, 3), (1, 2), (2, 2), (1, 1)]).freeze()
    assert render_edge_list(g, "csv") == "person,task\np1,t1\np1,t2\np2,t2\np2,t3\n"


@given(sparse_graph_parts())
def test_round_trip_property(parts):
    # the parts declare ids in any order; rendering must not depend on it
    people, tasks, edges = parts
    graph = ProjectGraph(people, tasks, edges).freeze()
    declared_sorted = ProjectGraph(sorted(people), sorted(tasks), edges).freeze()
    for fmt in FORMATS:
        text = render_edge_list(graph, fmt)
        back = parse_edge_list(text, fmt)
        assert back == graph
        assert render_edge_list(back, fmt) == text
        assert render_edge_list(declared_sorted, fmt) == text


def test_json_round_trip(four_edge_graph):
    text = render_edge_list(four_edge_graph, "json")
    assert parse_edge_list(text, "json") == four_edge_graph
    assert render_edge_list(parse_edge_list(text, "json"), "json") == text


def test_json_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_edge_list("{", "json")
    with pytest.raises(ParseError, match="missing or non-array"):
        parse_edge_list('{"people": [], "tasks": []}', "json")
    with pytest.raises(ParseError, match="undeclared node"):
        parse_edge_list(
            '{"people": ["p1"], "tasks": [], "edges": [["p1", "t1"]]}', "json"
        )
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_edge_list(
            '{"people": ["p1"], "tasks": ["t1"],'
            ' "edges": [["p1", "t1"], ["p1", "t1"]]}',
            "json",
        )
    # trailing newline, Arabic-Indic digits, leading zeros
    for label in ("p1\n", "p\u0661\u0662", "p01", "p00"):
        with pytest.raises(ParseError, match="invalid person id"):
            parse_edge_list(
                json.dumps({"people": [label], "tasks": [], "edges": []}), "json"
            )
    with pytest.raises(ParseError, match="invalid task id"):
        parse_edge_list(
            json.dumps({"people": [], "tasks": ["t007"], "edges": []}), "json"
        )


def test_json_ignores_extra_keys(four_edge_graph):
    text = render_edge_list(four_edge_graph, "json")
    spiked = text.replace('{\n', '{\n  "manifest": {"tool": "x"},\n', 1)
    assert parse_edge_list(spiked, "json") == four_edge_graph


def test_file_round_trip(tmp_path, four_edge_graph):
    for name in ("g.csv", "g.json"):
        path = tmp_path / name
        save_edge_list(four_edge_graph, path)
        assert load_edge_list(path) == four_edge_graph


def test_unknown_format(four_edge_graph):
    with pytest.raises(ValueError, match="unknown format"):
        render_edge_list(four_edge_graph, "xml")
    with pytest.raises(ValueError, match="unknown format"):
        parse_edge_list("person,task\n", "xml")


# -- the parser against the row-by-row reference -----------------------------


def _ids(prefix: str):
    return st.builds(f"{prefix}{{}}".format, st.integers(0, 30))


_LONG = st.sampled_from(["p" + "9" * 4400, "t" + "9" * 4400])  # beyond int's digit limit
# fields that are not ids, or may sit in the other side's column
_WILD = st.one_of(
    st.sampled_from(["p01", "t00", "p007", "p\u0661", "t1\u0662", "p", "x1", "P1", ""]),
    _LONG,
    _ids("p"),
    _ids("t"),
)
_PADDING = st.sampled_from(["", "", "", " ", "\t"])


def _padded(field):
    return st.builds(lambda a, f, b: a + f + b, _PADDING, field, _PADDING)


@st.composite
def csv_texts(draw) -> str:
    """Edges, isolated declarations, comments and blank lines in any order,
    each line ended by ``\\n`` or ``\\r\\n``; two texts in three also
    repeat a row or hold one malformed row, and some lack the header."""
    person, task = _padded(_ids("p")), _padded(_ids("t"))
    row = st.one_of(  # edges listed twice, to draw them more often
        st.builds("{},{}".format, person, task),
        st.builds("{},{}".format, person, task),
        st.builds("{},".format, person),
        st.builds(",{}".format, task),
        st.sampled_from(["# note", "#p1,t1", ""]),
    )
    lines = draw(st.lists(row, max_size=20))
    if draw(st.sampled_from([False, True, True])):
        wild = _padded(_WILD)
        bad = draw(st.one_of(
            st.sampled_from(lines or ["p1,t1"]),  # a repeat
            st.builds("{},{}".format, wild, st.one_of(task, wild)),
            st.builds("{},{}".format, person, wild),
            st.builds("{},{}".format, _LONG, st.one_of(task, _LONG)),
            st.builds("{},".format, wild),
            st.builds(",{}".format, wild),
            st.builds("{},{},{}".format, person, task, task),
            st.sampled_from([",", " , ", " ", "p1", "p1;t1", "who,what", "person, task"]),
        ))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = draw(st.sampled_from(["person,task"] * 8 + ["who,what", "person,task ", ""]))
    lines = [*draw(st.lists(st.sampled_from(["# provenance", ""]), max_size=2)), header, *lines]
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, endings))


@st.composite
def json_texts(draw) -> str:
    """Graph objects whose edges join declared nodes; most of them also
    repeat a declaration or an edge, name an undeclared node or hold a
    malformed id or pair, some lack an array, and some texts are cut short."""
    people = draw(st.lists(_ids("p"), unique=True, max_size=8))
    tasks = draw(st.lists(_ids("t"), unique=True, max_size=8))
    edges = []
    if people and tasks:
        pairs = st.tuples(st.sampled_from(people), st.sampled_from(tasks)).map(list)
        edges = draw(st.lists(pairs, unique_by=tuple, max_size=15))
    obj = {"people": people, "tasks": tasks, "edges": edges}
    if draw(st.booleans()):
        obj["manifest"] = {"tool": "x"}
    key = draw(st.sampled_from([None, "people", "tasks", "edges", "edges", "edges"]))
    if key is not None:
        wild = st.one_of(_WILD, st.integers(0, 3))
        if key == "edges":
            person = st.one_of(st.sampled_from(people or ["p1"]), _ids("p"), wild)
            task = st.one_of(st.sampled_from(tasks or ["t1"]), _ids("t"), wild)
            bad = st.one_of(
                st.sampled_from(edges or [["p1", "t1"]]),  # a repeat
                st.tuples(person, task).map(list),  # undeclared or malformed ids,
                st.tuples(person, task).map(list),  # drawn more often
                st.tuples(st.one_of(person, _LONG), _LONG).map(list),
                st.lists(wild, max_size=3),
                wild,
            )
        else:
            # a repeated declaration, or not an id of this side
            bad = st.one_of(st.sampled_from(obj[key] or ["p1"]), wild, _LONG)
        obj[key].insert(draw(st.integers(0, len(obj[key]))), draw(bad))
    if draw(st.integers(0, 9)) == 9:
        obj[draw(st.sampled_from(["people", "tasks", "edges"]))] = draw(
            st.sampled_from([None, {}, "p1"])
        )
    text = json.dumps(obj)
    if draw(st.integers(0, 9)) == 9:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _parsed(parse, text: str, fmt: str):
    """The frozen graph with its declared people and tasks (isolated ones
    included) and its edge count, or the error and line."""
    try:
        graph = parse(text, fmt)
    except ParseError as exc:
        return str(exc), exc.line
    return graph, graph.people, graph.tasks, graph.n_edges


def _reference(text: str, fmt: str):
    return parse_edge_list_reference(text, fmt).freeze()


@settings(max_examples=200, deadline=None)
@given(csv_texts())
def test_csv_parser_matches_the_row_by_row_reference(text):
    assert _parsed(parse_edge_list, text, "csv") == _parsed(_reference, text, "csv")


@settings(max_examples=100, deadline=None)
@given(csv_texts(), st.integers(880, 920), st.booleans())
def test_csv_parser_matches_the_reference_across_blocks(text, comments, lone_cr):
    # the parser splits its text about 8,192 characters at a time: a prefix
    # of 7,920 to 8,280 characters moves that cut through the drawn rows,
    # and a lone carriage return, which ends no line, joins two of them
    text = "#comment\n" * comments + (text.replace("\n", "\r", 1) if lone_cr else text)
    assert _parsed(parse_edge_list, text, "csv") == _parsed(_reference, text, "csv")


@settings(max_examples=300, deadline=None)
@given(json_texts())
def test_json_parser_matches_the_row_by_row_reference(text):
    assert _parsed(parse_edge_list, text, "json") == _parsed(_reference, text, "json")
