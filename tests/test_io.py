import json

import pytest
from hypothesis import given

from busfactor.errors import ParseError
from busfactor.graph import ProjectGraph
from busfactor.io import (
    FORMATS,
    load_edge_list,
    parse_edge_list,
    render_edge_list,
    save_edge_list,
)

from conftest import sparse_graphs

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
    g = ProjectGraph(people=[1, 5], tasks=[2, 7], edges=[(1, 2)])
    for fmt in ("csv", "json"):
        back = parse_edge_list(render_edge_list(g, fmt), fmt)
        assert back == g


def test_csv_rows_sorted():
    g = ProjectGraph(edges=[(2, 3), (1, 2), (2, 2), (1, 1)])
    assert render_edge_list(g, "csv") == "person,task\np1,t1\np1,t2\np2,t2\np2,t3\n"


@given(sparse_graphs())
def test_round_trip_property(graph):
    # sparse_graphs declares ids in any order; rendering must not depend on it
    declared_sorted = ProjectGraph(sorted(graph.people), sorted(graph.tasks), graph.edges())
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
