"""Metamorphic relations on generated desk-scale graphs (750 people, 1000
tasks), far above the sizes the exhaustive oracles reach: each relation
ties two runs of the library together, so a wrong answer at full size
shows without an oracle."""

import pytest

from busfactor import (
    GeneratorConfig,
    NullModelConfig,
    bus_factor_greedy,
    coverage_report,
    generate_powerlaw,
    null_sample,
    parse_edge_list,
    render_edge_list,
)
from busfactor.graph import FrozenGraph


@pytest.fixture(scope="module", params=[42, 7])
def desk_graph(request) -> FrozenGraph:
    return generate_powerlaw(GeneratorConfig(n_people=750, n_tasks=1000, seed=request.param))


def person(p: int) -> int:
    return 3 * p + 5


def task(t: int) -> int:
    return 2 * t + 1


def test_csv_and_json_parse_to_equal_views(desk_graph):
    csv = parse_edge_list(render_edge_list(desk_graph, "csv"), "csv")
    json = parse_edge_list(render_edge_list(desk_graph, "json"), "json")
    assert csv == json == desk_graph


def test_order_preserving_relabel_changes_only_the_ids(desk_graph):
    # both maps keep the id order, so the slots, and every tie-break that
    # reads them, are the same; only the ids reported change
    people, tasks, adjacency = desk_graph
    relabeled = FrozenGraph(tuple(map(person, people)), tuple(map(task, tasks)), adjacency)

    base, moved = bus_factor_greedy(desk_graph), bus_factor_greedy(relabeled)
    assert moved.value == base.value
    assert moved.curve == base.curve
    assert moved.sequence == tuple(map(person, base.sequence))

    for delta in ("0.5", "0.8"):
        base, moved = coverage_report(desk_graph, delta), coverage_report(relabeled, delta)
        assert moved.mrs_set == tuple(map(person, base.mrs_set))
        assert moved.mcs_set == tuple(map(person, base.mcs_set))

    # the swap draws index the canonical edge order, not the ids
    config = NullModelConfig(n_samples=1, swaps_per_edge=2, seed=3)
    base, moved = null_sample(desk_graph, config, 1), null_sample(relabeled, config, 1)
    assert (moved.held, moved.swaps) == (base.held, base.swaps)
    assert base.swaps > 0
