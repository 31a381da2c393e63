"""Metamorphic relations on generated desk-scale graphs (750 people, 1000
tasks) and one 10x graph (7,500 by 10,000), far above the sizes the
exhaustive oracles reach: each relation ties two runs of the library
together, so a wrong answer at full size shows without an oracle."""

import pytest

from busfactor import (
    AnnealingConfig,
    GeneratorConfig,
    NullModelConfig,
    ProjectGraph,
    anneal,
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


def relabeled(graph: FrozenGraph) -> FrozenGraph:
    """``graph`` under the order-preserving relabel: both maps keep the id
    order, so the slots, and every tie-break that reads them, are the same."""
    people, tasks, adjacency = graph
    return FrozenGraph(tuple(map(person, people)), tuple(map(task, tasks)), adjacency)


def assert_greedy_and_coverage_relabel(graph: FrozenGraph) -> None:
    moved_graph = relabeled(graph)
    base, moved = bus_factor_greedy(graph), bus_factor_greedy(moved_graph)
    assert moved.value == base.value
    assert moved.curve == base.curve
    assert moved.sequence == tuple(map(person, base.sequence))

    for delta in ("0.5", "0.8"):
        base, moved = coverage_report(graph, delta), coverage_report(moved_graph, delta)
        assert moved.mrs_set == tuple(map(person, base.mrs_set))
        assert moved.mcs_set == tuple(map(person, base.mcs_set))


def test_csv_and_json_parse_to_equal_views(desk_graph):
    csv = parse_edge_list(render_edge_list(desk_graph, "csv"), "csv")
    json = parse_edge_list(render_edge_list(desk_graph, "json"), "json")
    assert csv == json == desk_graph


def test_order_preserving_relabel_changes_only_the_ids(desk_graph):
    assert_greedy_and_coverage_relabel(desk_graph)

    # the swap draws index the canonical edge order, not the ids
    config = NullModelConfig(n_samples=1, swaps_per_edge=2, seed=3)
    base = null_sample(desk_graph, config, 1)
    moved = null_sample(relabeled(desk_graph), config, 1)
    assert (moved.held, moved.swaps) == (base.held, base.swaps)
    assert base.swaps > 0


def test_task_permutation_changes_no_measure(desk_graph):
    # neither measure reads a task id: the greedy order and its curve count
    # tasks, and the coverage greedies break ties by person slot
    people, tasks, adjacency = desk_graph
    shuffled = {t: (7919 * t + 13) % 1000 for t in tasks}
    assert sorted(shuffled.values()) == list(tasks)
    edges = ((p, shuffled[tasks[t]]) for p, own in zip(people, adjacency) for t in own)
    permuted = ProjectGraph(people, tasks, edges).freeze()
    assert permuted != desk_graph

    assert bus_factor_greedy(permuted) == bus_factor_greedy(desk_graph)
    for delta in ("0.5", "0.8"):
        base, moved = coverage_report(desk_graph, delta), coverage_report(permuted, delta)
        assert (moved.mrs_set, moved.mcs_set) == (base.mrs_set, base.mcs_set)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_order_preserving_relabel_leaves_annealing_unchanged(seed):
    # the proposals draw slots and task indices, never ids
    graph = generate_powerlaw(GeneratorConfig(n_people=40, n_tasks=60, seed=seed))
    config = AnnealingConfig(steps_per_temperature=20, seed=seed)
    base, base_trace = anneal(graph, config)
    moved, moved_trace = anneal(relabeled(graph), config)
    assert moved.adjacency == base.adjacency
    assert moved == relabeled(base)
    assert moved_trace.rows == base_trace.rows
    assert len(base_trace.rows) > 1


def test_order_preserving_relabel_at_10x():
    graph = generate_powerlaw(GeneratorConfig(n_people=7500, n_tasks=10000, seed=42))
    assert_greedy_and_coverage_relabel(graph)
