import re

import numpy as np
import pytest
from hypothesis import given, settings

from busfactor.graph import ProjectGraph

from conftest import (
    largest_task_component_size,
    random_bipartite,
    remove_people,
    sparse_graph_parts,
)


def test_construction_counts(four_edge_graph):
    g = four_edge_graph
    assert g.n_people == 2
    assert g.n_tasks == 3
    assert g.n_edges == 4
    assert sorted(g.people) == [1, 2]
    assert sorted(g.tasks) == [1, 2, 3]


def _increasing(ids) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))


@settings(max_examples=200, deadline=None)
@given(sparse_graph_parts())
def test_view_invariants(parts):
    # every analysis reads the view as it is, with no conversion step
    people, tasks, edges = parts
    view = ProjectGraph(people, tasks, edges).freeze()
    assert list(view.people) == sorted({*people, *(p for p, _ in edges)})
    assert list(view.tasks) == sorted({*tasks, *(t for _, t in edges)})
    assert _increasing(view.people) and _increasing(view.tasks)
    assert len(view.adjacency) == view.n_people
    for own in view.adjacency:
        assert _increasing(own)
        assert set(own) <= set(range(view.n_tasks))
    read = {(view.people[k], view.tasks[t]) for k, own in enumerate(view.adjacency) for t in own}
    assert read == set(edges)


FOUR_EDGES = [(1, 1), (1, 2), (2, 2), (2, 3)]


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 1\)"):
        ProjectGraph(edges=[*FOUR_EDGES, (1, 1)])


@pytest.mark.parametrize(
    "parts, message",
    [
        ({"people": [-1]}, "person id must be non-negative, got -1"),
        ({"people": [1, 2, 1]}, "person 1 already exists"),
        ({"tasks": [-3]}, "task id must be non-negative, got -3"),
        ({"tasks": [4, 4]}, "task 4 already exists"),
        ({"edges": [(-2, 1)]}, "person id must be non-negative, got -2"),
        ({"edges": [(1, -5)]}, "task id must be non-negative, got -5"),
        ({"edges": [(-1, -2)]}, "person id must be non-negative, got -1"),
    ],
)
def test_bad_ids_rejected(parts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProjectGraph(**parts)


def test_remove_people(four_edge_graph):
    g = four_edge_graph
    reduced = remove_people(g, [1])
    assert sorted(reduced.people) == [2]
    assert sorted(reduced.tasks) == [1, 2, 3]  # tasks stay as nodes
    assert sorted(reduced.edges()) == [(2, 2), (2, 3)]
    assert reduced.degree_of_task(1) == 0

    assert remove_people(g, []) == g
    assert remove_people(g, [1, 2]).n_edges == 0
    with pytest.raises(ValueError, match="unknown person"):
        remove_people(g, [9])


def test_remove_people_composes(four_edge_graph):
    g = four_edge_graph
    assert remove_people(remove_people(g, [1]), [2]) == remove_people(g, [1, 2])


def test_remove_people_composes_random():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        g = random_bipartite(rng, 8, 8)
        people = sorted(g.people)
        half = len(people) // 2
        a, b = set(people[:half]), set(people[half:])
        assert remove_people(remove_people(g, a), b) == remove_people(g, a | b)


def test_largest_task_component(four_edge_graph):
    g = four_edge_graph
    assert largest_task_component_size(g) == 3
    assert largest_task_component_size(remove_people(g, [1])) == 2
    empty = ProjectGraph(people=[1, 2], tasks=[1, 2]).freeze()
    assert largest_task_component_size(empty) == 0


def test_largest_task_component_ignores_isolated_tasks():
    g = ProjectGraph(people=[1], tasks=[1, 2, 3], edges=[(1, 1)]).freeze()
    assert largest_task_component_size(g) == 1


def test_lctc_bounded_by_tasks():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_bipartite(rng, 9, 9)
        assert 0 <= largest_task_component_size(g) <= g.n_tasks
