import numpy as np
import pytest

from busfactor.graph import ProjectGraph

from conftest import largest_task_component_size, random_bipartite, remove_people


def test_construction_counts(four_edge_graph):
    g = four_edge_graph
    assert g.n_people == 2
    assert g.n_tasks == 3
    assert g.n_edges == 4
    assert sorted(g.people) == [1, 2]
    assert sorted(g.tasks) == [1, 2, 3]


def test_duplicate_edge_rejected(four_edge_graph):
    with pytest.raises(ValueError, match="duplicate edge"):
        four_edge_graph.add_edge(1, 1)


def test_unknown_endpoints_rejected(four_edge_graph):
    with pytest.raises(ValueError, match="unknown person"):
        four_edge_graph.add_edge(9, 1)
    with pytest.raises(ValueError, match="unknown task"):
        four_edge_graph.add_edge(1, 9)


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
    empty = ProjectGraph(people=[1, 2], tasks=[1, 2])
    assert largest_task_component_size(empty) == 0


def test_largest_task_component_ignores_isolated_tasks():
    g = ProjectGraph(people=[1], tasks=[1, 2, 3], edges=[(1, 1)])
    assert largest_task_component_size(g) == 1


def test_mutations(four_edge_graph):
    g = four_edge_graph.copy()
    g.add_edge(2, 1)
    assert g.n_edges == 5

    g = four_edge_graph.copy()
    g.remove_edge(1, 1)
    assert g.degree_of_task(1) == 0
    with pytest.raises(ValueError, match="no edge"):
        g.remove_edge(1, 1)


def test_copy_is_independent(four_edge_graph):
    g = four_edge_graph
    c = g.copy()
    c.add_person(10)
    c.add_edge(10, 3)
    assert 10 not in g.people
    assert g.n_edges == 4


def test_lctc_bounded_by_tasks():
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_bipartite(rng, 9, 9)
        assert 0 <= largest_task_component_size(g) <= g.n_tasks
