import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from busfactor.errors import DegenerateError
from busfactor.graph import ProjectGraph
from busfactor.robustness import (
    bus_factor_exact,
    bus_factor_greedy,
    decay_curve,
    greedy_order,
    robustness,
)

from conftest import (
    decay_curve_naive,
    greedy_order_adaptive_reference,
    largest_task_component_size,
    random_bipartite,
    sparse_graphs,
)


def random_permutation(rng, graph):
    order = sorted(graph.people)
    rng.shuffle(order)
    return order


def test_decay_curve_examples(four_edge_graph, k22):
    assert decay_curve(four_edge_graph, [1, 2]).values == (3, 2, 0)
    assert decay_curve(four_edge_graph, [2, 1]).values == (3, 2, 0)
    for order in ([1, 2], [2, 1]):
        assert decay_curve(k22, order).values == (2, 2, 0)
    edgeless = ProjectGraph(people=[1, 2], tasks=[1, 2])
    assert decay_curve(edgeless, [1, 2]).values == (0, 0, 0)


def test_decay_rejects_non_permutations(four_edge_graph):
    for bad in ([1], [1, 1], [1, 2, 3], [1, 3]):
        with pytest.raises(ValueError, match="permutation"):
            decay_curve(four_edge_graph, bad)


def test_decay_matches_naive_on_fixtures(four_edge_graph, k22, two_stars):
    for g in (four_edge_graph, k22, two_stars):
        order = sorted(g.people)
        assert decay_curve(g, order).values == decay_curve_naive(g, order).values


def test_decay_matches_naive_random():
    rng = np.random.default_rng(606)
    for _ in range(60):
        g = random_bipartite(rng, 12, 12)
        order = random_permutation(rng, g)
        assert decay_curve(g, order).values == decay_curve_naive(g, order).values


@st.composite
def graphs_with_orders(draw):
    """A :func:`sparse_graphs` graph plus a removal order."""
    graph = draw(sparse_graphs())
    return graph, draw(st.permutations(list(graph.people)))


@settings(max_examples=300, deadline=None)
@given(graphs_with_orders())
def test_decay_matches_naive_property(case):
    graph, order = case
    assert decay_curve(graph, order).values == decay_curve_naive(graph, order).values


def test_curve_boundaries_random():
    rng = np.random.default_rng(607)
    for _ in range(40):
        g = random_bipartite(rng, 10, 10)
        order = random_permutation(rng, g)
        curve = decay_curve(g, order).values
        assert curve[0] == largest_task_component_size(g)
        assert curve[-1] == 0
        assert all(0 <= v <= g.n_tasks for v in curve)
        assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_robustness_examples(four_edge_graph, k22):
    assert robustness(four_edge_graph, [1, 2]) == pytest.approx(7 / 9, abs=1e-15)
    assert robustness(k22, [1, 2]) == 1.0
    edgeless = ProjectGraph(people=[1, 2], tasks=[1, 2])
    assert robustness(edgeless, [1, 2]) == 0.0


def test_robustness_degenerate():
    with pytest.raises(DegenerateError):
        robustness(ProjectGraph(people=[1]), [1])
    with pytest.raises(DegenerateError):
        bus_factor_greedy(ProjectGraph(tasks=[1]))


def test_greedy_examples(four_edge_graph, star_graph, two_stars):
    res = bus_factor_greedy(four_edge_graph)
    assert res.sequence == (1, 2)
    assert res.value == pytest.approx(7 / 9, abs=1e-15)

    assert bus_factor_greedy(star_graph).value == 1.0  # single-person caveat
    assert bus_factor_greedy(two_stars).value == 0.5


def test_greedy_order_ties_and_degrees():
    g = ProjectGraph(edges=[(3, 1), (3, 2), (1, 1), (2, 1), (2, 2)])
    # degrees: p3=2, p2=2, p1=1; ties by ascending id
    assert greedy_order(g) == [2, 3, 1]
    assert greedy_order_adaptive_reference(g) == [2, 3, 1]


def test_adaptive_order_equals_static():
    # others' departures never change a person's degree, so re-ranking
    # after each removal reproduces the static order
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_bipartite(rng, 10, 10)
        assert greedy_order(g) == greedy_order_adaptive_reference(g)


def test_exact_examples(four_edge_graph, k22):
    res = bus_factor_exact(four_edge_graph)
    assert res.value == pytest.approx(7 / 9, abs=1e-15)
    assert res.sequence == (1, 2)
    assert bus_factor_exact(k22).value == 1.0


def test_exact_guard():
    g = ProjectGraph(people=range(9), tasks=[0], edges=[(p, 0) for p in range(9)])
    with pytest.raises(ValueError, match="guard"):
        bus_factor_exact(g)


def test_exact_below_greedy_random():
    rng = np.random.default_rng(75)
    for _ in range(30):
        g = random_bipartite(rng, 6, 8)
        assert bus_factor_exact(g).value <= bus_factor_greedy(g).value


def test_complete_graphs_score_one():
    rng = np.random.default_rng(76)
    for _ in range(10):
        n_p = int(rng.integers(1, 6))
        n_t = int(rng.integers(1, 6))
        g = ProjectGraph(
            people=range(n_p),
            tasks=range(n_t),
            edges=[(p, t) for p in range(n_p) for t in range(n_t)],
        )
        assert bus_factor_greedy(g).value == 1.0
        order = random_permutation(rng, g)
        assert robustness(g, order) == 1.0


def test_robustness_in_unit_interval_random():
    rng = np.random.default_rng(77)
    for _ in range(50):
        g = random_bipartite(rng, 10, 10)
        order = random_permutation(rng, g)
        assert 0.0 <= robustness(g, order) <= 1.0


def test_cloning_bridge_person_never_hurts():
    # p2 bridges two otherwise disjoint stars; its clone backs up the bridge
    bridge = ProjectGraph(
        edges=[(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
    )
    before = bus_factor_greedy(bridge).value
    cloned = ProjectGraph(edges=[*bridge.edges(), (4, 2), (4, 3)])
    assert bus_factor_greedy(cloned).value >= before

    hub = ProjectGraph(edges=[(1, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    before = bus_factor_greedy(hub).value
    cloned = ProjectGraph(edges=[*hub.edges(), (4, 1), (4, 2), (4, 3)])
    assert bus_factor_greedy(cloned).value >= before
