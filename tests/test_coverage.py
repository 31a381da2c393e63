from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from busfactor.coverage import (
    coverage_report,
    mcs_exact,
    mcs_greedy,
    mrs_exact,
    mrs_greedy,
    normalize_delta,
)
from busfactor.errors import DegenerateError, InfeasibleError
from busfactor.graph import ProjectGraph

from conftest import (
    coverage_bruteforce,
    mcs_bruteforce,
    mcs_greedy_reference,
    mrs_bruteforce,
    mrs_greedy_reference,
    random_bipartite,
    remove_people,
    sparse_graphs,
)


def test_normalize_delta():
    assert normalize_delta(0.5) == Fraction(1, 2)
    assert normalize_delta("0.55") == Fraction(11, 20)
    assert normalize_delta(1) == 1
    assert normalize_delta("1/3") == Fraction(1, 3)
    assert normalize_delta(" 0.5\x1f") == Fraction(1, 2)  # Fraction strips it
    # "1e-400" is in (0, 1] but reads as float 0; the report would print 0.0
    for bad in (0, -0.1, 1.5, "0", "1e-400", "1e400", "nan", "2/3e1"):
        with pytest.raises(ValueError):
            normalize_delta(bad)
    assert normalize_delta(Decimal("0.5")) == Fraction(1, 2)
    assert normalize_delta(Decimal("5.5E-1")) == Fraction(11, 20)
    for bad in ("0", "-0.5", "1.0000001", "1e-400", "NaN", "sNaN", "Infinity"):
        with pytest.raises(ValueError):
            normalize_delta(Decimal(bad))


def test_mrs_greedy_examples(four_edge_graph, k22):
    assert mrs_greedy(four_edge_graph, 0.5) == {2}
    assert mrs_greedy(k22, 1) == {2}
    empty = ProjectGraph(people=[1, 2], tasks=[1, 2])
    with pytest.raises(InfeasibleError):
        mrs_greedy(empty, 0.5)


def test_mcs_greedy_examples(four_edge_graph, star_graph, k22):
    assert mcs_greedy(four_edge_graph, 0.5) == {1, 2}
    assert mcs_greedy(star_graph, 0.5) == {1}
    assert mcs_greedy(k22, 1) == {1, 2}


def test_exact_examples(four_edge_graph, k22):
    assert len(mrs_exact(four_edge_graph, 0.5)) == 1
    assert len(mcs_exact(four_edge_graph, 0.5)) == 2
    assert mcs_exact(k22, 1) == {1, 2}
    single = ProjectGraph(edges=[(1, 1)])
    assert mcs_exact(single, 0.5) == {1}


def test_exact_guard():
    big = ProjectGraph(people=range(21), tasks=[0], edges=[(p, 0) for p in range(21)])
    with pytest.raises(ValueError, match="guard"):
        mrs_exact(big, 0.5)
    with pytest.raises(ValueError, match="guard"):
        mcs_exact(big, 0.5)


def test_degenerate_graphs():
    no_tasks = ProjectGraph(people=[1])
    with pytest.raises(DegenerateError):
        mcs_greedy(no_tasks, 0.5)
    no_people = ProjectGraph(tasks=[1])
    with pytest.raises(DegenerateError):
        mrs_greedy(no_people, 0.5)


def test_threshold_arithmetic_is_exact():
    # 20 tasks, delta 0.55: target is exactly 11; binary-float delta would
    # put it a hair above and flip both comparisons.
    g = ProjectGraph(people=[1, 2], tasks=range(20))
    for t in range(11):
        g.add_edge(1, t)
    for t in range(20):
        g.add_edge(2, t)
    assert mrs_greedy(g, "0.55") == {1}  # keeping p2 covers 20 >= 11
    # p1 alone covers exactly 11 = target, so {2} must remain feasible
    assert len(mrs_exact(g, "0.55")) == 1
    reduced = remove_people(g, [2])
    assert len(coverage_bruteforce(reduced, reduced.people)) == 11
    assert mrs_greedy(reduced, "0.55") == set()  # keep p1, remove nobody


def test_report_examples(four_edge_graph, k22, star_graph):
    r = coverage_report(four_edge_graph, 0.5)
    assert (r.z_best, r.z_worst) == (1, 1)
    assert r.mrs_set == (2,)
    assert r.mcs_set == (1, 2)

    r = coverage_report(k22, 1)
    assert (r.z_best, r.z_worst) == (1, 1)

    r = coverage_report(star_graph, 0.5)
    assert (r.z_best, r.z_worst) == (0, 0)

    d = r.to_dict()
    assert d["mrs_set"] == []
    assert d["mcs_set"] == ["p1"]


def test_witnesses_satisfy_postconditions():
    rng = np.random.default_rng(51)
    for _ in range(60):
        g = random_bipartite(rng, 10, 10)
        delta = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        target = normalize_delta(delta) * g.n_tasks
        mcs = mcs_greedy(g, delta)
        assert len(coverage_bruteforce(g, set(g.people) - mcs)) < target
        try:
            mrs = mrs_greedy(g, delta)
        except InfeasibleError:
            assert g.covered_task_count() < target
            continue
        assert len(coverage_bruteforce(g, set(g.people) - mrs)) >= target


def test_greedy_vs_exact_random():
    rng = np.random.default_rng(123)
    for _ in range(50):
        g = random_bipartite(rng, 8, 10)
        delta = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        target = normalize_delta(delta) * g.n_tasks
        assert len(mcs_greedy(g, delta)) >= len(mcs_exact(g, delta))
        assert mcs_exact(g, delta) == mcs_bruteforce(g, target)
        brute_mrs = mrs_bruteforce(g, target)
        if brute_mrs is None:
            with pytest.raises(InfeasibleError):
                mrs_exact(g, delta)
            continue
        exact = mrs_exact(g, delta)
        assert exact == brute_mrs
        assert len(mrs_greedy(g, delta)) <= len(exact)


def test_mcs_monotone_in_delta():
    rng = np.random.default_rng(321)
    deltas = [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5), Fraction(1)]
    for _ in range(25):
        g = random_bipartite(rng, 7, 8)
        sizes = [len(mcs_exact(g, d)) for d in deltas]
        assert sizes == sorted(sizes, reverse=True)


def test_determinism(four_edge_graph):
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_bipartite(rng, 9, 9, allow_isolated=False)
        assert mrs_greedy(g, 0.5) == mrs_greedy(g.copy(), 0.5)
        assert mcs_greedy(g, 0.5) == mcs_greedy(g.copy(), 0.5)
    assert coverage_report(four_edge_graph, 0.5) == coverage_report(
        four_edge_graph, 0.5
    )


@settings(max_examples=300, deadline=None)
@given(
    sparse_graphs(),
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
)
def test_dense_greedies_match_set_based_references(graph, delta):
    for greedy, reference in (
        (mrs_greedy, mrs_greedy_reference),
        (mcs_greedy, mcs_greedy_reference),
    ):
        try:
            expected = reference(graph, delta)
        except (DegenerateError, InfeasibleError) as exc:
            with pytest.raises(type(exc)):
                greedy(graph, delta)
        else:
            assert greedy(graph, delta) == expected
