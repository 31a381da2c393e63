import hashlib
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from busfactor.errors import DegenerateError
from busfactor.generators import (
    SWEEP_KINDS,
    GeneratorConfig,
    ScalarDraws,
    disjoint_union,
    generate_powerlaw,
    make_rng,
    run_sweep,
)
from busfactor.graph import ProjectGraph
from busfactor.io import render_edge_list
from busfactor.robustness import greedy_order

from conftest import (
    checkpoint_graphs_reference,
    degree_maps,
    engine_snapshots,
    generate_powerlaw_reference,
    largest_task_component_size,
    random_bipartite,
    run_sweep_reference,
    thawed,
)


# Bounds at every branch of numpy's bounded draw: none drawn for 1, Lemire
# on 32-bit halves up to 2**32 (rejecting about half and a quarter of the
# time at 2**31 + 1 and 3 * 2**30), the raw half at 2**32, and 64-bit
# Lemire above it.
DRAW_BOUNDS = [1, 2, 130, 309, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**63]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**40), max_size=5).map(tuple),
    # a bound for ``below``, or None for ``random``
    st.lists(
        st.one_of(st.none(), st.sampled_from(DRAW_BOUNDS), st.integers(1, 1000)),
        max_size=60,
    ),
)
@example(0, (), [None, 2**31 + 1] * 20)
@example(9, (), [309, 130, None, 130] * 10)
# library seeds of more than two 32-bit words, and streams like null_sample's
@example(2**64, (0,), [None, *DRAW_BOUNDS, None, 309])
@example(2**96 - 1, (3,), [3 * 2**30] * 40)
@example(10**40, (1, 2, 3, 4, 5), DRAW_BOUNDS * 3)
@example(3**80, (1, 2**33, 0, 7, 2**70), [None, 2**32 + 1, 2, None, 2**63])
def test_scalar_draws_match_make_rng(seed, stream, draws):
    ours, numpy_rng = ScalarDraws(seed, *stream), make_rng(seed, *stream)
    for n in draws:
        if n is None:
            assert ours.random() == numpy_rng.random()
        else:
            assert ours.below(n) == int(numpy_rng.integers(n))
    # what is left of the stream, a kept half included, is the same too
    assert [ours.below(309) for _ in range(5)] == numpy_rng.integers(309, size=5).tolist()


# Shapes (n, k) at both of numpy's branches and their edges: Floyd's draw up
# to n = 10,000 or k = n // 50, the tail shuffle above both; k = 0, k = n,
# n = 1, and a population above 2**32, whose draws take whole outputs.
CHOICE_SHAPES = [
    (1, 0), (1, 1), (0, 0), (2, 1), (7, 7), (1000, 500),
    (10000, 200), (10000, 201), (10000, 10000),
    (10001, 200), (10001, 201), (10001, 0), (10001, 10001),
    (30000, 600), (30000, 601), (2**32 + 5, 3),
]


def _choice_agrees(seed, stream, n, k):
    ours, numpy_rng = ScalarDraws(seed, *stream), make_rng(seed, *stream)
    assert ours.below(7) == int(numpy_rng.integers(7))  # a kept half going in
    assert ours.choice(n, k) == numpy_rng.choice(n, size=k, replace=False).tolist()
    # the stream goes on from the same place
    assert ours.below(309) == int(numpy_rng.integers(309))
    assert ours.random() == numpy_rng.random()
    assert ours.below(2**31 + 1) == int(numpy_rng.integers(2**31 + 1))


@pytest.mark.parametrize("n,k", CHOICE_SHAPES)
def test_scalar_choice_matches_make_rng(n, k):
    for seed in range(40):
        _choice_agrees(seed, (seed % 3,), n, k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 30000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
)
def test_scalar_choice_matches_make_rng_anywhere(seed, shape):
    _choice_agrees(seed, (), *shape)


def test_scalar_draws_refuse_what_numpy_refuses():
    draws = ScalarDraws(0)
    for n in (0, -3, 2**63 + 1):
        with pytest.raises(ValueError):
            draws.below(n)
        with pytest.raises(ValueError):
            make_rng(0).integers(n)
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(ValueError):
            draws.choice(n, k)
        with pytest.raises(ValueError):
            make_rng(0).choice(n, size=k, replace=False)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ScalarDraws(-1)
    with pytest.raises(ValueError):
        ScalarDraws(0, -1)


def test_generate_shape_and_determinism():
    cfg = GeneratorConfig(n_people=100, n_tasks=150, seed=42)
    g = generate_powerlaw(cfg)
    assert g.n_people == 100
    assert g.n_tasks == 150
    assert min(min(d.values()) for d in degree_maps(g)) >= 1
    again = generate_powerlaw(cfg)
    assert again == g
    assert render_edge_list(again) == render_edge_list(g)


def test_generate_min_degree():
    g = generate_powerlaw(GeneratorConfig(n_people=40, n_tasks=30, min_degree=2, seed=1))
    assert min(min(d.values()) for d in degree_maps(g)) >= 2


def test_generate_min_degree_repair_is_pinned():
    # the repair pass must keep drawing the same candidates; the benchmark's
    # digests cover min_degree=1 only
    g = generate_powerlaw(GeneratorConfig(n_people=300, n_tasks=400, min_degree=3, seed=7))
    digest = hashlib.sha256(render_edge_list(g).encode()).hexdigest()
    assert digest == "9d2d62836d661b330637bfa3996cb28723c430dd27f790382f1d09514c0b2a52"


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 60),
    st.integers(1, 60),
    st.floats(1.1, 4.0),
    st.floats(1.1, 4.0),
    st.integers(1, 4),
)
@example(0, 5, 4, 2.5, 2.5, 4)  # every person must take every task
@example(3, 60, 4, 2.5, 2.5, 3)
@example(11, 40, 30, 1.5, 3.5, 2)
def test_generator_matches_reference(
    seed, n_people, n_tasks, exponent_people, exponent_tasks, min_degree
):
    min_degree = min(min_degree, n_people, n_tasks)
    config = GeneratorConfig(
        n_people, n_tasks, exponent_people, exponent_tasks, min_degree, seed
    )
    assert generate_powerlaw(config) == generate_powerlaw_reference(config).freeze()


def test_generate_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_people=0, n_tasks=5)
    with pytest.raises(ValueError):
        GeneratorConfig(n_people=5, n_tasks=5, exponent_people=1.0)
    for exponent in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(n_people=5, n_tasks=5, exponent_people=exponent)
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(n_people=5, n_tasks=5, exponent_tasks=exponent)
    with pytest.raises(ValueError, match="infeasible"):
        generate_powerlaw(GeneratorConfig(n_people=3, n_tasks=5, min_degree=4))


def fit_powerlaw_exponent(degrees: np.ndarray, k_min: int = 2) -> float:
    """Discrete power-law MLE (grid search over the truncated zeta model).

    Fit from k_min=2: the wiring realizes target degrees Poisson-style,
    which deflates the k=1 bin without touching the tail.
    """
    from scipy.special import zeta

    degrees = degrees[degrees >= k_min]
    alphas = np.linspace(1.2, 4.5, 661)
    nll = [
        a * np.log(degrees).sum() + len(degrees) * np.log(zeta(a, k_min))
        for a in alphas
    ]
    return float(alphas[int(np.argmin(nll))])


def test_generate_powerlaw_exponent_mle():
    g = generate_powerlaw(GeneratorConfig(n_people=750, n_tasks=1000, seed=5))
    degrees = np.array(sorted(degree_maps(g)[0].values()))
    assert 2.0 <= fit_powerlaw_exponent(degrees) <= 3.0


def test_densify_counts():
    g = ProjectGraph(people=range(3), tasks=range(3)).freeze()
    snapshots, truncated, _ = engine_snapshots(g, "densify", 4, 2)
    assert [(mods, h.n_edges) for mods, h in snapshots] == [(0, 0), (2, 2), (4, 4)]
    assert not truncated
    # node sets never change
    assert all(sorted(h.people) == [0, 1, 2] for _, h in snapshots)


def test_densify_saturation(k22):
    snapshots, truncated, notes = engine_snapshots(k22, "densify", 1, 1)
    assert truncated
    assert snapshots == [(0, k22)]
    assert notes == ["no further edges to modify after 0 steps"]


def test_densify_determinism():
    g = ProjectGraph(people=range(5), tasks=range(5)).freeze()
    a = engine_snapshots(g, "densify", 9, 3, seed=9)
    b = engine_snapshots(g, "densify", 9, 3, seed=9)
    assert [h.n_edges for _, h in a[0]] == [0, 3, 6, 9]
    assert a == b


def test_sparsify_counts(four_edge_graph):
    snapshots, truncated, _ = engine_snapshots(four_edge_graph, "sparsify", 4, 4)
    assert [h.n_edges for _, h in snapshots] == [4, 0]
    assert not truncated

    snapshots, truncated, _ = engine_snapshots(four_edge_graph, "sparsify", 6, 3)
    assert [(mods, h.n_edges) for mods, h in snapshots] == [(0, 4), (3, 1), (4, 0)]
    assert truncated  # second batch ran out after one removal

    a = engine_snapshots(four_edge_graph, "sparsify", 2, 1, seed=4)
    b = engine_snapshots(four_edge_graph, "sparsify", 2, 1, seed=4)
    assert a == b


def test_add_singletons(four_edge_graph):
    (_, before), (_, out) = engine_snapshots(four_edge_graph, "singletons", 3, 3, seed=1)[0]
    assert before == four_edge_graph
    assert out.n_people == 5
    new_people = sorted(set(out.people) - set(four_edge_graph.people))
    assert [out.degree_of_person(p) for p in new_people] == [1, 1, 1]
    their_tasks = [next(iter(out.tasks_of(p))) for p in new_people]
    assert len(set(their_tasks)) == 3  # distinct tasks
    # pre-existing degrees untouched
    before = thawed(four_edge_graph)
    for p in four_edge_graph.people:
        assert out.degree_of_person(p) == before.degree_of_person(p)

    with pytest.raises(ValueError, match="singletons"):
        run_sweep(four_edge_graph, "singletons", four_edge_graph.n_tasks + 1, 1)


def test_add_duplicates(four_edge_graph):
    snapshots, _, notes = engine_snapshots(four_edge_graph, "duplicates", 5, 1)
    cloned = dict(snapshots)
    assert cloned[1].n_people == 3
    assert cloned[1].tasks_of(3) == frozenset({1, 2})  # p1 cloned first (tie by id)

    assert cloned[2].n_people == 4
    assert all(cloned[2].degree_of_task(t) >= 2 for t in cloned[2].tasks)

    assert cloned[5].n_people == 7  # wraps past both people
    assert notes == ["cloning 5 people wraps around the 2 available"]

    with pytest.raises(DegenerateError, match="no people"):
        run_sweep(ProjectGraph(tasks=[1, 2]).freeze(), "duplicates", 1, 1)


def test_duplication_order():
    g = ProjectGraph(edges=[(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]).freeze()
    assert greedy_order(g) == [2, 3, 1]


def test_duplicate_raises_silo_robustness():
    blocks = [
        generate_powerlaw(GeneratorConfig(n_people=30, n_tasks=40, seed=s))
        for s in (501, 502)
    ]
    silo = disjoint_union(*blocks)
    before, after = run_sweep(silo, "duplicates", 1, 1).rows
    assert after.robustness > before.robustness


def test_singletons_move_metrics_one_way(four_edge_graph):
    before, grown = run_sweep(four_edge_graph, "singletons", 3, 3, seed=2).rows
    assert grown.mrs_size >= before.mrs_size
    assert grown.mcs_size >= before.mcs_size
    assert grown.robustness <= before.robustness


def test_disjoint_union(four_edge_graph, two_stars):
    merged = disjoint_union(four_edge_graph, two_stars)
    assert merged.n_people == four_edge_graph.n_people + two_stars.n_people
    assert merged.n_tasks == four_edge_graph.n_tasks + two_stars.n_tasks
    assert merged.n_edges == four_edge_graph.n_edges + two_stars.n_edges
    assert largest_task_component_size(thawed(merged)) == 3  # blocks stay disjoint
    # the concatenated view is already sorted: freezing its graph gives it back
    assert merged == thawed(merged).freeze()


def test_disjoint_union_after_an_empty_graph_keeps_the_ids(two_stars):
    empty = ProjectGraph().freeze()
    assert disjoint_union(empty, two_stars) == two_stars


@pytest.mark.parametrize("total_steps,stride", [(0, 10), (10, 0)])
def test_run_sweep_refuses_a_step_count_or_stride_below_one(
    four_edge_graph, total_steps, stride
):
    with pytest.raises(ValueError, match="at least 1"):
        run_sweep(four_edge_graph, "densify", total_steps, stride)


def test_run_sweep_rows_and_reproducibility(four_edge_graph):
    g = generate_powerlaw(GeneratorConfig(n_people=30, n_tasks=40, seed=3))
    a = run_sweep(g, "densify", total_steps=20, stride=5, seed=6)
    b = run_sweep(g, "densify", total_steps=20, stride=5, seed=6)
    assert a.rows == b.rows
    assert [r.modifications for r in a.rows] == [0, 5, 10, 15, 20]


def test_run_sweep_kinds(four_edge_graph):
    g = generate_powerlaw(GeneratorConfig(n_people=25, n_tasks=30, seed=4))
    for kind in ("sparsify", "singletons", "duplicates"):
        table = run_sweep(g, kind, total_steps=10, stride=5, seed=7)
        assert [r.modifications for r in table.rows][:1] == [0]
        assert len(table.rows) >= 1
    with pytest.raises(ValueError, match="unknown sweep kind"):
        run_sweep(g, "shuffle", total_steps=10, stride=5)


def test_run_sweep_truncates_when_infeasible(four_edge_graph):
    table = run_sweep(four_edge_graph, "sparsify", total_steps=10, stride=1, seed=0)
    assert table.truncated
    assert any("unreachable" in n or "no further" in n for n in table.notes)
    mods = [r.modifications for r in table.rows]
    assert mods == sorted(set(mods))  # strictly increasing


def test_run_sweep_matches_reference():
    rng = np.random.default_rng(2024)
    seen = Counter()
    for _ in range(40):
        g = random_bipartite(rng, 7, 8)
        for kind in SWEEP_KINDS:
            if kind == "singletons":
                steps = int(rng.integers(1, g.n_tasks + 1))
            else:
                steps = int(rng.integers(1, 2 * g.n_people * g.n_tasks + 2))
            stride = int(rng.integers(1, steps + 1))
            delta = Fraction(int(rng.integers(1, 11)), 10)
            seed = int(rng.integers(1000))
            got = run_sweep(g, kind, steps, stride, delta, seed)
            want = run_sweep_reference(g, kind, steps, stride, delta, seed)
            assert (got.rows, got.notes, got.truncated) == (
                want.rows, want.notes, want.truncated
            ), (kind, steps, stride, delta, seed)
            seen[kind, "ragged stride"] += steps % stride != 0
            exhausted = [n for n in got.notes if n.startswith("no further")]
            unreachable = [n for n in got.notes if n.startswith("coverage target")]
            if exhausted and unreachable:
                seen[kind, "both truncations"] += 1
                material = int(re.search(r"after (\d+)", exhausted[0]).group(1))
                seen[kind, "unreachable before exhaustion"] += (
                    int(re.search(r"from (\d+)", unreachable[0]).group(1)) < material
                )
            seen[kind, "saturated"] += kind == "densify" and bool(exhausted)
    for kind in SWEEP_KINDS:
        assert seen[kind, "ragged stride"] >= 5
    assert seen["densify", "saturated"] >= 10
    assert seen["sparsify", "both truncations"] >= 10
    assert seen["sparsify", "unreachable before exhaustion"] >= 5
    assert seen["densify", "both truncations"] >= 1


def test_densify_and_sparsify_match_reference_snapshots():
    # run to saturation or to no edges: with hundreds of pairs the adder's
    # last steps miss 200 times in a row and take the rank-based fallback;
    # the near-complete wide graphs leave several absent tasks per person
    rng = np.random.default_rng(11)
    graphs = [
        generate_powerlaw(GeneratorConfig(*rng.integers(15, 26, size=2).tolist(), seed=s))
        for s in range(6)
    ]
    for n_people in (1, 2):
        pairs = [(p, t) for p in range(n_people) for t in range(400)]
        keep = rng.random(len(pairs)) < 0.95
        graphs.append(ProjectGraph(
            people=range(n_people), tasks=range(400),
            edges=[pair for pair, kept in zip(pairs, keep) if kept],
        ).freeze())
    for g in graphs:
        for kind in ("densify", "sparsify"):
            material = g.n_edges
            if kind == "densify":
                material = g.n_people * g.n_tasks - g.n_edges
            batch = int(rng.integers(1, 40))
            n_batches = material // batch + int(rng.integers(1, 3))
            seed = int(rng.integers(1000))
            args = (g, kind, batch * n_batches, batch, seed)
            assert engine_snapshots(*args) == checkpoint_graphs_reference(*args)


def test_single_shot_perturbations_match_reference():
    # one checkpoint after all the steps, besides the baseline
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_bipartite(rng, 8, 10)
        hires = int(rng.integers(1, g.n_tasks + 1))
        clones = int(rng.integers(1, 2 * g.n_people + 2))
        seed = int(rng.integers(1000))
        for kind, steps in (("singletons", hires), ("duplicates", clones)):
            args = (g, kind, steps, steps, seed)
            assert engine_snapshots(*args) == checkpoint_graphs_reference(*args)
