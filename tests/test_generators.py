import hashlib
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from busfactor.errors import DegenerateError
from busfactor.generators import (
    SWEEP_KINDS,
    GeneratorConfig,
    add_duplicates,
    add_singletons,
    densify,
    disjoint_union,
    generate_powerlaw,
    run_sweep,
    sparsify,
)
from busfactor.graph import ProjectGraph
from busfactor.io import render_edge_list
from busfactor.robustness import bus_factor_greedy, greedy_order

from conftest import (
    checkpoint_graphs_reference,
    degree_maps,
    largest_task_component_size,
    random_bipartite,
    run_sweep_reference,
)


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


def test_generate_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_people=0, n_tasks=5).validate()
    with pytest.raises(ValueError):
        GeneratorConfig(n_people=5, n_tasks=5, exponent_people=1.0).validate()
    for exponent in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(n_people=5, n_tasks=5, exponent_people=exponent).validate()
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(n_people=5, n_tasks=5, exponent_tasks=exponent).validate()
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
    g = ProjectGraph(people=range(3), tasks=range(3))
    series = densify(g, batch_size=2, n_batches=2, seed=0)
    assert [h.n_edges for h in series.graphs] == [2, 4]
    assert series.modifications == [2, 4]
    assert not series.truncated
    # node sets never change
    assert all(sorted(h.people) == [0, 1, 2] for h in series.graphs)


def test_densify_saturation(k22):
    series = densify(k22, batch_size=1, n_batches=1, seed=0)
    assert series.truncated
    assert series.graphs == []


def test_densify_determinism():
    g = ProjectGraph(people=range(5), tasks=range(5))
    a = densify(g, 3, 3, seed=9)
    b = densify(g, 3, 3, seed=9)
    assert [x.n_edges for x in a.graphs] == [3, 6, 9]
    assert all(x == y for x, y in zip(a.graphs, b.graphs))


def test_sparsify_counts(four_edge_graph):
    series = sparsify(four_edge_graph, batch_size=4, n_batches=1, seed=0)
    assert [h.n_edges for h in series.graphs] == [0]
    assert not series.truncated

    series = sparsify(four_edge_graph, batch_size=3, n_batches=2, seed=0)
    assert [h.n_edges for h in series.graphs] == [1, 0]
    assert series.truncated  # second batch ran out after one removal

    a = sparsify(four_edge_graph, 1, 2, seed=4)
    b = sparsify(four_edge_graph, 1, 2, seed=4)
    assert all(x == y for x, y in zip(a.graphs, b.graphs))


def test_add_singletons(four_edge_graph):
    out = add_singletons(four_edge_graph, 3, seed=1)
    assert out.n_people == 5
    new_people = sorted(set(out.people) - set(four_edge_graph.people))
    assert [out.degree_of_person(p) for p in new_people] == [1, 1, 1]
    their_tasks = [next(iter(out.tasks_of(p))) for p in new_people]
    assert len(set(their_tasks)) == 3  # distinct tasks
    # pre-existing degrees untouched
    for p in four_edge_graph.people:
        assert out.degree_of_person(p) == four_edge_graph.degree_of_person(p)

    assert add_singletons(four_edge_graph, 0) == four_edge_graph
    with pytest.raises(ValueError, match="singletons"):
        add_singletons(four_edge_graph, 4)


def test_add_duplicates(four_edge_graph):
    out = add_duplicates(four_edge_graph, 1)
    assert out.n_people == 3
    assert out.tasks_of(3) == frozenset({1, 2})  # p1 cloned first (tie by id)

    out = add_duplicates(four_edge_graph, 2)
    assert out.n_people == 4
    assert all(out.degree_of_task(t) >= 2 for t in out.tasks)

    wrapped = add_duplicates(four_edge_graph, 5)  # wraps past both people
    assert wrapped.n_people == 7

    with pytest.raises(DegenerateError, match="no people"):
        add_duplicates(ProjectGraph(tasks=[1, 2]), 1)


def test_duplication_order():
    g = ProjectGraph(edges=[(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    assert greedy_order(g) == [2, 3, 1]


def test_duplicate_raises_silo_robustness():
    blocks = [
        generate_powerlaw(GeneratorConfig(n_people=30, n_tasks=40, seed=s))
        for s in (501, 502)
    ]
    silo = disjoint_union(*blocks)
    before = bus_factor_greedy(silo).value
    after = bus_factor_greedy(add_duplicates(silo, 1)).value
    assert after > before


def test_singletons_move_metrics_one_way(four_edge_graph):
    from busfactor.coverage import mcs_greedy, mrs_greedy

    g = four_edge_graph
    grown = add_singletons(g, 3, seed=2)
    assert len(mrs_greedy(grown, 0.5)) >= len(mrs_greedy(g, 0.5))
    assert len(mcs_greedy(grown, 0.5)) >= len(mcs_greedy(g, 0.5))
    assert bus_factor_greedy(grown).value <= bus_factor_greedy(g).value


def test_disjoint_union(four_edge_graph, two_stars):
    merged = disjoint_union(four_edge_graph, two_stars)
    assert merged.n_people == four_edge_graph.n_people + two_stars.n_people
    assert merged.n_tasks == four_edge_graph.n_tasks + two_stars.n_tasks
    assert merged.n_edges == four_edge_graph.n_edges + two_stars.n_edges
    assert largest_task_component_size(merged) == 3  # blocks stay disjoint


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
        ))
    for g in graphs:
        for series_of, kind in ((densify, "densify"), (sparsify, "sparsify")):
            material = g.n_edges
            if kind == "densify":
                material = g.n_people * g.n_tasks - g.n_edges
            batch = int(rng.integers(1, 40))
            n_batches = material // batch + int(rng.integers(1, 3))
            seed = int(rng.integers(1000))
            series = series_of(g, batch, n_batches, seed)
            snapshots, truncated, _ = checkpoint_graphs_reference(
                g, kind, batch * n_batches, batch, seed
            )
            assert series.modifications == [mods for mods, _ in snapshots[1:]]
            assert series.graphs == [h for _, h in snapshots[1:]]
            assert series.truncated == truncated


def test_single_shot_perturbations_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_bipartite(rng, 8, 10)
        hires = int(rng.integers(1, g.n_tasks + 1))
        clones = int(rng.integers(1, 2 * g.n_people + 2))
        seed = int(rng.integers(1000))
        (*_, (_, hired)), _, _ = checkpoint_graphs_reference(
            g, "singletons", hires, hires, seed
        )
        (*_, (_, cloned)), _, _ = checkpoint_graphs_reference(
            g, "duplicates", clones, clones, 0
        )
        assert add_singletons(g, hires, seed) == hired
        assert add_duplicates(g, clones) == cloned
