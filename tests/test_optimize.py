import itertools
import math
import statistics
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from busfactor import optimize
from busfactor.errors import DegenerateError
from busfactor.generators import (
    GeneratorConfig,
    disjoint_union,
    generate_powerlaw,
    make_rng,
)
from busfactor.graph import ProjectGraph
from busfactor.optimize import (
    AnnealingConfig,
    AnnealingTrace,
    NullModelConfig,
    anneal,
    anneal_restarts,
    calibrate_pvalues,
    null_sample,
    permutation_test,
)
from busfactor.reporting import paired_decay_csv
from busfactor.robustness import bus_factor_greedy

from conftest import (
    anneal_reference,
    degree_maps,
    null_sample_reference,
    random_bipartite,
    sparse_graphs,
    swapped,
    thawed,
    traced_peak,
)


def two_silo(seed_a=501, seed_b=502, people=30, tasks=40):
    return disjoint_union(
        generate_powerlaw(GeneratorConfig(n_people=people, n_tasks=tasks, seed=seed_a)),
        generate_powerlaw(GeneratorConfig(n_people=people, n_tasks=tasks, seed=seed_b)),
    )


SHORT_SA = AnnealingConfig(
    initial_temperature=0.05,
    cooling_rate=0.8,
    steps_per_temperature=60,
    min_temperature=1e-3,
    seed=3,
)


# -- null model ---------------------------------------------------------------


def test_k22_is_rigid(k22):
    result = null_sample(k22, NullModelConfig(n_samples=1, seed=0), 0)
    assert swapped(result) == k22
    assert result.swaps == 0
    assert result.attempts == 40


def test_four_edge_swap_candidates(four_edge_graph):
    # the only legal swap is (p1,t1),(p2,t3) -> (p1,t3),(p2,t1); samples are
    # therefore either the original or that one crossed variant
    variant = ProjectGraph(edges=[(1, 3), (1, 2), (2, 2), (2, 1)]).freeze()
    seen = set()
    for i in range(12):
        result = null_sample(four_edge_graph, NullModelConfig(n_samples=1, seed=2), i)
        assert swapped(result) in (four_edge_graph, variant)
        seen.add(swapped(result) == variant)
    assert seen == {True, False}  # both outcomes occur across indices


def test_degree_multisets_preserved_random():
    rng = np.random.default_rng(42)
    cfg = NullModelConfig(n_samples=1, seed=9)
    for i in range(25):
        g = random_bipartite(rng, 12, 12)
        before = degree_maps(g)
        after = degree_maps(swapped(null_sample(g, cfg, i)))
        for degrees, sampled in zip(before, after):
            assert Counter(degrees.values()) == Counter(sampled.values())
        # stronger: each node keeps its own degree
        assert before == after


def test_null_sample_deterministic(four_edge_graph):
    cfg = NullModelConfig(n_samples=1, seed=11)
    a = null_sample(four_edge_graph, cfg, 3)
    b = null_sample(four_edge_graph, cfg, 3)
    assert swapped(a) == swapped(b) and a.swaps == b.swaps
    assert swapped(null_sample(four_edge_graph, cfg, 4)) in (
        swapped(a),
        four_edge_graph,
        ProjectGraph(edges=[(1, 3), (1, 2), (2, 2), (2, 1)]).freeze(),
    )


def test_tiny_graph_returned_unchanged():
    g = ProjectGraph(edges=[(1, 1)]).freeze()
    result = null_sample(g, NullModelConfig(n_samples=1, seed=0), 0)
    assert swapped(result) == g
    assert result.attempts == 0 and result.swaps == 0


def test_permutation_test_k22(k22):
    result = permutation_test(k22, NullModelConfig(n_samples=19, seed=5))
    assert result.p_value == 1.0
    assert result.observed == 1.0
    assert all(v == 1.0 for v in result.null_values)


def test_permutation_test_silo_is_low():
    silo = two_silo()
    result = permutation_test(silo, NullModelConfig(n_samples=99, seed=17))
    # silos are anomalously fragile: every degree-preserving rewire beats them
    assert result.observed < min(result.null_values)
    assert result.p_value == pytest.approx(1 / 100)


def test_permutation_summary_matches_the_null_values():
    g = generate_powerlaw(GeneratorConfig(n_people=25, n_tasks=30, seed=8))
    report = permutation_test(g, NullModelConfig(n_samples=24, seed=21)).to_dict(True)
    values = report["null_values"]
    assert len(set(values)) > 1
    assert report["n_samples"] == len(values)
    assert report["null_mean"] == pytest.approx(statistics.fmean(values), rel=1e-12)
    assert report["null_std"] == pytest.approx(statistics.pstdev(values), rel=1e-9)
    assert (report["null_min"], report["null_max"]) == (min(values), max(values))


def test_permutation_test_workers_equivalent():
    g = generate_powerlaw(GeneratorConfig(n_people=25, n_tasks=30, seed=8))
    cfg = NullModelConfig(n_samples=24, seed=21)
    serial = permutation_test(g, cfg, workers=1)
    parallel = permutation_test(g, cfg, workers=3)
    assert serial == parallel


def test_calibration_pvalues_grid():
    g = generate_powerlaw(GeneratorConfig(n_people=20, n_tasks=25, seed=31))
    cfg = NullModelConfig(n_samples=9, seed=33)
    pvalues = calibrate_pvalues(g, cfg, trials=20)
    assert len(pvalues) == 20
    grid = {k / 10 for k in range(1, 11)}
    assert set(pvalues) <= grid
    assert calibrate_pvalues(g, cfg, trials=20, workers=2) == pvalues


def assert_matches_reference(graph, config, index):
    got = null_sample(graph, config, index)
    want = null_sample_reference(graph, config, index)
    assert swapped(got) == want.graph
    assert (got.attempts, got.swaps) == (want.attempts, want.swaps)
    return got.swaps


def test_null_sample_matches_reference_random():
    rng = np.random.default_rng(91)
    swapped = 0
    for i in range(40):
        g = random_bipartite(rng, 12, 12)
        swapped += assert_matches_reference(
            g, NullModelConfig(n_samples=1, swaps_per_edge=3, seed=i), i
        ) > 0
    assert swapped >= 20


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_null_sample_matches_reference_property(graph):
    assert_matches_reference(graph, NullModelConfig(n_samples=1, swaps_per_edge=2), 5)


@pytest.mark.parametrize("pairs", [1, 3, 64])
def test_chunked_draws_match_reference_random(monkeypatch, pairs):
    # chunks smaller than one sample's draws, with a short last chunk
    # whenever 3 or 64 does not divide the 2 * n_edges attempts
    monkeypatch.setattr(optimize, "_DRAW_PAIRS", pairs)
    rng = np.random.default_rng(93)
    swapped = 0
    for i in range(20):
        g = random_bipartite(rng, 12, 12)
        swapped += assert_matches_reference(
            g, NullModelConfig(n_samples=1, swaps_per_edge=2, seed=i), i
        ) > 0
    assert swapped >= 10


@settings(max_examples=200, deadline=None)
@given(sparse_graphs(), st.sampled_from([1, 3, 64]))
def test_chunked_draws_match_reference_property(graph, pairs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_DRAW_PAIRS", pairs)
        assert_matches_reference(
            graph, NullModelConfig(n_samples=1, swaps_per_edge=2), 5
        )


@pytest.mark.parametrize("m", [2, 1000, 2**31 - 1, 2**32 + 3])
def test_chunked_integers_equal_one_draw(m):
    # m - 1 below 2**32 takes numpy's 32-bit bounded path, above it the
    # 64-bit one; odd chunk lengths split the 32-bit path's paired words
    n = 1001
    want = make_rng(3, 1).integers(0, m, size=n).tolist()
    for chunk in (1, 3, 7, 333):
        rng = make_rng(3, 1)
        got = []
        while len(got) < n:
            got += rng.integers(0, m, size=min(chunk, n - len(got))).tolist()
        assert got == want


def test_null_sample_memory_does_not_grow_with_swaps():
    g = generate_powerlaw(GeneratorConfig(n_people=750, n_tasks=1000, seed=42))

    def peak(swaps_per_edge):
        config = NullModelConfig(n_samples=1, swaps_per_edge=swaps_per_edge)
        return traced_peak(null_sample, g, config)

    peak(2)  # warm-up: a first draw may import numpy
    # 20 times the draws: one draw list would hold ~7 MB more
    assert abs(peak(40) - peak(2)) < 1 << 20


def test_null_objectives_hold_one_sample_at_a_time():
    g = generate_powerlaw(GeneratorConfig(n_people=750, n_tasks=1000, seed=42))
    config = NullModelConfig(n_samples=1, swaps_per_edge=1)

    def peak(samples):
        return traced_peak(optimize._null_objectives, g, config, 0, samples)

    peak(1)  # warm-up
    # two samples' task sets alive at once would add about 350 kB
    assert peak(3) - peak(1) < 64 << 10


def reference_scores(graph, config, n):
    """Greedy robustness of the reference null samples ``0 .. n - 1``."""
    return [
        bus_factor_greedy(null_sample_reference(graph, config, i).graph.freeze()).value
        for i in range(n)
    ]


def test_null_objectives_match_reference():
    g = generate_powerlaw(GeneratorConfig(n_people=25, n_tasks=30, seed=12))
    cfg = NullModelConfig(n_samples=1, seed=4)
    want = reference_scores(g, cfg, 20)
    # a sample depends on the seed and its index, not on n_samples
    assert optimize._null_objectives(g, cfg, 3, 20) == want[3:]
    cfg = NullModelConfig(n_samples=17, seed=4)
    for workers in (1, 2):
        assert permutation_test(g, cfg, workers).null_values == tuple(want[:17])


@pytest.mark.parametrize("workers", [1, 2])
def test_calibration_blocks_match_reference(workers):
    g = generate_powerlaw(GeneratorConfig(n_people=20, n_tasks=25, seed=31))
    cfg = NullModelConfig(n_samples=4, seed=6)
    n, trials = cfg.n_samples, 6
    scores = reference_scores(g, cfg, trials * (n + 1))
    want = []
    for j in range(trials):
        # trial j observes sample j(n+1) and scores it against the next n
        observed = scores[j * (n + 1)]
        nulls = scores[j * (n + 1) + 1:(j + 1) * (n + 1)]
        want.append((1 + sum(1 for v in nulls if v <= observed)) / (n + 1))
    assert len(set(want)) > 2  # the blocks' p-values are not all alike
    assert calibrate_pvalues(g, cfg, trials, workers) == want


def test_calibration_rejects_degenerate_graph():
    with pytest.raises(DegenerateError):
        calibrate_pvalues(
            ProjectGraph(tasks=[1, 2]).freeze(), NullModelConfig(n_samples=3), trials=2
        )


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ``ProcessPoolExecutor`` with a stand-in that records each
    ``max_workers`` and runs each submitted job in this process, spawning
    nothing."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # _map_jobs imports the pool class when it opens a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


def test_calibration_validates_config_before_pool(pool_sizes, k22):
    with pytest.raises(ValueError, match="swaps_per_edge"):
        calibrate_pvalues(
            k22, NullModelConfig(n_samples=3, swaps_per_edge=0), trials=3, workers=2
        )
    assert pool_sizes == []


def test_negative_seeds_rejected_before_pool(pool_sizes, k22):
    # the configs reject the seed themselves; the workers' draws would too,
    # but only after a pool had opened
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        permutation_test(k22, NullModelConfig(n_samples=4, seed=-1), workers=2)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        anneal_restarts(k22, replace(SHORT_SA, seed=-1), restarts=2, workers=2)
    assert pool_sizes == []


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


_POOLED = {
    "permutation_test": lambda g, w: permutation_test(g, NullModelConfig(n_samples=4), w),
    "calibrate_pvalues": lambda g, w: calibrate_pvalues(g, NullModelConfig(n_samples=4), 2, w),
    "anneal_restarts": lambda g, w: anneal_restarts(g, SHORT_SA, 2, w),
}


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("name", sorted(_POOLED))
def test_worker_counts_below_one_rejected(pool_sizes, monkeypatch, k22, name, workers):
    for step in ("bus_factor_greedy", "null_sample", "anneal"):
        monkeypatch.setattr(optimize, step, _no_work)
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        _POOLED[name](k22, workers)
    assert pool_sizes == []


def test_pools_capped_at_job_count(pool_sizes):
    g = generate_powerlaw(GeneratorConfig(n_people=10, n_tasks=12, seed=2))
    cfg = NullModelConfig(n_samples=3, seed=1)
    assert calibrate_pvalues(g, cfg, trials=3, workers=64) == calibrate_pvalues(
        g, cfg, trials=3
    )
    anneal_restarts(g, SHORT_SA, restarts=2, workers=64)
    # 3 trials; 2 restarts
    assert pool_sizes == [3, 2]
    calibrate_pvalues(g, cfg, trials=1, workers=64)  # one job runs in process
    assert pool_sizes == [3, 2]


# -- annealing ------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("initial_temperature", math.inf),
        ("initial_temperature", math.nan),
        ("min_temperature", math.inf),
        ("min_temperature", math.nan),
        ("initial_temperature", 0.0),
        ("cooling_rate", math.nan),
    ],
)
def test_annealing_config_rejects_non_finite_and_nonpositive(field, value):
    with pytest.raises(ValueError):
        replace(SHORT_SA, **{field: value})


def test_restarts_validate_before_pool(pool_sizes, k22):
    with pytest.raises(ValueError, match="cooling_rate"):
        anneal_restarts(k22, replace(SHORT_SA, cooling_rate=1.5), restarts=2, workers=2)
    with pytest.raises(ValueError, match="restarts"):
        anneal_restarts(k22, SHORT_SA, restarts=0, workers=2)
    assert pool_sizes == []


def test_restarts_keep_the_best_chain_and_the_earliest_tie():
    g = ProjectGraph(
        people=[9], tasks=[9],
        edges=[(1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (3, 5), (4, 5)],
    ).freeze()
    config = AnnealingConfig(
        steps_per_temperature=20, cooling_rate=0.8, min_temperature=1e-3, seed=7
    )
    chains = [anneal(g, replace(config, seed=7 + r)) for r in range(5)]
    values = [bus_factor_greedy(best).value for best, _ in chains]
    top = [r for r, v in enumerate(values) if v == max(values)]
    # the best chain is not the first, and it ties with a different later one
    assert top[0] > 0 and len(top) > 1
    first, last = chains[top[0]], chains[top[-1]]
    assert (first[0], first[1].rows) != (last[0], last[1].rows)
    for workers in (1, 2):
        best, trace = anneal_restarts(g, config, restarts=5, workers=workers)
        assert best == first[0]
        assert trace.rows == first[1].rows


def test_restarts_rank_chains_by_their_last_trace_row(k22):
    # the last row's best objective is the returned graph's greedy
    # robustness, bit for bit, so anneal_restarts ranks chains without
    # rescoring them; only a chain with no accepted step is scored afresh
    graphs = two_silo(), generate_powerlaw(GeneratorConfig(n_people=30, n_tasks=40, seed=9))
    for g in graphs:
        for steps in (1, 10, 200):
            config = replace(SHORT_SA, steps_per_temperature=steps)
            chains = [anneal(g, replace(config, seed=9 + r)) for r in range(3)]
            for best, trace in chains:
                assert trace.rows[-1].objective == bus_factor_greedy(best).value
            expected = max(chains, key=lambda chain: bus_factor_greedy(chain[0]).value)
            best, trace = anneal_restarts(g, replace(config, seed=9), restarts=3)
            assert best == expected[0]
            assert trace.rows == expected[1].rows
    # the rigid k22 returns from anneal before any step
    assert anneal_restarts(k22, SHORT_SA, restarts=3) == (k22, AnnealingTrace())


def test_restarts_hold_the_best_chain_and_one_more():
    g = two_silo()

    def peak(restarts):
        return traced_peak(anneal_restarts, g, SHORT_SA, restarts)

    peak(1)  # warm-up
    # the best chain and the one just finished, about two chains' peak;
    # holding all eight results until the end took 6.5 times one
    assert peak(8) < 2 * peak(1)


def test_restarts_memory_does_not_grow_with_their_count(k22):
    # every chain on the rigid k22 is alike, so only what is held per
    # restart could make the peak grow
    config = replace(SHORT_SA, cooling_rate=0.5, steps_per_temperature=2, min_temperature=1e-2)

    def peak(restarts):
        return traced_peak(anneal_restarts, k22, config, restarts, 1)

    # warm-up: a first run of many chains leaves about one tuple per chain
    # in the interpreter's free lists, which later runs reuse, until the
    # 2,000 that the list of 2-tuples holds
    anneal_restarts(k22, config, 3000)
    # a list of 50 jobs would hold about 8 kB more than one of 5
    assert peak(50) - peak(5) < 1 << 10


def test_anneal_preserves_person_degrees_and_coverage():
    silo = two_silo()
    optimized, trace = anneal(silo, SHORT_SA)
    people, tasks = degree_maps(optimized)
    assert people == degree_maps(silo)[0]
    assert min(tasks.values()) >= 1
    assert optimized.n_edges == silo.n_edges


def test_anneal_improves_silo():
    silo = two_silo()
    before = bus_factor_greedy(silo).value
    optimized, trace = anneal(silo, SHORT_SA)
    after = bus_factor_greedy(optimized).value
    assert after > before
    assert trace.rows, "accepted moves expected"
    assert trace.rows[-1].objective == pytest.approx(after, abs=0)


def test_anneal_trace_best_is_monotone():
    silo = two_silo(people=20, tasks=25)
    _, trace = anneal(silo, SHORT_SA)
    objectives = [row.objective for row in trace.rows]
    assert objectives == sorted(objectives)
    steps = [row.step for row in trace.rows]
    assert steps == sorted(steps)


def test_anneal_k22_noop(k22):
    optimized, trace = anneal(k22, SHORT_SA)
    assert optimized == k22
    assert trace.rows == []


def test_anneal_deterministic():
    silo = two_silo(people=15, tasks=20)
    a, _ = anneal(silo, SHORT_SA)
    b, _ = anneal(silo, SHORT_SA)
    assert a == b


def test_anneal_degenerate_inputs():
    with pytest.raises(DegenerateError):
        anneal(ProjectGraph(people=[1], tasks=[1, 2]).freeze(), SHORT_SA)
    with pytest.raises(DegenerateError):
        anneal(ProjectGraph(edges=[(1, 1)]).freeze(), SHORT_SA)


def test_anneal_never_abandons_tasks_midway():
    # a task with one contributor can gain edges but never lose its last one
    g = ProjectGraph(edges=[(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]).freeze()
    before = thawed(g)
    covered_before = {t for t in before.tasks if before.degree_of_task(t) > 0}
    optimized = thawed(anneal(g, SHORT_SA)[0])
    assert {t for t in optimized.tasks if optimized.degree_of_task(t) > 0} == covered_before


def test_anneal_matches_reference_random():
    rng = np.random.default_rng(77)
    config = replace(SHORT_SA, steps_per_temperature=25)
    compared = 0
    for seed in range(30):
        g = random_bipartite(rng, 9, 9)
        if g.n_edges < 1 or g.n_tasks < 2:
            continue
        got, trace = anneal(g, replace(config, seed=seed))
        want, want_trace = anneal_reference(g, replace(config, seed=seed))
        assert trace.rows == want_trace.rows
        assert got == want.freeze()
        compared += bool(trace.rows)
    assert compared >= 10


def test_anneal_matches_reference_two_silo():
    silo = two_silo(seed_a=61, seed_b=62, people=15, tasks=20)
    config = AnnealingConfig(steps_per_temperature=10, seed=7)
    got, trace = anneal(silo, config)
    want, want_trace = anneal_reference(silo, config)
    assert trace.rows == want_trace.rows
    assert got == want.freeze()


def test_segment_starts_split_the_edges_evenly(monkeypatch):
    # isolated people come first in reinsertion order, at the first start
    held = [set(), {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}]
    assert optimize._segment_starts(held) == [0, 3, 5, 7]
    # a hub holding most edges leaves the segments after its own empty
    assert optimize._segment_starts([set(), {1}, {1, 2, 3, 4, 5, 6}]) == [0, 3, 3, 3]
    monkeypatch.setattr(optimize, "_SEGMENTS", 1)
    assert optimize._segment_starts(held) == [0]


HUB = ProjectGraph(
    people=range(7),
    tasks=range(6),
    edges=[(5, t) for t in range(5)] + [(4, 0), (3, 1), (3, 2)],
).freeze()


# person 3 has one task, and is inserted right after the isolated person 1,
# while no component has formed yet
ONE_TASK = ProjectGraph(
    people=range(4), tasks=range(4), edges=[(0, 0), (0, 1), (2, 0), (2, 3), (3, 0)]
).freeze()
# accepted moves whose partition rejoins the current one at a later start,
# with a different sum of maxima before it
REJOIN = ProjectGraph(
    people=range(4),
    tasks=range(4),
    edges=[(0, 0), (0, 3), (1, 0), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
).freeze()


@settings(max_examples=150, deadline=None)
@given(sparse_graphs(), st.sampled_from([1, 2, 4, 40]), st.integers(0, 1000))
@example(HUB, 4, 0)
@example(HUB, 40, 1)
@example(ONE_TASK, 4, 5)
@example(REJOIN, 2, 9)
@example(REJOIN, 4, 9)
def test_anneal_matches_reference_property(graph, segments, seed):
    # isolated people and tasks, empty segments (a hub, or more segments
    # than people) sharing a start with the next, one-task movers, and
    # moves that rejoin the current partition
    config = replace(SHORT_SA, cooling_rate=0.5, steps_per_temperature=15, seed=seed)
    with mock.patch.object(optimize, "_SEGMENTS", segments):
        try:
            want, want_trace = anneal_reference(graph, config)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                anneal(graph, config)
            return
        got, trace = anneal(graph, config)
    assert trace.rows == want_trace.rows
    assert got == want.freeze()


def _slots_inserted(graph, config):
    """The chain's result and the number of slots its kernel inserted."""
    inserted = 0
    kernel = optimize.insertion_maxima

    def counting(state, reinserted):
        nonlocal inserted
        inserted += len(reinserted)
        return kernel(state, reinserted)

    with mock.patch.object(optimize, "insertion_maxima", counting):
        best, trace = anneal(graph, config)
    return (best, trace.rows), inserted


def test_anneal_shortcuts_save_insertions():
    # equality with the reference cannot see a shortcut that stops firing;
    # the kernel's work can
    silo = two_silo(people=15, tasks=20)
    config = replace(SHORT_SA, steps_per_temperature=30)
    result, inserted = _slots_inserted(silo, config)
    # an exact shortcut that fires later than it could still passes the
    # reference tests, and the comparisons below; this bound does not
    assert inserted <= 3208
    joins, insert_from = optimize._joins_same_components, optimize._insert_from

    def without_one_task(state, own, t, t_new):
        return len(own) > 1 and joins(state, own, t, t_new)

    def without_segment_start(state, own, t, t_new, calls=itertools.count()):
        # a move asks at its segment's saved state first and, only if that
        # fails, once more at slot k; the calls from the first on alternate
        return next(calls) % 2 == 1 and joins(state, own, t, t_new)

    def without_rejoin(state, held, k, starts, rejoin=None):
        return insert_from(state, held, k, starts)

    for name, disabled in [
        ("_joins_same_components", without_one_task),
        ("_joins_same_components", without_segment_start),
        ("_insert_from", without_rejoin),
    ]:
        with mock.patch.object(optimize, name, disabled):
            slower, more = _slots_inserted(silo, config)
        assert slower == result
        assert more > inserted, disabled.__name__


# -- paired decay ----------------------------------------------------------------


def test_paired_decay_identity(four_edge_graph):
    curve = bus_factor_greedy(four_edge_graph).curve
    header, *rows = paired_decay_csv(curve, curve)
    assert header == "step,tau_original,tau_optimized\n"
    assert rows[0] == "0,3,3\n"
    assert len(rows) == four_edge_graph.n_people + 1


def test_paired_decay_silo_improvement():
    silo = two_silo()
    optimized, _ = anneal(silo, SHORT_SA)
    pairs = list(zip(bus_factor_greedy(silo).curve, bus_factor_greedy(optimized).curve))
    at_least = sum(1 for a, b in pairs if b >= a)
    assert at_least / len(pairs) >= 0.8
