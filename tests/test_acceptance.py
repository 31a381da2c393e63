"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The slow criteria state their runtime budgets and are asserted
against them.
"""

import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as stats

from busfactor.cli import main as cli_main
from busfactor.coverage import mcs_exact, mcs_greedy, mrs_exact, mrs_greedy, normalize_delta
from busfactor.errors import InfeasibleError
from busfactor.generators import (
    GeneratorConfig,
    disjoint_union,
    generate_powerlaw,
    run_sweep,
)
from busfactor.graph import ProjectGraph
from busfactor.optimize import (
    AnnealingConfig,
    NullModelConfig,
    anneal,
    calibrate_pvalues,
    null_sample,
)
from busfactor.robustness import (
    bus_factor_exact,
    bus_factor_greedy,
    decay_curve,
)

from conftest import (
    decay_curve_naive,
    degree_maps,
    order_robustness,
    random_bipartite,
    z_worst_bruteforce,
)

DESK = dict(n_people=750, n_tasks=1000)
RQ1_SEEDS = (0, 1, 2, 3, 4)
RQ2_BASE_SEED = 11


def report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {detail}")


def averaged_columns(tables, column):
    """Per-checkpoint mean across seeds, over the common row prefix."""
    common = min(len(t.rows) for t in tables)
    return [
        float(np.mean([getattr(t.rows[i], column) for t in tables]))
        for i in range(common)
    ]


def test_criterion_1_coverage_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(10_001)
    deltas = ["0.3", "0.5", "0.8", "1.0"]
    graphs = 0
    infeasible_pairs = 0
    for _ in range(500):
        g = random_bipartite(rng, 12, 15)
        graphs += 1
        delta = deltas[int(rng.integers(len(deltas)))]
        target = normalize_delta(delta) * g.n_tasks
        exact_mcs = mcs_exact(g, delta)
        assert len(mcs_greedy(g, delta)) >= len(exact_mcs)
        # identity against the direct forall-quantified definition
        assert z_worst_bruteforce(g, target) == len(exact_mcs) - 1
        try:
            exact_mrs = mrs_exact(g, delta)
        except InfeasibleError:
            infeasible_pairs += 1
            with pytest.raises(InfeasibleError):
                mrs_greedy(g, delta)
            continue
        assert len(mrs_greedy(g, delta)) <= len(exact_mrs)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"runtime budget exceeded: {elapsed:.0f}s"
    report(
        1,
        f"greedy vs exact on {graphs} graphs "
        f"({infeasible_pairs} infeasible pairs agreed), {elapsed:.1f}s < 2min",
    )


def test_criterion_2_decay_curve_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(10_002)
    for _ in range(200):
        g = random_bipartite(rng, 100, 100, edge_prob=float(rng.uniform(0.01, 0.2)))
        order = sorted(g.people)
        rng.shuffle(order)
        assert decay_curve(g, order) == decay_curve_naive(g, order)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"runtime budget exceeded: {elapsed:.0f}s"
    report(2, f"reverse union-find == naive on 200 graphs, {elapsed:.1f}s < 1min")


def test_criterion_3_robustness_bounds_and_anchors():
    rng = np.random.default_rng(10_003)
    for _ in range(200):
        g = random_bipartite(rng, 10, 10)
        order = sorted(g.people)
        rng.shuffle(order)
        assert 0.0 <= order_robustness(g, order) <= 1.0

    for n_p, n_t in ((1, 1), (1, 7), (3, 4), (5, 2), (4, 4)):
        complete = ProjectGraph(
            people=range(n_p),
            tasks=range(n_t),
            edges=[(p, t) for p in range(n_p) for t in range(n_t)],
        ).freeze()
        assert bus_factor_greedy(complete).value == 1.0  # tolerance 0

    edgeless = ProjectGraph(people=range(3), tasks=range(4)).freeze()
    assert bus_factor_greedy(edgeless).value == 0.0

    fixture = ProjectGraph(edges=[(1, 1), (1, 2), (2, 2), (2, 3)]).freeze()
    assert abs(bus_factor_greedy(fixture).value - 7 / 9) < 1e-15

    for _ in range(100):
        g = random_bipartite(rng, 6, 8)
        assert bus_factor_exact(g).value <= bus_factor_greedy(g).value
    report(3, "bounds, complete/edgeless/7-9 anchors, exact <= greedy")


def test_criterion_4_rq1_density_trends():
    start = time.perf_counter()
    densify_tables, sparsify_tables = [], []
    for seed in RQ1_SEEDS:
        base = generate_powerlaw(GeneratorConfig(seed=seed, **DESK))
        densify_tables.append(
            run_sweep(base, "densify", total_steps=5000, stride=100,
                      delta="0.5", seed=seed + 100)
        )
        sparsify_tables.append(
            run_sweep(base, "sparsify", total_steps=5000, stride=100,
                      delta="0.5", seed=seed + 200)
        )

    # MRS is insensitive to densification: the seed-averaged column moves by
    # at most 10% of the workforce, and by proportionally far less than MCS.
    mrs = averaged_columns(densify_tables, "mrs_size")
    mcs = averaged_columns(densify_tables, "mcs_size")
    mrs_range = max(mrs) - min(mrs)
    assert mrs_range <= 0.10 * DESK["n_people"], f"MRS moved by {mrs_range}"
    mrs_rel = mrs_range / mrs[0]
    mcs_rel = (max(mcs) - min(mcs)) / mcs[0]
    assert mrs_rel <= mcs_rel / 3, f"MRS rel {mrs_rel:.3f} vs MCS rel {mcs_rel:.3f}"

    # MCS rises then plateaus: no average dip beyond half a person, positive
    # total growth, tail slope at most a quarter of the head slope.
    diffs = [b - a for a, b in zip(mcs, mcs[1:])]
    assert min(diffs) >= -0.5, f"MCS dipped by {min(diffs)}"
    assert mcs[-1] > mcs[0]
    head = float(np.mean(diffs[:10]))
    tail = float(np.mean(diffs[-10:]))
    assert tail <= 0.25 * head, f"no plateau: head {head:.2f}, tail {tail:.2f}"

    rho_up = stats.spearmanr(
        [r.modifications for r in densify_tables[0].rows],
        averaged_columns(densify_tables, "robustness"),
    ).statistic
    assert rho_up >= 0.95, f"densify Spearman {rho_up:.3f}"

    sparse_rob = averaged_columns(sparsify_tables, "robustness")
    assert len(sparse_rob) >= 10, "too few sparsify checkpoints"
    rho_down = stats.spearmanr(
        [r.modifications for r in sparsify_tables[0].rows[: len(sparse_rob)]],
        sparse_rob,
    ).statistic
    assert rho_down <= -0.95, f"sparsify Spearman {rho_down:.3f}"

    elapsed = time.perf_counter() - start
    assert elapsed < 900, f"runtime budget exceeded: {elapsed:.0f}s"
    report(
        4,
        f"MRS range {mrs_range:.1f} people, MCS head/tail slope "
        f"{head:.2f}/{tail:.2f}, Spearman +{rho_up:.3f}/{rho_down:.3f}, "
        f"{elapsed:.0f}s < 15min",
    )


def test_criterion_5_rq2_singletons():
    base = generate_powerlaw(GeneratorConfig(seed=RQ2_BASE_SEED, **DESK))
    table = run_sweep(base, "singletons", total_steps=500, stride=25,
                      delta="0.5", seed=RQ2_BASE_SEED + 100)
    rows = table.rows
    assert len(rows) == 21  # baseline + 20 checkpoints
    pairs = list(zip(rows, rows[1:]))
    mrs_up = sum(1 for a, b in pairs if b.mrs_size > a.mrs_size)
    mcs_up = sum(1 for a, b in pairs if b.mcs_size > a.mcs_size)
    rob_down = sum(1 for a, b in pairs if b.robustness <= a.robustness + 1e-12)
    assert mrs_up >= 0.90 * len(pairs), f"MRS strict growth at {mrs_up}/{len(pairs)}"
    assert mcs_up >= 0.90 * len(pairs), f"MCS strict growth at {mcs_up}/{len(pairs)}"
    assert rob_down >= 0.95 * len(pairs), f"B_BF non-increase at {rob_down}/{len(pairs)}"
    report(
        5,
        f"singletons: MRS up {mrs_up}/20, MCS up {mcs_up}/20, "
        f"B_BF non-increasing {rob_down}/20",
    )


def test_criterion_6_rq2_duplicates():
    base = generate_powerlaw(GeneratorConfig(seed=RQ2_BASE_SEED, **DESK))
    table = run_sweep(base, "duplicates", total_steps=500, stride=10,
                      delta="0.5", seed=RQ2_BASE_SEED + 200)
    rows = table.rows
    rob = [r.robustness for r in rows]
    mods = [r.modifications for r in rows]

    first_100 = [v for m, v in zip(mods, rob) if m <= 100]
    rho = stats.spearmanr(range(len(first_100)), first_100).statistic
    assert rho >= 0.9, f"first-100-clone Spearman {rho:.3f}"

    diffs = [b - a for a, b in zip(rob, rob[1:])]
    head = float(np.mean(diffs[:10]))
    tail = float(np.mean(diffs[-10:]))
    assert head > 0
    # flattened: growth has stopped (late clones are one-task specialists,
    # so the deep tail may even dip slightly)
    assert tail < 0.10 * head, f"tail slope {tail:.5f} vs head {head:.5f}"
    report(
        6,
        f"duplicates: Spearman +{rho:.3f} over first 100 clones, "
        f"head/tail slope {head:.5f}/{tail:.5f}",
    )


def _degree_check_chunk(args) -> int:
    frozen, config, start, stop, degrees, p_deg, t_deg = args
    ok = 0
    for i in range(start, stop):
        sample = null_sample(frozen, config, i)
        held_by = Counter(itertools.chain.from_iterable(sample.held))
        people = {p: len(own) for p, own in zip(sample.people, sample.held)}
        tasks = {t: held_by[k] for k, t in enumerate(sample.tasks)}
        if (
            Counter(people.values()) == p_deg
            and Counter(tasks.values()) == t_deg
            and (people, tasks) == degrees
        ):
            ok += 1
    return ok


@pytest.mark.slow
def test_criterion_7_null_model_soundness():
    start = time.perf_counter()
    base = generate_powerlaw(GeneratorConfig(seed=7, **DESK))
    config = NullModelConfig(n_samples=1, swaps_per_edge=10, seed=777)
    degrees = degree_maps(base)
    p_deg, t_deg = (Counter(d.values()) for d in degrees)

    n_samples = 10_000
    chunk = 500
    jobs = [
        (base, config, s, min(s + chunk, n_samples), degrees, p_deg, t_deg)
        for s in range(0, n_samples, chunk)
    ]
    with ProcessPoolExecutor(max_workers=2) as pool:
        preserved = sum(pool.map(_degree_check_chunk, jobs))
    assert preserved == n_samples, f"degree mismatch in {n_samples - preserved} samples"

    cal_graph = generate_powerlaw(GeneratorConfig(n_people=40, n_tasks=60, seed=88))
    pvalues = calibrate_pvalues(
        cal_graph, NullModelConfig(n_samples=99, seed=313), trials=100, workers=2
    )
    ks = stats.kstest(pvalues, "uniform")
    assert ks.pvalue > 0.01, f"calibration not uniform: KS p={ks.pvalue:.4f}"

    elapsed = time.perf_counter() - start
    report(
        7,
        f"degree multisets exact on {n_samples} desk-scale samples, "
        f"calibration KS p={ks.pvalue:.3f} > 0.01, {elapsed:.0f}s",
    )


def test_criterion_8_annealing_two_silo():
    start = time.perf_counter()
    silo = disjoint_union(
        generate_powerlaw(GeneratorConfig(n_people=50, n_tasks=65, seed=501)),
        generate_powerlaw(GeneratorConfig(n_people=50, n_tasks=65, seed=502)),
    )
    assert silo.n_people == 100
    before = bus_factor_greedy(silo).value
    covered_before = {t for t, d in zip(silo.tasks, silo.task_degrees()) if d > 0}

    optimized, trace = anneal(silo, AnnealingConfig(seed=9))
    after = bus_factor_greedy(optimized).value
    elapsed = time.perf_counter() - start

    gain = (after - before) / before
    assert gain >= 0.10, f"relative improvement {gain:.1%} < 10%"
    assert degree_maps(optimized)[0] == degree_maps(silo)[0]
    assert {
        t for t, d in zip(optimized.tasks, optimized.task_degrees()) if d > 0
    } == covered_before
    assert elapsed < 300, f"runtime budget exceeded: {elapsed:.0f}s"
    report(
        8,
        f"two-silo annealing {before:.4f} -> {after:.4f} "
        f"(+{gain:.0%}), degrees preserved, {elapsed:.0f}s < 5min",
    )


def _cli_bytes(tmp_path, name, argv, outputs):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"{name} exited {code}"
    return {out.name: out.read_bytes() for out in outputs}


def test_criterion_9_cli_determinism(tmp_path):
    fixture = tmp_path / "fixture.csv"
    silo = disjoint_union(
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=61)),
        generate_powerlaw(GeneratorConfig(n_people=15, n_tasks=20, seed=62)),
    )
    from busfactor.io import save_edge_list

    save_edge_list(silo, fixture)

    gen_out = tmp_path / "gen.csv"
    report_out = tmp_path / "report.json"
    sweep_out = tmp_path / "sweep.csv"
    null_out = tmp_path / "null.json"
    cal_out = tmp_path / "cal.json"
    decay_out = tmp_path / "decay.csv"
    prefix = tmp_path / "opt"

    commands = {
        "generate": (
            ["generate", "--people", 30, "--tasks", 40, "--seed", 42,
             "--output", gen_out],
            [gen_out],
        ),
        "analyze": (
            ["analyze", "--input", fixture, "--delta", "0.5",
             "--output", report_out],
            [report_out, tmp_path / "report.json.decay.csv"],
        ),
        "sweep": (
            ["sweep", "--input", fixture, "--kind", "densify", "--steps", 40,
             "--stride", 10, "--seed", 5, "--output", sweep_out],
            [sweep_out],
        ),
        "nulltest": (
            ["nulltest", "--input", fixture, "--samples", 40, "--seed", 6,
             "--output", null_out],
            [null_out],
        ),
        "nulltest-calibrate": (
            ["nulltest", "--input", fixture, "--samples", 9, "--seed", 6,
             "--calibrate", 10, "--output", cal_out],
            [cal_out],
        ),
        "optimize": (
            ["optimize", "--input", fixture, "--seed", 7, "--restarts", 2,
             "--steps-per-temperature", 30, "--cooling-rate", "0.8",
             "--min-temperature", "1e-3", "--output-prefix", prefix],
            [tmp_path / "opt.graph.csv", tmp_path / "opt.trace.csv",
             tmp_path / "opt.decay.csv"],
        ),
        "decay": (
            ["decay", "--input", fixture, "--output", decay_out],
            [decay_out],
        ),
    }

    pooled = ("nulltest", "optimize")  # the commands that take --workers
    for name, (argv, outputs) in commands.items():
        first = _cli_bytes(tmp_path, name, argv, outputs)
        again = _cli_bytes(tmp_path, name, argv, outputs)
        assert first == again, f"{name}: rerun differs"
        if argv[0] in pooled:
            wide = _cli_bytes(tmp_path, name, argv + ["--workers", "4"], outputs)
            assert first == wide, f"{name}: worker count changed output"
    report(
        9,
        f"{len(commands)} commands byte-identical across reruns, "
        f"the {', '.join(pooled)} ones also across workers 1/4",
    )
