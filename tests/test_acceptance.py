"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The golden instance is optimal transport between three ordered points on
the real line; statistical criteria use fixed seeds throughout.
"""

import itertools
import time

import numpy as np
import pytest

import lplimits as lpl
from conftest import (
    CONE_SYSTEMS,
    EQUAL_MARGINAL_SCHEMES,
    FULL_DIM_INTERSECTIONS,
    OPTIMAL_SCHEME_IDS,
    SKEWED_R,
    SKEWED_S,
    line_problem,
    nondegenerate_problem,
    scheme_ids_of_ledger,
)


def _report(number: int, text: str, started: float) -> None:
    print(f"PASS criterion {number}: {text} [{time.perf_counter() - started:.2f}s]")


@pytest.fixture(scope="module")
def two_sample_experiment():
    """Shared run for criteria 4 and 5: p = 2, equal marginals, n = m = 1e4."""
    config = lpl.ExperimentConfig(
        sample_sizes=((10_000, 10_000),),
        replicates=2000,
        seed=11,
        mode=lpl.TwoSample(0.5),
        solver_policy=lpl.TieBreak.MIN_INDEX,
        comparison_samples=20_000,
    )
    return lpl.run_experiment(line_problem(2.0), config)


def test_criterion_01_bases_table():
    started = time.perf_counter()
    for p, expected_ids in OPTIMAL_SCHEME_IDS.items():
        ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(p)))
        assert ledger.optimal_count == len(expected_ids)
        found = set(map(tuple, ledger.bases[: ledger.optimal_count].tolist()))
        assert found == {EQUAL_MARGINAL_SCHEMES[i] for i in expected_ids}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "bases table K=6/8/4 with the exact printed support patterns", started)


def test_criterion_02_cones():
    started = time.perf_counter()
    ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0)))
    cones = lpl.build_cones(ledger)
    ids = scheme_ids_of_ledger(ledger)
    rng = np.random.default_rng(2024)
    band = 1e-9
    for k, cone in enumerate(cones):
        printed = np.array(CONE_SYSTEMS[ids[k]], dtype=float)
        points = rng.standard_normal((10_000, 5))
        theirs = (points @ printed.T).min(axis=1)
        outside_band = np.abs(theirs) > band
        assert np.all(outside_band)  # random points never sit inside the band
        for point, printed_min in zip(points, theirs):
            verdict = lpl.cone_contains(cone, point, tol=band)
            assert (verdict is not lpl.Verdict.OUTSIDE) == (printed_min >= 0)
    by_scheme = {ids[k]: cones[k] for k in range(len(cones))}
    for a, b in FULL_DIM_INTERSECTIONS:
        points = rng.standard_normal((100_000, 5))
        both = np.all(by_scheme[a].products(points) > band, axis=1) & np.all(
            by_scheme[b].products(points) > band, axis=1
        )
        assert both.any()
    report = lpl.check_assumptions(ledger)
    assert not report.a3_distinct_optimal_duals
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "all eight cones match the printed half-space systems", started)


def test_criterion_03_nondegenerate_clt():
    started = time.perf_counter()
    problem = nondegenerate_problem()
    assert lpl.check_primal_summability(problem.r, problem.s).holds
    assert lpl.check_dual_summability(problem.cost).holds
    spec = lpl.ot_limit_spec(problem, lpl.OneSample())
    assert spec.ledger.optimal_count == 1
    config = lpl.ExperimentConfig(sample_sizes=(10_000,), replicates=2000, seed=33)
    solver = lpl.RepeatedSolver(spec.ledger)
    batches = lpl.fluctuation_run(solver, config, lpl.OneSample())
    empirical = np.cov(batches[0].fluctuations, rowvar=False)
    closed = lpl.pushforward_covariance(spec.ledger, 0, spec.covariance)
    err = np.linalg.norm(empirical - closed) / np.linalg.norm(closed)
    assert err <= 0.10
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(3, f"scaled-coupling covariance within {err:.1%} of the closed form", started)


def test_criterion_04_degenerate_limit_law(two_sample_experiment):
    started = time.perf_counter()
    result = two_sample_experiment
    ks = result.report.per_coordinate_ks
    assert ks.shape == (9,)
    assert ks.max() <= 0.06
    scale = lpl.mean_pairwise_norm(
        result.batches[-1].fluctuations, result.limit_result.samples
    )
    assert result.report.energy_distance <= 0.05 * scale
    _report(
        4,
        f"two-sample KS max {ks.max():.3f} <= 0.06, energy {result.report.energy_distance:.4f}"
        f" <= {0.05 * scale:.4f}",
        started,
    )


def test_criterion_05_optimal_value_limit(two_sample_experiment):
    started = time.perf_counter()
    value_ks = two_sample_experiment.report.value_ks
    assert value_ks is not None and value_ks <= 0.05
    _report(5, f"optimal-value KS {value_ks:.3f} <= 0.05", started)


@pytest.mark.parametrize("n_points, p, policy", [
    (4, 2.0, lpl.TieBreak.MIN_INDEX),
    (5, 2.0, lpl.TieBreak.MIN_INDEX),
    (6, 2.0, lpl.TieBreak.MIN_INDEX),
    (4, 1.0, lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE),
])
def test_criteria_04_05_at_scale(n_points, p, policy):
    """Criteria 4 and 5 on the N-point line, where only the basis walk builds the ledger.

    At N = 6 and p = 2 the min-index optimum carries 5.55e-17 on a degenerate
    zero.  Centred there, the replicates that leave it nonbasic fluctuated by
    -3.9e-15 where the limit draws hold 0, and the KS maximum read 0.47.
    """
    started = time.perf_counter()
    config = lpl.ExperimentConfig(
        sample_sizes=((10_000, 10_000),), replicates=2000, seed=0, mode=lpl.TwoSample(0.5),
        solver_policy=policy, comparison_samples=20_000,
    )
    uniform = np.ones(n_points) / n_points
    result = lpl.run_experiment(line_problem(p, r=uniform, xs=np.arange(float(n_points))), config)
    ks = result.report.per_coordinate_ks.max()
    scale = lpl.mean_pairwise_norm(result.batches[-1].fluctuations, result.limit_result.samples)
    assert ks <= 0.06
    assert result.report.energy_distance <= 0.05 * scale
    assert result.report.value_ks <= 0.05
    _report(4, f"line N={n_points}, p={p:g}, {policy.value}: KS max {ks:.3f} <= 0.06, value KS "
               f"{result.report.value_ks:.3f} <= 0.05", started)


def test_criterion_06_hausdorff_rate():
    started = time.perf_counter()
    solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0))))
    experiment = lpl.hausdorff_run(solver, lpl.OneSample(), [100, 1000, 10_000, 100_000], 200, seed=61)
    slope = lpl.hausdorff_rate_slope(experiment.summary)
    assert -0.6 <= slope <= -0.4
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(6, f"log-median Hausdorff slope {slope:.3f} in [-0.6, -0.4]", started)


def test_criterion_07_perturbation():
    started = time.perf_counter()
    base_ledger = lpl.enumerate_ledger(
        lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
    )
    base_vertices = np.array(base_ledger.primal_optimal_vertices)
    assert len(base_vertices) == 2
    scheme_3 = (0, 4, 6, 7, 8)
    scheme_4 = (0, 3, 4, 6, 8)
    for sign, dying in ((+1, scheme_4), (-1, scheme_3)):
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            r = SKEWED_R + sign * eps * np.array([1.0, -1.0, 0.0])
            lp = lpl.reduce_to_lp(line_problem(1.0, r=r, s=SKEWED_S))
            ledger = lpl.enumerate_ledger(lp)
            vertices = np.array(ledger.primal_optimal_vertices)
            ratios.append(lpl.hausdorff_distance(base_vertices, vertices) / eps)
            assert not lpl.basic_pair(lp, dying).primal_feasible
        assert max(ratios) / min(ratios) <= 1.01
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(7, "Hausdorff distance scales linearly and the predicted schemes die", started)


def test_criterion_08_support_pattern():
    started = time.perf_counter()
    problem = line_problem(2.0)
    spec = lpl.ot_limit_spec(problem, lpl.OneSample())
    lp = spec.ledger.lp
    solver = lpl.RepeatedSolver(spec.ledger)
    config = lpl.ExperimentConfig(sample_sizes=(100_000,), replicates=1000, seed=88)
    batches = lpl.fluctuation_run(solver, config, lpl.OneSample())
    partition = lpl.support_partition(spec.ledger)
    assert partition.tz == (2, 6) and partition.dz == (1, 3, 5, 7)
    freqs = lpl.support_frequencies(batches[0].solutions, partition, 1e-9)
    assert freqs.tz_zero_rate >= 0.99
    assert freqs.pos_positive_rate >= 0.99
    assert all(rate >= 0.05 for rate in freqs.dz_positive_rates)
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report(
        8,
        f"tz zero {freqs.tz_zero_rate:.3f}, pos positive {freqs.pos_positive_rate:.3f}, "
        f"dz rates min {min(freqs.dz_positive_rates):.3f}",
        started,
    )


def test_criterion_09_certificates():
    started = time.perf_counter()
    # (a) documented short-cycle failure plus generic planar success
    check = lpl.check_dual_summability(line_problem(1.0).cost)
    assert not check.holds and check.witness == ((0, 1), (1, 2))
    rng = np.random.default_rng(99)
    for _ in range(100):
        X = rng.standard_normal((4, 2))
        Y = rng.standard_normal((4, 2))
        assert lpl.check_dual_summability(lpl.cost_from_points(X, Y, 2.0, 2.0)).holds
    # (b) greedy fill is optimal for strictly convex line costs
    for _ in range(50):
        N = int(rng.integers(2, 5))
        xs = np.sort(rng.standard_normal(N))
        while np.min(np.diff(xs), initial=1.0) < 1e-3:
            xs = np.sort(rng.standard_normal(N))
        r = rng.dirichlet(np.ones(N))
        s = rng.dirichlet(np.ones(N))
        problem = lpl.make_ot_problem(points_x=xs, r=r, s=s, p=2.0, q=2.0)
        nw_value = float((lpl.northwest_corner(r, s).matrix * problem.cost).sum())
        ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(problem))
        assert abs(nw_value - ledger.optimal_value) < 1e-9
        # strictly convex line costs are strictly monotone in the pair order,
        # so the greedy optimum is also the unique one
        assert len(ledger.primal_optimal_vertices) == 1
    # (c) uniqueness <-> strictly monotone support, exhaustively on a grid
    simplex_grid = [
        np.array(v, dtype=float) / sum(v)
        for v in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 2, 1)]
    ]
    for r, s, p in itertools.product(simplex_grid, simplex_grid, (1.0, 2.0)):
        problem = line_problem(p, r=r, s=s)
        lp = lpl.reduce_to_lp(problem)
        ledger = lpl.enumerate_ledger(lp)
        unique = len(ledger.primal_optimal_vertices) == 1
        support = lpl.coupling_from_lp_solution(lpl.solve_min_index(lp).primal).support
        strict = lpl.check_strict_cyclical_monotonicity(problem.cost, support).holds
        assert unique == strict
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(9, "summability, greedy-fill optimality, and uniqueness equivalence", started)


def test_criterion_10_oracle_equivalence():
    started = time.perf_counter()
    from test_lp_core import random_solvable_lp

    rng = np.random.default_rng(1010)
    for trial in range(200):
        lp = random_solvable_lp(rng, degenerate=(trial % 3 == 0))
        pair = lpl.solve_min_index(lp)
        ledger = lpl.enumerate_ledger(lp)
        assert abs(pair.objective - ledger.optimal_value) <= 1e-10 * (
            1 + abs(ledger.optimal_value)
        )
        expected = min(map(tuple, ledger.bases[: ledger.optimal_count].tolist()))
        assert pair.basis.indices == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(10, "min-index solve matches exhaustive enumeration on 200 random LPs", started)
