"""Transport reduction, certificates, fluctuation model, and functionals."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

import lplimits as lpl
from lplimits import lp_core
from conftest import LINE3, UNIFORM3, line_problem, nondegenerate_problem


def brute_force_ot_value(cost, r, s):
    """Independent LP oracle for the optimal transport value."""
    N = len(r)
    res = scipy.optimize.linprog(
        np.asarray(cost, float).ravel(),
        A_eq=lpl.ot.incidence_matrix_reduced(N),
        b_eq=np.concatenate([np.asarray(r)[: N - 1], s]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


class TestReduceToLp:
    def test_three_point_matrix_is_exact(self):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        expected = np.array(
            [
                [1, 1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 1, 1, 0, 0, 0],
                [1, 0, 0, 1, 0, 0, 1, 0, 0],
                [0, 1, 0, 0, 1, 0, 0, 1, 0],
                [0, 0, 1, 0, 0, 1, 0, 0, 1],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(lp.constraint_matrix, expected)
        np.testing.assert_allclose(lp.rhs, [1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])
        assert lp.names()[0] == "pi_1_1" and lp.names()[-1] == "pi_3_3"

    def test_single_point(self):
        problem = lpl.make_ot_problem(cost=[[0.0]], r=[1.0], s=[1.0])
        lp = lpl.reduce_to_lp(problem)
        assert lp.constraint_matrix.shape == (1, 1)
        np.testing.assert_allclose(lpl.solve_min_index(lp).primal, [1.0])

    def test_feasible_solutions_have_the_right_marginals(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            N = int(rng.integers(2, 5))
            r = rng.dirichlet(np.ones(N))
            s = rng.dirichlet(np.ones(N))
            problem = lpl.make_ot_problem(cost=rng.uniform(0, 1, (N, N)), r=r, s=s)
            lp = lpl.reduce_to_lp(problem)
            pair = lpl.solve_min_index(lp)
            coupling = pair.primal.reshape(N, N)
            np.testing.assert_allclose(coupling.sum(axis=1), r, atol=1e-10)
            np.testing.assert_allclose(coupling.sum(axis=0), s, atol=1e-10)


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.3, 5.0),
           st.sampled_from([0.5, 0.9, 1.1, 2.0]))
    def test_interior_margin_matches_highs(self, n, seed, concentration, factor):
        rng = np.random.default_rng(seed)
        problem = lpl.make_ot_problem(cost=rng.uniform(0, 1, (n, n)),
                                      r=rng.dirichlet(np.full(n, concentration)),
                                      s=rng.dirichlet(np.full(n, concentration)))
        lp = lpl.reduce_to_lp(problem)
        assume(lp.interior_margin > 1e-6)  # away from HiGHS's own tolerance band
        d = lp.n_cols
        # maximize t <= 1 subject to Ax = b, x - t >= 0, x >= 0
        res = scipy.optimize.linprog(
            np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-np.eye(d), np.ones((d, 1))]), b_ub=np.zeros(d),
            A_eq=np.hstack([lp.constraint_matrix, np.zeros((lp.n_rows, 1))]), b_eq=lp.rhs,
            bounds=[(0, None)] * d + [(None, 1.0)], method="highs",
        )
        assert res.status == 0
        assert abs(-res.fun - lp.interior_margin) <= 1e-7
        tols = lpl.DEFAULT_TOLS.with_(feas_tol=lp.interior_margin * factor)
        highs = dataclasses.replace(lp, interior_margin=None)
        assert lp_core._slater_holds(lp, tols) == lp_core._slater_holds(highs, tols) == (factor < 1)


class TestNorthwestCorner:
    def test_equal_halves_stay_diagonal(self):
        coupling = lpl.northwest_corner([0.5, 0.5], [0.5, 0.5])
        np.testing.assert_allclose(coupling.matrix, np.diag([0.5, 0.5]))

    def test_forced_two_by_two(self):
        coupling = lpl.northwest_corner([0.3, 0.7], [0.6, 0.4])
        np.testing.assert_allclose(coupling.matrix, [[0.3, 0.0], [0.3, 0.4]])

    def test_zero_mass_coordinates(self):
        coupling = lpl.northwest_corner([0.5, 0.0, 0.5], [0.25, 0.5, 0.25])
        np.testing.assert_allclose(coupling.matrix.sum(axis=1), [0.5, 0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(coupling.matrix.sum(axis=0), [0.25, 0.5, 0.25], atol=1e-15)

    def test_marginals_are_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            N = int(rng.integers(1, 7))
            r = rng.dirichlet(np.ones(N))
            s = rng.dirichlet(np.ones(N))
            coupling = lpl.northwest_corner(r, s)
            np.testing.assert_allclose(coupling.matrix.sum(axis=1), r, atol=1e-12)
            np.testing.assert_allclose(coupling.matrix.sum(axis=0), s, atol=1e-12)
            assert len(coupling.support) <= 2 * N - 1

    def test_optimal_for_strictly_convex_line_costs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            N = int(rng.integers(2, 6))
            xs = np.sort(rng.standard_normal(N))
            while np.min(np.diff(xs), initial=1.0) < 1e-3:
                xs = np.sort(rng.standard_normal(N))
            r = rng.dirichlet(np.ones(N))
            s = rng.dirichlet(np.ones(N))
            problem = lpl.make_ot_problem(points_x=xs, r=r, s=s, p=2.0, q=2.0)
            nw_value = float((lpl.northwest_corner(r, s).matrix * problem.cost).sum())
            assert abs(nw_value - brute_force_ot_value(problem.cost, r, s)) < 1e-9


class TestStrictMonge:
    def test_convex_line_cost_is_monge(self):
        assert lpl.check_strict_monge(line_problem(2.0).cost).holds

    def test_unit_exponent_fails_with_documented_witness(self):
        check = lpl.check_strict_monge(line_problem(1.0).cost)
        assert not check.holds
        assert check.witness == (0, 1, 1, 2)

    def test_single_point_vacuous(self):
        assert lpl.check_strict_monge(np.zeros((1, 1))).holds


class TestPrimalSummability:
    def test_equal_marginals_fail_with_singleton_witness(self):
        check = lpl.check_primal_summability([0.5, 0.5], [0.5, 0.5])
        assert not check.holds
        assert check.witness == ((0,), (0,))

    def test_generic_marginals_pass(self):
        assert lpl.check_primal_summability([1 / 3, 2 / 3], [1 / 4, 3 / 4]).holds

    def test_equal_vectors_always_fail(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = rng.dirichlet(np.ones(4))
            assert not lpl.check_primal_summability(r, r).holds

    def test_cap(self):
        v = np.ones(15) / 15
        with pytest.raises(lpl.CapExceeded):
            lpl.check_primal_summability(v, v)


class TestDualSummability:
    def test_unit_exponent_line_fails_with_short_cycle(self):
        check = lpl.check_dual_summability(line_problem(1.0).cost)
        assert not check.holds
        assert check.witness == ((0, 1), (1, 2))

    def test_single_point_vacuous(self):
        assert lpl.check_dual_summability(np.zeros((1, 1))).holds

    def test_symmetric_costs_always_fail_at_three_points(self):
        # Any symmetric cost ties a 3-cycle against its own reflection.
        rng = np.random.default_rng(4)
        c = rng.uniform(0, 1, (3, 3))
        c = (c + c.T) / 2.0
        assert not lpl.check_dual_summability(c).holds

    def test_generic_planar_configurations_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            X = rng.standard_normal((4, 2))
            Y = rng.standard_normal((4, 2))
            assert lpl.check_dual_summability(lpl.cost_from_points(X, Y, 2.0, 2.0)).holds

    def test_cap(self):
        with pytest.raises(lpl.CapExceeded):
            lpl.check_dual_summability(np.zeros((8, 8)))


class TestStrictCyclicalMonotonicity:
    def test_diagonal_support_convex_cost(self):
        support = [(0, 0), (1, 1), (2, 2)]
        assert lpl.check_strict_cyclical_monotonicity(line_problem(2.0).cost, support).holds

    def test_diagonal_support_unit_exponent_is_still_strict(self):
        # The cost ties live outside the diagonal support, so strictness
        # survives; this matches the uniqueness of the diagonal coupling.
        support = [(0, 0), (1, 1), (2, 2)]
        assert lpl.check_strict_cyclical_monotonicity(line_problem(1.0).cost, support).holds

    def test_separated_supports_at_unit_exponent_fail(self):
        # All mass of r sits left of all mass of s: every coupling is optimal
        # and no support can be strictly monotone.
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        cost = lpl.cost_from_points(xs, xs, p=1.0, q=2.0)
        r = np.array([0.5, 0.5, 0.0, 0.0])
        s = np.array([0.0, 0.0, 0.5, 0.5])
        problem = lpl.make_ot_problem(cost=cost, r=r, s=s)
        pair = lpl.solve_min_index(lpl.reduce_to_lp(problem))
        coupling = lpl.coupling_from_lp_solution(pair.primal)
        check = lpl.check_strict_cyclical_monotonicity(cost, coupling.support)
        assert not check.holds

    def test_singleton_support(self):
        assert lpl.check_strict_cyclical_monotonicity(np.zeros((1, 1)), [(0, 0)]).holds

    def test_uniqueness_equivalence_on_grid(self):
        simplex_grid = [
            np.array(v, dtype=float) / sum(v)
            for v in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 2, 1)]
        ]
        for r, s, p in itertools.product(simplex_grid, simplex_grid, (1.0, 2.0)):
            problem = line_problem(p, r=r, s=s)
            lp = lpl.reduce_to_lp(problem)
            ledger = lpl.enumerate_ledger(lp)
            unique = len(ledger.primal_optimal_vertices) == 1
            pair = lpl.solve_min_index(lp)
            support = lpl.coupling_from_lp_solution(pair.primal).support
            strict = lpl.check_strict_cyclical_monotonicity(problem.cost, support).holds
            assert unique == strict


class TestCertificateShapes:
    """A certificate of a cost or marginals of the wrong shape raises, before any scan."""

    RECTANGULAR = [[0.0, 1.0, 5.0], [1.0, 0.0, 7.0]]

    @pytest.mark.parametrize("cost", [RECTANGULAR, np.zeros(3), np.zeros((2, 2, 2)), 1.0])
    @pytest.mark.parametrize("check", [
        lpl.check_strict_monge,
        lpl.check_dual_summability,
        lambda cost: lpl.check_strict_cyclical_monotonicity(cost, [(0, 0), (1, 1)]),
    ], ids=["monge", "dual", "cyclical"])
    def test_cost_must_be_square(self, check, cost):
        with pytest.raises(lpl.DimensionMismatch, match="square"):
            check(cost)

    @pytest.mark.parametrize("cost", [np.full((3, 3), np.nan), np.diag([0.0, np.inf, 0.0]),
                                      [[0.0, -np.inf], [1.0, 0.0]]], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("check", [
        lpl.check_strict_monge,
        lpl.check_dual_summability,
        lambda cost: lpl.check_strict_cyclical_monotonicity(cost, [(0, 0), (1, 1)]),
    ], ids=["monge", "dual", "cyclical"])
    def test_cost_must_be_finite(self, check, cost):
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            check(cost)

    @pytest.mark.parametrize("support", [[(0, 0), (2, 2)], [(0, 0), (-1, 1)]])
    def test_support_must_index_the_cost(self, support):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.check_strict_cyclical_monotonicity(np.eye(2), support)

    @pytest.mark.parametrize("r, s", [
        ([0.5, 0.5], [0.2, 0.3, 0.5]),
        ([0.2, 0.3, 0.5], [0.5, 0.5]),
        ([[0.5, 0.5]], [[0.5, 0.5]]),
        (0.5, 0.5),
    ])
    def test_marginals_must_be_vectors_of_one_length(self, r, s):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.check_primal_summability(r, s)


class TestMultinomialCovariance:
    def test_two_point_half(self):
        np.testing.assert_allclose(
            lpl.multinomial_covariance([0.5, 0.5]),
            [[0.25, -0.25], [-0.25, 0.25]],
        )

    def test_point_mass_is_zero(self):
        np.testing.assert_allclose(lpl.multinomial_covariance([1.0, 0.0, 0.0]), 0.0)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(6)
        v = rng.dirichlet(np.ones(6))
        sums = lpl.multinomial_covariance(v).sum(axis=1)
        assert np.abs(sums).max() < 1e-14

    def test_matches_empirical_single_draw_covariance(self):
        rng = np.random.default_rng(7)
        v = np.array([0.2, 0.3, 0.5])
        draws = rng.multinomial(1, v, size=100_000).astype(float)
        empirical = np.cov(draws, rowvar=False)
        assert np.abs(empirical - lpl.multinomial_covariance(v)).max() < 0.02


class TestOtLimitSpec:
    @pytest.mark.parametrize("lam", ["x", None, 0.0, 1.0])
    def test_lambda_outside_the_open_unit_interval_is_rejected(self, lam):
        with pytest.raises(lpl.DimensionMismatch, match="lambda"):
            lpl.TwoSample(lam)

    def test_two_sample_blocks(self):
        lam = 0.5
        mode = lpl.TwoSample(lam)
        spec = lpl.ot_limit_spec(line_problem(2.0), mode)
        sigma = lpl.multinomial_covariance(UNIFORM3)
        np.testing.assert_allclose(spec.covariance[:2, :2], lam * sigma[:2, :2])
        np.testing.assert_allclose(spec.covariance[2:, 2:], (1 - lam) * sigma)
        np.testing.assert_allclose(spec.covariance[:2, 2:], 0.0)
        assert spec.m0 == 5 and spec.rate_name == "sqrt(nm/(n+m))"
        assert mode.rate(1000) == float(np.sqrt(1000 * 1000 / (1000 + 1000)))
        assert mode.rate((1000, 3000)) == float(np.sqrt(1000 * 3000 / (1000 + 3000)))

    def test_unit_exponent_keeps_eight_cones(self):
        spec = lpl.ot_limit_spec(line_problem(1.0), lpl.TwoSample(0.5))
        assert len(spec.cones) == 8

    def test_one_sample_covariance_is_full_rank_for_interior_marginals(self):
        mode = lpl.OneSample()
        spec = lpl.ot_limit_spec(nondegenerate_problem(), mode)
        assert spec.m0 == 2 and spec.rate_name == "sqrt(n)"
        assert mode.rate(1000) == float(np.sqrt(1000))
        assert np.linalg.eigvalsh(spec.covariance).min() > 1e-6

    def test_rejects_non_unique_optimum(self):
        from conftest import SKEWED_R, SKEWED_S

        with pytest.raises(lpl.NotUnique):
            lpl.ot_limit_spec(line_problem(1.0, r=SKEWED_R, s=SKEWED_S), lpl.OneSample())

    def test_two_sample_boundary_hits_are_rare(self, spec_p2_two_sample):
        result = lpl.sample_limit(spec_p2_two_sample, 20_000, seed=8)
        assert result.boundary_hits.sum() / 20_000 < 1e-3


class TestCouplingFunctionals:
    def test_otc_reaches_one_at_max_cost(self):
        problem = line_problem(2.0, r=np.array([0.2, 0.3, 0.5]))
        coupling = lpl.northwest_corner(problem.r, problem.s)
        values = lpl.otc_curve(coupling, problem.cost, [problem.cost.max()])
        assert values[-1] == pytest.approx(1.0)

    def test_otc_diagonal_zero_cost(self):
        coupling = lpl.coupling_from_matrix(np.diag(UNIFORM3))
        values = lpl.otc_curve(coupling, line_problem(2.0).cost, [0.0])
        assert values[0] == pytest.approx(1.0)

    def test_otc_two_by_two_steps(self):
        coupling = lpl.coupling_from_matrix([[0.3, 0.0], [0.3, 0.4]])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        values = lpl.otc_curve(coupling, cost, [0.0, 1.0])
        np.testing.assert_allclose(values, [0.7, 1.0])

    @pytest.mark.parametrize("cost", [np.zeros((2, 2)), np.zeros(10)], ids=["2x2", "ten"])
    def test_otc_cost_must_match_the_coupling(self, cost):
        coupling = lpl.coupling_from_matrix(np.diag(UNIFORM3))
        with pytest.raises(lpl.DimensionMismatch):
            lpl.otc_curve(coupling, cost, [0.0, 1.0])

    def test_otc_below_min_cost_is_zero(self):
        coupling = lpl.coupling_from_matrix([[0.5, 0.0], [0.0, 0.5]])
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert lpl.otc_curve(coupling, cost, [0.5])[0] == 0.0

    def test_trace(self):
        assert lpl.trace_functional(lpl.coupling_from_matrix(np.diag(UNIFORM3))) == pytest.approx(1.0)
        half = np.full((2, 2), 0.25)
        assert lpl.trace_functional(lpl.coupling_from_matrix(half)) == pytest.approx(0.5)
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0, 1, (4, 4))
        matrix /= matrix.sum()
        assert lpl.trace_functional(lpl.coupling_from_matrix(matrix)) == pytest.approx(
            sum(matrix[i, i] for i in range(4))
        )

    def test_geodesic_endpoints(self):
        r = np.array([0.2, 0.3, 0.5])
        s = np.array([0.25, 0.35, 0.4])
        coupling = lpl.northwest_corner(r, s)
        X = LINE3.reshape(-1, 1)
        Y = (LINE3 + 0.5).reshape(-1, 1)
        start = lpl.geodesic_at(coupling, X, Y, 0.0)
        assert start.weights.sum() == pytest.approx(1.0)
        weight_by_loc = {float(loc[0]): w for loc, w in zip(start.locations, start.weights)}
        for xi, ri in zip(LINE3, r):
            assert weight_by_loc[float(xi)] == pytest.approx(ri)
        end = lpl.geodesic_at(coupling, X, Y, 1.0)
        weight_by_loc = {float(loc[0]): w for loc, w in zip(end.locations, end.weights)}
        for yi, si in zip(LINE3 + 0.5, s):
            assert weight_by_loc[float(yi)] == pytest.approx(si)

    def test_geodesic_midpoint_of_identity_coupling(self):
        r = np.array([0.2, 0.3, 0.5])
        coupling = lpl.coupling_from_matrix(np.diag(r))
        mid = lpl.geodesic_at(coupling, LINE3, LINE3, 0.5)
        np.testing.assert_allclose(np.sort(mid.locations.ravel()), LINE3)
        np.testing.assert_allclose(mid.weights.sum(), 1.0)

    @pytest.mark.parametrize("points_x, points_y", [
        (LINE3[:2], LINE3), (LINE3, LINE3[:2]), (np.arange(4.0), np.arange(4.0)),
    ], ids=["short-x", "short-y", "long"])
    def test_geodesic_point_count_must_be_the_couplings(self, points_x, points_y):
        coupling = lpl.coupling_from_matrix(np.diag(UNIFORM3))
        with pytest.raises(lpl.DimensionMismatch):
            lpl.geodesic_at(coupling, points_x, points_y, 0.5)

    def test_geodesic_requires_points(self):
        coupling = lpl.coupling_from_matrix(np.diag(UNIFORM3))
        with pytest.raises(lpl.MissingGroundPoints):
            lpl.geodesic_at(coupling, None, None, 0.5)

    def test_geodesic_rejects_a_nan_point(self):
        coupling = lpl.coupling_from_matrix(np.diag([0.5, 0.5]))
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            lpl.geodesic_at(coupling, [0.0, np.nan], [0.0, 1.0], 0.5)


class TestCertify:
    def test_uniqueness_via_monotonicity_despite_symmetric_cost(self):
        report = lpl.certify(line_problem(1.0))
        assert not report.dual_summability.holds
        assert report.strict_cyclical_monotone_support.holds
        assert report.uniqueness_implied

    def test_dual_summability_implies_distinct_duals_across_marginals(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((3, 2))
        Y = rng.standard_normal((3, 2))
        cost = lpl.cost_from_points(X, Y, 2.0, 2.0)
        assert lpl.check_dual_summability(cost).holds
        for _ in range(10):
            r = rng.dirichlet(np.ones(3))
            s = rng.dirichlet(np.ones(3))
            problem = lpl.make_ot_problem(cost=cost, r=r, s=s)
            lp = lpl.reduce_to_lp(problem)
            report = lpl.check_assumptions(lpl.enumerate_ledger(lp))
            assert report.a3_distinct_optimal_duals

    def test_summability_and_monge_give_distinct_duals(self):
        # Distinct marginal subset sums plus the strict pairwise-order
        # inequality force a unique nondegenerate basis, hence trivially
        # distinct optimal duals.
        problem = nondegenerate_problem()
        assert lpl.check_primal_summability(problem.r, problem.s).holds
        assert lpl.check_strict_monge(problem.cost).holds
        report = lpl.check_assumptions(lpl.enumerate_ledger(lpl.reduce_to_lp(problem)))
        assert report.a3_distinct_optimal_duals and report.a2_unique_optimum

        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            xs = np.sort(rng.standard_normal(3))
            r = rng.dirichlet(np.ones(3))
            s = rng.dirichlet(np.ones(3))
            if np.min(np.diff(xs)) < 1e-3 or not lpl.check_primal_summability(r, s).holds:
                continue
            checked += 1
            random_problem = lpl.make_ot_problem(points_x=xs, r=r, s=s, p=2.0, q=2.0)
            assert lpl.check_strict_monge(random_problem.cost).holds
            report = lpl.check_assumptions(lpl.enumerate_ledger(lpl.reduce_to_lp(random_problem)))
            assert report.a3_distinct_optimal_duals


class TestProblemValidation:
    def test_marginals_must_be_probabilities(self):
        with pytest.raises(lpl.NotAProbabilityVector):
            lpl.make_ot_problem(cost=np.zeros((2, 2)), r=[0.5, 0.6], s=[0.5, 0.5])

    def test_cost_must_match_points(self):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.make_ot_problem(
                cost=np.ones((2, 2)), r=[0.5, 0.5], s=[0.5, 0.5], points_x=[0.0, 1.0], p=2.0
            )

    def test_max_norm_costs(self):
        X = np.array([[0.0, 0.0], [1.0, 3.0]])
        cost = lpl.cost_from_points(X, X, p=1.0, q=np.inf)
        assert cost[0, 1] == pytest.approx(3.0)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.cost_from_points([0.0, 1.0], p=-1.0)

    @pytest.mark.parametrize("kwargs", [{"p": np.nan}, {"q": np.nan}, {"q": -np.inf}],
                             ids=["p-nan", "q-nan", "q-minus-inf"])
    def test_exponent_must_be_a_positive_number(self, kwargs):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.cost_from_points([0.0, 1.0], **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cost_must_be_finite(self, bad):
        cost = np.zeros((2, 2))
        cost[0, 1] = bad
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            lpl.make_ot_problem(cost=cost, r=[0.5, 0.5], s=[0.5, 0.5])

    def test_cost_of_a_nan_point_is_rejected(self):
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            lpl.make_ot_problem(r=[0.5, 0.5], s=[0.5, 0.5], points_x=[0.0, np.nan])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_cost_of_an_infinite_point_is_rejected(self, bad):
        # before any subtraction: inf - inf would warn, an error under the suite's filter
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            lpl.cost_from_points([0.0, bad])
        with pytest.raises(lpl.DimensionMismatch, match="non-finite"):
            lpl.cost_from_points([0.0, 1.0], [bad, 1.0])

    def test_json_round_trip(self):
        payload = {
            "points_x": [0.0, 1.0, 2.0],
            "p": 2.0,
            "q": 2.0,
            "r": [1 / 3, 1 / 3, 1 / 3],
            "s": [1 / 3, 1 / 3, 1 / 3],
        }
        problem = lpl.ot_from_dict(payload)
        np.testing.assert_allclose(problem.cost, line_problem(2.0).cost)
