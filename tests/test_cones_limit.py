"""Stability cones, support partition, and the limit functional."""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lplimits as lpl
from conftest import (
    CONE_SYSTEMS,
    FULL_DIM_INTERSECTIONS,
    line_problem,
    scheme_ids_of_ledger,
)


def cones_by_scheme(ledger, m0=None):
    partition = lpl.support_partition(ledger)
    cones = lpl.build_cones(ledger, partition, m0)
    ids = scheme_ids_of_ledger(ledger)
    return {ids[k]: cones[k] for k in range(ledger.optimal_count)}, cones


class TestSupportPartition:
    def test_equal_marginals_convex_cost(self, ledger_p2):
        partition = lpl.support_partition(ledger_p2)
        assert partition.pos == (0, 4, 8)
        assert partition.dz == (1, 3, 5, 7)
        assert partition.tz == (2, 6)

    def test_nondegenerate_has_no_degenerate_zeroes(self, spec_nondegenerate):
        partition = lpl.support_partition(spec_nondegenerate.ledger)
        assert partition.dz == ()
        assert set(partition.pos) | set(partition.tz) == set(range(9))

    def test_rejects_non_unique_optimum(self):
        from conftest import SKEWED_R, SKEWED_S

        ledger = lpl.enumerate_ledger(
            lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
        )
        with pytest.raises(lpl.NotUnique):
            lpl.support_partition(ledger)


class TestBuildCones:
    def test_printed_halfspace_systems(self, ledger_p1):
        by_scheme, _ = cones_by_scheme(ledger_p1)
        rng = np.random.default_rng(0)
        points = rng.standard_normal((20000, 5))
        for scheme_id, cone in by_scheme.items():
            assert cone.halfspace_normals.shape == (2, 5)
            printed = np.array(CONE_SYSTEMS[scheme_id], dtype=float)
            mine = np.all(cone.products(points) >= 0, axis=1)
            theirs = np.all(points @ printed.T >= 0, axis=1)
            np.testing.assert_array_equal(mine, theirs)

    def test_halfspace_count_is_codimension_of_support(self, ledger_p1, ledger_p2):
        for ledger in (ledger_p1, ledger_p2):
            partition = lpl.support_partition(ledger)
            cones = lpl.build_cones(ledger, partition)
            expected = ledger.lp.n_rows - len(partition.pos)
            assert all(c.halfspace_normals.shape[0] == expected for c in cones)

    def test_nondegenerate_cone_is_full_space(self, spec_nondegenerate):
        assert len(spec_nondegenerate.cones) == 1
        cone = spec_nondegenerate.cones[0]
        assert cone.halfspace_normals.shape[0] == 0
        assert lpl.cone_contains(cone, np.zeros(cone.m0)) is lpl.Verdict.INSIDE

    def test_generator_and_halfspace_representations_agree(self, ledger_p1):
        _, cones = cones_by_scheme(ledger_p1)
        rng = np.random.default_rng(1)
        m = ledger_p1.lp.n_rows
        for cone in cones:
            coeffs = rng.standard_normal((300, m))
            coeffs[:, list(cone.j_rows)] = np.abs(coeffs[:, list(cone.j_rows)])
            generated = coeffs @ cone.generator_matrix.T
            verdicts = cone.products(generated).min(axis=1)
            assert verdicts.min() >= -1e-9


class TestConeContains:
    def test_origin_is_boundary_with_halfspaces(self, ledger_p1):
        _, cones = cones_by_scheme(ledger_p1)
        for cone in cones:
            assert lpl.cone_contains(cone, np.zeros(5)) is lpl.Verdict.BOUNDARY

    def test_printed_examples_for_scheme_four(self, ledger_p1):
        by_scheme, _ = cones_by_scheme(ledger_p1)
        cone = by_scheme[4]
        assert lpl.cone_contains(cone, np.array([1.0, 1.0, 0.0, 0.0, 0.0])) is lpl.Verdict.INSIDE
        assert lpl.cone_contains(cone, np.array([0.0, 1.0, 1.0, 0.0, 0.0])) is lpl.Verdict.OUTSIDE

    def test_full_dimensional_intersections(self, ledger_p1):
        by_scheme, _ = cones_by_scheme(ledger_p1)
        rng = np.random.default_rng(2)
        points = rng.standard_normal((200000, 5))
        for a, b in FULL_DIM_INTERSECTIONS:
            inside_both = np.all(by_scheme[a].products(points) > 1e-9, axis=1) & np.all(
                by_scheme[b].products(points) > 1e-9, axis=1
            )
            assert inside_both.any()

    def test_restriction_agrees_with_zero_padding(self, ledger_p2):
        partition = lpl.support_partition(ledger_p2)
        full = lpl.build_cones(ledger_p2, partition, m0=5)
        restricted = lpl.build_cones(ledger_p2, partition, m0=2)
        rng = np.random.default_rng(3)
        for v2 in rng.standard_normal((200, 2)):
            padded = np.concatenate([v2, np.zeros(3)])
            for cone_full, cone_rest in zip(full, restricted):
                assert lpl.cone_contains(cone_full, padded) == lpl.cone_contains(cone_rest, v2)


    def test_rejects_direction_of_wrong_length(self, ledger_p1):
        _, cones = cones_by_scheme(ledger_p1)
        with pytest.raises(lpl.DimensionMismatch):
            lpl.cone_contains(cones[0], np.ones(3))


class TestLimitFunctional:
    def test_zero_direction_maps_to_zero(self, spec_p2_two_sample):
        out = lpl.limit_functional(spec_p2_two_sample, np.zeros(5))
        np.testing.assert_allclose(out, 0.0)

    def test_interior_direction_uses_single_basis(self, ledger_p1, spec_p2_two_sample):
        # Deep inside the cone of scheme 1 and outside the other three.
        spec = spec_p2_two_sample
        ids = scheme_ids_of_ledger(spec.ledger)
        by_scheme = {ids[k]: k for k in range(len(ids))}
        g = np.array([1.0, -2.0, 0.0, 0.5, 0.0])  # g1 >= g3, g1+g2 <= g3+g4
        verdicts = [lpl.cone_contains(c, g) for c in spec.cones]
        assert sum(v is lpl.Verdict.INSIDE for v in verdicts) == 1
        k1 = by_scheme[1]
        assert verdicts[k1] is lpl.Verdict.INSIDE
        out = lpl.limit_functional(spec, g)
        idx = list(spec.ledger.bases[k1].indices)
        sub = spec.ledger.lp.constraint_matrix[:, idx]
        expected = np.zeros(9)
        expected[idx] = np.linalg.solve(sub, g)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_finite_perturbation_oracle(self, spec_p2_two_sample):
        spec = spec_p2_two_sample
        lp = spec.ledger.lp
        base = lpl.solve_min_index(lp).primal
        rng = np.random.default_rng(4)
        tested = 0
        for _ in range(60):
            g = rng.standard_normal(5)
            margins = [np.abs(c.products(g)).min() for c in spec.cones]
            if min(margins) < 1e-2:
                continue
            tested += 1
            out = lpl.limit_functional(spec, g)
            eta = 1e-6
            shifted = lpl.make_lp(lp.constraint_matrix, lp.rhs + eta * g, lp.cost)
            fd = (lpl.solve_min_index(shifted).primal - base) / eta
            np.testing.assert_allclose(out, fd, atol=1e-6)
        assert tested >= 30

    def test_positive_homogeneity(self, spec_p2_two_sample):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.standard_normal(5)
            out1 = lpl.limit_functional(spec_p2_two_sample, g)
            out2 = lpl.limit_functional(spec_p2_two_sample, 2.5 * g)
            np.testing.assert_allclose(2.5 * out1, out2, atol=1e-10)

    def test_intersection_values_agree_under_distinct_duals(self, spec_p2_two_sample):
        # With pairwise distinct optimal duals, cones can only meet on the
        # hyperplane orthogonal to the dual difference; on such points the
        # basic fluctuations of both bases coincide.
        spec = spec_p2_two_sample
        rng = np.random.default_rng(6)
        lp = spec.ledger.lp
        duals = spec.ledger.optimal_duals()
        found = 0
        for _ in range(500):
            g = rng.standard_normal(5)
            for j in range(4):
                for k in range(j + 1, 4):
                    w = duals[j] - duals[k]
                    v = g - (g @ w) / (w @ w) * w
                    in_j = lpl.cone_contains(spec.cones[j], v) is not lpl.Verdict.OUTSIDE
                    in_k = lpl.cone_contains(spec.cones[k], v) is not lpl.Verdict.OUTSIDE
                    if not (in_j and in_k):
                        continue
                    found += 1
                    outs = []
                    for which in (j, k):
                        idx = list(spec.ledger.bases[which].indices)
                        sub = lp.constraint_matrix[:, idx]
                        full = np.zeros(9)
                        full[idx] = np.linalg.solve(sub, v)
                        outs.append(full)
                    assert np.abs(outs[0] - outs[1]).max() <= 1e-8
        assert found >= 10

    def test_randomized_policy_mixes_feasible_bases(self):
        spec = lpl.ot_limit_spec(
            line_problem(1.0), lpl.TwoSample(0.5), tie_break=lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE
        )
        rng = np.random.default_rng(7)
        g = rng.standard_normal(5)
        out = lpl.limit_functional(spec, g, seed=8)
        # Mixing preserves the constraint image: A @ out equals the direction.
        np.testing.assert_allclose(
            spec.ledger.lp.constraint_matrix @ out, g, atol=1e-10
        )

    def test_uncovered_direction_is_flagged(self):
        # One constraint, zero mass: the lone optimal basis only tolerates
        # nonnegative perturbations, and negative directions make the
        # perturbed problem infeasible.
        lp = lpl.make_lp([[1.0, 1.0]], [0.0], [1.0, 2.0])
        ledger = lpl.enumerate_ledger(lp)
        partition = lpl.support_partition(ledger)
        cones = lpl.build_cones(ledger, partition)
        spec = lpl.LimitLawSpec(
            ledger=ledger, cones=cones, tie_break=lpl.TieBreak.MIN_INDEX,
            covariance=np.eye(1), m0=1, rate_name="sqrt(n)",
        )
        np.testing.assert_allclose(lpl.limit_functional(spec, np.array([1.0])), [1.0, 0.0])
        with pytest.raises(lpl.NoFeasibleCone):
            lpl.limit_functional(spec, np.array([-1.0]))

    @pytest.mark.parametrize("g", [np.ones(3), np.ones((1, 5)), 1.0], ids=["short", "stack", "scalar"])
    def test_direction_of_another_shape_is_rejected(self, spec_p2_two_sample, g):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.limit_functional(spec_p2_two_sample, g)


class TestSampleLimit:
    def test_zero_covariance_gives_zero_samples(self, spec_p2_two_sample):
        spec = spec_p2_two_sample
        zero_spec = lpl.LimitLawSpec(
            ledger=spec.ledger, cones=spec.cones, tie_break=spec.tie_break,
            covariance=np.zeros((5, 5)), m0=5, rate_name=spec.rate_name,
        )
        result = lpl.sample_limit(zero_spec, 100, seed=0)
        np.testing.assert_allclose(result.samples, 0.0)

    def test_reproducible_by_seed(self, spec_p2_two_sample):
        a = lpl.sample_limit(spec_p2_two_sample, 500, seed=42)
        b = lpl.sample_limit(spec_p2_two_sample, 500, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(
            a.samples, lpl.sample_limit(spec_p2_two_sample, 500, seed=43).samples
        )

    def test_nondegenerate_covariance_matches_closed_form(self, spec_nondegenerate):
        result = lpl.sample_limit(spec_nondegenerate, 100_000, seed=1)
        empirical = np.cov(result.samples, rowvar=False)
        closed = lpl.pushforward_covariance(
            spec_nondegenerate.ledger, 0, spec_nondegenerate.covariance, spec_nondegenerate.m0
        )
        err = np.linalg.norm(empirical - closed) / np.linalg.norm(closed)
        assert err < 0.05

    def test_occupancy_matches_direct_membership_counts(self, spec_p2_two_sample):
        n = 20_000
        result = lpl.sample_limit(spec_p2_two_sample, n, seed=2)
        assert result.occupancy_counts.sum() == n
        # Direct estimate: first feasible cone per draw on the same Gaussians.
        direction = result.gaussian_directions
        feasible = np.stack(
            [(c.products(direction).min(axis=1) >= -1e-9) for c in spec_p2_two_sample.cones],
            axis=1,
        )
        chosen = np.argmax(feasible, axis=1)
        for k in range(4):
            count = int(np.sum(chosen == k))
            assert count == result.occupancy_counts[k]

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_is_rejected(self, spec_p2_two_sample, n_samples):
        # No draws give no occupancy distribution; raised before any draw.
        with pytest.raises(lpl.DimensionMismatch, match="at least 1"):
            lpl.sample_limit(spec_p2_two_sample, n_samples, seed=3)

    @pytest.mark.parametrize("n_samples, seed", [(2.5, 0), (True, 0), (3.0, 0), ("3", 0),
                                                 (3, -1), (3, 1.5), (3, True), (3, None)])
    def test_counts_and_seeds_that_are_not_integers_are_rejected(self, spec_p2_two_sample,
                                                                 n_samples, seed):
        with pytest.raises(lpl.DimensionMismatch, match="expected an integer"):
            lpl.sample_limit(spec_p2_two_sample, n_samples, seed)

    @pytest.mark.parametrize("seed", [-1, 0.5, False])
    def test_evaluate_limit_rejects_a_seed_that_is_not_a_natural_number(self, seed):
        spec = lpl.ot_limit_spec(
            line_problem(1.0), lpl.TwoSample(0.5), tie_break=lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE
        )
        with pytest.raises(lpl.DimensionMismatch, match="seed"):
            lpl.evaluate_limit(spec, np.ones((2, 5)), seed=seed)

    def test_numpy_integers_give_the_python_int_results(self, spec_p2_two_sample):
        a = lpl.sample_limit(spec_p2_two_sample, np.int64(50), np.uint32(4))
        b = lpl.sample_limit(spec_p2_two_sample, 50, 4)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert type(a.seed) is int and a.seed == 4

    def test_randomized_policy_is_chunking_free_and_seeded(self):
        spec = lpl.ot_limit_spec(
            line_problem(1.0), lpl.TwoSample(0.5), tie_break=lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE
        )
        a = lpl.sample_limit(spec, 200, seed=9)
        b = lpl.sample_limit(spec, 200, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_evaluate_limit_accepts_external_directions(self, spec_p2_two_sample):
        # A user-supplied direction stream maps through the same functional.
        rng = np.random.default_rng(21)
        directions = rng.uniform(-1.0, 1.0, size=(300, 5))
        result = lpl.evaluate_limit(spec_p2_two_sample, directions)
        assert result.samples.shape == (300, 9)
        for i in (0, 17, 299):
            expected = lpl.limit_functional(spec_p2_two_sample, directions[i])
            np.testing.assert_allclose(result.samples[i], expected, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["spec_p2_two_sample", "spec_nondegenerate"])
    def test_evaluate_limit_rejects_non_finite_rows(self, name, bad, request):
        # One spec has half-spaces, the other a single cone that is the whole space.
        spec = request.getfixturevalue(name)
        directions = np.zeros((3, spec.m0))
        directions[1, 0] = bad
        with pytest.raises(lpl.DimensionMismatch):
            lpl.evaluate_limit(spec, directions)

    def test_rejects_non_psd_covariance(self, spec_p2_two_sample):
        with pytest.raises(lpl.CovarianceNotPSD):
            lpl.LimitLawSpec(
                ledger=spec_p2_two_sample.ledger,
                cones=spec_p2_two_sample.cones,
                tie_break=spec_p2_two_sample.tie_break,
                covariance=-np.eye(5),
                m0=5,
                rate_name="sqrt(n)",
            )

    def test_cover_property_no_feasible_cone_is_rare(self, spec_p2_two_sample):
        # With all coordinates perturbed, every direction must land in some
        # cone; count misses directly on raw Gaussian draws.
        rng = np.random.default_rng(10)
        root = lpl.cones_limit.psd_sqrt(spec_p2_two_sample.covariance)
        draws = rng.standard_normal((10_000, 5)) @ root.T
        feasible = np.stack(
            [(c.products(draws).min(axis=1) >= -1e-9) for c in spec_p2_two_sample.cones],
            axis=1,
        )
        misses = np.sum(~feasible.any(axis=1))
        assert misses / 10_000 < 1e-3

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 5), st.integers(0, 2**32 - 1))
    def test_cones_cover_drawn_degenerate_transport(self, n_points, seed):
        # Uniform marginals make the assignment LP degenerate: several optimal bases.
        rng = np.random.default_rng(seed)
        problem = lpl.make_ot_problem(
            points_x=rng.standard_normal((n_points, 2)), r=np.full(n_points, 1 / n_points),
            s=np.full(n_points, 1 / n_points), p=2.0, q=2.0,
        )
        for mode in (lpl.OneSample(), lpl.TwoSample(0.5)):
            for policy in lpl.TieBreak:
                spec = lpl.ot_limit_spec(problem, mode, policy)
                assert spec.ledger.optimal_count >= 2
                result = lpl.sample_limit(spec, 2000, seed)  # NoFeasibleCone on a miss
                assert result.samples.shape == (2000, n_points**2)


class TestOptimalValueLimit:
    def test_single_basis_is_linear(self, spec_nondegenerate):
        ledger = spec_nondegenerate.ledger
        rng = np.random.default_rng(11)
        g = rng.standard_normal(5)
        lam = ledger.optimal_pairs()[0].dual
        assert lpl.optimal_value_limit(ledger, g) == pytest.approx(float(g @ lam))

    def test_zero_direction(self, ledger_p2):
        assert lpl.optimal_value_limit(ledger_p2, np.zeros(5)) == 0.0

    @pytest.mark.parametrize("g", [np.zeros(99), np.zeros((3, 6)), np.zeros(0), np.float64(0.0),
                                   np.zeros((2, 2, 5))], ids=["long", "wide-stack", "empty", "scalar", "3-d"])
    def test_direction_of_another_shape_is_rejected(self, ledger_p2, g):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.optimal_value_limit(ledger_p2, g)

    def test_finite_perturbation_oracle(self, ledger_p2):
        lp = ledger_p2.lp
        base = lpl.solve_min_index(lp).objective
        duals = ledger_p2.optimal_duals()
        rng = np.random.default_rng(12)
        tested = 0
        for _ in range(60):
            g = rng.standard_normal(5)
            responses = duals @ g
            top = np.sort(responses)[-2:]
            if len(top) == 2 and top[1] - top[0] < 1e-3:
                continue
            tested += 1
            eta = 1e-6
            shifted = lpl.make_lp(lp.constraint_matrix, lp.rhs + eta * g, lp.cost)
            fd = (lpl.solve_min_index(shifted).objective - base) / eta
            assert lpl.optimal_value_limit(ledger_p2, g) == pytest.approx(fd, abs=1e-5)
        assert tested >= 30

    def test_convexity_by_midpoint(self, ledger_p1):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g1 = rng.standard_normal(5)
            g2 = rng.standard_normal(5)
            mid = lpl.optimal_value_limit(ledger_p1, (g1 + g2) / 2.0)
            avg = (
                lpl.optimal_value_limit(ledger_p1, g1)
                + lpl.optimal_value_limit(ledger_p1, g2)
            ) / 2.0
            assert mid <= avg + 1e-10


class _MatmulSpy(np.ndarray):
    """An array that records the (left, right) shapes of every product it is the left factor of."""

    calls: list = []

    def __matmul__(self, other):
        _MatmulSpy.calls.append((self.shape, other.shape))
        return np.asarray(self) @ np.asarray(other)


@st.composite
def _row_product_cases(draw):
    """(left, right): zero to two full row blocks plus a last block, of widths 1 to 20.

    right is a transposed C-ordered array, as at every call of ``row_products``.
    """
    inner, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    step = lpl.cones_limit._PRODUCT_MACS // (inner * cols)
    last = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33]) | st.integers(1, step))
    n_rows = draw(st.integers(0, 2)) * step + last
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.standard_normal((n_rows, inner))
    return left, rng.standard_normal((cols, inner)).T


def _thread_run_times() -> dict:
    """Native thread id -> nanoseconds run on a CPU, for every thread of this process."""
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                out[int(tid)] = int(f.read().split()[0])
        except FileNotFoundError:  # the thread ended
            pass
    return out


class TestRowProducts:
    @settings(max_examples=200, deadline=None)
    @given(_row_product_cases())
    def test_blocks_are_bit_equal_and_within_the_budget(self, case):
        left, right = case
        _MatmulSpy.calls = []
        out = lpl.cones_limit.row_products(left.view(_MatmulSpy), right)
        np.testing.assert_array_equal(np.asarray(out), left @ right)
        blocks = _MatmulSpy.calls
        assert sum(rows for (rows, _), _ in blocks) == left.shape[0]
        if right.shape[1] == 1:  # gemv rounds a row by its place in the call: one call
            assert len(blocks) == 1
            return
        for (rows, inner), (_, cols) in blocks:
            assert rows * inner * cols <= lpl.cones_limit._PRODUCT_MACS
            assert rows >= 2 or left.shape[0] == 1  # a one-row block would go through gemv

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="per-thread run times are read from /proc")
    @pytest.mark.parametrize("policy", list(lpl.TieBreak))
    def test_limit_draws_wake_no_other_thread(self, policy):
        # OpenBLAS splits a large GEMM over its own helper threads, which then spin for about
        # 0.1 s; every thread but this one was started before the calls and must stay asleep.
        spec = lpl.ot_limit_spec(line_problem(1.0), lpl.TwoSample(0.5), policy)
        assert spec.ledger.optimal_count == 8
        main = threading.get_native_id()
        before = _thread_run_times()
        deadline = time.monotonic() + 10.0
        while True:
            time.sleep(0.05)
            now = _thread_run_times()
            if all(now.get(tid) == ns for tid, ns in before.items() if tid != main):
                break
            assert time.monotonic() < deadline, "threads other than the main one kept running for 10 s"
            before = now
        result = lpl.sample_limit(spec, 20_000, seed=5)
        lpl.optimal_value_limit(spec.ledger, result.gaussian_directions)
        time.sleep(0.05)
        after = _thread_run_times()
        woken = {tid: after[tid] - ns for tid, ns in before.items() if tid != main and after.get(tid, ns) != ns}
        assert not woken, f"run time gained by other threads (ns): {woken}"



class TestRowExtreme:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_folded_columns_match_the_row_reduction_bit_for_bit(self, n, h, seed):
        # Ties of signed zeros and NaNs are where a different fold would show.
        values = np.random.default_rng(seed).choice(
            [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.5], size=(n, h))
        for ufunc in (np.minimum, np.maximum):
            got = lpl.cones_limit._row_extreme(ufunc, values)
            assert got.tobytes() == ufunc.reduce(values, axis=1).tobytes()
