"""Resampling, projections, Hausdorff distances, and distribution comparison."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

import lplimits as lpl
from lplimits import cones_limit, lp_core, stochastic_harness
from lplimits.stochastic_harness import _CDIST_BLOCK, _pcg64_states
from conftest import SKEWED_R, SKEWED_S, line_problem


def _oracle_resample_rhs(mode, b, n, rng):
    """The per-replicate resampler that validated b on every call; N is read from len(b) = 2N - 1."""
    b = np.asarray(b, dtype=float)
    if isinstance(mode, lpl.UserSamples):
        rows = np.asarray(mode.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != b.size:
            raise lpl.DimensionMismatch("user sample rows must match the rhs length")
        return rows[int(rng.integers(rows.shape[0]))].copy()
    if not isinstance(mode, (lpl.OneSample, lpl.TwoSample)):
        raise lpl.DimensionMismatch("unknown mode")
    if b.size % 2 == 0:
        raise lpl.DimensionMismatch("rhs length")
    N = (b.size + 1) // 2
    r = np.concatenate([b[: N - 1], [1.0 - b[: N - 1].sum()]])
    s = b[N - 1 :]
    for v in (r, s):
        if v.min() < -1e-12 or abs(v.sum() - 1.0) > 1e-9:
            raise lpl.NotAProbabilityVector("rhs")
    n_r, n_s = (n, n) if isinstance(n, int) else n
    r_hat = rng.multinomial(int(n_r), np.clip(r, 0.0, None) / r.sum()) / float(n_r)
    if isinstance(mode, lpl.TwoSample):
        s_hat = rng.multinomial(int(n_s), np.clip(s, 0.0, None) / s.sum()) / float(n_s)
    else:
        s_hat = s
    return np.concatenate([r_hat[: N - 1], s_hat])


@st.composite
def _resampling_cases(draw):
    """(model, b, n, seed, replicates) over N in 2..6, both modes and a user pool."""
    N = draw(st.integers(2, 6))
    model = draw(st.sampled_from([
        lpl.OneSample(), lpl.TwoSample(0.3),
        lpl.UserSamples(np.arange(3.0 * (2 * N - 1)).reshape(3, 2 * N - 1)),
    ]))
    size = st.integers(1, 10**6)
    n = draw(st.one_of(size, st.tuples(size, size)) if isinstance(model, lpl.TwoSample) else size)
    weights = st.lists(st.integers(0, 5), min_size=N, max_size=N).filter(any)
    r, s = (np.array(w, float) / sum(w) for w in (draw(weights), draw(weights)))
    b = np.concatenate([r[: N - 1], s])
    return model, b, n, draw(st.integers(0, 2**64)), draw(st.integers(1, 30))


class TestResampleRhs:
    def test_point_mass_is_fixed(self):
        b = np.array([1.0, 0.0, 0.3, 0.3, 0.4])
        out = lpl.resample_rhs(lpl.OneSample(), b, 50, 0, 1)[0]
        np.testing.assert_allclose(out[:2], [1.0, 0.0])

    def test_one_sample_copies_second_marginal(self):
        b = np.array([0.2, 0.3, 0.25, 0.35, 0.4])
        out = lpl.resample_rhs(lpl.OneSample(), b, 100, 1, 1)[0]
        np.testing.assert_array_equal(out[2:], b[2:])
        assert not np.array_equal(out[:2], b[:2])

    def test_two_sample_resamples_both_blocks(self):
        b = np.array([0.2, 0.3, 0.25, 0.35, 0.4])
        out = lpl.resample_rhs(lpl.TwoSample(), b, (400, 300), 2, 1)[0]
        assert not np.array_equal(out[2:], b[2:])
        assert out[2:].sum() == pytest.approx(1.0)

    def test_large_samples_concentrate(self):
        b = np.array([0.2, 0.3, 0.25, 0.35, 0.4])
        rows = lpl.resample_rhs(lpl.OneSample(), b, 1_000_000, 3, 100)
        assert (np.abs(rows - b).max(axis=1) < 0.01).all()

    def test_rejects_non_probability_rhs(self):
        with pytest.raises(lpl.NotAProbabilityVector):
            lpl.resample_rhs(lpl.OneSample(), np.array([0.9, 0.9, 0.3, 0.3, 0.4]), 10, 4, 1)

    @pytest.mark.parametrize("excess, accepted", [(1e-10, False), (1e-13, True)])
    def test_probability_tolerance_matches_make_ot_problem(self, excess, accepted):
        r = np.array([0.2, 0.3, 0.5])
        s = np.array([0.25, 0.35, 0.4 + excess])
        b = np.concatenate([r[:2], s])
        if accepted:
            lpl.make_ot_problem(points_x=np.arange(3.0), r=r, s=s, p=2.0, q=2.0)
            assert lpl.resample_rhs(lpl.TwoSample(), b, 10, 0, 3).shape == (3, 5)
        else:
            with pytest.raises(lpl.NotAProbabilityVector):
                lpl.make_ot_problem(points_x=np.arange(3.0), r=r, s=s, p=2.0, q=2.0)
            with pytest.raises(lpl.NotAProbabilityVector):
                lpl.resample_rhs(lpl.TwoSample(), b, 10, 0, 3)

    def test_user_samples(self):
        rows = np.arange(15, dtype=float).reshape(3, 5)
        out = lpl.resample_rhs(lpl.UserSamples(rows), np.zeros(5), 1, 5, 1)[0]
        assert any(np.array_equal(out, row) for row in rows)

    def test_empty_user_pool_is_rejected(self):
        with pytest.raises(lpl.EmptySet):
            lpl.resample_rhs(lpl.UserSamples(np.zeros((0, 5))), np.zeros(5), 1, 0, 2)

    @pytest.mark.parametrize("mode, n", [(lpl.OneSample(), (10, 20)), (lpl.TwoSample(), (10, 20, 30))])
    def test_size_the_mode_cannot_read_is_rejected(self, mode, n):
        with pytest.raises(lpl.DimensionMismatch, match="sample size"):
            lpl.resample_rhs(mode, [0.2, 0.3, 0.25, 0.35, 0.4], n, 0, 3)

    @pytest.mark.parametrize("model, n, replicates", [
        (lpl.OneSample(), 0, 3),  # rows of NaN
        (lpl.TwoSample(), (10, 0), 3),
        (lpl.OneSample(), 10.5, 3),
        (lpl.TwoSample(), (10, 2.0), 3),
        (lpl.OneSample(), True, 3),
        (lpl.OneSample(), 10, 0),
        (lpl.OneSample(), 10, -1),
        (lpl.TwoSample(), 10, 2.5),
        (lpl.UserSamples(np.zeros((3, 5))), 0, 3),
    ])
    def test_counts_that_are_not_integers_of_at_least_one_are_rejected(self, model, n, replicates):
        with pytest.raises(lpl.DimensionMismatch, match="^(n|replicates): expected an integer"):
            lpl.resample_rhs(model, [0.2, 0.3, 0.25, 0.35, 0.4], n, 0, replicates)

    @pytest.mark.parametrize("model", [lpl.OneSample(), lpl.TwoSample(), lpl.UserSamples(np.zeros((3, 5)))])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_that_is_not_an_integer_of_at_least_zero_is_rejected(self, model, seed):
        with pytest.raises(lpl.DimensionMismatch, match="^seed: expected an integer of at least 0"):
            lpl.resample_rhs(model, [0.2, 0.3, 0.25, 0.35, 0.4], 10, seed, 3)

    def test_hausdorff_run_checks_its_seed_through_resample_rhs(self):
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0))))
        with pytest.raises(lpl.DimensionMismatch, match="^seed: expected"):
            lpl.hausdorff_run(solver, lpl.TwoSample(), [10], 5, -1)

    @pytest.mark.parametrize("model, b, n", [
        (lpl.OneSample(), [0.2, 0.3, 0.25, 0.35, 0.4], 37),
        (lpl.TwoSample(), [0.1, 0.0, 0.5, 0.2, 0.3, 0.4, 0.1], (50, 9)),
        (lpl.TwoSample(), [1.0, 0.0, 0.3, 0.3, 0.4], 1_000_003),
        (lpl.UserSamples(np.arange(15, dtype=float).reshape(3, 5)), np.zeros(5), 1),
    ])
    def test_batch_equals_per_replicate_draws(self, model, b, n):
        expected = np.array([_oracle_resample_rhs(model, b, n, np.random.default_rng((8, *np.atleast_1d(n), rep)))
                             for rep in range(25)])
        np.testing.assert_array_equal(lpl.resample_rhs(model, b, n, 8, 25), expected)

    @settings(max_examples=100, deadline=None)
    @given(_resampling_cases())
    def test_batch_equals_per_replicate_draws_for_any_case(self, case):
        model, b, n, seed, replicates = case
        sizes = n if isinstance(n, tuple) else (n,)
        expected = np.array([_oracle_resample_rhs(model, b, n, np.random.default_rng((seed, *sizes, rep)))
                             for rep in range(replicates)])
        np.testing.assert_array_equal(lpl.resample_rhs(model, b, n, seed, replicates), expected)

    @pytest.mark.parametrize("model, b", [
        (lpl.OneSample(), [0.9, 0.9, 0.3, 0.3, 0.4]),
        (lpl.OneSample(), [0.2, 0.3, 0.25, 0.35, 0.5]),
        (lpl.TwoSample(), [0.2, 0.3, 0.25, -0.1, 0.4]),
        (lpl.OneSample(), [0.2, 0.3, 0.25, 0.25]),
        (lpl.UserSamples(np.zeros((3, 4))), np.zeros(5)),
        (object(), np.zeros(5)),
    ])
    def test_batch_rejects_bad_rhs_like_per_replicate(self, model, b):
        with pytest.raises(lpl.LpLimitsError) as batch:
            lpl.resample_rhs(model, b, 10, 0, 3)
        with pytest.raises(type(batch.value)):
            _oracle_resample_rhs(model, b, 10, np.random.default_rng(0))


_KEY_WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**31 - 1).map(np.int32),
)


def _default_rng_states(prefix, reps):
    states = (np.random.default_rng((*prefix, rep)).bit_generator.state["state"] for rep in reps)
    return [(state["state"], state["inc"]) for state in states]


class TestKeyedStates:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_KEY_WORDS, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])),
                 min_size=1, max_size=8),
    )
    def test_states_equal_default_rng(self, prefix, reps):
        assert _pcg64_states(prefix, np.array(reps, np.uint64)) == _default_rng_states(prefix, reps)

    def test_multi_word_seeds_and_reps_equal_default_rng(self):
        # one- and two-word reps interleaved in one batch, behind seeds and sizes of two and three words
        reps = [0, 2**32, 1, 2**64 - 1, 2**32 - 1, 2**33 + 5, 7]
        for prefix in [(2**32, 10_000), (2**64 - 1, 2**40 + 3), (2**70 + 1, 2**32 + 9, 2**32)]:
            assert _pcg64_states(prefix, np.array(reps, np.uint64)) == _default_rng_states(prefix, reps)

    def test_negative_entry_is_rejected_like_default_rng(self):
        with pytest.raises(ValueError):
            np.random.default_rng((1, -1))
        with pytest.raises(ValueError):
            _pcg64_states((1, -1), np.arange(2, dtype=np.uint64))


class TestFluctuationRun:
    def test_zero_perturbation_gives_zero_rows(self):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        config = lpl.ExperimentConfig(sample_sizes=(10,), replicates=5, seed=0)
        model = lpl.UserSamples(np.tile(lp.rhs, (4, 1)))
        batches = lpl.fluctuation_run(lpl.RepeatedSolver(lpl.enumerate_ledger(lp)), config, model)
        np.testing.assert_allclose(batches[0].fluctuations, 0.0, atol=1e-12)
        np.testing.assert_allclose(batches[0].value_fluctuations, 0.0, atol=1e-12)

    def test_true_zero_coordinates_stay_zero(self):
        problem = line_problem(2.0)
        lp = lpl.reduce_to_lp(problem)
        config = lpl.ExperimentConfig(sample_sizes=(10_000,), replicates=300, seed=1)
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        batches = lpl.fluctuation_run(solver, config, lpl.OneSample())
        partition = lpl.support_partition(solver.ledger)
        tz = list(partition.tz)
        zero_rows = np.all(batches[0].fluctuations[:, tz] == 0.0, axis=1)
        assert zero_rows.mean() >= 0.99

    def test_covariance_matches_linear_pushforward_when_nondegenerate(self):
        from conftest import nondegenerate_problem

        problem = nondegenerate_problem()
        spec = lpl.ot_limit_spec(problem, lpl.OneSample())
        lp = spec.ledger.lp
        config = lpl.ExperimentConfig(sample_sizes=(10_000,), replicates=800, seed=2)
        batches = lpl.fluctuation_run(lpl.RepeatedSolver(spec.ledger), config, lpl.OneSample())
        empirical = np.cov(batches[0].fluctuations, rowvar=False)
        closed = lpl.pushforward_covariance(spec.ledger, 0, spec.covariance, spec.m0)
        assert np.linalg.norm(empirical - closed) / np.linalg.norm(closed) < 0.15

    def test_mostly_infeasible_replicates_abort(self):
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(2.0))))
        # A right-hand side whose implied first marginal has negative mass.
        bad = np.array([0.9, 0.9, 0.25, 0.35, 0.4])
        config = lpl.ExperimentConfig(sample_sizes=(10,), replicates=8, seed=4)
        with pytest.raises(lpl.TooManyInfeasible):
            lpl.fluctuation_run(solver, config, lpl.UserSamples(np.tile(bad, (3, 1))))

    def test_randomized_policy_stays_feasible_and_optimal(self):
        lp = lpl.reduce_to_lp(line_problem(1.0))
        config = lpl.ExperimentConfig(
            sample_sizes=(500,), replicates=40, seed=3,
            solver_policy=lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE,
        )
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        batches = lpl.fluctuation_run(solver, config, lpl.OneSample())
        for row_solution in batches[0].solutions:
            assert row_solution.min() >= -1e-9
            marginal_residual = lp.constraint_matrix @ row_solution - lp.rhs
            assert np.abs(marginal_residual).max() < 0.5  # resampled rhs differs
        assert batches[0].infeasible_count == 0


class TestRepeatedSolver:
    def test_matches_reference_solver_on_perturbed_rhs(self):
        lp = lpl.reduce_to_lp(line_problem(1.0))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(30):
            r = rng.dirichlet(np.ones(3) * 20)
            s = rng.dirichlet(np.ones(3) * 20)
            rows.append(np.concatenate([r[:2], s]))
        solutions, values, chosen, ok = solver.solve_batch(np.array(rows))
        assert ok.all()
        for row, solution, value in zip(rows, solutions, values):
            shifted = lpl.make_lp(lp.constraint_matrix, np.array(row), lp.cost)
            pair = lpl.solve_min_index(shifted)
            np.testing.assert_allclose(solution, pair.primal, atol=1e-9)
            assert value == pytest.approx(pair.objective, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1.0, None, None), (2.0, None, None), (1.0, SKEWED_R, SKEWED_S)]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 1e-2, 1e-1]),
    )
    def test_solve_batch_equals_solve_min_index(self, instance, seed, scale):
        p, r, s = instance
        lp = lpl.reduce_to_lp(line_problem(p, r=r, s=s))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        rng = np.random.default_rng(seed)
        rows = lp.rhs + scale * rng.standard_normal((4, lp.n_rows))
        solutions, values, chosen, ok = solver.solve_batch(rows)
        for row, solution, value, k, feasible in zip(rows, solutions, values, chosen, ok):
            shifted = lpl.make_lp(lp.constraint_matrix, row, lp.cost)
            if not feasible:
                with pytest.raises(lpl.Infeasible):
                    lpl.solve_min_index(shifted)
                continue
            pair = lpl.solve_min_index(shifted)
            assert tuple(solver.columns[k]) == pair.basis.indices
            np.testing.assert_allclose(solution, pair.primal, rtol=0, atol=1e-12)
            assert value == pytest.approx(pair.objective, rel=0, abs=1e-12)

    def test_consumers_agree_beside_the_feasibility_boundary(self):
        # Every row has a basic coordinate within ulps of -feas_tol, so a
        # second rounding of inverses[k] @ row would flip some verdicts.
        lp = lpl.reduce_to_lp(_generic_problem(4, [4, 0]))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        rows = _boundary_rows(solver, seed=8, n_directions=4)
        solutions, _, _, ok = solver.solve_batch(rows)
        _, mixed_ok = solver.mixed_solution(rows, (0, 1))
        assert 0 < ok.sum() < len(rows)
        np.testing.assert_array_equal(mixed_ok, ok)
        for row, solution, feasible in zip(rows, solutions, ok, strict=True):
            vertices = solver.vertices_at(row)
            assert feasible == bool(vertices)
            if feasible:
                np.testing.assert_array_equal(solution, vertices[0])

    def test_peak_memory_is_blocked(self):
        # All 252 bases of generic N=6 at 2,000 rows are 44 MB of coordinates.
        lp = lpl.reduce_to_lp(_generic_problem(6, 1))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        assert solver.inverses.shape == (252, 11, 11)
        rows = lpl.resample_rhs(lpl.TwoSample(), lp.rhs, 1000, 1, 2000)
        tracemalloc.start()
        try:
            solver.solve_batch(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_mixed_solution_peak_memory_is_blocked(self):
        # 4,096 rows of spacings over 252 bases are 8 MB; one 1,024-row block of them is 2 MB.
        lp = lpl.reduce_to_lp(_generic_problem(6, [6, 0]))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        rows = lpl.resample_rhs(lpl.TwoSample(), lp.rhs, 1000, 1, 4096)
        tracemalloc.start()
        try:
            solver.mixed_solution(rows, (1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    def test_vertices_at_recovers_optimality_set(self):
        lp = lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        vertices = solver.vertices_at(lp.rhs)
        ledger = lpl.enumerate_ledger(lp)
        assert len(vertices) == len(ledger.primal_optimal_vertices) == 2


def _boundary_rows(solver, seed, n_directions, ulps=2):
    """Rows b + t v with t within ulps of a t where some basic coordinate equals -feas_tol."""
    rng = np.random.default_rng(seed)
    b = solver.lp.rhs
    rows = []
    for _ in range(n_directions):
        v = 0.1 * rng.standard_normal(b.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            ts = (-solver.tols.feas_tol - solver.inverses @ b) / (solver.inverses @ v)
        for t in ts[np.abs(ts) < 5]:
            rows += [b + (t + step * np.spacing(t)) * v for step in range(-ulps, ulps + 1)]
    return np.array(rows)


def _oracle_vertices_at(solver, rhs):
    """The per-replicate optimality set: one matrix-vector product per basis."""
    coords = solver.inverses @ rhs
    points = []
    for k in np.flatnonzero((coords >= -solver.tols.feas_tol).all(axis=1)):
        full = np.zeros(solver.lp.n_cols)
        full[solver.columns[k]] = coords[k]
        points.append(full)
    return lp_core.dedup_vertices(points, solver.tols.dedup_tol)[0]


def _oracle_hausdorff_rows(lp, model, sizes, replicates, seed):
    """Per-replicate resample, optimality set and Frank-Wolfe Hausdorff distance."""
    solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
    base = np.array(_oracle_vertices_at(solver, lp.rhs))
    rows, skipped = [], 0
    for n in sizes:
        for rep in range(replicates):
            rhs = _oracle_resample_rhs(model, lp.rhs, n, np.random.default_rng((seed, n, rep)))
            vertices = _oracle_vertices_at(solver, rhs)
            if vertices:
                rows.append((n, rep, lpl.hausdorff_distance(np.array(vertices), base)))
            else:
                skipped += 1
    return tuple(rows), skipped, len(base)


def _generic_problem(n_points, seed):
    rng = np.random.default_rng(seed)
    return lpl.make_ot_problem(
        points_x=rng.standard_normal((n_points, 2)), r=rng.dirichlet(np.ones(n_points)),
        s=rng.dirichlet(np.ones(n_points)), p=2.0, q=2.0,
    )


class TestBaseProblemFromLedger:
    """The ledger is the one source of x*, the optimal value and the optimality set at b."""

    @staticmethod
    def _assert_ledger_is_the_solve_at_b(problem):
        lp = lpl.reduce_to_lp(problem)
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        ledger = solver.ledger
        solutions, values, _, ok = solver.solve_batch(lp.rhs[None])
        assert ok[0]
        assert solutions[0].tobytes() == ledger.primal_optimal_vertices[0].tobytes()
        assert np.float64(values[0]).tobytes() == np.float64(ledger.optimal_value).tobytes()
        vertices = solver.vertices_at(lp.rhs)
        assert [v.tobytes() for v in vertices] == [v.tobytes() for v in ledger.primal_optimal_vertices]

    @pytest.mark.parametrize("problem", [
        line_problem(1.0), line_problem(2.0), line_problem(1.0, r=SKEWED_R, s=SKEWED_S),
        line_problem(2.0, r=np.ones(6) / 6, xs=np.arange(6.0)), _generic_problem(8, [8, 0]),
    ], ids=["p1", "p2", "two-vertex", "line6-p2", "generic8"])
    def test_fixed_instances(self, problem):
        self._assert_ledger_is_the_solve_at_b(problem)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_generic_transport(self, n_points, key):
        self._assert_ledger_is_the_solve_at_b(_generic_problem(n_points, [n_points, key]))

    def test_no_solve_at_the_base_rhs(self, monkeypatch):
        lp = lpl.reduce_to_lp(line_problem(1.0))  # no count over 100 or 1,000 draws gives 1/3
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        solved = []
        blocks = lpl.RepeatedSolver._blocks

        def spy(self, rhs_batch):
            solved.append(np.array(rhs_batch))
            return blocks(self, rhs_batch)

        monkeypatch.setattr(lpl.RepeatedSolver, "_blocks", spy)
        for policy in lpl.TieBreak:
            config = lpl.ExperimentConfig(sample_sizes=(100, (100, 1000)), replicates=20, seed=3,
                                          mode=lpl.TwoSample(), solver_policy=policy)
            lpl.fluctuation_run(solver, config, config.mode)
        lpl.hausdorff_run(solver, lpl.OneSample(), [100, 1000], 20, 4)
        assert len(solved) == 6
        assert not any((rows == lp.rhs).all(axis=1).any() for rows in solved)

    def test_centre_carries_no_residue_on_a_zero(self):
        # line N=6, p=2: the min-index optimum holds 5.55e-17 on a degenerate zero
        lp = lpl.reduce_to_lp(line_problem(2.0, r=np.ones(6) / 6, xs=np.arange(6.0)))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        x_star = solver.ledger.primal_optimal_vertices[0]
        residue = (x_star != 0) & (np.abs(x_star) <= solver.tols.feas_tol)
        assert residue.any()
        config = lpl.ExperimentConfig(sample_sizes=(10_000,), replicates=200, seed=5, mode=lpl.TwoSample())
        (batch,) = lpl.fluctuation_run(solver, config, config.mode)
        at_zero = batch.solutions[:, residue] == 0.0
        assert at_zero.any()
        assert (batch.fluctuations[:, residue][at_zero] == 0.0).all()


class TestProblemInOneForm:
    """Each function takes its problem once; the LP it solves is the one its ledger or OT problem gives."""

    def test_solver_reads_the_ledgers_lp(self, ledger_p2):
        solver = lpl.RepeatedSolver(ledger_p2)
        assert solver.ledger is ledger_p2
        assert solver.lp is ledger_p2.lp

    def test_run_experiment_builds_its_lp_at_tols(self):
        problem = line_problem(2.0)
        config = lpl.ExperimentConfig(sample_sizes=(100,), replicates=5, seed=0, comparison_samples=50)
        lp = lpl.run_experiment(problem, config).spec.ledger.lp
        reference = lpl.reduce_to_lp(problem)
        assert lp.names() == reference.names()
        for got, want in ((lp.constraint_matrix, reference.constraint_matrix), (lp.rhs, reference.rhs),
                          (lp.cost, reference.cost)):
            assert got.tobytes() == want.tobytes()
        # rank_tol = 1 ranks the reduced incidence matrix 0 < m: the LP is built at the given tols
        rank_deficient = lpl.DEFAULT_TOLS.with_(rank_tol=1.0)
        with pytest.raises(lpl.RankDeficient):
            lpl.run_experiment(problem, config, tols=rank_deficient)
        with pytest.raises(lpl.RankDeficient):
            lpl.ot_limit_spec(problem, lpl.OneSample(), tols=rank_deficient)
        with pytest.raises(lpl.RankDeficient):
            lpl.certify(problem, tols=rank_deficient)


class TestHausdorffBatch:
    def _assert_matches_oracle(self, problem, sizes, replicates, seed, base_size):
        lp = lpl.reduce_to_lp(problem)
        model = lpl.TwoSample()
        rows, skipped, n_base = _oracle_hausdorff_rows(lp, model, sizes, replicates, seed)
        assert n_base == base_size
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        experiment = lpl.hausdorff_run(solver, model, sizes, replicates, seed)
        assert experiment.rows == rows  # bit-equal distances
        assert experiment.skipped == skipped

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_golden_rows_equal_per_replicate_loop(self, p):
        self._assert_matches_oracle(line_problem(p), [100, 1000, 10_000], 200, 9, base_size=1)

    def test_edge_base_set_keeps_frank_wolfe(self):
        self._assert_matches_oracle(
            line_problem(1.0, r=SKEWED_R, s=SKEWED_S), [100, 1000], 100, 10, base_size=2
        )

    @settings(max_examples=8, deadline=None)
    @given(st.integers(3, 4), st.integers(0, 2**32 - 1))
    def test_generic_rows_equal_per_replicate_loop(self, n_points, seed):
        self._assert_matches_oracle(
            _generic_problem(n_points, seed), [100, 1000], 40, seed, base_size=1
        )

    def test_non_integer_size_is_rejected(self):
        # the size used to be truncated: 10.5 ran the replicates of n = 10
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0))))
        with pytest.raises(lpl.DimensionMismatch, match="^n: expected an integer"):
            lpl.hausdorff_run(solver, lpl.TwoSample(), [10.5], 5, 0)

    def test_blocks_do_not_change_vertex_sets(self, monkeypatch):
        lp = lpl.reduce_to_lp(line_problem(1.0))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        rhs_batch = lpl.resample_rhs(lpl.TwoSample(), lp.rhs, 100, 3, 50)
        solved = solver.solve_batch(rhs_batch)
        mixed = solver.mixed_solution(rhs_batch, (3, 1))
        monkeypatch.setattr(stochastic_harness, "_VERTEX_BLOCK", 1)
        blocked = solver.solve_batch(rhs_batch) + solver.mixed_solution(rhs_batch, (3, 1))
        for got, want in zip(blocked, solved + mixed, strict=True):
            np.testing.assert_array_equal(got, want)
        for vertices, rhs in zip(solver._vertex_sets(rhs_batch), rhs_batch, strict=True):
            expected = _oracle_vertices_at(solver, rhs)
            assert len(vertices) == len(expected)
            for v, w in zip(vertices, expected):
                np.testing.assert_array_equal(v, w)


class TestPointToPolytope:
    def test_member_vertex_is_zero(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert lpl.point_to_polytope(V[1], V) == pytest.approx(0.0, abs=1e-9)

    def test_projection_onto_segment_endpoint(self):
        assert lpl.point_to_polytope(
            np.array([2.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        ) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_grid_search(self):
        rng = np.random.default_rng(5)
        V = rng.standard_normal((3, 5))
        step = 1e-3
        ticks = np.arange(0, 1.0 + step / 2, step)
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        c = 1.0 - a - b
        hull_points = a[:, None] * V[0] + b[:, None] * V[1] + c[:, None] * V[2]
        for _ in range(5):
            v = rng.standard_normal(5)
            grid_dist = np.sqrt(((hull_points - v) ** 2).sum(axis=1)).min()
            assert abs(lpl.point_to_polytope(v, V) - grid_dist) < 1e-3

    @pytest.mark.parametrize("v", [np.zeros(3), np.zeros(1), np.float64(0.0), np.zeros((1, 2))])
    @pytest.mark.parametrize("n_vertices", [1, 2])
    def test_point_of_another_length_is_rejected(self, v, n_vertices):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.point_to_polytope(v, np.eye(2)[:n_vertices])


class TestHausdorff:
    def test_identical_sets(self):
        V = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert lpl.hausdorff_distance(V, V) == 0.0

    def test_point_versus_segment(self):
        V1 = np.array([[0.0, 0.0]])
        V2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert lpl.hausdorff_distance(V1, V2) == pytest.approx(1.0, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            V1 = rng.standard_normal((3, 4))
            V2 = rng.standard_normal((4, 4))
            assert lpl.hausdorff_distance(V1, V2) == lpl.hausdorff_distance(V2, V1)

    def test_empty_set_rejected(self):
        with pytest.raises(lpl.EmptySet):
            lpl.hausdorff_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("first, second", [(np.eye(2), np.eye(3)), (np.eye(3), np.eye(2)),
                                               (np.eye(2)[:1], np.eye(3)[:1])])
    def test_vertices_of_other_lengths_are_rejected(self, first, second):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.hausdorff_distance(first, second)

    def test_every_vertex_class_keeps_a_feasible_representative(self):
        # Group optimal bases by the vertex they induce; under a small
        # right-hand-side perturbation at least one basis per class must
        # stay feasible, which is what keeps the Hausdorff distance linear.
        ledger = lpl.enumerate_ledger(
            lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
        )
        classes: dict[int, list[int]] = {}
        for k, vid in enumerate(ledger.vertex_ids):
            classes.setdefault(vid, []).append(k)
        assert len(classes) == 2
        rng = np.random.default_rng(20)
        for _ in range(20):
            delta = rng.standard_normal(5) * 1e-3
            shifted = lpl.make_lp(
                ledger.lp.constraint_matrix, ledger.lp.rhs + delta, ledger.lp.cost
            )
            for members in classes.values():
                assert any(
                    lpl.basic_pair(shifted, ledger.bases[k]).primal_feasible
                    for k in members
                )

    def test_perturbation_flips_match_prediction(self):
        # Perturbing the first marginal entry kills one scheme per sign.
        base = lpl.enumerate_ledger(
            lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
        )
        eps = 1e-3
        scheme_3 = (0, 4, 6, 7, 8)
        scheme_4 = (0, 3, 4, 6, 8)
        for sign, infeasible in ((+1, scheme_4), (-1, scheme_3)):
            r = SKEWED_R + sign * eps * np.array([1.0, -1.0, 0.0])
            lp = lpl.reduce_to_lp(line_problem(1.0, r=r, s=SKEWED_S))
            assert not lpl.basic_pair(lp, infeasible).primal_feasible
            survivor = scheme_3 if infeasible == scheme_4 else scheme_4
            assert lpl.basic_pair(lp, survivor).primal_feasible


class TestRateRecovery:
    def test_hausdorff_slope_is_square_root(self):
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0))))
        experiment = lpl.hausdorff_run(solver, lpl.OneSample(), [100, 1000, 10_000], 100, seed=7)
        slope = lpl.hausdorff_rate_slope(experiment.summary)
        assert -0.65 <= slope <= -0.35

    @pytest.mark.parametrize("summary", [((100.0, 0.1, 0.05, 0.2),),
                                         ((100.0, 0.1, 0.05, 0.2), (100.0, 0.2, 0.1, 0.3))])
    def test_slope_needs_two_distinct_sizes(self, summary):
        with pytest.raises(lpl.DimensionMismatch, match="two distinct sample sizes"):
            lpl.hausdorff_rate_slope(summary)

    def test_non_uniqueness_persists_when_duals_collide(self):
        lp = lpl.reduce_to_lp(line_problem(1.0))
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        non_unique = 0
        B = 200
        for rhs in lpl.resample_rhs(lpl.OneSample(), lp.rhs, 10_000, 8, B):
            if len(solver.vertices_at(rhs)) >= 2:
                non_unique += 1
        assert non_unique / B >= 0.05


class TestCompareDistributions:
    def test_identical_samples(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, 3))
        report = lpl.compare_distributions(X, X)
        np.testing.assert_allclose(report.per_coordinate_ks, 0.0)
        assert report.energy_distance == pytest.approx(0.0, abs=1e-12)
        assert report.covariance_frobenius_error == 0.0

    def test_null_ks_is_small(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((10_000, 2))
        Y = rng.standard_normal((10_000, 2))
        report = lpl.compare_distributions(X, Y)
        assert report.per_coordinate_ks.max() < 0.03

    def test_shifted_normal_ks_is_large(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10_000, 1))
        y = rng.standard_normal((10_000, 1)) + 1.0
        report = lpl.compare_distributions(x, y)
        assert report.per_coordinate_ks[0] > 0.3

    def test_value_ks_channel(self):
        rng = np.random.default_rng(12)
        report = lpl.compare_distributions(
            rng.standard_normal((100, 1)),
            rng.standard_normal((100, 1)),
            empirical_values=np.zeros(100),
            limit_values=np.zeros(100),
        )
        assert report.value_ks == pytest.approx(0.0)

    def test_structural_zero_columns_match_every_column_oracle(self):
        rng = np.random.default_rng(28)
        X, Y = rng.integers(0, 4, (300, 5)).astype(float), rng.integers(0, 3, (700, 5)).astype(float)
        X[:, [1, 3]], Y[:, [1, 3]] = 0.0, -0.0
        Y[0, 3] = 2.0  # nonzero in one sample only: compared as usual
        report = lpl.compare_distributions(X, Y)
        expected = [_oracle_two_sample_ks(X[:, j], Y[:, j]) for j in range(5)]
        assert report.per_coordinate_ks.tobytes() == np.array(expected).tobytes()
        assert report.per_coordinate_ks[1] == 0.0 and report.per_coordinate_ks[3] > 0.0
        assert report.energy_distance == _unmasked_energy(X, Y, None)[0]

    def test_energy_distance_detects_shift(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((2000, 2))
        Y = rng.standard_normal((2000, 2)) + 2.0
        assert lpl.energy_distance(X, Y) > 1.0


def _oracle_two_sample_ks(x, y):
    """The binary-search form: both ECDFs read by searchsorted at every observation."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    both = np.concatenate([x, y])
    gap = np.searchsorted(x, both, side="right") / x.size - np.searchsorted(y, both, side="right") / y.size
    return float(np.abs(gap).max())


# tied small integers, both signed zeros and both infinities, among general floats
_KS_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_KS_SAMPLE = st.lists(_KS_VALUES, min_size=1, max_size=50).map(np.array)


class TestTwoSampleKs:
    @settings(max_examples=300, deadline=None)
    @given(_KS_SAMPLE, _KS_SAMPLE)
    def test_merge_equals_binary_search(self, x, y):
        expected = _oracle_two_sample_ks(x, y)
        assert np.float64(lpl.two_sample_ks(x, y)).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_KS_SAMPLE, _KS_SAMPLE, st.booleans(), st.integers(0, 50))
    def test_nan_anywhere_gives_nan(self, x, y, in_x, at):
        if in_x:
            x = np.insert(x, min(at, x.size), np.nan)
        else:
            y = np.insert(y, min(at, y.size), np.nan)
        assert np.isnan(lpl.two_sample_ks(x, y)) and np.isnan(_oracle_two_sample_ks(x, y))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60), st.integers(1, 60), st.booleans(), st.integers(0, 2**32 - 1)
    )
    def test_equals_scipy_statistic(self, n1, n2, ties, seed):
        import scipy.stats

        rng = np.random.default_rng(seed)
        if ties:
            x, y = rng.integers(0, 4, n1).astype(float), rng.integers(0, 5, n2).astype(float)
        else:
            x, y = rng.standard_normal(n1), 1.3 * rng.standard_normal(n2) + 0.2
        with np.errstate(divide="ignore"):  # scipy's p-value for a one-point sample
            expected = scipy.stats.ks_2samp(x, y, method="asymp").statistic
        assert np.float64(lpl.two_sample_ks(x, y)).tobytes() == np.float64(expected).tobytes()

    def test_nan_propagates(self):
        assert np.isnan(lpl.two_sample_ks(np.array([0.0, np.nan]), np.array([1.0])))

    @pytest.mark.parametrize("x, y", [(np.zeros(0), np.ones(3)), (np.ones(3), np.zeros(0)),
                                      (np.zeros(0), np.zeros(0))])
    def test_empty_sample_is_rejected(self, x, y):
        with pytest.raises(lpl.EmptySet):
            lpl.two_sample_ks(x, y)


def _oracle_mean_distance(A, B):
    return sum(np.linalg.norm(a - b) for a in A for b in B) / (len(A) * len(B))


@st.composite
def _sample_pair(draw):
    rank = draw(st.integers(1, 9))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    x = draw(hnp.arrays(float, (draw(st.integers(1, 12)), rank), elements=values))
    y = draw(hnp.arrays(float, (draw(st.integers(1, 12)), rank), elements=values))
    return x, y, draw(st.integers(1, 14))


def _unmasked_energy(x, y, threads):
    """energy_distance and mean_pairwise_norm on every column, as before columns were dropped."""
    cross, within_x, within_y = stochastic_harness._mean_distances([(x, y), (x, x), (y, y)], threads)
    energy = 0.0 if np.array_equal(x, y) else float(2.0 * cross - within_x - within_y)
    return energy, float(stochastic_harness._mean_distances([(x, y)], None)[0])


@st.composite
def _pair_with_zero_columns(draw):
    """Samples whose columns span scales 1e-8..1e8, with all-zero columns (mixing ±0) interleaved."""
    rows = st.sampled_from([1, 2, 7, _CDIST_BLOCK - 1, _CDIST_BLOCK + 1, int(2.5 * _CDIST_BLOCK)])
    rank, zeros = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-8, 8, rank)
    samples = []
    for n in (draw(rows), draw(rows)):
        signed_zeros = np.where(rng.random((n, zeros)) < 0.5, -0.0, 0.0)
        samples.append(np.hstack([rng.standard_normal((n, rank)) * scales, signed_zeros]))
    order = draw(st.permutations(range(rank + zeros)))
    return samples[0][:, order], samples[1][:, order]


@pytest.fixture
def cdist_columns(monkeypatch):
    """Column counts of the arrays every cdist call of the energy kernel receives (C order, or None)."""
    seen = []

    def spy(rows, cols, **kwargs):
        seen.append(rows.shape[1] if rows.flags.c_contiguous and cols.flags.c_contiguous else None)
        return cdist(rows, cols, **kwargs)

    monkeypatch.setattr(stochastic_harness, "cdist", spy)
    return seen


_BLOCK_EDGE_ROWS = st.sampled_from(
    [_CDIST_BLOCK - 1, _CDIST_BLOCK, _CDIST_BLOCK + 1, int(2.5 * _CDIST_BLOCK)]
)


class TestEnergyKernel:
    @settings(max_examples=200, deadline=None)
    @given(_sample_pair())
    def test_matches_double_loop_oracle(self, pair):
        x, y, max_rows = pair
        X, Y = x[:max_rows], y[:max_rows]
        cross = _oracle_mean_distance(X, Y)
        within_x = _oracle_mean_distance(X, X)
        within_y = _oracle_mean_distance(Y, Y)
        scale = cross + within_x + within_y
        energy = lpl.energy_distance(x, y, max_rows)
        assert abs(energy - (2.0 * cross - within_x - within_y)) <= 1e-12 * scale
        assert lpl.mean_pairwise_norm(x, y, max_rows) == pytest.approx(cross, rel=1e-12, abs=0.0)

    def test_blocks_cover_every_row(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((1100, 2))
        y = rng.standard_normal((7, 2))
        expected = _oracle_mean_distance(x, y)
        assert lpl.mean_pairwise_norm(x, y, 5000) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_identical_inputs_give_exact_zero(self):
        X = np.random.default_rng(22).standard_normal((1200, 9))
        assert lpl.energy_distance(X, X) == 0.0

    def test_peak_allocation_is_blocked(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((5000, 9))
        Y = rng.standard_normal((5000, 9))
        tracemalloc.start()
        try:
            lpl.energy_distance(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @settings(max_examples=8, deadline=None)
    @given(_BLOCK_EDGE_ROWS, _BLOCK_EDGE_ROWS, st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_block_edges_are_thread_independent(self, rows_x, rows_y, rank, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows_x, rank))
        y = rng.standard_normal((rows_y, rank)) + 0.5
        energies = {t: lpl.energy_distance(x, y, threads=t) for t in (1, 2, 3)}
        assert energies[1] == energies[2] == energies[3]
        cross = _oracle_mean_distance(x, y)
        within_x = _oracle_mean_distance(x, x)
        within_y = _oracle_mean_distance(y, y)
        scale = cross + within_x + within_y
        assert abs(energies[1] - (2.0 * cross - within_x - within_y)) <= 1e-12 * scale

    def test_shared_buffers_survive_thread_switching(self):
        # more workers than cores and a short switch interval: a buffer handed to two
        # running tasks at once would change the sums
        rng = np.random.default_rng(25)
        x, y = rng.standard_normal((1000, 3)), rng.standard_normal((900, 3))
        serial = lpl.energy_distance(x, y, threads=1)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: results.extend(lpl.energy_distance(x, y, threads=8) for _ in range(5)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert results == [serial] * 5

    @pytest.mark.parametrize("x, y", [
        (np.zeros((0, 2)), np.ones((3, 2))),
        (np.ones((3, 2)), np.zeros((0, 2))),
        (np.zeros((0, 2)), np.zeros((0, 2))),
    ])
    def test_empty_sample_raises_empty_set(self, x, y):
        with pytest.raises(lpl.EmptySet):
            lpl.energy_distance(x, y)
        with pytest.raises(lpl.EmptySet):
            lpl.mean_pairwise_norm(x, y)

    @settings(max_examples=60, deadline=None)
    @given(_pair_with_zero_columns())
    def test_dropping_zero_columns_changes_no_bit(self, pair):
        x, y = pair
        for threads in (1, 2, 3):
            energy, cross = _unmasked_energy(x, y, threads)
            assert np.float64(lpl.energy_distance(x, y, threads=threads)).tobytes() == np.float64(energy).tobytes()
        assert np.float64(lpl.mean_pairwise_norm(x, y)).tobytes() == np.float64(cross).tobytes()

    def test_no_column_left_gives_zero_without_cdist(self, cdist_columns):
        x, y = np.zeros((4, 3)), np.full((6, 3), -0.0)
        assert lpl.energy_distance(x, y) == 0.0
        assert lpl.mean_pairwise_norm(x, y) == 0.0
        assert cdist_columns == []

    def test_column_zero_in_one_sample_only_is_kept(self, cdist_columns):
        x = np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, 4.0]])
        y = np.array([[3.0, 1.0], [4.0, 5.0]])
        assert lpl.energy_distance(x, y, threads=1) == _unmasked_energy(x, y, 1)[0]
        assert lpl.energy_distance(y, x, threads=1) == _unmasked_energy(y, x, 1)[0]
        assert set(cdist_columns) == {2}

    def test_nan_column_is_kept_and_gives_nan(self, cdist_columns):
        x, y = np.zeros((3, 2)), np.zeros((5, 2))
        x[:, 1] = np.nan
        assert np.isnan(lpl.energy_distance(x, y))
        assert np.isnan(lpl.mean_pairwise_norm(x, y))
        assert set(cdist_columns) == {1}

    def test_column_zero_only_in_the_kept_rows_is_dropped(self, cdist_columns):
        rng = np.random.default_rng(27)
        x, y = rng.standard_normal((40, 3)), rng.standard_normal((30, 3))
        x[:20, 1] = y[:20, 1] = 0.0
        energy, cross = _unmasked_energy(x[:20], y[:20], 1)
        cdist_columns.clear()
        assert lpl.energy_distance(x, y, max_rows=20, threads=1) == energy
        assert lpl.mean_pairwise_norm(x, y, max_rows=20) == cross
        assert set(cdist_columns) == {2}

    @pytest.mark.parametrize("max_rows", [0, -1, 2.5])
    def test_max_rows_that_is_not_an_integer_of_at_least_one_is_rejected(self, max_rows):
        # max_rows=-1 used to drop the last row silently, as max_rows=9 does on 10 rows
        rng = np.random.default_rng(29)
        x, y = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
        with pytest.raises(lpl.DimensionMismatch, match="max_rows"):
            lpl.energy_distance(x, y, max_rows=max_rows)
        with pytest.raises(lpl.DimensionMismatch, match="max_rows"):
            lpl.mean_pairwise_norm(x, y, max_rows=max_rows)

    def test_column_counts_must_match(self):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.energy_distance(np.ones((3, 1)), np.ones((3, 2)))
        with pytest.raises(lpl.DimensionMismatch):
            lpl.mean_pairwise_norm(np.ones((3, 2)), np.ones((3, 3)))

    def test_rejects_fewer_than_one_thread(self):
        X = np.zeros((3, 2))
        for threads in (0, -3, 1.5, True):
            with pytest.raises(lpl.DimensionMismatch, match="^threads: expected an integer of at least 1"):
                lpl.energy_distance(X, X + 1.0, threads=threads)
            with pytest.raises(lpl.DimensionMismatch, match="^threads: expected"):
                lpl.compare_distributions(X, X + 1.0, threads=threads)

    def test_buffer_memory_does_not_grow_with_the_cpu_count(self, monkeypatch):
        # the default worker count on a 64-CPU host: the pool and its buffers stay capped
        monkeypatch.setattr(stochastic_harness, "available_cpus", lambda: 64)
        requested = []
        pool = stochastic_harness.ThreadPoolExecutor

        def recording_pool(max_workers):
            requested.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(stochastic_harness, "ThreadPoolExecutor", recording_pool)
        rng = np.random.default_rng(26)
        X = rng.standard_normal((5000, 9))
        Y = rng.standard_normal((5000, 9))
        tracemalloc.start()
        try:
            energy = lpl.energy_distance(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert requested == [stochastic_harness._MAX_WORKERS]
        assert peak < 64 * 2**20
        assert energy == lpl.energy_distance(X, Y, threads=1)


@st.composite
def _limit_draws_beside_wider_fluctuations(draw):
    """(X, Y): Y is ±0 in every row on some columns, at any positions, that X carries."""
    rows = st.sampled_from([1, 2, 7, _CDIST_BLOCK - 1, _CDIST_BLOCK + 1, int(2.5 * _CDIST_BLOCK)])
    rank, zeros = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-8, 8, rank + zeros)
    n_y = draw(rows)
    signed_zeros = np.where(rng.random((n_y, zeros)) < 0.5, -0.0, 0.0)
    Y = np.hstack([rng.standard_normal((n_y, rank)) * scales[:rank], signed_zeros])
    X = rng.standard_normal((draw(rows), rank + zeros)) * scales
    order = draw(st.permutations(range(rank + zeros)))
    return X[:, order], Y[:, order]


class TestStagedEnergy:
    @settings(max_examples=60, deadline=None)
    @given(_limit_draws_beside_wider_fluctuations(), st.integers(1, 3))
    def test_within_y_on_its_own_columns_equals_the_union_term(self, pair, threads):
        X, Y = pair
        union = stochastic_harness._carrying_columns(X, Y)
        own = stochastic_harness._carrying_columns(Y)
        assert union.all() and not own.all()
        on_union = Y.compress(union, axis=1)
        on_own = Y.compress(own, axis=1)
        (want,) = stochastic_harness._mean_distances([(on_union, on_union)], threads)
        (got,) = stochastic_harness._mean_distances([(on_own, on_own)], threads)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("p, policy", [(2.0, lpl.TieBreak.MIN_INDEX), (1.0, lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE)])
    def test_report_equals_compare_distributions(self, p, policy):
        config = lpl.ExperimentConfig(sample_sizes=(400,), replicates=300, seed=21, comparison_samples=700,
                                      solver_policy=policy, hausdorff_sizes=(50,), hausdorff_replicates=5)
        for threads in (1, 2, 3):
            result = lpl.run_experiment(line_problem(p), config, threads=threads)
            main, draws, spec = result.batches[-1], result.limit_result, result.spec
            limit_values = (draws.gaussian_directions @ spec.ledger.optimal_duals()[:, : spec.m0].T).max(axis=1)
            want = lpl.compare_distributions(main.fluctuations, draws.samples, main.value_fluctuations,
                                             limit_values, threads=threads)
            got = result.report
            assert result.report is got  # joined once
            assert np.float64(got.energy_distance).tobytes() == np.float64(want.energy_distance).tobytes()
            assert got.energy_distance > 0.0
            np.testing.assert_array_equal(got.per_coordinate_ks, want.per_coordinate_ks)
            assert got.covariance_frobenius_error == want.covariance_frobenius_error
            assert got.value_ks == want.value_ks


class TestSupportFrequencies:
    def test_nondegenerate_instance_has_empty_dz(self):
        from conftest import nondegenerate_problem

        spec = lpl.ot_limit_spec(nondegenerate_problem(), lpl.OneSample())
        partition = lpl.support_partition(spec.ledger)
        freqs = lpl.support_frequencies(np.ones((10, 9)), partition, 1e-9)
        assert freqs.dz_positive_rates == ()

    def test_rates_on_equal_marginal_instance(self):
        problem = line_problem(2.0)
        lp = lpl.reduce_to_lp(problem)
        config = lpl.ExperimentConfig(sample_sizes=(10_000,), replicates=200, seed=14)
        solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lp))
        batches = lpl.fluctuation_run(solver, config, lpl.OneSample())
        partition = lpl.support_partition(solver.ledger)
        freqs = lpl.support_frequencies(batches[0].solutions, partition, 1e-9)
        assert freqs.tz_zero_rate >= 0.99
        assert freqs.pos_positive_rate >= 0.99
        assert all(rate >= 0.05 for rate in freqs.dz_positive_rates)


class TestSeedDeterminism:
    def test_full_experiment_is_reproducible(self):
        problem = line_problem(2.0)
        config = lpl.ExperimentConfig(
            sample_sizes=((500, 500),), replicates=50, seed=15,
            mode=lpl.TwoSample(0.5), comparison_samples=500,
            hausdorff_sizes=(100,), hausdorff_replicates=10,
        )
        first = lpl.run_experiment(problem, config)
        second = lpl.run_experiment(problem, config)
        np.testing.assert_array_equal(
            first.report.per_coordinate_ks, second.report.per_coordinate_ks
        )
        assert first.report.energy_distance == second.report.energy_distance
        assert first.report.value_ks == second.report.value_ks
        assert first.hausdorff.summary == second.hausdorff.summary
        np.testing.assert_array_equal(
            first.batches[-1].fluctuations, second.batches[-1].fluctuations
        )


class TestSampleSizeTypes:
    @pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_sizes_run_like_python_ints(self, numpy_int):
        common = dict(replicates=30, seed=17, mode=lpl.TwoSample(0.5), comparison_samples=300,
                      hausdorff_replicates=10)
        reference = lpl.run_experiment(line_problem(2.0), lpl.ExperimentConfig(
            sample_sizes=(100, (200, 300)), hausdorff_sizes=(100,), **common))
        config = lpl.ExperimentConfig(
            sample_sizes=(numpy_int(100), (numpy_int(200), numpy_int(300))),
            hausdorff_sizes=(numpy_int(100),), **common)
        assert config.sample_sizes == (100, (200, 300)) and config.hausdorff_sizes == (100,)
        assert type(config.sample_sizes[0]) is int and type(config.sample_sizes[1][0]) is int
        result = lpl.run_experiment(line_problem(2.0), config)
        for got, want in zip(result.batches, reference.batches, strict=True):
            assert got.rate == want.rate
            np.testing.assert_array_equal(got.fluctuations, want.fluctuations)
        assert result.hausdorff.rows == reference.hausdorff.rows

    @pytest.mark.parametrize("sizes", [(0,), ((100,),), ((100, 200, 300),), ((100, 0),)])
    def test_bad_sizes_are_rejected(self, sizes):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.ExperimentConfig(sample_sizes=sizes, replicates=5, seed=0)

    def test_mode_must_be_a_sampling_mode(self):
        with pytest.raises(lpl.DimensionMismatch, match="mode"):
            lpl.ExperimentConfig(sample_sizes=(100,), replicates=5, seed=0, mode="two-sample")

    def test_one_sample_mode_takes_no_pair(self):
        with pytest.raises(lpl.DimensionMismatch, match="sample_sizes"):
            lpl.ExperimentConfig(sample_sizes=((100, 200),), replicates=5, seed=0, mode=lpl.OneSample())
        config = lpl.ExperimentConfig(sample_sizes=((100, 200),), replicates=5, seed=0,
                                      mode=lpl.TwoSample())
        assert config.sample_sizes == ((100, 200),)

    @pytest.mark.parametrize("kwargs", [{"hausdorff_sizes": (0,)},
                                        {"hausdorff_sizes": (100, -1)},
                                        {"hausdorff_replicates": 0}])
    def test_bad_hausdorff_settings_are_rejected(self, kwargs):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.ExperimentConfig(sample_sizes=(100,), replicates=5, seed=0, **kwargs)

    @pytest.mark.parametrize("count", [0, -5])
    def test_comparison_samples_below_one_are_rejected(self, count):
        with pytest.raises(lpl.DimensionMismatch, match="comparison_samples"):
            lpl.ExperimentConfig(sample_sizes=(100,), replicates=5, seed=0, comparison_samples=count)


class TestRunExperimentTolerances:
    def test_boundary_tol_reaches_limit_draws(self, monkeypatch):
        seen = []
        original = cones_limit.evaluate_limit

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return original(*args, **kwargs)

        monkeypatch.setattr(cones_limit, "evaluate_limit", spy)
        config = lpl.ExperimentConfig(
            sample_sizes=(500,), replicates=20, seed=16, comparison_samples=200
        )
        tols = lpl.DEFAULT_TOLS.with_(boundary_tol=1e-5)
        lpl.run_experiment(line_problem(2.0), config, tols=tols)
        assert seen == [1e-5]
