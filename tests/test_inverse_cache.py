"""The shared basis inverses and the one limit kernel, against per-site oracles.

Each oracle below is the expression a consumer used before it read
``BasisLedger.inverses``: its own ``np.linalg.inv`` of the basis submatrix
followed by the same arithmetic.  The randomized oracles mix row by row,
with spacings drawn from a full keyed block per row.  Every comparison is
exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lplimits as lpl
from conftest import line_problem

TOL = lpl.DEFAULT_TOLS.boundary_tol
BLOCK = lpl.cones_limit._SPACING_BLOCK
RANDOMIZED = lpl.TieBreak.UNIFORM_RANDOM_OVER_FEASIBLE


def planted_unique_ledger(seed):
    """Ledger of a Gaussian LP with a unique, degenerate optimum and several optimal bases.

    b = A x* with x* positive on s < m columns; c = A'y + slack with the
    slack zero on those columns and on m + 1 - s further ones, so every
    invertible basis in between is optimal.  Gaussian submatrices have no
    integer inverses.  Draws repeat until the optimum is unique.
    """
    rng = np.random.default_rng(seed)
    while True:
        m = int(rng.integers(2, 6))
        d = int(rng.integers(m + 2, m + 5))
        A = rng.standard_normal((m, d))
        columns = rng.permutation(d)
        s = int(rng.integers(1, m))
        x = np.zeros(d)
        x[columns[:s]] = rng.uniform(0.5, 2.0, s)
        slack = rng.uniform(0.5, 1.0, d)
        slack[columns[: m + 1]] = 0.0
        lp = lpl.make_lp(A, A @ x, A.T @ rng.standard_normal(m) + slack)
        ledger = lpl.enumerate_ledger(lp)
        if len(ledger.primal_optimal_vertices) == 1:
            return ledger


def oracle_inverse(ledger, k):
    return np.linalg.inv(ledger.lp.constraint_matrix[:, ledger.bases[k]])


def oracle_normals(ledger, partition, m0):
    out = []
    for k in range(ledger.optimal_count):
        idx = ledger.bases[k].tolist()
        j_rows = [j for j, col in enumerate(idx) if col not in set(partition.pos)]
        out.append(oracle_inverse(ledger, k)[j_rows][:, :m0].copy())
    return out


def oracle_feasible(normals, g_matrix):
    """(feasible matrix, boundary counts) from per-cone smallest products."""
    feasible = np.zeros((g_matrix.shape[0], len(normals)), dtype=bool)
    boundary = np.zeros(len(normals), dtype=np.int64)
    for k, n in enumerate(normals):
        if n.shape[0] == 0:
            feasible[:, k] = True
            continue
        smallest = (g_matrix @ n.T).min(axis=1)
        feasible[:, k] = smallest >= -TOL
        boundary[k] = np.sum(np.abs(smallest) <= TOL)
    return feasible, boundary


def oracle_spacings(key, n, k_count):
    """Row i is row i mod B of a full B-row block from child i // B of SeedSequence(key)."""
    out = np.empty((n, k_count))
    for i in range(n):
        j, r = divmod(i, BLOCK)
        rng = np.random.default_rng(np.random.SeedSequence(key, spawn_key=(j,)))
        out[i] = rng.exponential(size=(BLOCK, k_count))[r]
    return out


def oracle_mixture(feasible_row, spacing_row, inverses, columns, vector, n_cols):
    masked = np.where(feasible_row, spacing_row, 0.0)
    alpha = masked / masked.sum()
    out = np.zeros(n_cols)
    for k in np.flatnonzero(feasible_row):
        out[columns[k]] += alpha[k] * (inverses[k] @ vector)
    return out


def oracle_samples(ledger, feasible, g_matrix, m0, randomized, seed):
    n, k_count = feasible.shape
    emb = np.zeros((n, ledger.lp.n_rows))
    emb[:, :m0] = g_matrix
    samples = np.zeros((n, ledger.lp.n_cols))
    columns = ledger.bases[:k_count].tolist()
    inverses = [oracle_inverse(ledger, k) for k in range(k_count)]
    if not randomized:
        chosen = np.argmax(feasible, axis=1)
        for k in range(k_count):
            rows = np.flatnonzero(chosen == k)
            if rows.size:
                samples[np.ix_(rows, columns[k])] = emb[rows] @ inverses[k].T
        return samples
    spacings = oracle_spacings((seed,), n, k_count)
    for i in range(n):
        samples[i] = oracle_mixture(
            feasible[i], spacings[i], inverses, columns, emb[i], ledger.lp.n_cols
        )
    return samples


def directions(ledger, normals, m0, seed):
    """Gaussian rows inside some cone, plus the origin and rows on a facet."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((60, m0))
    facets = [n[0] for n in normals if n.shape[0]]
    if facets:
        on = rng.standard_normal((10, m0))
        w = facets[int(rng.integers(len(facets)))]
        g = np.vstack([g, on - np.outer(on @ w / (w @ w), w)])
    g = np.vstack([g, np.zeros((1, m0))])
    return g[oracle_feasible(normals, g)[0].any(axis=1)]


def check_against_oracles(ledger, m0, seed):
    partition = lpl.support_partition(ledger)
    cones = lpl.build_cones(ledger, m0)
    normals = oracle_normals(ledger, partition, m0)
    for cone, expected in zip(cones, normals, strict=True):
        np.testing.assert_array_equal(cone.halfspace_normals, expected)

    g = directions(ledger, normals, m0, seed)
    feasible, boundary = oracle_feasible(normals, g)
    verdicts = [[lpl.cone_contains(c, row) for c in cones] for row in g]
    inside = np.array([[v is not lpl.Verdict.OUTSIDE for v in row] for row in verdicts])
    on_boundary = np.array([[v is lpl.Verdict.BOUNDARY for v in row] for row in verdicts])
    np.testing.assert_array_equal(inside, feasible)
    for policy in lpl.TieBreak:
        randomized = policy is not lpl.TieBreak.MIN_INDEX
        spec = lpl.LimitLawSpec(ledger=ledger, tie_break=policy, covariance=np.eye(m0), rate_name="sqrt(n)")
        for cone, expected in zip(spec.cones, normals, strict=True):
            np.testing.assert_array_equal(cone.halfspace_normals, expected)
        result = lpl.evaluate_limit(spec, g, seed=seed)
        np.testing.assert_array_equal(
            result.samples, oracle_samples(ledger, feasible, g, m0, randomized, seed)
        )
        np.testing.assert_array_equal(result.boundary_hits, boundary)
        np.testing.assert_array_equal(on_boundary.sum(axis=0), result.boundary_hits)
        if randomized:
            np.testing.assert_array_equal(inside.sum(axis=0), result.occupancy_counts)
        else:
            first = np.bincount(np.argmax(inside, axis=1), minlength=len(cones))
            np.testing.assert_array_equal(first, result.occupancy_counts)

        one = lpl.evaluate_limit(spec, g[:1], seed=seed).samples[0]
        np.testing.assert_array_equal(lpl.limit_functional(spec, g[0], seed=seed), one)

    cov = np.atleast_2d(np.cov(np.random.default_rng(seed).standard_normal((m0, 2 * m0 + 2))))
    for k in range(ledger.optimal_count):
        inverse = oracle_inverse(ledger, k)
        emb = np.zeros((ledger.lp.n_rows,) * 2)
        emb[:m0, :m0] = cov
        idx = ledger.bases[k].tolist()
        expected = np.zeros((ledger.lp.n_cols,) * 2)
        expected[np.ix_(idx, idx)] = inverse @ emb @ inverse.T
        np.testing.assert_array_equal(lpl.pushforward_covariance(ledger, k, cov), expected)


def check_solver_against_oracle(ledger, seed):
    lp = ledger.lp
    solver = lpl.RepeatedSolver(ledger)
    order = sorted(range(len(ledger.bases)), key=lambda k: ledger.bases[k].tolist())
    inverses = np.array([oracle_inverse(ledger, k) for k in order])
    columns = [ledger.bases[k].tolist() for k in order]
    assert solver.inverses.tobytes() == inverses.tobytes()
    assert solver.columns.tolist() == columns
    tols = solver.ledger.tols
    rng = np.random.default_rng(seed)
    rhs_batch = lp.rhs + 0.3 * np.abs(lp.rhs).max() * rng.standard_normal((40, lp.n_rows))
    rhs_batch[0] = lp.rhs

    coords = np.array([inverses @ rhs for rhs in rhs_batch])
    feasible = (coords >= -tols.feas_tol).all(axis=2)
    any_feasible = feasible.any(axis=1)
    chosen = np.where(any_feasible, np.argmax(feasible, axis=1), -1)
    solutions = np.full((len(rhs_batch), lp.n_cols), np.nan)
    for k in np.unique(chosen[any_feasible]):
        rows = np.flatnonzero(chosen == k)
        solutions[rows] = 0.0
        solutions[np.ix_(rows, columns[k])] = coords[rows, k, :]
    got = solver.solve_batch(rhs_batch)
    for value, expected in zip(got, (solutions, solutions @ lp.cost, chosen, any_feasible)):
        np.testing.assert_array_equal(value, expected)

    mixed, mixed_ok = solver.mixed_solution(rhs_batch, (seed, 1))
    np.testing.assert_array_equal(mixed_ok, any_feasible)
    spacings = oracle_spacings((seed, 1), len(rhs_batch), len(order))
    for i, rhs in enumerate(rhs_batch):
        if any_feasible[i]:
            expected = oracle_mixture(
                feasible[i], spacings[i], inverses, columns, rhs, lp.n_cols
            )
            np.testing.assert_array_equal(mixed[i], expected)
        else:
            assert np.isnan(mixed[i]).all()

        coords = inverses @ rhs
        ks = np.flatnonzero((coords >= -tols.feas_tol).all(axis=1))
        vertices = solver.vertices_at(rhs)
        if ks.size == 0:
            assert vertices == []
            continue
        unique = []
        for k in ks:
            full = np.zeros(lp.n_cols)
            full[columns[k]] = coords[k]
            if all(np.max(np.abs(v - full)) > tols.dedup_tol for v in unique):
                unique.append(full)
        assert len(vertices) == len(unique)
        for v, w in zip(vertices, unique):
            np.testing.assert_array_equal(v, w)


class TestLedgerInverses:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_per_basis_inverse(self, seed):
        ledger = planted_unique_ledger(seed)
        inverses = ledger.inverses
        assert inverses.shape == (ledger.optimal_count,) + (ledger.lp.n_rows,) * 2
        assert ledger.inverses is inverses
        assert not inverses.flags.writeable
        for k in range(ledger.optimal_count):
            np.testing.assert_array_equal(inverses[k], oracle_inverse(ledger, k))
        # the solver's one stack holds every basis, in lexicographic order
        solver = lpl.RepeatedSolver(ledger)
        for columns, inverse in zip(solver.columns, solver.inverses, strict=True):
            np.testing.assert_array_equal(inverse, np.linalg.inv(ledger.lp.constraint_matrix[:, columns]))


class TestConsumersMatchOracles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_gaussian_planted_optimum(self, seed, data):
        ledger = planted_unique_ledger(seed)
        assert ledger.optimal_count >= 2
        m0 = data.draw(st.integers(1, ledger.lp.n_rows))
        check_against_oracles(ledger, m0, seed)
        check_solver_against_oracle(ledger, seed)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("m0", [2, 5])
    def test_golden_instances(self, p, m0):
        ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(p)))
        check_against_oracles(ledger, m0, seed=int(10 * p) + m0)
        check_solver_against_oracle(ledger, seed=m0)


def mixture_weights(feasible, spacings):
    """The kernel's weights: unit parts, one column per basis."""
    k_count = feasible.shape[1]
    return lpl.cones_limit.uniform_mixture(
        feasible, spacings, np.ones((feasible.sum(), 1)), np.arange(k_count)[:, None], k_count
    )


def assert_on_simplex(weights, feasible):
    ok = feasible.any(axis=1)
    np.testing.assert_allclose(weights[ok].sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(weights[feasible] > 0)
    assert np.all(weights[~feasible] == 0)


class TestKeyedMixture:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_the_row_count(self, seed):
        spec = lpl.ot_limit_spec(line_problem(1.0), lpl.TwoSample(0.5), tie_break=RANDOMIZED)
        ledger, lp = spec.ledger, spec.ledger.lp
        n_max = 5 * BLOCK // 2
        g = lpl.sample_limit(spec, n_max, seed).gaussian_directions
        full = lpl.evaluate_limit(spec, g, seed=seed).samples
        solver = lpl.RepeatedSolver(ledger)
        rng = np.random.default_rng(seed)
        rhs_batch = lp.rhs + 0.25 * rng.standard_normal((n_max, lp.n_rows))
        mixed, ok = solver.mixed_solution(rhs_batch, (seed, 1))
        assert ok.any() and not ok.all()
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, n_max):
            np.testing.assert_array_equal(
                lpl.evaluate_limit(spec, g[:n], seed=seed).samples, full[:n]
            )
            head, head_ok = solver.mixed_solution(rhs_batch[:n], (seed, 1))
            np.testing.assert_array_equal(head, mixed[:n])
            np.testing.assert_array_equal(head_ok, ok[:n])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_mixtures_on_planted_optimum(self, seed, data):
        ledger = planted_unique_ledger(seed)
        lp = ledger.lp
        A = lp.constraint_matrix
        m0 = data.draw(st.integers(1, lp.n_rows))
        partition = lpl.support_partition(ledger)
        spec = lpl.LimitLawSpec(ledger=ledger, tie_break=RANDOMIZED, covariance=np.eye(m0), rate_name="sqrt(n)")
        normals = oracle_normals(ledger, partition, m0)
        g = directions(ledger, normals, m0, seed)
        out = lpl.evaluate_limit(spec, g, seed=seed).samples
        emb = np.zeros((len(g), lp.n_rows))
        emb[:, :m0] = g
        solver = lpl.RepeatedSolver(ledger)
        scale = np.abs(A).max() * np.abs(solver.inverses).max()
        atol = 1e-10 * scale * (1 + np.abs(g).max())
        np.testing.assert_allclose(out @ A.T, emb, rtol=0, atol=atol)
        feasible = oracle_feasible(normals, g)[0]
        spacings = oracle_spacings((seed,), len(g), ledger.optimal_count)
        assert_on_simplex(mixture_weights(feasible, spacings), feasible)

        rng = np.random.default_rng(seed)
        rhs_batch = lp.rhs + 0.3 * np.abs(lp.rhs).max() * rng.standard_normal((40, lp.n_rows))
        rhs_batch[0] = lp.rhs
        mixed, ok = solver.mixed_solution(rhs_batch, (seed, 1))
        _, values, _, ok_min_index = solver.solve_batch(rhs_batch)
        np.testing.assert_array_equal(ok, ok_min_index)
        atol = 1e-10 * scale * (1 + np.abs(rhs_batch).max())
        np.testing.assert_allclose(mixed[ok] @ A.T, rhs_batch[ok], rtol=0, atol=atol)
        assert mixed[ok].min() >= -atol
        np.testing.assert_allclose(
            mixed[ok] @ lp.cost, values[ok], rtol=0, atol=atol * np.abs(lp.cost).max()
        )
        assert np.isnan(mixed[~ok]).all()
        coords = lpl.cones_limit.basis_products(solver.inverses, rhs_batch[:, None])
        feasible = (coords >= -solver.ledger.tols.feas_tol).all(axis=2)
        spacings = oracle_spacings((seed, 1), len(rhs_batch), feasible.shape[1])
        assert_on_simplex(mixture_weights(feasible, spacings), feasible)

    def test_spacings_match_full_keyed_blocks(self):
        key = (5, 1000, 1)
        n = 5 * BLOCK // 2
        blocks = list(lpl.cones_limit.spacing_blocks(key, n, 3))
        assert [start for start, _ in blocks] == [0, BLOCK, 2 * BLOCK]
        np.testing.assert_array_equal(
            np.vstack([block for _, block in blocks]), oracle_spacings(key, n, 3)
        )

    @pytest.mark.parametrize("key", [(0,), (7,), (11, 500, 1), (11, 30, 40, 1)])
    def test_spacings_never_reuse_a_plain_keyed_stream(self, key):
        # default_rng((*key, 0)) is default_rng(key): with plain tuple keys,
        # block 0 of evaluate_limit(seed) would replay sample_limit's direction
        # stream, and block 0 of a fluctuation key would replay the resample
        # stream of replicate 1.
        _, spacings = next(lpl.cones_limit.spacing_blocks(key, 3, 4))
        assert not np.array_equal(spacings, np.random.default_rng(key).exponential(size=(3, 4)))
