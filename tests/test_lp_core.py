"""Basis machinery, enumeration, and assumption checks."""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lplimits as lpl
from lplimits import lp_core
from conftest import (
    EQUAL_MARGINAL_SCHEMES,
    OPTIMAL_SCHEME_IDS,
    SKEWED_R,
    SKEWED_S,
    SKEWED_VERTEX_A,
    SKEWED_VERTEX_B,
    line_problem,
    nondegenerate_problem,
    scheme_ids_of_ledger,
)


def _dual_optimal_set_is_multiple(lp, ledger):
    """True when the dual optimal face {A'lam <= c, b'lam = value} is not a point.

    Probes the face with +-coordinate objectives; any unbounded probe or any
    optimizer away from the known vertex proves multiplicity.
    """
    import scipy.optimize

    value = ledger.optimal_value
    lam0 = ledger.optimal_pairs()[0].dual
    m = lp.n_rows
    for i in range(m):
        for sign in (1.0, -1.0):
            objective = np.zeros(m)
            objective[i] = -sign
            res = scipy.optimize.linprog(
                objective,
                A_ub=lp.constraint_matrix.T,
                b_ub=lp.cost,
                A_eq=lp.rhs.reshape(1, -1),
                b_eq=[value],
                bounds=(None, None),
                method="highs",
            )
            if res.status == 3:
                return True
            if res.status == 0 and abs(-res.fun - sign * lam0[i]) > 1e-7 * (1 + abs(lam0[i])):
                return True
    return False


def random_solvable_lp(rng, degenerate=False, max_m=6, max_d=12):
    """Random feasible bounded LP: b from a planted point, c from a planted dual."""
    while True:
        m = int(rng.integers(1, max_m + 1))
        d = int(rng.integers(m, max_d + 1))
        A = rng.standard_normal((m, d))
        x0 = np.zeros(d)
        size = int(rng.integers(1, m + 1))
        if degenerate:
            size = max(1, size - 1)
        support = rng.choice(d, size=size, replace=False)
        x0[support] = rng.uniform(0.5, 2.0, size=size)
        lam = rng.standard_normal(m)
        slack = rng.uniform(0.0, 1.0, size=d)
        slack[support] = 0.0
        if degenerate:
            extra = rng.choice(d, size=min(d, m), replace=False)
            slack[extra] = 0.0
        try:
            return lpl.make_lp(A, A @ x0, A.T @ lam + slack)
        except lpl.RankDeficient:
            continue


def exhaustive_ledger(lp, tols=lpl.DEFAULT_TOLS):
    """Oracle: the one-subset-at-a-time scan enumerate_ledger is checked against."""
    optimal, rest = [], []
    for combo in itertools.combinations(range(lp.n_cols), lp.n_rows):
        try:
            pair = lpl.basic_pair(lp, combo, tols)
        except lpl.SingularBasis:
            continue
        if not pair.dual_feasible:
            continue
        (optimal if pair.primal_feasible else rest).append(pair)
    if not optimal and not rest:
        raise lpl.NoDualFeasibleBasis("no dual feasible basis exists")
    vertices, vertex_ids = [], []
    for pair in optimal:
        for vid, v in enumerate(vertices):
            if np.max(np.abs(v - pair.primal), initial=0.0) <= tols.dedup_tol:
                vertex_ids.append(vid)
                break
        else:
            vertices.append(pair.primal)
            vertex_ids.append(len(vertices) - 1)
    value = float(lp.cost @ optimal[0].primal) if optimal else math.nan
    pairs = tuple(optimal + rest)
    return lpl.BasisLedger(
        lp=lp,
        bases=tuple(p.basis for p in pairs),
        pairs=pairs,
        optimal_count=len(optimal),
        optimal_value=value,
        primal_optimal_vertices=tuple(vertices),
        vertex_ids=tuple(vertex_ids),
        inverses=np.array([np.linalg.inv(lp.constraint_matrix[:, list(p.basis.indices)]) for p in pairs]),
    )


def exhaustive_min_index(lp, tols=lpl.DEFAULT_TOLS):
    """Oracle: the one-subset-at-a-time scan solve_min_index is checked against."""
    saw_primal = saw_dual = False
    for combo in itertools.combinations(range(lp.n_cols), lp.n_rows):
        try:
            pair = lpl.basic_pair(lp, combo, tols)
        except lpl.SingularBasis:
            continue
        saw_primal = saw_primal or pair.primal_feasible
        saw_dual = saw_dual or pair.dual_feasible
        if pair.primal_feasible and pair.dual_feasible:
            return pair
    if not saw_primal:
        raise lpl.Infeasible("no primal feasible basis exists")
    if not saw_dual:
        raise lpl.Unbounded("primal feasible but no dual feasible basis exists")
    raise lpl.LpLimitsError("primal and dual feasible bases never coincide")


def _outcome(solve, lp):
    """(error class or None, result) of one solve."""
    try:
        return None, solve(lp)
    except lpl.LpLimitsError as exc:
        return type(exc), None


def assert_same_pair(a, b):
    assert a.basis == b.basis
    for name in ("primal", "dual", "reduced_costs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for flag in ("primal_feasible", "dual_feasible", "primal_degenerate", "dual_degenerate"):
        assert getattr(a, flag) == getattr(b, flag), flag


def assert_same_ledger(a, b):
    assert a.bases == b.bases
    assert a.optimal_count == b.optimal_count
    for pair, expected in zip(a.pairs, b.pairs, strict=True):
        assert_same_pair(pair, expected)
    assert a.inverses.tobytes() == b.inverses.tobytes()


def assert_matches_oracle(lp):
    error, ledger = _outcome(lpl.enumerate_ledger, lp)
    oracle_error, oracle = _outcome(exhaustive_ledger, lp)
    assert error is oracle_error
    if oracle is not None:
        assert ledger.bases == oracle.bases
        for pair, expected in zip(ledger.pairs, oracle.pairs):
            assert_same_pair(pair, expected)
        assert ledger.optimal_count == oracle.optimal_count
        assert ledger.vertex_ids == oracle.vertex_ids
        assert np.float64(ledger.optimal_value).tobytes() == np.float64(oracle.optimal_value).tobytes()
        for v, w in zip(ledger.primal_optimal_vertices, oracle.primal_optimal_vertices, strict=True):
            assert v.tobytes() == w.tobytes()
        np.testing.assert_array_equal(ledger.inverses, oracle.inverses)
    error, pair = _outcome(lpl.solve_min_index, lp)
    oracle_error, expected = _outcome(exhaustive_min_index, lp)
    assert error is oracle_error
    if expected is not None:
        assert_same_pair(pair, expected)


@st.composite
def _lp_arrays(draw):
    """(A, b, c): small integer entries (many singular subsets and ties) or Gaussian ones."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(m, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return (rng.integers(-2, 3, (m, d)), rng.integers(-2, 4, m), rng.integers(-1, 4, d))
    return rng.standard_normal((m, d)), rng.standard_normal(m), rng.standard_normal(d)


class TestMakeLp:
    def test_identity_one_by_one(self):
        lp = lpl.make_lp([[1.0]], [1.0], [1.0])
        assert lp.n_rows == lp.n_cols == 1

    def test_reduced_incidence_has_full_rank(self):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        assert lp.constraint_matrix.shape == (5, 9)
        assert np.linalg.matrix_rank(lp.constraint_matrix) == 5

    def test_duplicated_row_is_rank_deficient(self):
        with pytest.raises(lpl.RankDeficient):
            lpl.make_lp([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], [1.0, 2.0], [0.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(lpl.DimensionMismatch):
            lpl.make_lp([[1.0, 0.0]], [1.0, 2.0], [0.0, 0.0])

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(lpl.RankDeficient):
            lpl.make_lp([[1.0], [0.0]], [1.0, 0.0], [1.0])


class TestBasicPair:
    def test_identity_square_system(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(1, 2, size=4)
        c = rng.standard_normal(4)
        lp = lpl.make_lp(np.eye(4), b, c)
        pair = lpl.basic_pair(lp, (0, 1, 2, 3))
        np.testing.assert_allclose(pair.primal, b)
        np.testing.assert_allclose(pair.dual, c)
        assert pair.primal_feasible and pair.dual_feasible

    def test_transport_scheme_formula(self):
        # Basis {0,1,2,4,8} keeps row 1 free and pins cells (2,2) and (3,3);
        # its primal coupling is [[s1, s2-r2, s3-r3], [0, r2, 0], [0, 0, r3]],
        # feasible exactly when s2 >= r2 and s3 >= r3.
        r = np.array([0.5, 0.2, 0.3])
        s = np.array([0.3, 0.3, 0.4])
        lp = lpl.reduce_to_lp(line_problem(2.0, r=r, s=s))
        pair = lpl.basic_pair(lp, (0, 1, 2, 4, 8))
        expected = np.array(
            [[s[0], s[1] - r[1], s[2] - r[2]], [0, r[1], 0], [0, 0, r[2]]]
        ).ravel()
        np.testing.assert_allclose(pair.primal, expected, atol=1e-12)
        assert pair.primal_feasible

        s_bad = np.array([0.6, 0.1, 0.3])
        lp_bad = lpl.reduce_to_lp(line_problem(2.0, r=r, s=s_bad))
        assert not lpl.basic_pair(lp_bad, (0, 1, 2, 4, 8)).primal_feasible

    def test_residual_identities_on_random_lp(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lp = random_solvable_lp(rng, max_m=3, max_d=5)
            for combo in itertools.combinations(range(lp.n_cols), lp.n_rows):
                try:
                    pair = lpl.basic_pair(lp, combo)
                except lpl.SingularBasis:
                    continue
                A_I = lp.constraint_matrix[:, list(combo)]
                assert np.abs(A_I @ pair.primal[list(combo)] - lp.rhs).max() < 1e-10
                assert np.abs(A_I.T @ pair.dual - lp.cost[list(combo)]).max() < 1e-10
                break

    def test_singular_basis_raises(self):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        with pytest.raises(lpl.SingularBasis):
            lpl.basic_pair(lp, (0, 1, 2, 3, 5))

    def test_one_norm_condition_rule(self):
        # basis [[1, 1], [0, eps]]: ||B||_1 ||B^-1||_1 is about 2 / eps, against 1 / rank_tol
        def lp(eps):
            return lpl.make_lp([[1.0, 1.0, 0.0], [0.0, eps, 1.0]], [2.0, eps], np.ones(3))

        np.testing.assert_allclose(lpl.basic_pair(lp(3e-10), (0, 1)).primal, [1.0, 1.0, 0.0])
        with pytest.raises(lpl.SingularBasis):
            lpl.basic_pair(lp(1e-11), (0, 1))

    def test_exactly_singular_basis_is_singular_basis(self):
        lp = lpl.make_lp([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0], np.ones(3))
        with pytest.raises(lpl.SingularBasis):
            lpl.basic_pair(lp, (0, 1))


class TestEnumerateLedger:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_three_point_line_bases_table(self, p):
        ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(p)))
        ids = scheme_ids_of_ledger(ledger)
        assert None not in ids
        assert set(ids) == OPTIMAL_SCHEME_IDS[p]

    def test_dual_infeasible_schemes_never_appear(self):
        never = {EQUAL_MARGINAL_SCHEMES[k] for k in (9, 10, 11, 12)}
        for p in (0.5, 1.0, 2.0, 3.0):
            ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(p)))
            assert never.isdisjoint({b.indices for b in ledger.bases})

    def test_square_system_single_basis(self):
        lp = lpl.make_lp(np.eye(3), [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        ledger = lpl.enumerate_ledger(lp)
        assert len(ledger.bases) == ledger.optimal_count == 1
        assert ledger.bases[0].indices == (0, 1, 2)

    def test_blocks_are_lexicographically_sorted(self, ledger_p1):
        k = ledger_p1.optimal_count
        opt = [b.indices for b in ledger_p1.bases[:k]]
        rest = [b.indices for b in ledger_p1.bases[k:]]
        assert opt == sorted(opt) and rest == sorted(rest)

    def test_cap_exceeded(self):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        with pytest.raises(lpl.EnumerationCapExceeded):
            lpl.enumerate_ledger(lp, enumeration_cap=5)

    def test_unbounded_problem_has_no_dual_feasible_basis(self):
        lp = lpl.make_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        with pytest.raises(lpl.NoDualFeasibleBasis):
            lpl.enumerate_ledger(lp)


class TestOptimalitySet:
    """The ledger's optimal vertices and value, against known vertices and a brute-force scan."""

    def test_two_vertex_instance(self):
        ledger = lpl.enumerate_ledger(
            lpl.reduce_to_lp(line_problem(1.0, r=SKEWED_R, s=SKEWED_S))
        )
        assert len(ledger.primal_optimal_vertices) == 2
        found = {tuple(np.round(v, 12)) for v in ledger.primal_optimal_vertices}
        assert tuple(np.round(SKEWED_VERTEX_A, 12)) in found
        assert tuple(np.round(SKEWED_VERTEX_B, 12)) in found

    def test_unique_nondegenerate_single_vertex(self):
        ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(nondegenerate_problem()))
        assert len(ledger.primal_optimal_vertices) == 1

    def test_matches_primal_only_brute_force(self):
        # Independent oracle: enumerate all primal feasible bases directly and
        # keep the value minimizers.
        rng = np.random.default_rng(2)
        for _ in range(15):
            lp = random_solvable_lp(rng, max_m=3, max_d=6)
            vertices = []
            values = []
            for combo in itertools.combinations(range(lp.n_cols), lp.n_rows):
                try:
                    pair = lpl.basic_pair(lp, combo)
                except lpl.SingularBasis:
                    continue
                if pair.primal_feasible:
                    vertices.append(pair.primal)
                    values.append(pair.objective)
            best = min(values)
            oracle = []
            for v, val in zip(vertices, values):
                if val > best + 1e-8 * (1 + abs(best)):
                    continue
                if not any(np.abs(v - w).max() <= 1e-8 for w in oracle):
                    oracle.append(v)
            ledger = lpl.enumerate_ledger(lp)
            assert len(ledger.primal_optimal_vertices) == len(oracle)
            assert abs(ledger.optimal_value - best) < 1e-8 * (1 + abs(best))
            for v in ledger.primal_optimal_vertices:
                assert any(np.abs(v - w).max() <= 1e-7 for w in oracle)


class TestSolveMinIndex:
    def test_equal_marginals_convex_cost_choice(self, ledger_p2):
        # The four optimal bases sorted lexicographically start with scheme 8.
        pair = lpl.solve_min_index(ledger_p2.lp)
        expected = min(b.indices for b in ledger_p2.bases[: ledger_p2.optimal_count])
        assert pair.basis.indices == expected == EQUAL_MARGINAL_SCHEMES[8]

    def test_square_system(self):
        lp = lpl.make_lp(np.eye(2), [1.0, 1.0], [3.0, 4.0])
        assert lpl.solve_min_index(lp).basis.indices == (0, 1)

    def test_value_matches_ledger(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lp = random_solvable_lp(rng, max_m=4, max_d=8)
            pair = lpl.solve_min_index(lp)
            ledger = lpl.enumerate_ledger(lp)
            assert abs(pair.objective - ledger.optimal_value) < 1e-10 * (
                1 + abs(ledger.optimal_value)
            )

    def test_infeasible(self):
        lp = lpl.make_lp([[1.0, 1.0]], [-1.0], [1.0, 1.0])
        with pytest.raises(lpl.Infeasible):
            lpl.solve_min_index(lp)

    def test_unbounded(self):
        lp = lpl.make_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        with pytest.raises(lpl.Unbounded):
            lpl.solve_min_index(lp)


class TestScanMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(_lp_arrays())
    # an optimal basis with pivot ratio 3e-10, just above rank_tol
    @example((np.array([[1.0, 1.0], [0.0, 3e-10]]), np.array([2.0, 3e-10]), np.ones(2)))
    def test_random_lps(self, arrays):
        try:
            lp = lpl.make_lp(*arrays)
        except lpl.RankDeficient:
            return
        assert_matches_oracle(lp)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_planted_optimum_lps(self, seed, degenerate):
        lp = random_solvable_lp(np.random.default_rng(seed), degenerate, max_m=5, max_d=9)
        assert_matches_oracle(lp)

    def test_transport_n4_spans_several_blocks(self):
        rng = np.random.default_rng(404)
        problem = lpl.make_ot_problem(
            points_x=rng.standard_normal((4, 2)), r=rng.dirichlet(np.ones(4)),
            s=rng.dirichlet(np.ones(4)), p=2.0, q=2.0,
        )
        lp = lpl.reduce_to_lp(problem)
        assert_matches_oracle(lp)

    def test_scan_memory_is_bounded_by_the_block(self):
        # Six copies of each of five columns, dearer copy by copy: C(30, 5) =
        # 142,506 subsets, of which only the cheapest copy of each is kept.
        rng = np.random.default_rng(5)
        base = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        A = np.hstack([base] * 6)
        c = np.concatenate([np.ones(5) + 0.1 * t for t in range(6)])
        lp = lpl.make_lp(A, base @ np.ones(5), c)
        tracemalloc.start()
        try:
            ledger = lpl.enumerate_ledger(lp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [b.indices for b in ledger.bases] == [(0, 1, 2, 3, 4)]
        assert ledger.optimal_count == 1
        # One (subset, row, column) stack of all subsets alone would take 28 MB.
        assert peak < 16 * 2**20


def generic_transport_lp(n_points, seed):
    """Planar standard-normal points, Dirichlet(1) marginals, squared Euclidean cost."""
    rng = np.random.default_rng([n_points, seed])
    problem = lpl.make_ot_problem(
        points_x=rng.standard_normal((n_points, 2)), r=rng.dirichlet(np.ones(n_points)),
        s=rng.dirichlet(np.ones(n_points)), p=2.0, q=2.0,
    )
    return lpl.reduce_to_lp(problem)


@st.composite
def _tied_transport_lp(draw):
    """Transport LPs, N = 1..7, whose costs tie: symmetric, small-integer or on shared grid points."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["symmetric", "integer", "shared-points"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "symmetric":
        half = rng.integers(0, n * n, (n, n))
        cost = half + half.T
    elif kind == "integer":
        cost = rng.integers(0, n * n, (n, n))
    else:
        points = rng.integers(0, n + 1, (n, 2))
        cost = ((points[:, None] - points[None]) ** 2).sum(axis=2)
    problem = lpl.make_ot_problem(cost=cost, r=rng.dirichlet(np.ones(n)), s=np.full(n, 1 / n))
    return lpl.reduce_to_lp(problem)


def ratio_test_neighbours(lp, indices):
    """Bases one dual ratio-test exchange away: every leaving row, every tied entering column."""
    A = lp.constraint_matrix
    pair = lpl.basic_pair(lp, indices)
    alpha = np.linalg.solve(A[:, list(indices)], A)
    neighbours = set()
    for i in range(lp.n_rows):
        candidates = [k for k in range(lp.n_cols) if k not in indices and alpha[i, k] < -1e-12]
        if not candidates:
            continue
        ratios = {k: pair.reduced_costs[k] / -alpha[i, k] for k in candidates}
        best = min(ratios.values())
        for k, ratio in ratios.items():
            if ratio <= best + 1e-9 * (1 + abs(best)):
                neighbours.add(tuple(sorted(indices[:i] + indices[i + 1 :] + (k,))))
    return neighbours


class TestBasisWalk:
    @pytest.mark.parametrize("n_points", [5, 6, 7])
    def test_generic_transport_ledger_is_the_triangulation(self, n_points):
        import scipy.optimize

        lp = generic_transport_lp(n_points, 1)
        ledger = lpl.enumerate_ledger(lp)
        # Maximal simplices of a regular triangulation of the product of two simplices.
        assert len(ledger.bases) == math.comb(2 * n_points - 2, n_points - 1)
        assert len(set(ledger.bases)) == len(ledger.bases)
        kept = {b.indices for b in ledger.bases}
        for basis in ledger.bases:
            assert lpl.basic_pair(lp, basis).dual_feasible
            assert ratio_test_neighbours(lp, basis.indices) <= kept
        res = scipy.optimize.linprog(
            lp.cost, A_eq=lp.constraint_matrix, b_eq=lp.rhs, bounds=(0, None), method="highs"
        )
        assert abs(ledger.optimal_value - res.fun) <= 1e-8 * abs(res.fun)

    @pytest.mark.parametrize(
        "problem",
        [line_problem(0.5), line_problem(1.0), line_problem(2.0),
         line_problem(1.0, r=SKEWED_R, s=SKEWED_S)],
        ids=["p0.5", "p1", "p2", "skewed"],
    )
    def test_every_start_gives_the_same_ledger(self, problem):
        lp = lpl.reduce_to_lp(problem)
        ledger = lpl.enumerate_ledger(lp)
        # every ledger basis as the given start, then no start: the HiGHS one
        for start in [b.indices for b in ledger.bases] + [None]:
            again = lpl.enumerate_ledger(dataclasses.replace(lp, dual_start=start))
            assert_same_ledger(again, ledger)

    @pytest.mark.parametrize(
        "start", [(0, 1, 2, 3, 4), (0, 1, 2, 3, 6)], ids=["singular", "dual-infeasible"]
    )
    def test_start_that_fails_its_verdict_falls_back_to_highs(self, start, monkeypatch):
        lp = lpl.reduce_to_lp(line_problem(2.0))
        expected = lpl.enumerate_ledger(dataclasses.replace(lp, dual_start=None))
        starts = []
        original = lp_core._start_basis
        monkeypatch.setattr(lp_core, "_start_basis", lambda lp: starts.append(lp) or original(lp))
        ledger = lpl.enumerate_ledger(dataclasses.replace(lp, dual_start=start))
        assert len(starts) == 1
        assert_same_ledger(ledger, expected)

    @settings(max_examples=25, deadline=None)
    @given(_tied_transport_lp())
    def test_tree_start_on_tied_costs(self, lp):
        assert lpl.basic_pair(lp, lp.dual_start).dual_feasible
        walk = functools.partial(lpl.enumerate_ledger, enumeration_cap=2_000)
        error, ledger = _outcome(walk, lp)
        highs_error, expected = _outcome(walk, dataclasses.replace(lp, dual_start=None))
        assert error is highs_error
        if ledger is not None:
            assert_same_ledger(ledger, expected)
            if lp.n_cols <= 16:  # N <= 4
                assert_same_ledger(ledger, exhaustive_ledger(lp))


def reference_walk(lp, tols=lpl.DEFAULT_TOLS):
    """(ledger, proposed count) from the one-basis-at-a-time walk: one ``np.linalg.inv`` per basis.

    The reference the blocked walk is checked against, bit for bit: each
    basis's numbers come from its own inverse, ``inverse @ b``,
    ``c_B @ inverse``, ``c - A.T @ dual`` and ``inverse @ A``.  It starts at
    ``lp.dual_start``, or at the HiGHS start without one.
    """
    A = lp.constraint_matrix
    m = lp.n_rows
    slack = lp_core._WALK_SLACK * tols.feas_tol
    frontier = [tuple(lp_core._start_basis(lp) if lp.dual_start is None else lp.dual_start)]
    seen = set(frontier)
    found = []
    while frontier:
        indices = frontier.pop()
        sub = A[:, list(indices)]
        try:
            inverse = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            continue
        if not np.linalg.norm(sub, 1) * np.linalg.norm(inverse, 1) * tols.rank_tol < 1.0:
            continue
        x_basic = inverse @ lp.rhs
        dual = lp.cost[list(indices)] @ inverse
        reduced = lp.cost - A.T @ dual
        if not reduced.min() >= -tols.feas_tol:
            continue
        primal = np.zeros(lp.n_cols)
        primal[list(indices)] = x_basic
        pair = lpl.BasicSolutionPair(
            basis=lpl.Basis(indices), primal=primal, dual=dual, reduced_costs=reduced,
            primal_feasible=bool(x_basic.min() >= -tols.feas_tol), dual_feasible=True,
            primal_degenerate=bool(np.sum(primal > tols.feas_tol) < m),
            dual_degenerate=bool(np.sum(np.abs(reduced) <= tols.feas_tol) > m),
            objective=float(np.dot(primal, lp.cost)),
        )
        found.append((pair, inverse))
        alpha = inverse @ A
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -reduced / alpha
            bound = t - slack / alpha
        upper = np.where(alpha < 0.0, bound, np.inf).min(axis=1, keepdims=True)
        lower = np.where(alpha > 0.0, bound, -np.inf).max(axis=1, keepdims=True)
        proposed = (alpha != 0.0) & (lower <= t) & (t <= upper)
        proposed[:, list(indices)] = False
        for i, j in zip(*np.nonzero(proposed)):
            nxt = tuple(sorted(indices[:i] + indices[i + 1 :] + (int(j),)))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    found.sort(key=lambda f: (not f[0].primal_feasible, f[0].basis.indices))
    pairs = tuple(pair for pair, _ in found)
    optimal_count = sum(pair.primal_feasible for pair in pairs)
    vertices, vertex_ids = lp_core.dedup_vertices([p.primal for p in pairs[:optimal_count]], tols.dedup_tol)
    ledger = lpl.BasisLedger(
        lp=lp, bases=tuple(p.basis for p in pairs), pairs=pairs, optimal_count=optimal_count,
        optimal_value=float(lp.cost @ pairs[0].primal) if optimal_count else math.nan,
        primal_optimal_vertices=tuple(vertices), vertex_ids=tuple(vertex_ids),
        inverses=np.stack([inverse for _, inverse in found]),
    )
    return ledger, len(seen)


def line_n_problem(n_points, p):
    """N points 0, 1, ..., N-1 on the line, equal marginals, q = 2."""
    return line_problem(p, r=np.full(n_points, 1 / n_points), xs=np.arange(n_points, dtype=float))


WALK_CASES = (
    [pytest.param(lambda n=n, p=p: lpl.reduce_to_lp(line_n_problem(n, p)), id=f"line-n{n}-p{p:g}")
     for n in (3, 4, 5) for p in (1.0, 2.0)]
    + [pytest.param(lambda n=n: generic_transport_lp(n, 0), id=f"generic-n{n}") for n in (3, 4, 5, 6)]
    + [pytest.param(lambda seed=seed: random_solvable_lp(np.random.default_rng(seed), seed % 2 == 1),
                    id=f"dense-{seed}") for seed in range(6)]
)


class TestBlockedWalk:
    @pytest.mark.parametrize("make_lp", WALK_CASES)
    def test_ledger_is_bit_equal_to_the_per_basis_walk(self, make_lp):
        lp = make_lp()
        ledger = lpl.enumerate_ledger(lp)
        expected, _ = reference_walk(lp)
        assert ledger.bases == expected.bases
        assert ledger.optimal_count == expected.optimal_count
        for pair, want in zip(ledger.pairs, expected.pairs, strict=True):
            assert_same_pair(pair, want)
            assert np.float64(pair.objective).tobytes() == np.float64(want.objective).tobytes()
        assert ledger.inverses.tobytes() == expected.inverses.tobytes()
        assert ledger.vertex_ids == expected.vertex_ids
        assert np.float64(ledger.optimal_value).tobytes() == np.float64(expected.optimal_value).tobytes()

    @pytest.mark.parametrize("make_lp", [WALK_CASES[1], WALK_CASES[4], WALK_CASES[-1]])
    def test_cap_counts_proposed_bases(self, make_lp):
        lp = make_lp()
        _, proposed = reference_walk(lp)
        assert len(lpl.enumerate_ledger(lp, enumeration_cap=proposed).bases) <= proposed
        with pytest.raises(lpl.EnumerationCapExceeded):
            lpl.enumerate_ledger(lp, enumeration_cap=proposed - 1)

    def test_blocks_of_one_give_the_same_ledger(self, monkeypatch):
        lp = generic_transport_lp(5, 0)
        expected = lpl.enumerate_ledger(lp)
        monkeypatch.setattr(lp_core, "_WALK_BLOCK_BYTES", 1)
        assert_same_ledger(lpl.enumerate_ledger(lp), expected)


class TestOneInversePerBasis:
    @pytest.mark.parametrize(
        "lp",
        [lpl.reduce_to_lp(line_problem(2.0)), generic_transport_lp(5, 1)],
        ids=["golden-p2", "generic-n5"],
    )
    def test_walk_and_inverses_invert_each_proposed_basis_once(self, lp, monkeypatch):
        import scipy.linalg

        inverted = []
        inv = np.linalg.inv

        def recording_inv(a):
            # the walk inverts a block of bases as one stack: record each matrix of it
            stack = np.asarray(a)
            inverted.extend(matrix.copy() for matrix in stack.reshape(-1, *stack.shape[-2:]))
            return inv(a)

        def no_lu(*args, **kwargs):
            raise AssertionError("scipy.linalg.lu_factor was called")

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        monkeypatch.setattr(scipy.linalg, "lu_factor", no_lu)
        ledger = lpl.enumerate_ledger(lp)
        inverses = ledger.inverses
        monkeypatch.undo()
        assert all(a.shape == (lp.n_rows, lp.n_rows) for a in inverted)
        proposed = {a.tobytes() for a in inverted}
        assert len(proposed) == len(inverted)
        # on these instances every proposed basis is dual feasible and kept
        assert len(inverted) == len(ledger.bases)
        for k, basis in enumerate(ledger.bases):
            sub = lp.constraint_matrix[:, list(basis.indices)]
            assert sub.tobytes() in proposed
            np.testing.assert_array_equal(inverses[k], np.linalg.inv(sub))
        assert not inverses.flags.writeable


class TestHighsOracle:
    def test_matches_highs_value(self):
        import scipy.optimize

        rng = np.random.default_rng(4)
        for trial in range(60):
            lp = random_solvable_lp(rng, degenerate=(trial % 3 == 0), max_m=5, max_d=10)
            ref = lpl.solve_min_index(lp)
            res = scipy.optimize.linprog(
                lp.cost, A_eq=lp.constraint_matrix, b_eq=lp.rhs, bounds=(0, None), method="highs"
            )
            assert res.status == 0
            assert abs(ref.objective - res.fun) < 1e-8 * (1 + abs(res.fun))

    def test_infeasible_detection(self):
        lp = lpl.make_lp([[1.0, 1.0]], [-1.0], [1.0, 1.0])
        with pytest.raises(lpl.Infeasible):
            lpl.solve_min_index(lp)


class TestCheckAssumptions:
    def test_equal_marginals_unit_cost_exponent(self, ledger_p1):
        report = lpl.check_assumptions(ledger_p1)
        assert report.a1_bounded_nonempty_optimum
        assert report.a2_unique_optimum
        assert not report.a3_distinct_optimal_duals
        ids = scheme_ids_of_ledger(ledger_p1)
        j, k = report.a3_witness
        # Duals coincide within the triples {3,6,7} and {4,5,8}.
        assert {ids[j], ids[k]} <= {3, 6, 7} or {ids[j], ids[k]} <= {4, 5, 8}

    def test_equal_marginals_convex_cost(self, ledger_p2):
        report = lpl.check_assumptions(ledger_p2)
        assert report.a2_unique_optimum
        assert report.a3_distinct_optimal_duals
        assert report.a3_witness is None

    def test_transport_lp_satisfies_slater(self):
        lp = lpl.reduce_to_lp(line_problem(2.0, r=np.array([0.2, 0.3, 0.5])))
        report = lpl.check_assumptions(lpl.enumerate_ledger(lp))
        assert report.slater
        assert report.bounded

    def test_positive_recession_direction_keeps_slater(self):
        # (1, 1) is strictly positive and feasible; maximizing min x_i is unbounded.
        lp = lpl.make_lp([[1.0, -1.0]], [0.0], [1.0, 1.0])
        report = lpl.check_assumptions(lpl.enumerate_ledger(lp))
        assert report.slater
        assert not report.bounded

    def test_nonnegative_matrix_decides_a1_without_a_recession_lp(self, ledger_p2, monkeypatch):
        calls = []
        original = lp_core._recession_direction_exists
        monkeypatch.setattr(
            lp_core, "_recession_direction_exists",
            lambda lp, restrict_cost: calls.append(restrict_cost) or original(lp, restrict_cost),
        )
        report = lpl.check_assumptions(ledger_p2)
        assert report.a1_bounded_nonempty_optimum and report.bounded
        assert calls == []
        lp = lpl.make_lp([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]], [0.0, 1.0], [1.0, 1.0, 1.0])
        report = lpl.check_assumptions(lpl.enumerate_ledger(lp))
        assert report.a1_bounded_nonempty_optimum and report.bounded
        assert calls == [True, False]

    def test_slater_fails_on_a_pinned_feasible_set(self):
        # The two constraints pin the single point (1, 0): no interior point.
        lp = lpl.make_lp([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0], [1.0, 1.0])
        report = lpl.check_assumptions(lpl.enumerate_ledger(lp))
        assert not report.slater


class TestStructuralInvariants:
    def test_strong_duality_and_complementary_slackness(self, ledger_p1):
        lp = ledger_p1.lp
        for pair in ledger_p1.optimal_pairs():
            primal_value = lp.cost @ pair.primal
            dual_value = lp.rhs @ pair.dual
            assert abs(primal_value - dual_value) < 1e-8 * (1 + abs(primal_value))
            assert np.abs(pair.primal * pair.reduced_costs).max() < 1e-8

    def test_nondegenerate_pair_forces_shared_dual(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            lp = random_solvable_lp(rng, max_m=3, max_d=6)
            ledger = lpl.enumerate_ledger(lp)
            pairs = ledger.optimal_pairs()
            if not any(not p.primal_degenerate for p in pairs):
                continue
            checked += 1
            duals = ledger.optimal_duals()
            assert np.abs(duals - duals[0]).max() <= 1e-8
        assert checked >= 10

    def test_unique_degenerate_optimum_spreads_duals(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(60):
            lp = random_solvable_lp(rng, degenerate=True, max_m=4, max_d=7)
            ledger = lpl.enumerate_ledger(lp)
            if ledger.optimal_count == 0 or len(ledger.primal_optimal_vertices) != 1:
                continue
            x_star = ledger.primal_optimal_vertices[0]
            if np.sum(x_star > 1e-9) >= lp.n_rows:
                continue
            # A single vertex is a unique optimum only when the optimality
            # set is also bounded.
            report = lpl.check_assumptions(ledger)
            if not report.a1_bounded_nonempty_optimum:
                continue
            checked += 1
            assert _dual_optimal_set_is_multiple(lp, ledger)
        assert checked >= 5

    def test_continuous_costs_give_unique_optima(self):
        lp0 = lpl.reduce_to_lp(
            line_problem(2.0, r=np.array([0.2, 0.3, 0.5]), s=np.array([0.25, 0.35, 0.4]))
        )
        rng = np.random.default_rng(7)
        for _ in range(100):
            lp = lpl.make_lp(lp0.constraint_matrix, lp0.rhs, rng.standard_normal(9))
            ledger = lpl.enumerate_ledger(lp)
            if ledger.optimal_count >= 1:
                assert len(ledger.primal_optimal_vertices) == 1


class TestJsonProblemFormat:
    def test_round_trip(self):
        lp = lpl.lp_from_dict(
            {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 2.0], "c": [3.0, 4.0], "names": ["u", "v"]}
        )
        assert lp.names() == ("u", "v")

    def test_ragged_rows_name_the_position(self):
        with pytest.raises(lpl.DimensionMismatch, match="row 1"):
            lpl.lp_from_dict({"A": [[1.0, 0.0], [0.0]], "b": [1, 0], "c": [0, 0]})

    def test_non_numeric_entry_names_row_and_column(self):
        with pytest.raises(lpl.DimensionMismatch, match="row 0, column 1"):
            lpl.lp_from_dict({"A": [[1.0, "x"]], "b": [1], "c": [0, 0]})

    def test_missing_field(self):
        with pytest.raises(lpl.DimensionMismatch, match="'c'"):
            lpl.lp_from_dict({"A": [[1.0]], "b": [1.0]})
