"""Discrete optimal transport instantiation.

Couplings between two finitely supported probability vectors reduce to a
standard-form LP through the node-arc incidence matrix with one redundant
row dropped.  This module adds the transport-specific certificates for
uniqueness and dual nondegeneracy, the multinomial fluctuation model, and
scalar/measure-valued functionals of couplings.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import lp_core
from .cones_limit import LimitLawSpec, TieBreak
from .errors import (
    CapExceeded,
    DimensionMismatch,
    MissingGroundPoints,
    NotAProbabilityVector,
)
from .lp_core import StandardLp, enumerate_ledger, make_lp
from .tolerances import DEFAULT_TOLS, Tolerances

PROBABILITY_TOL = 1e-12
COST_MATCH_TOL = 1e-12
PRIMAL_SUMMABILITY_CAP = 14  # largest N of the 2^N subset scan
DUAL_SUMMABILITY_CAP = 7  # largest N of the exhaustive cycle scan
SUPPORT_CYCLE_CAP = 10  # largest N of the cycle scan within a support


def _check_probability(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotAProbabilityVector(f"{name} must be a nonempty vector")
    if arr.min() < -PROBABILITY_TOL:
        raise NotAProbabilityVector(f"{name} has a negative entry: {arr.min()}")
    if abs(arr.sum() - 1.0) > PROBABILITY_TOL:
        raise NotAProbabilityVector(f"{name} sums to {arr.sum()}, expected 1")
    return arr


def _points_2d(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch("points must be a vector or an N x D array")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("ground points contain non-finite entries")
    return arr


def cost_from_points(points_x, points_y=None, p: float = 2.0, q: float = 2.0) -> np.ndarray:
    """Cost matrix c[i, j] = ||x_i - y_j||_q ** p; q may be inf for the max norm."""
    if not p > 0:  # NaN too
        raise DimensionMismatch(f"cost exponent p must be positive, got {p}")
    if not q > 0:
        raise DimensionMismatch(f"norm exponent q must be positive, got {q}")
    X = _points_2d(points_x)
    Y = X if points_y is None else _points_2d(points_y)
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("ground points have mismatched dimensions")
    diff = np.abs(X[:, None, :] - Y[None, :, :])
    if np.isinf(q):
        base = diff.max(axis=2)
    else:
        base = (diff**q).sum(axis=2) ** (1.0 / q)
    return base**p


@dataclass(frozen=True, eq=False)
class OtProblem:
    """Cost matrix plus marginals; optionally backed by ground-space points."""

    cost: np.ndarray
    r: np.ndarray
    s: np.ndarray
    points_x: Optional[np.ndarray] = None
    points_y: Optional[np.ndarray] = None
    p: Optional[float] = None
    q: Optional[float] = None

    @property
    def n_points(self) -> int:
        return self.cost.shape[0]


def make_ot_problem(
    cost=None,
    r=None,
    s=None,
    points_x=None,
    points_y=None,
    p: float = 2.0,
    q: float = 2.0,
) -> OtProblem:
    """Validate an OT instance given either a cost matrix or ground points."""
    r = _check_probability(r, "r")
    s = _check_probability(s, "s")
    if len(r) != len(s):
        raise DimensionMismatch("marginals must share their length")
    N = len(r)
    X = Y = None
    if points_x is not None:
        X = _points_2d(points_x)
        Y = X if points_y is None else _points_2d(points_y)
        if X.shape[0] != N or Y.shape[0] != N:
            raise DimensionMismatch("ground point count must match the marginal length")
        generated = cost_from_points(X, Y, p=p, q=q)
        if cost is None:
            cost = generated
        else:
            cost = np.asarray(cost, dtype=float)
            if np.abs(cost - generated).max(initial=0.0) > COST_MATCH_TOL:
                raise DimensionMismatch("supplied cost disagrees with the generated one")
    if cost is None:
        raise DimensionMismatch("provide a cost matrix or ground points")
    cost = np.array(cost, dtype=float)
    if cost.shape != (N, N):
        raise DimensionMismatch(f"cost must be {N}x{N}, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DimensionMismatch("cost contains non-finite entries")
    for arr in (cost, r, s):
        arr.flags.writeable = False
    return OtProblem(
        cost=cost, r=r, s=s, points_x=X, points_y=Y,
        p=p if points_x is not None else None,
        q=q if points_x is not None else None,
    )


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative matrix with prescribed marginals, plus its support pairs."""

    matrix: np.ndarray
    support: tuple[tuple[int, int], ...]


def coupling_from_matrix(matrix, tols: Tolerances = DEFAULT_TOLS) -> Coupling:
    matrix = np.array(matrix, dtype=float)
    support = tuple(
        (int(i), int(j))
        for i, j in zip(*np.nonzero(matrix > tols.feas_tol))
    )
    matrix.flags.writeable = False
    return Coupling(matrix=matrix, support=support)


def incidence_matrix_reduced(N: int) -> np.ndarray:
    """Row/column-sum constraint matrix of couplings with the last row-sum dropped."""
    A = np.zeros((2 * N - 1, N * N))
    for i in range(N - 1):
        A[i, i * N : (i + 1) * N] = 1.0
    for j in range(N):
        A[N - 1 + j, j::N] = 1.0
    return A


def reduce_to_lp(ot: OtProblem, tols: Tolerances = DEFAULT_TOLS) -> StandardLp:
    """Full-rank standard-form LP of the transport problem.

    Variables are the coupling entries in row-major order; the right-hand
    side stacks the first N-1 row sums with all N column sums.

    Its ``dual_start`` is the spanning tree of the row-minimum potentials
    u_0 = 0, v_j = c_0j and u_i = min_j (c_ij - v_j) for i >= 1, reached at
    the first argmin j_i: u_i + v_j <= c_ij on every cell, with equality on
    the tree {(0, j)} + {(i, j_i)}, whose 2N-1 columns form a basis.

    Its ``interior_margin`` is min(1, min(r', s) / N), with r' the row sums
    the LP implies (its last one is sum(s) - sum(r[:N-1])): the smallest
    entry of a row or a column is at most its sum over N, and setting every
    entry to that t leaves marginals r' - Nt and s - Nt that are nonnegative
    with equal totals, so some coupling of them completes the point.
    """
    N = ot.n_points
    A = incidence_matrix_reduced(N)
    b = np.concatenate([ot.r[: N - 1], ot.s])
    names = tuple(f"pi_{i + 1}_{j + 1}" for i in range(N) for j in range(N))
    lp = make_lp(A, b, ot.cost.ravel(), names=names, tols=tols)
    argmins = np.argmin(ot.cost[1:] - ot.cost[0], axis=1)
    tree = tuple(range(N)) + tuple(i * N + int(j) for i, j in enumerate(argmins, start=1))
    last_row = ot.s.sum() - ot.r[: N - 1].sum()
    margin = min(1.0, min(ot.r[: N - 1].min(initial=last_row), ot.s.min()) / N)
    return replace(lp, dual_start=tree, interior_margin=float(margin))


def coupling_from_lp_solution(x: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> Coupling:
    N = int(round(np.sqrt(x.size)))
    if N * N != x.size:
        raise DimensionMismatch(f"solution length {x.size} is not a perfect square")
    return coupling_from_matrix(np.clip(x, 0.0, None).reshape(N, N), tols)


def northwest_corner(r, s) -> Coupling:
    """Greedy top-left fill meeting both marginals.

    Moves the minimum of the remaining row and column masses; on exact ties
    the row index advances first.  At most 2N-1 entries are positive.
    """
    r = _check_probability(r, "r")
    s = _check_probability(s, "s")
    if len(r) != len(s):
        raise DimensionMismatch("marginals must share their length")
    N = len(r)
    row_rem = r.copy()
    col_rem = s.copy()
    matrix = np.zeros((N, N))
    i = j = 0
    while i < N and j < N:
        move = min(row_rem[i], col_rem[j])
        matrix[i, j] = move
        row_rem[i] -= move
        col_rem[j] -= move
        if row_rem[i] <= col_rem[j]:
            i += 1
        else:
            j += 1
    return coupling_from_matrix(matrix)


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of one combinatorial certificate: the flag plus a witness when false."""

    holds: bool
    witness: Optional[tuple] = None


def _square_cost(cost, tol: Optional[float]) -> tuple[np.ndarray, float]:
    """Float (N, N) cost and tol, or the default for its sum; DimensionMismatch unless square and finite."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise DimensionMismatch(f"cost must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise DimensionMismatch("cost contains non-finite entries")
    return cost, DEFAULT_TOLS.sum_tol_at(np.abs(cost).sum()) if tol is None else tol


def check_strict_monge(cost, tol: Optional[float] = None) -> CertificateCheck:
    """Strict Monge inequality over all increasing index pairs.

    Requires cost[i,j] + cost[i',j'] < cost[i,j'] + cost[i',j] with margin
    tol for every i < i', j < j'; returns the lexicographically first
    violating quadruple (i, i', j, j') otherwise.
    """
    cost, tol = _square_cost(cost, tol)
    N = cost.shape[0]
    for i in range(N):
        for i2 in range(i + 1, N):
            for j in range(N):
                for j2 in range(j + 1, N):
                    margin = (cost[i, j2] + cost[i2, j]) - (cost[i, j] + cost[i2, j2])
                    if margin <= tol:
                        return CertificateCheck(False, (i, i2, j, j2))
    return CertificateCheck(True)


def check_primal_summability(r, s, tol: Optional[float] = None) -> CertificateCheck:
    """No proper subset of r-mass equals a proper subset of s-mass.

    When true, every primal basic feasible solution of the transport LP is
    nondegenerate.  The witness is the matching pair of index subsets with
    the smallest bitmasks.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if r.ndim != 1 or r.shape != s.shape:
        raise DimensionMismatch(f"marginals must be vectors of one length, got {r.shape} and {s.shape}")
    N = len(r)
    if N > PRIMAL_SUMMABILITY_CAP:
        raise CapExceeded(f"subset scan needs N <= {PRIMAL_SUMMABILITY_CAP}, got {N}")
    tol = DEFAULT_TOLS.sum_tol_at(float(np.abs(r).sum() + np.abs(s).sum())) if tol is None else tol
    r_sums = np.zeros(1 << N)
    s_sums = np.zeros(1 << N)
    for mask in range(1, 1 << N):
        low = mask & -mask
        idx = low.bit_length() - 1
        r_sums[mask] = r_sums[mask ^ low] + r[idx]
        s_sums[mask] = s_sums[mask ^ low] + s[idx]
    full = (1 << N) - 1
    order = np.argsort(s_sums[:full], kind="stable")
    sorted_s = s_sums[:full][order]
    best = None
    for mask_a in range(full):
        target = r_sums[mask_a]
        lo = np.searchsorted(sorted_s, target - tol, side="left")
        hi = np.searchsorted(sorted_s, target + tol, side="right")
        for pos in range(lo, hi):
            mask_b = int(order[pos])
            if mask_a == 0 and mask_b == 0:
                continue
            key = (mask_a, mask_b)
            if best is None or key < best:
                best = key
    if best is None:
        return CertificateCheck(True)
    subset_a = tuple(i for i in range(N) if best[0] >> i & 1)
    subset_b = tuple(j for j in range(N) if best[1] >> j & 1)
    return CertificateCheck(False, (subset_a, subset_b))


def _cycle_families(N: int, adjacency=None):
    """Ordered families ((i_1..i_n), (j_1..j_n)) with distinct i's and j's, for n = 2..N.

    Rotations are canonicalized by starting at the smallest source index.
    With an adjacency map, only pairs (i_k, j_k) in it are generated.
    """
    for n in range(2, N + 1):
        for i_set in itertools.combinations(range(N), n):
            head = i_set[0]
            for tail in itertools.permutations(i_set[1:]):
                i_tuple = (head,) + tail
                if adjacency is None:
                    j_iter = itertools.permutations(range(N), n)
                else:
                    j_iter = _adjacency_j_tuples(i_tuple, adjacency)
                for j_tuple in j_iter:
                    yield i_tuple, j_tuple


def _adjacency_j_tuples(i_tuple, adjacency):
    n = len(i_tuple)

    def rec(k, used, chosen):
        if k == n:
            yield tuple(chosen)
            return
        for j in sorted(adjacency.get(i_tuple[k], ())):
            if j in used:
                continue
            used.add(j)
            chosen.append(j)
            yield from rec(k + 1, used, chosen)
            chosen.pop()
            used.remove(j)

    yield from rec(0, set(), [])


def check_dual_summability(cost, *, tol: Optional[float] = None) -> CertificateCheck:
    """No index cycle has equal forward and shifted cost sums.

    For every family (i_1,j_1)..(i_n,j_n) with pairwise distinct sources
    and destinations the sums sum_k c[i_k, j_k] and sum_k c[i_k, j_{k-1}]
    (cyclically shifted) must differ by more than tol.  When true, all dual
    basic solutions of the transport LP are nondegenerate.
    """
    cost, tol = _square_cost(cost, tol)
    N = cost.shape[0]
    if N > DUAL_SUMMABILITY_CAP:
        raise CapExceeded(f"exhaustive cycle scan needs N <= {DUAL_SUMMABILITY_CAP}, got {N}")
    for i_tuple, j_tuple in _cycle_families(N):
        forward = sum(cost[i_tuple[k], j_tuple[k]] for k in range(len(i_tuple)))
        shifted = sum(cost[i_tuple[k], j_tuple[k - 1]] for k in range(len(i_tuple)))
        if abs(forward - shifted) <= tol:
            return CertificateCheck(False, (i_tuple, j_tuple))
    return CertificateCheck(True)


def check_strict_cyclical_monotonicity(cost, support, *, tol: Optional[float] = None) -> CertificateCheck:
    """Strict cycle optimality of a coupling support.

    Every cycle within the support must not lower total cost when mass is
    shifted around it, strictly so whenever a shifted pair leaves the
    support.  Equivalent to uniqueness of the optimal coupling carrying
    that support.
    """
    cost, tol = _square_cost(cost, tol)
    N = cost.shape[0]
    support_set = {(int(i), int(j)) for i, j in support}
    if not all(0 <= i < N and 0 <= j < N for i, j in support_set):
        raise DimensionMismatch(f"support pairs must index the {N}x{N} cost")
    if N > SUPPORT_CYCLE_CAP:
        raise CapExceeded(f"support cycle scan needs N <= {SUPPORT_CYCLE_CAP}, got {N}")
    adjacency: dict[int, set[int]] = {}
    for i, j in support_set:
        adjacency.setdefault(i, set()).add(j)
    for i_tuple, j_tuple in _cycle_families(N, adjacency):
        n = len(i_tuple)
        forward = sum(cost[i_tuple[k], j_tuple[k]] for k in range(n))
        shifted = sum(cost[i_tuple[k], j_tuple[k - 1]] for k in range(n))
        leaves_support = any(
            (i_tuple[k], j_tuple[k - 1]) not in support_set for k in range(n)
        )
        if forward - shifted > tol:
            return CertificateCheck(False, (i_tuple, j_tuple))
        if leaves_support and shifted - forward <= tol:
            return CertificateCheck(False, (i_tuple, j_tuple))
    return CertificateCheck(True)


@dataclass(frozen=True)
class CertificateReport:
    """All uniqueness and nondegeneracy certificates of one OT instance."""

    strict_monge: CertificateCheck
    primal_summability: CertificateCheck
    dual_summability: CertificateCheck
    strict_cyclical_monotone_support: CertificateCheck
    uniqueness_implied: bool


def certify(ot: OtProblem, *, tols: Tolerances = DEFAULT_TOLS) -> CertificateReport:
    """Run all four certificates; uniqueness follows from a strictly
    cyclically monotone optimal support or from dual summability.

    The optimal support is that of the min-index solve of ``reduce_to_lp(ot,
    tols)``, the one LP built here.
    """
    cost_tol = tols.sum_tol_at(np.abs(ot.cost).sum())
    mass_tol = tols.sum_tol_at(float(np.abs(ot.r).sum() + np.abs(ot.s).sum()))
    monge = check_strict_monge(ot.cost, tol=cost_tol)
    primal = check_primal_summability(ot.r, ot.s, tol=mass_tol)
    dual = check_dual_summability(ot.cost, tol=cost_tol)
    pair = lp_core.solve_min_index(reduce_to_lp(ot, tols), tols)
    coupling = coupling_from_lp_solution(pair.primal, tols)
    monotone = check_strict_cyclical_monotonicity(ot.cost, coupling.support, tol=cost_tol)
    return CertificateReport(
        strict_monge=monge,
        primal_summability=primal,
        dual_summability=dual,
        strict_cyclical_monotone_support=monotone,
        uniqueness_implied=bool(monotone.holds or dual.holds),
    )


def multinomial_covariance(v) -> np.ndarray:
    """Covariance of one categorical draw with probabilities v: diag(v) - v v'."""
    v = _check_probability(v, "v")
    return np.diag(v) - np.outer(v, v)


@dataclass(frozen=True)
class OneSample:
    """Only the first marginal is estimated from n draws; fluctuations live on N-1 coordinates."""

    rate_name = "sqrt(n)"

    def rate(self, n: int) -> float:
        """Scaling factor of the raw fluctuations at sample size n."""
        return float(np.sqrt(n))

    def covariance(self, ot: OtProblem) -> np.ndarray:
        """Leading (N-1) x (N-1) block of the multinomial covariance of r."""
        N = ot.n_points
        return multinomial_covariance(ot.r)[: N - 1, : N - 1]


@dataclass(frozen=True)
class TwoSample:
    """Both marginals estimated with asymptotic size ratio m/(n+m) -> lam."""

    lam: float = 0.5
    rate_name = "sqrt(nm/(n+m))"

    def __post_init__(self):
        if not isinstance(self.lam, numbers.Real) or not 0.0 < self.lam < 1.0:
            raise DimensionMismatch(f"lambda must be a real number in (0, 1), got {self.lam!r}")

    def rate(self, n) -> float:
        """Scaling factor of the raw fluctuations at sample sizes (n, m); an int n means m = n."""
        n1, n2 = n if isinstance(n, tuple) else (n, n)
        return float(np.sqrt(n1 * n2 / (n1 + n2)))

    def covariance(self, ot: OtProblem) -> np.ndarray:
        """Block diagonal: lam * Sigma(r) (truncated to N-1) and (1 - lam) * Sigma(s)."""
        N = ot.n_points
        top = self.lam * multinomial_covariance(ot.r)[: N - 1, : N - 1]
        bottom = (1.0 - self.lam) * multinomial_covariance(ot.s)
        return np.block([
            [top, np.zeros((N - 1, N))],
            [np.zeros((N, N - 1)), bottom],
        ])


def ot_limit_spec(
    ot: OtProblem,
    mode: Union[OneSample, TwoSample],
    tie_break: TieBreak = TieBreak.MIN_INDEX,
    tols: Tolerances = DEFAULT_TOLS,
) -> LimitLawSpec:
    """Limit-law specification of an OT instance with a unique optimum.

    The directions are those the mode resamples, with its covariance: the
    first N-1 coordinates of the estimated first marginal (one-sample), or
    both marginal fluctuations stacked (two-sample); m0 is their count.
    The LP ``reduce_to_lp(ot, tols)`` and its ledger are built once, here,
    and ``spec.ledger`` holds both; a non-unique optimum raises NotUnique.
    """
    return LimitLawSpec(
        ledger=enumerate_ledger(reduce_to_lp(ot, tols), tols),
        tie_break=tie_break,
        covariance=mode.covariance(ot),
        rate_name=mode.rate_name,
    )


def otc_curve(coupling: Coupling, cost, t_grid) -> np.ndarray:
    """Cumulative transported mass at cost thresholds: sum of entries with cost <= t."""
    cost = np.asarray(cost, dtype=float).ravel()
    weights = coupling.matrix.ravel()
    if cost.size != weights.size:
        raise DimensionMismatch(f"cost has {cost.size} entries, the coupling {weights.size}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) < 0):
        raise DimensionMismatch("t_grid must be a sorted 1-d array")
    order = np.argsort(cost, kind="stable")
    sorted_cost = cost[order]
    cum = np.cumsum(weights[order])
    positions = np.searchsorted(sorted_cost, t_grid, side="right")
    return np.where(positions > 0, cum[np.clip(positions - 1, 0, None)], 0.0)


def trace_functional(coupling: Coupling) -> float:
    """Mass that stays in place: the diagonal sum of the coupling."""
    return float(np.trace(coupling.matrix))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported measure: atom locations with matching weights."""

    locations: np.ndarray
    weights: np.ndarray


def geodesic_at(coupling: Coupling, points_x, points_y, t: float) -> DiscreteMeasure:
    """Displacement interpolation of a coupling at time t in [0, 1].

    Each supported pair contributes an atom at (1-t) x_i + t y_j carrying
    its coupling mass; atoms colliding after rounding at 1e-12 are merged.
    """
    if points_x is None or points_y is None:
        raise MissingGroundPoints("ground points are required for the interpolation")
    if not 0.0 <= t <= 1.0:
        raise DimensionMismatch(f"t must lie in [0, 1], got {t}")
    X = _points_2d(points_x)
    Y = _points_2d(points_y)
    if {X.shape[0], Y.shape[0]} != {coupling.matrix.shape[0]}:
        raise DimensionMismatch(f"{X.shape[0]} and {Y.shape[0]} points for N={len(coupling.matrix)}")
    merged: dict[tuple, int] = {}
    locations: list[np.ndarray] = []
    weights: list[float] = []
    for i, j in coupling.support:
        loc = (1.0 - t) * X[i] + t * Y[j]
        key = tuple(np.round(loc, 12))
        if key in merged:
            weights[merged[key]] += float(coupling.matrix[i, j])
        else:
            merged[key] = len(locations)
            locations.append(loc)
            weights.append(float(coupling.matrix[i, j]))
    return DiscreteMeasure(
        locations=np.array(locations, dtype=float),
        weights=np.array(weights, dtype=float),
    )


def ot_from_dict(payload: dict) -> OtProblem:
    """Build an OT instance from its JSON form.

    Accepts {"cost": [[...]]} or {"points_x": [...], "points_y": [...],
    "p": ..., "q": ...} together with {"r": [...], "s": [...]}.
    """
    for key in ("r", "s"):
        if key not in payload:
            raise DimensionMismatch(f"OT problem JSON is missing required field '{key}'")
    if "cost" not in payload and "points_x" not in payload:
        raise DimensionMismatch("OT problem JSON needs 'cost' or 'points_x'")
    q = payload.get("q", 2.0)
    if isinstance(q, str):
        if q not in ("inf", "Infinity"):
            raise DimensionMismatch(f"field 'q' string form must be 'inf', got {q!r}")
        q = np.inf
    return make_ot_problem(
        cost=payload.get("cost"),
        r=payload["r"],
        s=payload["s"],
        points_x=payload.get("points_x"),
        points_y=payload.get("points_y"),
        p=payload.get("p", 2.0),
        q=q,
    )
