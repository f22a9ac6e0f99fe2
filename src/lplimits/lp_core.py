"""Standard-form linear programs and exact small-scale basis machinery.

A problem is the triple (A, b, c) with full-row-rank A: minimize c'x
subject to Ax = b, x >= 0.  Everything here works at desk scale by
exhaustively enumerating column bases, which is what the downstream
limit-law constructions need anyway (they consume *all* optimal bases,
not just one).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    Infeasible,
    LpLimitsError,
    NoDualFeasibleBasis,
    RankDeficient,
    SingularBasis,
    Unbounded,
)
from .tolerances import DEFAULT_TOLS, Tolerances

DEFAULT_ENUMERATION_CAP = 2_000_000

# Column subsets screened per vectorized step; bounds the (K, m, m) stacks.
_SCAN_BLOCK = 4096
# The screen calls a subset singular only at or below this fraction of the
# exact pivot-ratio threshold rank_tol.  Exactly singular subsets screen at
# ratios near machine epsilon (at most 3e-16 on small integer matrices), so
# the wide margin costs nothing and absorbs pivot choices that differ from
# LAPACK's on near ties.
_PIVOT_MARGIN = 1e-3
# It calls a value infeasible only below -_SIGN_MARGIN * feas_tol, scaled by
# one plus the magnitude of the terms that form it, against the exact
# threshold -feas_tol.
_SIGN_MARGIN = 1e3


@dataclass(frozen=True, eq=False)
class StandardLp:
    """Validated standard-form LP: minimize cost @ x s.t. matrix @ x = rhs, x >= 0."""

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    variable_names: Optional[tuple[str, ...]] = None

    @property
    def n_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.constraint_matrix.shape[1]

    def names(self) -> tuple[str, ...]:
        if self.variable_names is not None:
            return self.variable_names
        return tuple(f"x{i + 1}" for i in range(self.n_cols))


@dataclass(frozen=True)
class Basis:
    """Strictly increasing tuple of column indices selecting an invertible submatrix."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"basis indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(frozen=True, eq=False)
class BasicSolutionPair:
    """Primal/dual basic solutions induced by one basis, with feasibility and degeneracy flags."""

    basis: Basis
    primal: np.ndarray
    dual: np.ndarray
    reduced_costs: np.ndarray
    primal_feasible: bool
    dual_feasible: bool
    primal_degenerate: bool
    dual_degenerate: bool
    objective: float


@dataclass(frozen=True, eq=False)
class BasisLedger:
    """All dual feasible bases of an LP, primal-optimal prefix first.

    ``bases[:optimal_count]`` are primal and dual feasible (hence optimal);
    the remainder are dual feasible only.  Each block is ordered
    lexicographically by index tuple.  ``vertex_ids[k]`` maps an optimal
    basis to the deduplicated vertex it induces.
    """

    lp: StandardLp
    bases: tuple[Basis, ...]
    pairs: tuple[BasicSolutionPair, ...]
    optimal_count: int
    optimal_value: float
    primal_optimal_vertices: tuple[np.ndarray, ...]
    vertex_ids: tuple[int, ...]

    def optimal_pairs(self) -> tuple[BasicSolutionPair, ...]:
        return self.pairs[: self.optimal_count]

    def optimal_duals(self) -> np.ndarray:
        return np.array([p.dual for p in self.optimal_pairs()])

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        """Read-only ``(n_bases, m, m)`` basis inverses, ledger order, made on first use.

        Cones, limit law, pushed-forward covariance and resampling solver all read them here.
        """
        columns = np.array([b.indices for b in self.bases], dtype=np.intp)
        stack = self.lp.constraint_matrix[:, columns.reshape(-1, self.lp.n_rows)]
        inverses = np.linalg.inv(np.moveaxis(stack, 0, 1))
        inverses.flags.writeable = False
        return inverses


@dataclass(frozen=True, eq=False)
class OptimalitySet:
    """Vertices of the polytope of optimal solutions, and the shared value."""

    vertices: tuple[np.ndarray, ...]
    value: float


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostic flags for the structural conditions behind the limit laws."""

    a1_bounded_nonempty_optimum: bool
    a2_unique_optimum: bool
    a3_distinct_optimal_duals: bool
    a3_witness: Optional[tuple[int, int]]
    slater: bool
    bounded: bool


def _as_matrix(A, name="A") -> np.ndarray:
    arr = np.array(A, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def _as_vector(v, length, name) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1 or len(arr) != length:
        raise DimensionMismatch(f"{name} must be a vector of length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def make_lp(A, b, c, names=None, tols: Tolerances = DEFAULT_TOLS) -> StandardLp:
    """Validate (A, b, c) and return an immutable problem.

    The constraint matrix must have full row rank, established by a pivoted
    QR factorization; construction fails with RankDeficient otherwise.
    """
    A = _as_matrix(A)
    m, d = A.shape
    b = _as_vector(b, m, "b")
    c = _as_vector(c, d, "c")
    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != d:
            raise DimensionMismatch(f"names must have length {d}, got {len(names)}")
    if m > d:
        raise RankDeficient(f"m={m} rows exceed d={d} columns; full row rank is impossible")
    R = scipy.linalg.qr(A.T, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > tols.rank_tol * scale))
    if rank < m:
        raise RankDeficient(f"constraint matrix has rank {rank} < m={m}")
    A = A.copy()
    b = b.copy()
    c = c.copy()
    for arr in (A, b, c):
        arr.flags.writeable = False
    return StandardLp(A, b, c, names)


def _lu_basis(lp: StandardLp, indices: Sequence[int], tols: Tolerances):
    """LU-factor the basis submatrix; raise SingularBasis below the pivot tolerance."""
    sub = lp.constraint_matrix[:, list(indices)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(sub, check_finite=False)
    diag = np.abs(np.diag(lu))
    top = diag.max(initial=0.0)
    if top == 0.0 or diag.min() <= tols.rank_tol * top:
        raise SingularBasis(f"submatrix for columns {tuple(indices)} is singular")
    return lu, piv


def _pair_from_factor(lp, indices, lu_piv, tols: Tolerances) -> BasicSolutionPair:
    idx = list(indices)
    x_basic = scipy.linalg.lu_solve(lu_piv, lp.rhs, check_finite=False)
    dual = scipy.linalg.lu_solve(lu_piv, lp.cost[idx], trans=1, check_finite=False)
    reduced = lp.cost - lp.constraint_matrix.T @ dual
    primal = np.zeros(lp.n_cols)
    primal[idx] = x_basic
    m = lp.n_rows
    return BasicSolutionPair(
        basis=Basis(tuple(indices)),
        primal=primal,
        dual=dual,
        reduced_costs=reduced,
        primal_feasible=bool(x_basic.min() >= -tols.feas_tol),
        dual_feasible=bool(reduced.min() >= -tols.feas_tol),
        primal_degenerate=bool(np.sum(primal > tols.feas_tol) < m),
        dual_degenerate=bool(np.sum(np.abs(reduced) <= tols.feas_tol) > m),
        objective=float(np.dot(primal, lp.cost)),
    )


def basic_pair(lp: StandardLp, basis, tols: Tolerances = DEFAULT_TOLS) -> BasicSolutionPair:
    """Primal and dual basic solutions for one basis, with all flags populated."""
    indices = tuple(basis.indices if isinstance(basis, Basis) else basis)
    if len(indices) != lp.n_rows:
        raise DimensionMismatch(f"basis must have {lp.n_rows} indices, got {len(indices)}")
    lu_piv = _lu_basis(lp, indices, tols)
    return _pair_from_factor(lp, indices, lu_piv, tols)


def _screen(lp: StandardLp, block: np.ndarray, tols: Tolerances, primal: bool) -> np.ndarray:
    """Mask of the column subsets in ``block`` (one per row) that need the exact check.

    One vectorized LU with partial pivoting factors the whole ``(K, m, m)``
    stack of submatrices, and triangular solves give each dual and, when
    ``primal``, each x_B.  A subset is ruled out only when it is clearly
    singular, or clearly dual infeasible and (when ``primal``) clearly
    primal infeasible too; the margins are documented at ``_PIVOT_MARGIN``
    and ``_SIGN_MARGIN``.  A NaN never rules a subset out.
    """
    A = lp.constraint_matrix
    k_count, m = block.shape
    rows = np.arange(k_count)
    lu = np.moveaxis(A[:, block], 0, 1)
    perm = np.tile(np.arange(m), (k_count, 1))
    with np.errstate(all="ignore"):
        for j in range(m):
            p = j + np.argmax(np.abs(lu[:, j:, j]), axis=1)
            lu[rows, j], lu[rows, p] = lu[rows, p], lu[rows, j]
            perm[rows, j], perm[rows, p] = perm[rows, p], perm[rows, j]
            pivot = lu[:, j, j]
            lu[:, j + 1 :, j] /= np.where(pivot == 0.0, 1.0, pivot)[:, None]
            lu[:, j + 1 :, j + 1 :] -= lu[:, j + 1 :, j, None] * lu[:, j, None, j + 1 :]
        diag = np.diagonal(lu, axis1=1, axis2=2)
        size = np.abs(diag)
        singular = size.min(axis=1) <= _PIVOT_MARGIN * tols.rank_tol * size.max(axis=1)

        # dual: B'y = c_B with B = P'LU, so U'w = c_B, L'v = w, y[perm] = v
        v = lp.cost[block]
        for i in range(m):
            v[:, i] = (v[:, i] - np.einsum("kl,kl->k", lu[:, :i, i], v[:, :i])) / diag[:, i]
        for i in reversed(range(m)):
            v[:, i] -= np.einsum("kl,kl->k", lu[:, i + 1 :, i], v[:, i + 1 :])
        y = np.empty_like(v)
        y[rows[:, None], perm] = v
        reduced = lp.cost - y @ A
        scale = 1.0 + np.abs(lp.cost) + np.abs(y) @ np.abs(A)
        keep = ~np.any(reduced < -_SIGN_MARGIN * tols.feas_tol * scale, axis=1)

        if primal:
            # primal: LUx = Pb
            x = lp.rhs[perm]
            for i in range(m):
                x[:, i] -= np.einsum("kl,kl->k", lu[:, i, :i], x[:, :i])
            for i in reversed(range(m)):
                x[:, i] -= np.einsum("kl,kl->k", lu[:, i, i + 1 :], x[:, i + 1 :])
                x[:, i] /= diag[:, i]
            bound = -_SIGN_MARGIN * tols.feas_tol * (1.0 + np.abs(x).max(axis=1))
            keep |= ~np.any(x < bound[:, None], axis=1)
    return keep & ~singular


def _scan(lp: StandardLp, tols: Tolerances, enumeration_cap: int, primal: bool):
    """Exact pairs of the nonsingular m-column subsets the screen keeps, in lexicographic order.

    ``_screen`` checks ``_SCAN_BLOCK`` subsets at a time; its survivors go
    one by one through ``_lu_basis`` and ``_pair_from_factor``,
    so every pair and every singularity and feasibility verdict comes from
    the exact per-subset path.  Subsets the screen drops are dual infeasible
    (and, with ``primal``, primal infeasible as well) in the exact path too.
    """
    m, d = lp.n_rows, lp.n_cols
    if math.comb(d, m) > enumeration_cap:
        raise EnumerationCapExceeded(
            f"C({d},{m}) = {math.comb(d, m)} exceeds enumeration cap {enumeration_cap}"
        )
    combos = itertools.combinations(range(d), m)
    while block := list(itertools.islice(combos, _SCAN_BLOCK)):
        for k in np.flatnonzero(_screen(lp, np.array(block), tols, primal)):
            try:
                lu_piv = _lu_basis(lp, block[k], tols)
            except SingularBasis:
                continue
            yield _pair_from_factor(lp, block[k], lu_piv, tols)


def dedup_vertices(points, tol: float) -> tuple[list[np.ndarray], list[int]]:
    """First-wins deduplication in max-norm: the distinct points and each point's vertex id."""
    vertices: list[np.ndarray] = []
    vertex_ids: list[int] = []
    for point in points:
        for vid, v in enumerate(vertices):
            if np.max(np.abs(v - point), initial=0.0) <= tol:
                vertex_ids.append(vid)
                break
        else:
            vertices.append(point)
            vertex_ids.append(len(vertices) - 1)
    return vertices, vertex_ids


def enumerate_ledger(
    lp: StandardLp,
    tols: Tolerances = DEFAULT_TOLS,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> BasisLedger:
    """Exhaustively enumerate all dual feasible bases.

    Scans every m-subset of columns in lexicographic order, retains those
    whose submatrix is invertible and whose dual basic solution is feasible,
    and partitions them into the primal-feasible (optimal) prefix and the
    rest.  Optimal vertices are deduplicated in max-norm; the representative
    of each vertex is the lexicographically smallest basis generating it.
    """
    optimal: list[BasicSolutionPair] = []
    rest: list[BasicSolutionPair] = []
    for pair in _scan(lp, tols, enumeration_cap, primal=False):
        if pair.dual_feasible:
            (optimal if pair.primal_feasible else rest).append(pair)
    if not optimal and not rest:
        raise NoDualFeasibleBasis("no dual feasible basis exists")

    vertices, vertex_ids = dedup_vertices([p.primal for p in optimal], tols.dedup_tol)
    value = float(lp.cost @ optimal[0].primal) if optimal else math.nan
    pairs = tuple(optimal + rest)
    return BasisLedger(
        lp=lp,
        bases=tuple(p.basis for p in pairs),
        pairs=pairs,
        optimal_count=len(optimal),
        optimal_value=value,
        primal_optimal_vertices=tuple(vertices),
        vertex_ids=tuple(vertex_ids),
    )


def optimality_set(ledger: BasisLedger) -> OptimalitySet:
    """Deduplicated optimal vertex set; the optimality polytope is their convex hull."""
    if ledger.optimal_count == 0:
        raise Infeasible("no basis is simultaneously primal and dual feasible")
    return OptimalitySet(vertices=ledger.primal_optimal_vertices, value=ledger.optimal_value)


def solve_min_index(
    lp: StandardLp,
    tols: Tolerances = DEFAULT_TOLS,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> BasicSolutionPair:
    """Deterministic reference solve: lexicographically smallest optimal basis.

    Scans bases in lexicographic order and returns the first one that is
    both primal and dual feasible.  Raises Infeasible when no basis is
    primal feasible and Unbounded when the dual is infeasible everywhere.
    """
    saw_primal = False
    saw_dual = False
    for pair in _scan(lp, tols, enumeration_cap, primal=True):
        saw_primal = saw_primal or pair.primal_feasible
        saw_dual = saw_dual or pair.dual_feasible
        if pair.primal_feasible and pair.dual_feasible:
            return pair
    if not saw_primal:
        raise Infeasible("no primal feasible basis exists")
    if not saw_dual:
        raise Unbounded("primal feasible but no dual feasible basis exists")
    raise LpLimitsError(
        "primal and dual feasible bases both exist but never coincide; "
        "the problem sits on a tolerance boundary"
    )


def _recession_direction_exists(lp: StandardLp, restrict_cost: bool) -> bool:
    """True when {h : Ah = 0, h >= 0, sum h = 1 (, c'h <= 0)} is feasible."""
    m, d = lp.n_rows, lp.n_cols
    a_eq = np.vstack([lp.constraint_matrix, np.ones((1, d))])
    b_eq = np.concatenate([np.zeros(m), [1.0]])
    a_ub = lp.cost.reshape(1, -1) if restrict_cost else None
    b_ub = np.zeros(1) if restrict_cost else None
    res = scipy.optimize.linprog(
        np.zeros(d), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    return res.status == 0


def _slater_holds(lp: StandardLp, tols: Tolerances) -> bool:
    """True when the feasible set contains a strictly positive point."""
    m, d = lp.n_rows, lp.n_cols
    # variables (x, t): maximize t subject to Ax = b, x - t >= 0, x >= 0
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    a_eq = np.hstack([lp.constraint_matrix, np.zeros((m, 1))])
    a_ub = np.hstack([-np.eye(d), np.ones((d, 1))])
    res = scipy.optimize.linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(d), A_eq=a_eq, b_eq=lp.rhs,
        bounds=[(0, None)] * d + [(None, None)], method="highs",
    )
    return res.status == 0 and -res.fun > tols.feas_tol


def check_assumptions(
    lp: StandardLp,
    ledger: Optional[BasisLedger] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> AssumptionReport:
    """Report the structural flags the limit theory depends on.

    a1: the optimality set is nonempty and bounded (recession-cone test).
    a2: the optimum is unique (single deduplicated vertex).
    a3: all optimal dual basic solutions are pairwise distinct; when false
        the witness is the lexicographically first coinciding pair of
        ledger indices.
    slater: an interior (strictly positive) feasible point exists.
    bounded: the feasible polytope is bounded, via the entrywise-nonnegative
        sufficient test or the recession-cone test.
    """
    if ledger is None:
        ledger = enumerate_ledger(lp, tols)
    k = ledger.optimal_count
    a1 = k >= 1 and not _recession_direction_exists(lp, restrict_cost=True)
    a2 = k >= 1 and len(ledger.primal_optimal_vertices) == 1
    a3 = k >= 1
    witness = None
    duals = ledger.optimal_duals()
    for j in range(k):
        for l in range(j + 1, k):
            if np.max(np.abs(duals[j] - duals[l]), initial=0.0) <= tols.dedup_tol:
                a3 = False
                witness = (j, l)
                break
        if witness is not None:
            break
    A = lp.constraint_matrix
    nonneg_test = bool(np.all(A >= 0) and np.all(np.abs(A).sum(axis=0) > 0))
    bounded = nonneg_test or not _recession_direction_exists(lp, restrict_cost=False)
    return AssumptionReport(
        a1_bounded_nonempty_optimum=a1,
        a2_unique_optimum=a2,
        a3_distinct_optimal_duals=a3,
        a3_witness=witness,
        slater=_slater_holds(lp, tols),
        bounded=bounded,
    )


def lp_from_dict(payload: dict, tols: Tolerances = DEFAULT_TOLS) -> StandardLp:
    """Build an LP from the JSON problem form {"A": [[...]], "b": [...], "c": [...]}.

    Validation errors name the offending field and the row/column position.
    """
    for key in ("A", "b", "c"):
        if key not in payload:
            raise DimensionMismatch(f"problem JSON is missing required field '{key}'")
    rows = payload["A"]
    if not isinstance(rows, list) or not rows:
        raise DimensionMismatch("field 'A' must be a nonempty list of rows")
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DimensionMismatch(f"field 'A' row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionMismatch(
                f"field 'A' row {i} has length {len(row)}, expected {width}"
            )
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise DimensionMismatch(f"field 'A' entry at row {i}, column {j} is not a number")
    for key in ("b", "c"):
        vec = payload[key]
        if not isinstance(vec, list):
            raise DimensionMismatch(f"field '{key}' must be a list")
        for j, entry in enumerate(vec):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise DimensionMismatch(f"field '{key}' entry at position {j} is not a number")
    names = payload.get("names")
    return make_lp(rows, payload["b"], payload["c"], names=names, tols=tols)
