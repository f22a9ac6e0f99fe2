"""Standard-form linear programs and exact small-scale basis machinery.

A problem is the triple (A, b, c) with full-row-rank A: minimize c'x
subject to Ax = b, x >= 0.  The downstream limit-law constructions consume
*all* dual feasible bases, not just one optimal basis, so the ledger holds
every one of them.  Dual feasibility does not depend on b: the ledger is
the set of feasible bases of the pointed polyhedron {y : A'y <= c}, found
by a walk over single column exchanges from one HiGHS dual simplex start,
in time proportional to the ledger rather than to C(d, m).  Each basis
the walk proposes is inverted once; that inverse gives its basic pair, its
exchange rows and its entry of ``BasisLedger.inverses``.
"""

from __future__ import annotations

import math
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
    NonConvergence,
    RankDeficient,
    SingularBasis,
    Unbounded,
)
from .tolerances import DEFAULT_TOLS, Tolerances

DEFAULT_ENUMERATION_CAP = 2_000_000

# The walk proposes an exchange when its predicted reduced costs stay above
# -_WALK_SLACK * feas_tol; the wider band than the pair's -feas_tol absorbs
# the rounding of the prediction, and the proposed basis's own pair decides.
_WALK_SLACK = 10.0


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
    basis to the deduplicated vertex it induces.  ``inverses`` is the
    read-only ``(n_bases, m, m)`` stack of basis inverses in ledger order,
    the ones the walk made; cones, limit law, pushed-forward covariance and
    resampling solver all read them here.
    """

    lp: StandardLp
    bases: tuple[Basis, ...]
    pairs: tuple[BasicSolutionPair, ...]
    optimal_count: int
    optimal_value: float
    primal_optimal_vertices: tuple[np.ndarray, ...]
    vertex_ids: tuple[int, ...]
    inverses: np.ndarray

    def optimal_pairs(self) -> tuple[BasicSolutionPair, ...]:
        return self.pairs[: self.optimal_count]

    def optimal_duals(self) -> np.ndarray:
        return np.array([p.dual for p in self.optimal_pairs()])


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


def _as_matrix(A) -> np.ndarray:
    arr = np.array(A, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"A must be a 2-d matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("A contains non-finite entries")
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


def _invert_basis(lp: StandardLp, indices: Sequence[int], tols: Tolerances):
    """(pair, inverse) of one basis, both from the basis's one inverse.

    The basis is singular, and SingularBasis is raised, when the inverse
    fails or when ||B||_1 ||B^-1||_1 rank_tol is not below 1 (a NaN too).
    """
    idx = list(indices)
    sub = lp.constraint_matrix[:, idx]
    try:
        inverse = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        inverse = None
    if inverse is None or not (
        np.linalg.norm(sub, 1) * np.linalg.norm(inverse, 1) * tols.rank_tol < 1.0
    ):
        raise SingularBasis(f"submatrix for columns {tuple(indices)} is singular")
    x_basic = inverse @ lp.rhs
    dual = lp.cost[idx] @ inverse
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
    ), inverse


def basic_pair(lp: StandardLp, basis, tols: Tolerances = DEFAULT_TOLS) -> BasicSolutionPair:
    """Primal and dual basic solutions for one basis, with all flags populated."""
    indices = tuple(basis.indices if isinstance(basis, Basis) else basis)
    if len(indices) != lp.n_rows:
        raise DimensionMismatch(f"basis must have {lp.n_rows} indices, got {len(indices)}")
    return _invert_basis(lp, indices, tols)[0]


def _start_basis(lp: StandardLp) -> tuple[int, ...]:
    """A dual feasible basis from one HiGHS dual simplex solve.

    Dual feasibility does not depend on the rhs, so the solve uses the
    strictly feasible rhs ``A @ w`` with a generic w > 0: its optimum is
    primal nondegenerate, so the returned dual is a vertex of
    {y : A'y <= c}.  The basis is the first independent m columns in order
    of increasing |reduced cost| under that dual.
    """
    A = lp.constraint_matrix
    w = np.random.default_rng(0).uniform(1.0, 2.0, lp.n_cols)  # fixed, so the walk is deterministic
    res = scipy.optimize.linprog(
        lp.cost, A_eq=A, b_eq=A @ w, bounds=(0, None),
        method="highs-ds", options={"presolve": False},
    )
    if res.status == 3:
        raise NoDualFeasibleBasis("no dual feasible basis exists")
    if res.status != 0:
        raise NonConvergence(f"HiGHS dual simplex stopped: {res.message}")
    reduced = lp.cost - A.T @ res.eqlin.marginals
    chosen: list[int] = []
    for j in np.argsort(np.abs(reduced), kind="stable"):
        if np.linalg.matrix_rank(A[:, chosen + [j]]) > len(chosen):
            chosen.append(int(j))
    return tuple(sorted(chosen))


def _walk(lp: StandardLp, tols: Tolerances, enumeration_cap: int):
    """(pair, inverse) of every dual feasible basis: (primal feasible, the rest), each sorted.

    The dual feasible bases are the feasible bases of the pointed polyhedron
    {y : A'y <= c}, and single column exchanges connect them.  From a basis
    with reduced costs r and pivot rows alpha = B^-1 A, exchanging basic
    position i for column j gives reduced costs r + t alpha[i] with
    t = -r_j / alpha_ij.  The walk proposes the exchange when every entry
    stays above ``-_WALK_SLACK * feas_tol``: the dual ratio test with ties,
    plus the degenerate exchanges of tight columns.  Every proposed basis
    goes once through ``_invert_basis``, so its pair, its verdict and its
    alpha come from one inverse; ``enumeration_cap`` bounds the number of
    proposed bases.
    """
    A = lp.constraint_matrix
    frontier = [_start_basis(lp)]
    seen = set(frontier)
    found: list[tuple[BasicSolutionPair, np.ndarray]] = []
    while frontier:
        if len(seen) > enumeration_cap:
            raise EnumerationCapExceeded(f"the basis walk proposed over {enumeration_cap} bases")
        indices = frontier.pop()
        try:
            pair, inverse = _invert_basis(lp, indices, tols)
        except SingularBasis:
            continue
        if not pair.dual_feasible:
            continue
        found.append((pair, inverse))
        alpha = inverse @ A
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -pair.reduced_costs / alpha
            bound = t - _WALK_SLACK * tols.feas_tol / alpha
        upper = np.where(alpha < 0.0, bound, np.inf).min(axis=1, keepdims=True)
        lower = np.where(alpha > 0.0, bound, -np.inf).max(axis=1, keepdims=True)
        proposed = (alpha != 0.0) & (lower <= t) & (t <= upper)
        proposed[:, list(indices)] = False
        for i, j in zip(*np.nonzero(proposed)):
            nxt = tuple(sorted(indices[:i] + indices[i + 1 :] + (int(j),)))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if not found:
        raise NoDualFeasibleBasis("no dual feasible basis exists")
    found.sort(key=lambda f: f[0].basis.indices)
    return [f for f in found if f[0].primal_feasible], [f for f in found if not f[0].primal_feasible]


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
    """Enumerate all dual feasible bases by walking the dual feasible basis graph.

    Retains every basis whose submatrix is invertible and whose dual basic
    solution is feasible, and partitions them into the primal-feasible
    (optimal) prefix and the rest, each ordered lexicographically.  Optimal
    vertices are deduplicated in max-norm; the representative of each
    vertex is the lexicographically smallest basis generating it.
    """
    optimal, rest = _walk(lp, tols, enumeration_cap)
    pairs, inverses = zip(*optimal, *rest)
    vertices, vertex_ids = dedup_vertices([p.primal for p, _ in optimal], tols.dedup_tol)
    value = float(lp.cost @ pairs[0].primal) if optimal else math.nan
    stack = np.stack(inverses)
    stack.flags.writeable = False
    return BasisLedger(
        lp=lp,
        bases=tuple(p.basis for p in pairs),
        pairs=pairs,
        optimal_count=len(optimal),
        optimal_value=value,
        primal_optimal_vertices=tuple(vertices),
        vertex_ids=tuple(vertex_ids),
        inverses=stack,
    )


def optimality_set(ledger: BasisLedger) -> OptimalitySet:
    """Deduplicated optimal vertex set; the optimality polytope is their convex hull."""
    if ledger.optimal_count == 0:
        raise Infeasible("no basis is simultaneously primal and dual feasible")
    return OptimalitySet(vertices=ledger.primal_optimal_vertices, value=ledger.optimal_value)


def solve_min_index(lp: StandardLp, tols: Tolerances = DEFAULT_TOLS) -> BasicSolutionPair:
    """Deterministic reference solve: lexicographically smallest optimal basis.

    Returns the first pair of the ledger's optimal prefix.  When that prefix
    is empty, one HiGHS feasibility solve decides the error: Infeasible
    without a feasible point, Unbounded when no basis is dual feasible, and
    otherwise LpLimitsError (the problem sits on a tolerance boundary).
    """
    try:
        optimal, _ = _walk(lp, tols, DEFAULT_ENUMERATION_CAP)
    except NoDualFeasibleBasis:
        optimal = None
    if optimal:
        return optimal[0][0]
    feasibility = scipy.optimize.linprog(
        np.zeros(lp.n_cols), A_eq=lp.constraint_matrix, b_eq=lp.rhs, bounds=(0, None), method="highs"
    )
    if feasibility.status != 0:
        raise Infeasible("no primal feasible basis exists")
    if optimal is None:
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
