"""Standard-form linear programs and exact small-scale basis machinery.

A problem is the triple (A, b, c) with full-row-rank A: minimize c'x
subject to Ax = b, x >= 0.  The downstream limit-law constructions consume
*all* dual feasible bases, not just one optimal basis, so the ledger holds
every one of them.  Dual feasibility does not depend on b: the ledger is
the set of feasible bases of the pointed polyhedron {y : A'y <= c}, found
by a walk over single column exchanges in time proportional to the ledger
rather than to C(d, m).  The walk of a transport LP starts at the spanning
tree of its row-minimum potentials (``StandardLp.dual_start``); any other
LP starts at one HiGHS dual simplex solve.  The walk takes its frontier in
blocks and inverts each block as one stack, so each basis it proposes is
inverted once; that inverse gives its exchange rows and, for an optimal
basis, its basic pair and its entry of ``BasisLedger.inverses``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

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
# The walk solves its frontier in blocks whose stacked pivot rows B^-1 A take
# at most this many bytes; the ratio test holds a few such arrays at once.
# The resampling solver inverts its bases in blocks of at most this many bytes.
_WALK_BLOCK_BYTES = 2**22


@dataclass(frozen=True, eq=False)
class StandardLp:
    """Validated standard-form LP: minimize cost @ x s.t. matrix @ x = rhs, x >= 0.

    ``dual_start``, when set, is a basis known to be dual feasible; the
    basis walk starts there instead of at a HiGHS solve.
    ``interior_margin``, when set, is max over feasible x of min(1, min_i x_i)
    in closed form; the Slater check reads it instead of solving an LP.
    """

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    variable_names: Optional[tuple[str, ...]] = None
    dual_start: Optional[tuple[int, ...]] = None
    interior_margin: Optional[float] = None

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
        idx = tuple(map(int, self.indices))
        if any(map(operator.le, idx[1:], idx)):
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

    ``bases`` is the read-only ``(n_bases, m)`` integer array of their
    columns: rows ``[:optimal_count]`` are primal and dual feasible (hence
    optimal), the remainder dual feasible only, each part ordered
    lexicographically.  ``pairs`` and ``inverses`` (read-only, ``(optimal_count,
    m, m)``, the walk's own) belong to the optimal prefix, the only bases
    cones, limit law and pushed-forward covariance read; the resampling
    solver inverts the others itself.  ``vertex_ids[k]`` maps an optimal
    basis to the deduplicated vertex it induces.  ``tols`` are the
    tolerances the ledger was built at; every reader of the ledger uses them.
    """

    lp: StandardLp
    bases: np.ndarray
    pairs: tuple[BasicSolutionPair, ...]
    optimal_count: int
    optimal_value: float
    primal_optimal_vertices: tuple[np.ndarray, ...]
    vertex_ids: tuple[int, ...]
    inverses: np.ndarray
    tols: Tolerances

    def optimal_duals(self) -> np.ndarray:
        return np.array([p.dual for p in self.pairs])


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


def _solve_block(lp: StandardLp, rows: np.ndarray, tols: Tolerances):
    """(rows, inverses, x_basic, dual, reduced) of the nonsingular bases among ``rows`` (k, m).

    One stacked ``np.linalg.inv`` inverts the block.  A basis is singular
    when its inverse fails or when ||B||_1 ||B^-1||_1 rank_tol is not below
    1 (a NaN too).  Each product is one BLAS call per basis, the one the
    one-basis product makes, so every number is bit-equal to that basis's
    own ``inv(B)``, ``inv(B) @ b``, ``c_B @ inv(B)`` and ``c - A.T @ y``;
    a GEMM over the stack (``c - Y @ A``) would round differently.
    """
    A = lp.constraint_matrix
    # subs[j] is A[:, rows[j]], laid out so that its 1-norm adds the rows in
    # order, as np.linalg.norm(A[:, rows[j]], 1) does
    subs = A[:, rows].transpose(1, 0, 2)
    try:
        inverses = np.linalg.inv(subs)
    except np.linalg.LinAlgError:  # one exactly singular basis fails the stack
        inverses = np.full(subs.shape, np.nan)
        for j, sub in enumerate(subs):
            try:
                inverses[j] = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                pass
    norms = np.abs(subs).sum(axis=1).max(axis=1) * np.abs(inverses).sum(axis=1).max(axis=1)
    regular = norms * tols.rank_tol < 1.0
    if not regular.all():
        rows, inverses = rows[regular], inverses[regular]
    dual = np.matmul(lp.cost[rows][:, None, :], inverses)[:, 0]
    reduced = lp.cost - np.matmul(A.T, dual[..., None])[..., 0]
    return rows, inverses, inverses @ lp.rhs, dual, reduced


def _pairs(lp: StandardLp, rows, x_basic, dual, reduced, tols: Tolerances) -> list[BasicSolutionPair]:
    """The ``BasicSolutionPair`` of each basis of a solved block, its four flags taken over the block."""
    k, m = rows.shape
    primal = np.zeros((k, lp.n_cols))
    primal[np.arange(k)[:, None], rows] = x_basic
    flags = zip(
        (x_basic.min(axis=1) >= -tols.feas_tol).tolist(),
        (reduced.min(axis=1) >= -tols.feas_tol).tolist(),
        ((primal > tols.feas_tol).sum(axis=1) < m).tolist(),
        ((np.abs(reduced) <= tols.feas_tol).sum(axis=1) > m).tolist(),
    )
    # the objective is one dot per basis, as a lone pair makes it
    return [
        BasicSolutionPair(Basis(indices), x, y, r, *flag, objective=float(np.dot(x, lp.cost)))
        for indices, x, y, r, flag in zip(map(tuple, rows.tolist()), primal, dual, reduced, flags)
    ]


def basic_pair(lp: StandardLp, basis, tols: Tolerances = DEFAULT_TOLS) -> BasicSolutionPair:
    """Primal and dual basic solutions for one basis, with all flags populated."""
    indices = tuple(basis.indices if isinstance(basis, Basis) else basis)
    if len(indices) != lp.n_rows:
        raise DimensionMismatch(f"basis must have {lp.n_rows} indices, got {len(indices)}")
    rows, _, x_basic, dual, reduced = _solve_block(lp, np.array([indices], dtype=np.intp), tols)
    if not len(rows):
        raise SingularBasis(f"submatrix for columns {indices} is singular")
    return _pairs(lp, rows, x_basic, dual, reduced, tols)[0]


def _start_basis(lp: StandardLp) -> tuple[int, ...]:
    """A dual feasible basis from one HiGHS dual simplex solve: the start without a ``dual_start``.

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
    """(bases, inverses, x_basic, dual, reduced): every dual feasible basis, the optimal ones solved.

    ``bases`` holds the columns of every kept basis in ledger order, primal
    feasible first, each part sorted by index tuple; the other four arrays
    belong to its primal feasible prefix, in the same order.

    The dual feasible bases are the feasible bases of the pointed polyhedron
    {y : A'y <= c}, and single column exchanges connect them.  From a basis
    with reduced costs r and pivot rows alpha = B^-1 A, exchanging basic
    position i for column j gives reduced costs r + t alpha[i] with
    t = -r_j / alpha_ij.  The walk proposes the exchange when every entry
    stays above ``-_WALK_SLACK * feas_tol``: the dual ratio test with ties,
    plus the degenerate exchanges of tight columns.  Every proposed basis is
    solved once, in a block of the frontier (``_solve_block``), so its
    solution, its verdict and its alpha come from one inverse;
    ``enumeration_cap`` bounds the number of proposed bases.

    The walk starts at ``lp.dual_start`` when it is set.  Should that basis
    fail its verdict (rounding on costs of very large magnitude), and for
    every LP without one, it starts at ``_start_basis`` instead; the sorted
    result does not depend on the start, nor on the order of the walk.
    """
    kept = _walk_from(lp, lp.dual_start, tols, enumeration_cap) if lp.dual_start is not None else None
    if kept is None:
        kept = _walk_from(lp, _start_basis(lp), tols, enumeration_cap)
    if kept is None:
        raise NoDualFeasibleBasis("no dual feasible basis exists")
    rest, rows, *solutions = kept
    order = np.lexsort(rows.T[::-1])
    bases = np.concatenate([rows[order], rest[np.lexsort(rest.T[::-1])]], dtype=np.intp)
    bases.flags.writeable = False
    return (bases, *(a[order] for a in solutions))


def _walk_from(lp: StandardLp, start: tuple[int, ...], tols: Tolerances, enumeration_cap: int):
    """The dual feasible bases the walk reaches from ``start``, or None if none.

    Six arrays, in the order the walk kept the bases: the columns of those
    that are not primal feasible, then the columns, inverses, x_basic, dual
    and reduced (``_solve_block``) of those that are.  Columns are held in
    the narrowest unsigned type of a column index, the type of the keys of
    ``seen`` too.  Each array grows block by block in a bytearray, in place,
    so what is kept is stored once and never interleaves with the blocks'
    temporaries on the heap, and the other bases' solutions are dropped once
    their exchanges are proposed.  The frontier is taken in blocks whose
    pivot rows take at most ``_WALK_BLOCK_BYTES``.  ``seen`` holds every
    proposed basis, so each is checked and solved once, and the cap counts
    the same bases, whatever the order of the walk.
    """
    A = lp.constraint_matrix
    m, d = A.shape
    size = max(1, _WALK_BLOCK_BYTES // (8 * m * d))
    narrow = np.min_scalar_type(d)
    frontier = np.array([start], dtype=np.intp)
    seen = {frontier.astype(narrow).tobytes()}
    kept = [bytearray() for _ in range(6)]
    while len(frontier):
        if len(seen) > enumeration_cap:
            raise EnumerationCapExceeded(f"the basis walk proposed over {enumeration_cap} bases")
        block = _solve_block(lp, frontier[:size], tols)
        frontier = frontier[size:]
        keep = block[-1].min(axis=1) >= -tols.feas_tol  # dual feasible
        if not keep.any():
            continue
        if not keep.all():
            block = tuple(a[keep] for a in block)
        rows, inverses, x_basic, _, reduced = block
        optimal = x_basic.min(axis=1) >= -tols.feas_tol  # primal feasible too
        kept[0].extend(rows[~optimal].astype(narrow))
        kept[1].extend(rows[optimal].astype(narrow))
        for store, a in zip(kept[2:], block[1:]):
            store.extend(a[optimal])
        proposed = _exchanges(A, rows, inverses, reduced, tols)
        keys = proposed.astype(narrow).view(np.dtype((np.void, narrow.itemsize * m))).ravel().tolist()
        fresh = []
        for j, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(j)
        frontier = np.concatenate([frontier, proposed[fresh]])
    if not (kept[0] or kept[1]):
        return None
    shapes = ((narrow, m), (narrow, m), (float, m, m), (float, m), (float, m), (float, d))
    return [np.frombuffer(store, dtype).reshape(-1, *shape) for store, (dtype, *shape) in zip(kept, shapes)]


def _exchanges(A: np.ndarray, rows: np.ndarray, inverses: np.ndarray, reduced: np.ndarray,
               tols: Tolerances) -> np.ndarray:
    """The sorted index rows of every exchange the ratio test proposes from a block of kept bases.

    Only the nonzero pivot entries take part: the bounds are extremes over
    the entries of one sign, and an exchange needs alpha_ij != 0.  So the
    test runs on those entries alone (one in three on generic transport at
    N=4, one in five at N=9), each number formed as the dense test forms it.
    """
    k, m = rows.shape
    d = A.shape[1]
    alpha = (inverses @ A).ravel()
    entry = np.flatnonzero(alpha != 0.0)  # ordered by (basis, position, column)
    alpha = alpha[entry]
    line = entry // d  # basis * m + position
    column = entry - line * d
    basis = line // m
    cell = basis * d + column  # (basis, column) in a flat (k, d) array
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -reduced.ravel()[cell] / alpha
        bound = t - _WALK_SLACK * tols.feas_tol / alpha
    starts = np.flatnonzero(np.concatenate(([True], line[1:] != line[:-1])))
    upper = np.full(k * m, np.inf)
    upper[line[starts]] = np.minimum.reduceat(np.where(alpha < 0.0, bound, np.inf), starts)
    lower = np.full(k * m, -np.inf)
    lower[line[starts]] = np.maximum.reduceat(np.where(alpha > 0.0, bound, -np.inf), starts)
    basic = np.zeros((k, d), dtype=bool)
    basic[np.arange(k)[:, None], rows] = True
    hit = np.flatnonzero((lower[line] <= t) & (t <= upper[line]) & ~basic.ravel()[cell])
    nxt = rows[basis[hit]]
    nxt[np.arange(len(hit)), (line - basis * m)[hit]] = column[hit]
    nxt.sort(axis=1)
    return nxt


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

    Retains the columns of every basis whose submatrix is invertible and
    whose dual basic solution is feasible, and the basic pair and inverse of
    the primal feasible (optimal) ones, which come first; each part is
    ordered lexicographically.  Optimal vertices are deduplicated in
    max-norm; the representative of each vertex is the lexicographically
    smallest basis generating it.
    """
    bases, inverses, *solutions = _walk(lp, tols, enumeration_cap)
    pairs = tuple(_pairs(lp, bases[: len(inverses)], *solutions, tols))
    vertices, vertex_ids = dedup_vertices([p.primal for p in pairs], tols.dedup_tol)
    value = float(lp.cost @ pairs[0].primal) if pairs else math.nan
    inverses.flags.writeable = False
    return BasisLedger(
        lp=lp,
        bases=bases,
        pairs=pairs,
        optimal_count=len(pairs),
        optimal_value=value,
        primal_optimal_vertices=tuple(vertices),
        vertex_ids=tuple(vertex_ids),
        inverses=inverses,
        tols=tols,
    )


def solve_min_index(lp: StandardLp, tols: Tolerances = DEFAULT_TOLS) -> BasicSolutionPair:
    """Deterministic reference solve: lexicographically smallest optimal basis.

    Returns the first pair of the ledger's optimal prefix.  When that prefix
    is empty, one HiGHS feasibility solve decides the error: Infeasible
    without a feasible point, Unbounded when no basis is dual feasible, and
    otherwise LpLimitsError (the problem sits on a tolerance boundary).
    """
    try:
        bases, inverses, *solutions = _walk(lp, tols, DEFAULT_ENUMERATION_CAP)
    except NoDualFeasibleBasis:
        bases = None
    else:
        if len(inverses):
            return _pairs(lp, bases[:1], *(a[:1] for a in solutions), tols)[0]
    feasibility = scipy.optimize.linprog(
        np.zeros(lp.n_cols), A_eq=lp.constraint_matrix, b_eq=lp.rhs, bounds=(0, None), method="highs"
    )
    if feasibility.status != 0:
        raise Infeasible("no primal feasible basis exists")
    if bases is None:
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
    """True when the feasible set contains a strictly positive point: one with min_i x_i > feas_tol."""
    if lp.interior_margin is not None:
        return lp.interior_margin > tols.feas_tol
    m, d = lp.n_rows, lp.n_cols
    # variables (x, t): maximize t <= 1 subject to Ax = b, x - t >= 0, x >= 0;
    # the cap keeps the LP bounded along a positive recession direction
    cost = np.zeros(d + 1)
    cost[-1] = -1.0
    a_eq = np.hstack([lp.constraint_matrix, np.zeros((m, 1))])
    a_ub = np.hstack([-np.eye(d), np.ones((d, 1))])
    res = scipy.optimize.linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(d), A_eq=a_eq, b_eq=lp.rhs,
        bounds=[(0, None)] * d + [(None, 1.0)], method="highs",
    )
    return res.status == 0 and -res.fun > tols.feas_tol


def check_assumptions(ledger: BasisLedger) -> AssumptionReport:
    """Report the structural flags the limit theory depends on, for ``ledger.lp`` at ``ledger.tols``.

    a1: the optimality set is nonempty and bounded: the recession-cone
        test, skipped when the entrywise-nonnegative test below already
        rules out every recession direction.
    a2: the optimum is unique (single deduplicated vertex).
    a3: all optimal dual basic solutions are pairwise distinct; when false
        the witness is the lexicographically first coinciding pair of
        ledger indices.
    slater: an interior (strictly positive) feasible point exists; read
        from ``lp.interior_margin`` when set, else one HiGHS solve.
    bounded: the feasible polytope is bounded, via the entrywise-nonnegative
        sufficient test or the recession-cone test.
    """
    lp = ledger.lp
    k = ledger.optimal_count
    A = lp.constraint_matrix
    # A >= 0 with no zero column: Ah = 0 and h >= 0 force h = 0
    nonneg_test = bool(np.all(A >= 0) and np.all(np.abs(A).sum(axis=0) > 0))
    a1 = k >= 1 and (nonneg_test or not _recession_direction_exists(lp, restrict_cost=True))
    a2 = k >= 1 and len(ledger.primal_optimal_vertices) == 1
    witness = None
    duals = ledger.optimal_duals()
    for j in range(k - 1):  # row j against every later row, first coinciding pair wins
        gaps = np.max(np.abs(duals[j] - duals[j + 1 :]), axis=1, initial=0.0)
        close = np.flatnonzero(gaps <= ledger.tols.dedup_tol)
        if close.size:
            witness = (j, j + 1 + int(close[0]))
            break
    bounded = nonneg_test or not _recession_direction_exists(lp, restrict_cost=False)
    return AssumptionReport(
        a1_bounded_nonempty_optimum=a1,
        a2_unique_optimum=a2,
        a3_distinct_optimal_duals=k >= 1 and witness is None,
        a3_witness=witness,
        slater=_slater_holds(lp, ledger.tols),
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
