"""Stability cones of optimal bases and the limit law of solution fluctuations.

Each optimal basis keeps being optimal exactly when the right-hand-side
perturbation direction stays inside a polyhedral cone.  The limiting
fluctuation of the optimal solution is a piecewise-linear (possibly
randomized) function of a Gaussian direction, assembled from those cones.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    CovarianceNotPSD,
    DimensionMismatch,
    Infeasible,
    LpLimitsError,
    NoFeasibleCone,
    NotUnique,
)
from .lp_core import BasisLedger
from .tolerances import DEFAULT_TOLS, Tolerances

_SPACING_BLOCK = 1024  # rows per keyed spacing block of the randomized tie-break
_PSD_TOL = 1e-10  # allowed covariance asymmetry and negative eigenvalue, times max(1, max |entry|)
# Multiply-adds per block of row_products.  OpenBLAS runs a GEMM of at most
# 65536 * 4 multiply-adds on the calling thread alone, so its helper threads stay asleep.
_PRODUCT_MACS = 1 << 18
# Up to this many columns, _row_extreme folds the columns: NumPy's reduction
# along a short row pays a set-up per row (0.9 ms against 0.02 ms for 20,000 x 2).
# Up to 8 entries it also takes a row one entry at a time, as the fold does;
# from 9 on it can keep the other zero of a tie of signed zeros.
_FOLD_COLUMNS = 8


def _integer(value, name: str, least: int = 1) -> int:
    """value as a Python int; DimensionMismatch for a bool, float, string or integer below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DimensionMismatch(f"{name}: expected an integer of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SupportPartition:
    """Partition of the variable indices of a unique optimum.

    pos: strictly positive coordinates.
    tz:  true zeroes, zero in every optimal basis.
    dz:  degenerate zeroes, zero but carried by some optimal basis.
    """

    pos: tuple[int, ...]
    tz: tuple[int, ...]
    dz: tuple[int, ...]


class Verdict(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class TieBreak(enum.Enum):
    MIN_INDEX = "min-index"
    UNIFORM_RANDOM_OVER_FEASIBLE = "uniform-random"


@dataclass(frozen=True, eq=False)
class ConeH:
    """Polyhedral cone of perturbation directions keeping one basis feasible.

    Dual descriptions: v belongs to the cone iff every row of
    ``halfspace_normals`` has nonnegative inner product with v, iff
    v = generator_matrix @ u with u nonnegative on ``j_rows``.  The normals
    are the ``j_rows`` rows of the basis inverse, truncated to the first
    ``m0`` coordinates when only those are perturbed.
    """

    basis_index: int
    halfspace_normals: np.ndarray
    generator_matrix: np.ndarray
    j_rows: tuple[int, ...]
    m0: int

    def products(self, v: np.ndarray) -> np.ndarray:
        """Halfspace inner products for one direction or a stack of them."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return self.halfspace_normals @ v
        return row_products(v, self.halfspace_normals.T)


@dataclass(frozen=True, eq=False)
class LimitLawSpec:
    """Everything needed to evaluate and sample the limiting fluctuation."""

    ledger: BasisLedger
    cones: tuple[ConeH, ...]
    tie_break: TieBreak
    covariance: np.ndarray
    m0: int
    rate_name: str

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (self.m0, self.m0):
            raise DimensionMismatch(
                f"covariance must be {self.m0}x{self.m0}, got {cov.shape}"
            )
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if np.abs(cov - cov.T).max(initial=0.0) > _PSD_TOL * scale:
            raise CovarianceNotPSD("covariance is not symmetric")
        if np.linalg.eigvalsh(cov).min() < -_PSD_TOL * scale:
            raise CovarianceNotPSD("covariance has a negative eigenvalue")
        if len(self.cones) != self.ledger.optimal_count:
            raise DimensionMismatch("need exactly one cone per optimal basis")
        sizes = {c.halfspace_normals.shape[0] for c in self.cones}
        if len(sizes) > 1:
            raise LpLimitsError("cones disagree on the number of half-spaces")
        for k, cone in enumerate(self.cones):
            if cone.basis_index != k or cone.m0 != self.m0:
                raise LpLimitsError("cone list is not aligned with the ledger")


def support_partition(ledger: BasisLedger, tols: Tolerances = DEFAULT_TOLS) -> SupportPartition:
    """Classify coordinates of the unique optimum into pos / tz / dz.

    The union of all optimal bases carries the positives and the degenerate
    zeroes; coordinates outside every optimal basis are true zeroes.
    """
    if ledger.optimal_count == 0:
        raise Infeasible("ledger has no optimal basis")
    if len(ledger.primal_optimal_vertices) != 1:
        raise NotUnique(
            f"optimum is not unique ({len(ledger.primal_optimal_vertices)} vertices)"
        )
    x_star = ledger.primal_optimal_vertices[0]
    d = ledger.lp.n_cols
    pos = {i for i in range(d) if x_star[i] > tols.feas_tol}
    union: set[int] = set()
    for k in range(ledger.optimal_count):
        union.update(ledger.bases[k].indices)
    tz = set(range(d)) - union
    dz = union - pos
    return SupportPartition(pos=tuple(sorted(pos)), tz=tuple(sorted(tz)), dz=tuple(sorted(dz)))


def build_cones(
    ledger: BasisLedger,
    partition: SupportPartition,
    m0: Optional[int] = None,
) -> tuple[ConeH, ...]:
    """One stability cone per optimal basis.

    The cone of basis k is cut out by the rows of the basis inverse whose
    basis column is not a positive coordinate of the optimum; with fewer
    random coordinates (m0 < m) the normals keep only the first m0 columns.
    """
    if ledger.optimal_count == 0:
        raise Infeasible("ledger has no optimal basis")
    m = ledger.lp.n_rows
    if m0 is None:
        m0 = m
    if not 1 <= m0 <= m:
        raise DimensionMismatch(f"m0 must lie in 1..{m}, got {m0}")
    pos = set(partition.pos)
    expected = m - len(pos)
    cones = []
    for k in range(ledger.optimal_count):
        idx = ledger.bases[k].indices
        j_rows = tuple(j for j, col in enumerate(idx) if col not in pos)
        if len(j_rows) != expected:
            raise LpLimitsError(
                f"basis {idx} does not carry every positive coordinate of the optimum"
            )
        normals = ledger.inverses[k][list(j_rows)][:, :m0].copy()
        normals.flags.writeable = False
        cones.append(
            ConeH(
                basis_index=k,
                halfspace_normals=normals,
                generator_matrix=ledger.lp.constraint_matrix[:, list(idx)],
                j_rows=j_rows,
                m0=m0,
            )
        )
    return tuple(cones)


def _row_extreme(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(values, axis=1)`` for ``np.minimum`` or ``np.maximum``, bit for bit.

    Up to ``_FOLD_COLUMNS`` columns it folds them in order as ``ufunc(acc,
    column)``, which keeps what the row reduction keeps on ties of signed
    zeros and on NaN.
    """
    if values.shape[1] > _FOLD_COLUMNS:
        return ufunc.reduce(values, axis=1)
    out = values[:, 0].copy()
    for column in values.T[1:]:
        ufunc(out, column, out=out)
    return out


def _smallest_products(cone: ConeH, g_matrix: np.ndarray) -> np.ndarray:
    """Smallest halfspace product of each row; +inf for a cone with no half-spaces."""
    if cone.halfspace_normals.shape[0] == 0:
        return np.full(g_matrix.shape[0], np.inf)
    return _row_extreme(np.minimum, cone.products(g_matrix))


def cone_contains(cone: ConeH, v, tol: float = DEFAULT_TOLS.boundary_tol) -> Verdict:
    """Tri-state membership of a direction in a cone.

    Boundary when the smallest halfspace product sits within [-tol, tol],
    Inside when it exceeds tol, Outside otherwise.  A cone with no
    half-spaces is all of the ambient space.  The limit law applies the
    same rule: a cone is feasible for a direction unless it is Outside.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.m0,):
        raise DimensionMismatch(f"direction must have length {cone.m0}, got {v.shape}")
    smallest = _smallest_products(cone, v[None])[0]
    if abs(smallest) <= tol:
        return Verdict.BOUNDARY
    if smallest >= -tol:
        return Verdict.INSIDE
    return Verdict.OUTSIDE


def limit_functional(spec: LimitLawSpec, g, seed: int = 0) -> np.ndarray:
    """Evaluate the limiting solution fluctuation at one direction.

    Row 0 of ``evaluate_limit(spec, g[None], seed)``: feasible cones are those
    whose membership verdict is not Outside (Boundary resolves to Inside).
    Min-index returns the basic fluctuation of the smallest feasible index; the
    randomized policy mixes all feasible ones with uniform simplex weights from
    row 0 of the seed's spacing stream.  A g of another shape is a DimensionMismatch.
    """
    return evaluate_limit(spec, np.asarray(g, dtype=float)[None], seed).samples[0]


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (rank-deficiency safe)."""
    cov = np.asarray(cov, dtype=float)
    scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
    vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    if vals.min() < -_PSD_TOL * scale:
        raise CovarianceNotPSD(f"covariance has eigenvalue {vals.min()}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True, eq=False)
class LimitSampleResult:
    """Monte-Carlo draws of the limit law plus bookkeeping counters."""

    samples: np.ndarray
    gaussian_directions: np.ndarray
    occupancy_counts: np.ndarray
    boundary_hits: np.ndarray
    seed: int

    @property
    def occupancy_frequencies(self) -> np.ndarray:
        total = max(1, self.samples.shape[0])
        return self.occupancy_counts / total


def spacing_blocks(key: tuple[int, ...], n_rows: int, n_cols: int):
    """(start, rows [start, start + B)) of the (n_rows, n_cols) exponential spacings of stream ``key``.

    The one source of the randomized tie-break's weights.  Block j, of
    B = ``_SPACING_BLOCK`` rows, comes from the generator of child j of
    ``SeedSequence(key)``, so row i depends only on (key, i).  Children, unlike
    ``default_rng((*key, j))``, never share a stream with ``default_rng(key)``:
    ``default_rng((seed, 0))`` is ``default_rng(seed)``.
    """
    for j, start in enumerate(range(0, n_rows, _SPACING_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(key, spawn_key=(j,)))
        yield start, rng.exponential(size=(min(_SPACING_BLOCK, n_rows - start), n_cols))


def row_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` in row blocks of at most ``_PRODUCT_MACS`` multiply-adds, or three rows if more.

    Bit-equal to the one product for a C-ordered ``left`` and a ``right`` that is the transpose of
    a C-ordered array, as at every call here: OpenBLAS's kernel for that layout does not round a
    row by the row count.  NumPy hands a one-row product and a one-column one to gemv instead, so
    the last block takes a row from the one before rather than hold one alone, and a one-column
    product is made in one call, since gemv rounds a row by its place in the call.
    """
    n = left.shape[0]
    step = max(3, _PRODUCT_MACS // max(1, right.shape[0] * right.shape[1]))
    if n <= step or right.shape[1] == 1:
        return left @ right
    starts = list(range(0, n, step))
    if n - starts[-1] == 1:
        starts[-1] -= 1
    out = np.empty((n, right.shape[1]), dtype=np.result_type(left, right))
    for start, stop in zip(starts, starts[1:] + [n]):
        out[start:stop] = left[start:stop] @ right
    return out


def basis_products(inverses: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Broadcast ``inverses @ vectors``, one matvec per entry: bit-equal to ``inverses[k] @ v``."""
    return np.matmul(inverses, vectors[..., None])[..., 0]


def uniform_mixture(feasible, spacings, coords, columns, n_cols: int) -> np.ndarray:
    """Uniform-simplex mixtures of the basic solutions ``coords`` of the feasible (row, k) pairs.

    Row i weights basis k by ``spacings[i, k]`` over its feasible k, normalised to sum to one, and
    adds the pair's coords (``np.nonzero(feasible)`` order) into ``columns[k]`` in ascending k.
    """
    masked = np.where(feasible, spacings, 0.0)
    totals = masked.sum(axis=1, keepdims=True)
    alpha = np.divide(masked, totals, out=np.zeros_like(masked), where=totals > 0)
    rows, bases = np.nonzero(feasible)
    parts = alpha[rows, bases, None] * coords
    out = np.zeros((feasible.shape[0], n_cols))
    for k in np.unique(bases):  # ascending
        out[np.ix_(rows[bases == k], columns[k])] += parts[bases == k]
    return out


def _limit_rows(spec: LimitLawSpec, g_matrix: np.ndarray, tol: float, seed: int):
    """Samples, occupancy counts and boundary counts of a stack of directions.

    Feasible and boundary follow ``cone_contains``.  A basic fluctuation is the
    zero-padded direction times ``spec.ledger.inverses[k]``; the randomized
    policy mixes the ``basis_products`` of each block of rows and their feasible
    bases with ``uniform_mixture`` on that block of ``spacing_blocks((seed,), n, K)``.
    """
    if not np.all(np.isfinite(g_matrix)):
        raise DimensionMismatch("directions contain non-finite entries")
    n_samples = g_matrix.shape[0]
    k_count = len(spec.cones)
    d = spec.ledger.lp.n_cols
    occupancy = np.zeros(k_count, dtype=np.int64)
    boundary = np.zeros(k_count, dtype=np.int64)
    if n_samples == 0:
        return np.zeros((0, d)), occupancy, boundary

    feasible = np.zeros((n_samples, k_count), dtype=bool)
    for k, cone in enumerate(spec.cones):
        smallest = _smallest_products(cone, g_matrix)
        feasible[:, k] = smallest >= -tol
        boundary[k] = int(np.sum(np.abs(smallest) <= tol))
    any_feasible = feasible.any(axis=1)
    if not np.all(any_feasible):
        bad = int(np.argmin(any_feasible))
        raise NoFeasibleCone(f"draw {bad} lies outside every stability cone")

    emb = np.zeros((n_samples, spec.ledger.lp.n_rows))
    emb[:, : spec.m0] = g_matrix
    inverses = spec.ledger.inverses
    columns = [list(spec.ledger.bases[k].indices) for k in range(k_count)]
    if spec.tie_break is TieBreak.MIN_INDEX:
        samples = np.zeros((n_samples, d))
        chosen = np.argmax(feasible, axis=1)
        for k in range(k_count):
            rows = np.flatnonzero(chosen == k)
            occupancy[k] = rows.size
            if rows.size:
                samples[np.ix_(rows, columns[k])] = row_products(emb[rows], inverses[k].T)
    else:
        occupancy[:] = feasible.sum(axis=0)
        samples = np.empty((n_samples, d))
        for start, spacings in spacing_blocks((seed,), n_samples, k_count):
            block = slice(start, start + len(spacings))
            rows, bases = np.nonzero(feasible[block])
            coords = basis_products(inverses[bases], emb[block][rows])
            samples[block] = uniform_mixture(feasible[block], spacings, coords, columns, d)
    return samples, occupancy, boundary


def evaluate_limit(
    spec: LimitLawSpec,
    directions: np.ndarray,
    seed: int = 0,
    tol: float = DEFAULT_TOLS.boundary_tol,
) -> LimitSampleResult:
    """Map a stack of externally supplied directions through the limit law.

    Accepts any finite (n, m0) array, so non-Gaussian direction streams
    plug in directly.  Boundary verdicts are counted per cone and resolved
    to Inside.  The randomized policy takes row i's spacings from row i of
    ``spacing_blocks((seed,), n, K)``, so results do not depend on n or on
    any chunking of the rows.  A seed that is not an integer of at least 0
    is a DimensionMismatch.
    """
    seed = _integer(seed, "seed", least=0)
    g_matrix = np.asarray(directions, dtype=float)
    if g_matrix.ndim != 2 or g_matrix.shape[1] != spec.m0:
        raise DimensionMismatch(f"directions must be an (n, {spec.m0}) array")
    samples, occupancy, boundary = _limit_rows(spec, g_matrix, tol, seed)
    return LimitSampleResult(samples, g_matrix, occupancy, boundary, seed)


def sample_limit(
    spec: LimitLawSpec,
    n_samples: int,
    seed: int,
    tol: float = DEFAULT_TOLS.boundary_tol,
) -> LimitSampleResult:
    """Draw the limit law at Gaussian directions, reproducibly by seed.

    Directions are N(0, covariance) through the symmetric PSD square root,
    then mapped by evaluate_limit under the spec's tie-break policy.  A sample
    count that is not an integer of at least 1, or a seed that is not an
    integer of at least 0, is a DimensionMismatch.
    """
    n_samples = _integer(n_samples, "n_samples")
    seed = _integer(seed, "seed", least=0)
    root = psd_sqrt(spec.covariance)
    rng = np.random.default_rng(seed)
    g_matrix = row_products(rng.standard_normal((n_samples, spec.m0)), root.T)
    return evaluate_limit(spec, g_matrix, seed=seed, tol=tol)


def optimal_value_limit(ledger: BasisLedger, g) -> Union[float, np.ndarray]:
    """Limiting fluctuation of the optimal value: best dual response to g.

    g: one direction of length k (a float back) or an (n, k) stack (n values back);
    the first k coordinates of the optimal duals respond, as m0 of a limit-law spec.
    """
    if ledger.optimal_count == 0:
        raise Infeasible("ledger has no optimal basis")
    G = np.asarray(g, dtype=float)
    if G.ndim not in (1, 2) or not 1 <= G.shape[-1] <= ledger.lp.n_rows:
        raise DimensionMismatch(f"g must be a direction or a stack of length 1..{ledger.lp.n_rows}")
    products = row_products(np.atleast_2d(G), ledger.optimal_duals()[:, : G.shape[-1]].T)
    values = _row_extreme(np.maximum, products)
    return float(values[0]) if G.ndim == 1 else values


def pushforward_covariance(ledger: BasisLedger, k: int, covariance: np.ndarray, m0: int) -> np.ndarray:
    """Covariance of the basic fluctuation of basis k under N(0, covariance) directions.

    The direction covariance lives on the first m0 coordinates and is pushed
    through the basis inverse, then scattered to the full variable space.
    """
    idx = list(ledger.bases[k].indices)
    inverse = ledger.inverses[k]
    m = ledger.lp.n_rows
    emb = np.zeros((m, m))
    emb[:m0, :m0] = covariance
    core = inverse @ emb @ inverse.T
    d = ledger.lp.n_cols
    out = np.zeros((d, d))
    out[np.ix_(idx, idx)] = core
    return out
