"""Monte-Carlo verification harness.

Resamples right-hand sides (one check of b per batch; the keyed generator
states of a batch are derived with vectorized SeedSequence and PCG64 seeding
arithmetic and loaded in turn into one generator), solves every replicate
with the limit functional's tie-break, and compares the scaled fluctuations,
optimal values, optimality sets and support patterns with their limits, on
the coordinates that are nonzero in some row.  The Hausdorff replicates of a
sample size are solved as one batch.

``run_experiment`` runs its stages in this order on the calling thread: the
limit law's specification, the limit draws (``sample_limit``), the
fluctuations (``fluctuation_run``), the KS statistics and covariance error,
the support frequencies and the Hausdorff replicates (``hausdorff_run``).
The energy distance's cdist blocks run on ``threads`` workers beside them:
the limit draws' Y-Y blocks are queued as soon as the draws exist, the X-Y
and X-X blocks as soon as the fluctuations do, and the first read of the
result's ``report`` joins them.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

from . import cones_limit, ot as ot_module
from .cones_limit import LimitSampleResult, SupportPartition, TieBreak, _integer, basis_products, sample_limit
from .errors import (
    DimensionMismatch,
    EmptySet,
    Infeasible,
    NonConvergence,
    TooManyInfeasible,
)
# enumerate_ledger is not called here: it stays as the alias lpbench's tracer wraps and checks
from .lp_core import BasisLedger, dedup_vertices, enumerate_ledger  # noqa: F401
from .ot import OneSample, OtProblem, TwoSample
from .tolerances import DEFAULT_TOLS, Tolerances

SampleSize = Union[int, tuple[int, int]]

# SeedSequence's hash constants and PCG64's multiplier (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_CDIST_BLOCK = 125  # rows per cdist task: 125 x 5000 distances are 5 MB per worker
_MAX_WORKERS = 4  # caps the output buffers at 20 MB whatever the host's CPU count
ENERGY_MAX_ROWS = 5000  # rows of each sample the energy distance reads
_VERTEX_BLOCK = 1 << 18  # basic coordinates per block of RepeatedSolver rows: 2 MB
PROJECTION_MAX_ITERS = 100_000  # Frank-Wolfe budget of point_to_polytope
PROJECTION_TOL = 1e-10  # duality gap at which point_to_polytope stops


def _integers(values, name: str) -> tuple[int, ...]:
    """A list or tuple of integers of at least 1, as a tuple of Python ints."""
    if not isinstance(values, (list, tuple)):
        raise DimensionMismatch(f"{name} must be a list, got {values!r}")
    return tuple(_integer(v, name) for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one resampling experiment; each default is the one an omitted config key takes."""

    sample_sizes: tuple[SampleSize, ...] = (10_000,)
    replicates: int = 200
    seed: int = 0
    mode: Union[OneSample, TwoSample] = OneSample()
    solver_policy: TieBreak = TieBreak.MIN_INDEX
    comparison_samples: int = 20_000
    hausdorff_sizes: tuple[int, ...] = ()
    hausdorff_replicates: int = 200

    def __post_init__(self):
        if not isinstance(self.sample_sizes, (list, tuple)) or not self.sample_sizes:
            raise DimensionMismatch(f"sample_sizes must be a nonempty list, got {self.sample_sizes!r}")
        # Python ints and (int, int) pairs from here on, whatever integer type came in
        sizes = tuple(
            _integers(n, "sample_sizes") if isinstance(n, (list, tuple))
            else _integer(n, "sample_sizes")
            for n in self.sample_sizes
        )
        if not isinstance(self.mode, (OneSample, TwoSample)):
            raise DimensionMismatch(f"mode must be OneSample() or TwoSample(lam), got {self.mode!r}")
        pair = 2 if isinstance(self.mode, TwoSample) else 0  # a one-sample size is n only
        if any(isinstance(n, tuple) and len(n) != pair for n in sizes):
            raise DimensionMismatch(f"sample_sizes entries must be n, or (n, m) in two-sample mode: {sizes}")
        checked = {"sample_sizes": sizes, "seed": _integer(self.seed, "seed", least=0),
                   "hausdorff_sizes": _integers(self.hausdorff_sizes, "hausdorff_sizes")}
        for name in ("replicates", "comparison_samples", "hausdorff_replicates"):
            checked[name] = _integer(getattr(self, name), name)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class UserSamples:
    """Externally supplied pool of right-hand sides, one drawn per replicate."""

    rows: np.ndarray


def resample_rhs(model, b, n: SampleSize, seed: int, replicates: int) -> np.ndarray:
    """replicates resampled right-hand sides, one per row; b is checked once.

    Row rep is drawn from ``np.random.default_rng((seed, *n, rep))``, an int n
    reading as (n,): the one rule for the streams of replicates.  The model is
    the sampling mode of a transport rhs b = (r[:N-1], s) of length 2N - 1.
    OneSample replaces the r block by the frequencies of n categorical draws
    from r; TwoSample also replaces the s block by those of m draws from s,
    with m = n for an int n.  UserSamples draws one of its rows, EmptySet when
    it has none.  A size or replicate count that is not an integer of at
    least 1, or a seed that is not an integer of at least 0, is a
    DimensionMismatch.
    """
    b = np.asarray(b, dtype=float)
    sizes = tuple(_integer(size, "n") for size in (n if isinstance(n, tuple) else (n,)))
    replicates = _integer(replicates, "replicates")
    rngs = _keyed_generators((_integer(seed, "seed", least=0), *sizes), replicates)
    if isinstance(model, UserSamples):
        rows = np.asarray(model.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != b.size:
            raise DimensionMismatch("user sample rows must match the rhs length")
        if rows.shape[0] == 0:
            raise EmptySet("the user sample pool has no rows")
        return rows[[int(rng.integers(rows.shape[0])) for rng in rngs]]
    if not isinstance(model, (OneSample, TwoSample)):
        raise DimensionMismatch(f"unknown resampling model {model!r}")
    if len(sizes) not in ((1,) if isinstance(model, OneSample) else (1, 2)):
        raise DimensionMismatch(f"{model!r} cannot resample at the sample size {n!r}")
    if b.size % 2 == 0:
        raise DimensionMismatch(f"rhs must have odd length 2N - 1, got {b.size}")
    N = (b.size + 1) // 2
    # the check make_ot_problem applies to r and s
    r = ot_module._check_probability(np.concatenate([b[: N - 1], [1.0 - b[: N - 1].sum()]]), "r")
    s = ot_module._check_probability(b[N - 1 :], "s")
    n_r, n_s = (sizes * 2)[:2]  # an int n means m = n
    p_r, p_s = (np.clip(v, 0.0, None) / v.sum() for v in (r, s))
    two_sample = isinstance(model, TwoSample)
    counts = np.zeros((replicates, 2, N), dtype=np.int64)
    for row, rng in zip(counts, rngs):
        row[0] = rng.multinomial(n_r, p_r)
        if two_sample:
            row[1] = rng.multinomial(n_s, p_s)
    out = np.tile(b, (replicates, 1))  # one-sample rows keep the s block of b
    out[:, : N - 1] = counts[:, 0, : N - 1] / float(n_r)
    if two_sample:
        out[:, N - 1 :] = counts[:, 1] / float(n_s)
    return out


def _keyed_generators(prefix: tuple, replicates: int):
    """One Generator, put in turn into the state ``np.random.default_rng((*prefix, rep))`` starts in."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in _pcg64_states(prefix, np.arange(replicates, dtype=np.uint64)):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _pcg64_states(prefix: tuple, reps: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.default_rng((*prefix, rep)).bit_generator`` for each uint64 rep.

    A key's uint32 words are the prefix's, then rep's one word (two from 2**32 on), so the
    keys of each word count form one array.  SeedSequence hashes them into a 4-word pool and
    ``generate_state(4, np.uint64)`` expands it, as uint32 array arithmetic.  PCG64 then
    seeds from (s, q) = (words 0-1, words 2-3): inc = 2q + 1 and state = (s + inc) * mult
    + inc, mod 2**128, as arithmetic on (high, low) uint64 limbs.
    """
    head = np.array(_entropy_words(prefix), np.uint32)
    words = np.empty((len(reps), 4), np.uint64)
    wide = reps > _MASK32
    for group, columns in ((~wide, [reps]), (wide, [reps & _MASK32, reps >> 32])):
        if group.any():
            tail = np.column_stack([column[group] for column in columns]).astype(np.uint32)
            words[group] = _seed_words(np.hstack([np.broadcast_to(head, (len(tail), head.size)), tail]))
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    t_hi, t_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
    p_hi = _mul_high(t_lo, m_lo) + t_lo * m_hi + t_hi * m_lo
    state_hi, state_lo = _add128(p_hi, t_lo * m_lo, inc_hi, inc_lo)
    return [((a << 64) | b, (c << 64) | d) for a, b, c, d in zip(
        state_hi.tolist(), state_lo.tolist(), inc_hi.tolist(), inc_lo.tolist())]


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(high, low) limbs of a + b mod 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _mul_high(a, b):
    """The high 64 bits of the 128-bit products a * b of uint64 values, from 32-bit halves."""
    a1, a0, b1, b0 = a >> 32, a & _MASK32, b >> 32, b & _MASK32
    cross_1, cross_2 = a1 * b0, a0 * b1
    middle = ((a0 * b0) >> 32) + (cross_1 & _MASK32) + (cross_2 & _MASK32)
    return a1 * b1 + (cross_1 >> 32) + (cross_2 >> 32) + (middle >> 32)


def _entropy_words(key) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from a tuple of non-negative integers."""
    words = []
    for value in key:
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """Row k is ``SeedSequence(entropy[k]).generate_state(4, np.uint64)`` of (K, L) uint32 words."""
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(entropy.shape[0], dtype=np.uint32)
    columns = list(entropy.T) + [zeros] * (4 - entropy.shape[1])  # short keys hash zeros
    pool = [hashmix(column) for column in columns[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[4:]:
        pool = [mix(word, hashmix(column)) for word in pool]
    hash_const = _INIT_B
    state = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)], axis=1)


class RepeatedSolver:
    """Solutions of one LP family over many right-hand sides, from its ledger.

    Dual feasibility of a basis does not depend on the right-hand side, so
    the dual feasible bases and their inverses (``BasisLedger.inverses``)
    are fixed once; each row is then a blocked feasibility scan in
    lexicographic basis order, which gives its min-index solution
    (``solve_batch``), its uniform mixture of optimal vertices
    (``mixed_solution``) or its optimal vertex set (``vertices_at``).
    ``ledger`` is the one source of the LP (``ledger.lp``) and of the
    optimum, optimal value and optimality set at ``lp.rhs``.
    """

    def __init__(self, ledger: BasisLedger, tols: Tolerances = DEFAULT_TOLS):
        self.ledger = ledger
        self.lp = ledger.lp
        self.tols = tols
        order = sorted(range(len(ledger.bases)), key=lambda k: ledger.bases[k].indices)
        self.inverses = ledger.inverses[order]
        self.columns = np.array([ledger.bases[k].indices for k in order]).reshape(-1, self.lp.n_rows)

    def _blocks(self, rhs_batch: np.ndarray):
        """(start, coords, feasible) per block of at most _VERTEX_BLOCK coordinates (or one row).

        coords[i, k] is ``basis_products`` of basis k and row start + i; feasible: all >= -feas_tol.
        """
        n_bases, m, _ = self.inverses.shape
        step = max(1, _VERTEX_BLOCK // max(1, n_bases * m))
        for start in range(0, rhs_batch.shape[0], step):
            coords = basis_products(self.inverses, rhs_batch[start : start + step, None])
            yield start, coords, (coords >= -self.tols.feas_tol).all(axis=2)

    def solve_batch(self, rhs_batch: np.ndarray):
        """Lexicographically-first feasible basis per row.

        Returns (solutions, values, chosen, feasible_any); rows with no
        feasible basis have NaN solutions and chosen = -1.
        """
        rhs_batch = np.asarray(rhs_batch, dtype=float)
        solutions = np.full((rhs_batch.shape[0], self.lp.n_cols), np.nan)
        chosen = np.full(rhs_batch.shape[0], -1)
        for start, coords, feasible in self._blocks(rhs_batch):
            rows = np.flatnonzero(feasible.any(axis=1))
            bases = np.argmax(feasible[rows], axis=1)
            chosen[start + rows] = bases
            solutions[start + rows] = 0.0
            solutions[(start + rows)[:, None], self.columns[bases]] = coords[rows, bases]
        return solutions, solutions @ self.lp.cost, chosen, chosen >= 0

    def mixed_solution(
        self, rhs_batch: np.ndarray, key: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform simplex mixture of all optimal vertices, per right-hand side.

        Row i's weights come from row i of ``cones_limit.spacing_blocks(key,
        R, n_bases)``, the limit law's stream, one block at a time.  Returns
        (solutions, feasible_any); rows with no feasible basis have NaN solutions.
        """
        rhs_batch = np.asarray(rhs_batch, dtype=float)
        solutions = np.empty((rhs_batch.shape[0], self.lp.n_cols))
        any_feasible = np.empty(rhs_batch.shape[0], dtype=bool)
        for first, spacings in cones_limit.spacing_blocks(key, rhs_batch.shape[0], len(self.columns)):
            for start, coords, feasible in self._blocks(rhs_batch[first : first + len(spacings)]):
                block = slice(first + start, first + start + len(feasible))
                solutions[block] = cones_limit.uniform_mixture(
                    feasible, spacings[start : start + len(feasible)], coords[feasible],
                    self.columns, self.lp.n_cols,
                )
                any_feasible[block] = feasible.any(axis=1)
        solutions[~any_feasible] = np.nan
        return solutions, any_feasible

    def vertices_at(self, rhs: np.ndarray) -> list[np.ndarray]:
        """Deduplicated optimal vertices of the problem with right-hand side rhs."""
        return next(self._vertex_sets(np.asarray(rhs, dtype=float)[None]))

    def _vertex_sets(self, rhs_batch: np.ndarray):
        """``vertices_at`` of each row, one block of rows at a time."""
        for _, coords, feasible in self._blocks(rhs_batch):
            rows, bases = np.nonzero(feasible)  # row by row, bases in ledger order
            points = np.zeros((rows.size, self.lp.n_cols))
            points[np.arange(rows.size)[:, None], self.columns[bases]] = coords[rows, bases]
            for row_points in np.split(points, np.cumsum(feasible.sum(axis=1))[:-1]):
                yield dedup_vertices(list(row_points), self.tols.dedup_tol)[0]


@dataclass(frozen=True, eq=False)
class FluctuationBatch:
    """Scaled fluctuations of one sample size, one row per feasible replicate."""

    sample_size: SampleSize
    rate: float
    fluctuations: np.ndarray
    value_fluctuations: np.ndarray
    solutions: np.ndarray
    infeasible_count: int

    @property
    def infeasible_rate(self) -> float:
        total = self.fluctuations.shape[0] + self.infeasible_count
        return self.infeasible_count / total if total else 0.0


def fluctuation_run(solver: RepeatedSolver, config: ExperimentConfig, model) -> list[FluctuationBatch]:
    """Scaled solution and value fluctuations under resampled right-hand sides.

    The centre is the ledger's first optimal vertex, its entries within feas_tol
    of zero set to 0 as ``support_partition`` reads them, and the optimal value.
    Every replicate is solved with the configured tie-break; replicates whose
    resampled problem is infeasible are dropped and counted, and more than 50%
    of them aborts the run.
    """
    ledger, lp = solver.ledger, solver.lp
    if ledger.optimal_count == 0:
        raise Infeasible("the base problem itself is infeasible")
    x_star = ledger.primal_optimal_vertices[0]
    x_star = np.where(np.abs(x_star) <= solver.tols.feas_tol, 0.0, x_star)
    value_star = ledger.optimal_value
    batches: list[FluctuationBatch] = []
    for n in config.sample_sizes:
        rate = config.mode.rate(n)
        rows = resample_rhs(model, lp.rhs, n, config.seed, config.replicates)
        if config.solver_policy is TieBreak.MIN_INDEX:
            solutions, values, _, ok = solver.solve_batch(rows)
        else:
            n_key = n if isinstance(n, tuple) else (n,)
            solutions, ok = solver.mixed_solution(rows, (config.seed, *n_key, 1))
            values = solutions @ lp.cost
        infeasible = int(np.sum(~ok))
        if infeasible > 0.5 * config.replicates:
            raise TooManyInfeasible(
                f"{infeasible}/{config.replicates} replicates infeasible at n={n}"
            )
        keep = np.flatnonzero(ok)
        batches.append(
            FluctuationBatch(
                sample_size=n,
                rate=rate,
                fluctuations=rate * (solutions[keep] - x_star),
                value_fluctuations=rate * (values[keep] - value_star),
                solutions=solutions[keep],
                infeasible_count=infeasible,
            )
        )
    return batches


def point_to_polytope(v, vertices) -> float:
    """Distance from a point to the convex hull of a vertex list.

    Frank-Wolfe over the simplex with away steps and exact line search;
    terminates when the duality gap certifies the squared distance to
    within PROJECTION_TOL.
    """
    P = np.asarray(vertices, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise EmptySet("vertex list must be a nonempty 2-d array")
    v = np.asarray(v, dtype=float)
    if v.shape != P.shape[1:]:
        raise DimensionMismatch(f"point of shape {v.shape} is not a vertex of length {P.shape[1]}")
    if P.shape[0] == 1:
        return float(np.linalg.norm(v - P[0]))
    K = P.shape[0]
    alpha = np.zeros(K)
    alpha[0] = 1.0
    x = P[0].copy()
    for _ in range(PROJECTION_MAX_ITERS):
        residual = x - v
        grad = P @ residual
        s = int(np.argmin(grad))
        gap = float(alpha @ grad - grad[s])
        if gap < PROJECTION_TOL:
            return float(np.linalg.norm(residual))
        support = np.flatnonzero(alpha > 0)
        a = support[int(np.argmax(grad[support]))]
        fw_dir = P[s] - x
        aw_dir = x - P[a]
        fw_slope = float(residual @ fw_dir)
        aw_slope = float(residual @ aw_dir)
        if fw_slope <= aw_slope or alpha[a] >= 1.0:
            direction, gamma_max, is_fw = fw_dir, 1.0, True
        else:
            direction, gamma_max, is_fw = aw_dir, alpha[a] / (1.0 - alpha[a]), False
        denom = float(direction @ direction)
        if denom <= 0.0:
            return float(np.linalg.norm(residual))
        gamma = min(gamma_max, max(0.0, -float(residual @ direction) / denom))
        if is_fw:
            alpha *= 1.0 - gamma
            alpha[s] += gamma
        else:
            alpha *= 1.0 + gamma
            alpha[a] -= gamma
        np.clip(alpha, 0.0, None, out=alpha)
        alpha /= alpha.sum()
        x = P.T @ alpha
    raise NonConvergence(
        f"projection did not reach gap {PROJECTION_TOL} in {PROJECTION_MAX_ITERS} iterations"
    )


def hausdorff_distance(vertices_1, vertices_2) -> float:
    """Hausdorff distance between the convex hulls of two vertex lists."""
    V1 = np.asarray(vertices_1, dtype=float)
    V2 = np.asarray(vertices_2, dtype=float)
    if V1.ndim != 2 or V2.ndim != 2 or V1.shape[0] == 0 or V2.shape[0] == 0:
        raise EmptySet("both vertex lists must be nonempty")
    forward = max(point_to_polytope(v, V2) for v in V1)
    backward = max(point_to_polytope(w, V1) for w in V2)
    return max(forward, backward)


@dataclass(frozen=True)
class SupportFrequencies:
    """Observed sign-pattern rates of solutions against a support partition."""

    pos_positive_rate: float
    tz_zero_rate: float
    dz_positive_rates: tuple[float, ...]


def support_frequencies(
    solutions: np.ndarray,
    partition: SupportPartition,
    tol: float,
) -> SupportFrequencies:
    """Rates at which solution rows respect the partition.

    tz_zero_rate: rows with every true-zero coordinate within tol of zero.
    pos_positive_rate: rows strictly positive (above tol) on every positive
    coordinate.  dz_positive_rates: per degenerate-zero coordinate, the
    fraction of rows exceeding tol there.  Pass raw solutions (tol on the
    solution scale) or scaled fluctuations (tol scaled by the rate).
    """
    X = np.asarray(solutions, dtype=float)
    tz = list(partition.tz)
    pos = list(partition.pos)
    dz = list(partition.dz)
    tz_rate = float(np.mean(np.all(np.abs(X[:, tz]) <= tol, axis=1))) if tz else 1.0
    pos_rate = float(np.mean(np.all(X[:, pos] > tol, axis=1))) if pos else 1.0
    dz_rates = tuple(float(np.mean(X[:, j] > tol)) for j in dz)
    return SupportFrequencies(pos_rate, tz_rate, dz_rates)


def two_sample_ks(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the two ECDFs.

    Evaluates both right-continuous ECDFs at every observation, as
    ``scipy.stats.ks_2samp`` does; a NaN in either sample gives NaN, and an
    empty one raises EmptySet, as in energy_distance.  The two
    sorted samples are merged (a stable sort of two runs) and both ECDFs are
    read at the last entry of each run of equal values, where their counts are
    those of every value at or below it.  The counts and their quotients are the
    ones a binary search of each sample would give, so the statistic is too.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise EmptySet("both samples need at least one value")
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    both = np.concatenate([x, y])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    at_most_x = np.cumsum(order < x.size)[last]
    gap = at_most_x / x.size - (last + 1 - at_most_x) / y.size
    return float(np.abs(gap).max())


def available_cpus() -> int:
    """CPUs this process may run on: the default worker count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _CdistBlocks:
    """Mean Euclidean distances over all row pairs of (A, B), on min(threads, _MAX_WORKERS) workers.

    A task is one _CDIST_BLOCK-row block of A against B or, when B is A, against A
    from the block on (pairs past it count twice).  ``submit`` queues the tasks of
    some pairs and returns at once, so the caller computes on beside the workers;
    ``collect`` waits for them and adds each pair's block sums in task order, so
    neither the thread count nor the time of a submit changes a result.
    threads: None (every available CPU) or an integer of at least 1, else DimensionMismatch.
    width: the most rows a submitted B has.
    """

    def __init__(self, threads: Optional[int], width: int):
        threads = available_cpus() if threads is None else _integer(threads, "threads")
        self._workers = min(threads, _MAX_WORKERS)
        self._pool = ThreadPoolExecutor(max_workers=self._workers)
        self._size = _CDIST_BLOCK * width
        self._buffers: list[np.ndarray] = []  # the free ones
        self._allocated = self._queued = 0

    def submit(self, pairs) -> tuple:
        """Queues the tasks of each (A, B) and returns what ``collect`` reads."""
        tasks = [(t, i) for t, (A, _) in enumerate(pairs) for i in range(0, A.shape[0], _CDIST_BLOCK)]
        # The pool starts a worker per queued task up to its cap, and a worker runs one task at
        # a time; each gets an output buffer, allocated here, not in a worker thread's malloc arena.
        self._queued += len(tasks)
        while self._allocated < min(self._workers, self._queued):
            self._buffers.append(np.empty(self._size))
            self._allocated += 1
        return pairs, [(t, self._pool.submit(self._block_sum, *pairs[t], i)) for t, i in tasks]

    def _block_sum(self, A, B, i) -> float:
        rows, cols, buf = A[i : i + _CDIST_BLOCK], A[i:] if A is B else B, self._buffers.pop()
        try:
            D = cdist(rows, cols, out=buf[: len(rows) * len(cols)].reshape(len(rows), len(cols)))
            return D[:, : len(rows)].sum() + 2.0 * D[:, len(rows) :].sum() if A is B else D.sum()
        finally:
            self._buffers.append(buf)

    def collect(self, submitted) -> list[float]:
        """The mean distance of each pair of a ``submit``, once its tasks are done."""
        pairs, futures = submitted
        totals = [0.0] * len(pairs)
        for t, future in futures:
            totals[t] += future.result()
        return [total / (A.shape[0] * B.shape[0]) for total, (A, B) in zip(totals, pairs)]

    def finish(self) -> None:
        """Takes no more tasks; the workers end once the queued ones are done."""
        self._pool.shutdown(wait=False)

    def close(self) -> None:
        """Drops the tasks not yet started, waits for the workers to end and frees the buffers."""
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._buffers.clear()


def _mean_distances(pairs, threads: Optional[int]) -> list[float]:
    """Mean Euclidean distance over all row pairs of each (A, B): every block submitted, then collected."""
    with contextlib.closing(_CdistBlocks(threads, max(B.shape[0] for _, B in pairs))) as blocks:
        return blocks.collect(blocks.submit(pairs))


def _queue_energy(blocks: _CdistBlocks, X: np.ndarray, Y: np.ndarray, within_y=None) -> Callable[[], float]:
    """Queues the blocks of the energy distance and returns the function that joins them.

    X, Y: the samples as _first_rows gives them; within_y: the Y-Y blocks, when submitted before.
    """
    if X.shape[1] == 0 or np.array_equal(X, Y):
        return lambda: 0.0  # the exact value; the triangle sums need not cancel the full cross sum
    within_y = within_y or blocks.submit([(Y, Y)])
    terms = blocks.submit([(X, Y), (X, X)])

    def join() -> float:
        (cross, within_x), (within,) = blocks.collect(terms), blocks.collect(within_y)
        return float(2.0 * cross - within_x - within)

    return join


def _carrying_columns(*samples: np.ndarray) -> np.ndarray:
    """Mask of the columns with an entry other than ±0 in some sample (NaN counts)."""
    return np.logical_or.reduce([(S != 0).any(axis=0) for S in samples])


def _first_rows(x, y, max_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """First max_rows rows of both 2-D samples, on the columns either carries; EmptySet if one is empty."""
    max_rows = _integer(max_rows, "max_rows")
    X, Y = (np.asarray(v, dtype=float)[:max_rows] for v in (x, y))
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("sample matrices must share their column count")
    if len(X) == 0 or len(Y) == 0:
        raise EmptySet("every sample needs at least one row")
    keep = _carrying_columns(X, Y)
    return X.compress(keep, axis=1), Y.compress(keep, axis=1)  # C order: cdist copies no block


def energy_distance(x, y, max_rows: int = ENERGY_MAX_ROWS, threads: Optional[int] = None) -> float:
    """Energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'|| with all-pairs means.

    Inputs are truncated to their first max_rows rows to keep the quadratic-cost
    computation at desk scale.  threads: worker threads, at most 4 (None: every available CPU).
    Columns that are ±0 in every kept row of both samples are dropped first: cdist
    adds the squared differences one coordinate after another, and adding +0.0 to a
    non-negative partial sum is exact, so no distance changes in any bit.  For the
    same reason the Y-Y term may run on the columns Y alone carries (run_experiment).
    """
    X, Y = _first_rows(x, y, max_rows)
    with contextlib.closing(_CdistBlocks(threads, max(X.shape[0], Y.shape[0]))) as blocks:
        return _queue_energy(blocks, X, Y)()


def mean_pairwise_norm(x: np.ndarray, y: np.ndarray, max_rows: int = ENERGY_MAX_ROWS) -> float:
    """Mean cross-pair distance; the natural scale for energy-distance thresholds.

    Drops the columns that are ±0 in both samples, as energy_distance does.
    """
    X, Y = _first_rows(x, y, max_rows)
    if X.shape[1] == 0:
        return 0.0
    return float(_mean_distances([(X, Y)], None)[0])


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Distributional agreement between empirical fluctuations and limit draws."""

    per_coordinate_ks: np.ndarray
    energy_distance: float
    covariance_frobenius_error: float
    value_ks: Optional[float] = None


def compare_distributions(
    empirical: np.ndarray,
    limit: np.ndarray,
    empirical_values: Optional[np.ndarray] = None,
    limit_values: Optional[np.ndarray] = None,
    threads: Optional[int] = None,
) -> ComparisonReport:
    """Per-coordinate KS statistics, energy distance, and covariance error.

    A coordinate that is ±0 in every row of both samples (a structural zero,
    such as a ``tz`` coordinate of a stable optimum) gets the KS statistic 0.0
    without a merge, the value two all-zero samples give; the energy distance
    drops such coordinates without changing a bit (see energy_distance).
    The covariance error is the Frobenius distance between the two sample
    covariances, relative to the Frobenius norm of the limit covariance.
    """
    X = np.asarray(empirical, dtype=float)
    Y = np.asarray(limit, dtype=float)
    ks, cov_err, value_ks = _sample_statistics(X, Y, empirical_values, limit_values)
    return ComparisonReport(ks, energy_distance(X, Y, threads=threads), cov_err, value_ks)


def _sample_statistics(X, Y, empirical_values, limit_values) -> tuple[np.ndarray, float, Optional[float]]:
    """The per-coordinate KS statistics, covariance error and value KS of compare_distributions."""
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("sample matrices must share their column count")
    ks = np.zeros(X.shape[1])
    for j in np.flatnonzero(_carrying_columns(X, Y)):
        ks[j] = two_sample_ks(X[:, j], Y[:, j])
    if X.shape[0] < 2 or Y.shape[0] < 2:
        cov_err = float("nan")
    else:
        cov_x = np.cov(X, rowvar=False)
        cov_y = np.cov(Y, rowvar=False)
        denom = np.linalg.norm(cov_y)
        cov_err = float(np.linalg.norm(cov_x - cov_y) / denom) if denom > 0 else float(
            np.linalg.norm(cov_x - cov_y)
        )
    value_ks = None
    if empirical_values is not None and limit_values is not None:
        value_ks = two_sample_ks(
            np.asarray(empirical_values, float), np.asarray(limit_values, float)
        )
    return ks, cov_err, value_ks


@dataclass(frozen=True, eq=False)
class HausdorffExperiment:
    """Per-replicate Hausdorff distances to the base optimality set."""

    rows: tuple[tuple[int, int, float], ...]
    summary: tuple[tuple[float, float, float, float], ...]
    skipped: int


def hausdorff_run(
    solver: RepeatedSolver,
    model,
    sample_sizes: Sequence[int],
    replicates: int,
    seed: int,
) -> HausdorffExperiment:
    """Hausdorff distance between empirical and base optimality sets by n.

    The base set is the ledger's optimal vertices.  Infeasible replicates
    are skipped and counted.  The summary holds (n, median, lower quartile,
    upper quartile) per sample size.
    """
    base = solver.ledger.primal_optimal_vertices
    if not base:
        raise Infeasible("the base problem is infeasible")
    base_array = np.array(base)
    rows: list[tuple[int, int, float]] = []
    summary: list[tuple[float, float, float, float]] = []
    skipped = 0
    for n in sample_sizes:
        dists: list[float] = []
        rhs_batch = resample_rhs(model, solver.lp.rhs, n, seed, replicates)
        for rep, vertices in enumerate(solver._vertex_sets(rhs_batch)):
            if not vertices:
                skipped += 1
                continue
            if len(base) == 1:
                # d(x*, conv V) never exceeds max_v ||v - x*||, so that maximum is d_H
                dist = max(float(np.linalg.norm(v - base[0])) for v in vertices)
            else:
                dist = hausdorff_distance(np.array(vertices), base_array)
            rows.append((n, rep, dist))
            dists.append(dist)
        if dists:
            arr = np.array(dists)
            summary.append((float(n), float(np.median(arr)), float(np.quantile(arr, 0.25)),
                            float(np.quantile(arr, 0.75))))
    return HausdorffExperiment(rows=tuple(rows), summary=tuple(summary), skipped=skipped)


def hausdorff_rate_slope(summary) -> float:
    """Least-squares slope of log median distance against log sample size (two sizes at least)."""
    ns = np.array([row[0] for row in summary], dtype=float)
    medians = np.array([row[1] for row in summary], dtype=float)
    if np.unique(ns).size < 2:
        raise DimensionMismatch("the log fit needs at least two distinct sample sizes")
    if np.any(medians <= 0):
        raise DimensionMismatch("median distances must be positive for the log fit")
    return float(np.polyfit(np.log(ns), np.log(medians), 1)[0])


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """End-to-end outcome of a resampling experiment against the limit law.

    ``report`` compares the last sample size's batch with the limit draws.  The
    energy distance's blocks may still run when run_experiment returns; the first
    read of ``report`` waits for them.
    """

    batches: list[FluctuationBatch]
    limit_result: LimitSampleResult
    hausdorff: Optional[HausdorffExperiment]
    partition: SupportPartition
    support_frequencies: SupportFrequencies  # of the last sample size's solutions
    spec: cones_limit.LimitLawSpec
    _join_report: Callable[[], ComparisonReport] = field(repr=False)

    @functools.cached_property
    def report(self) -> ComparisonReport:
        return self._join_report()


def run_experiment(
    ot: OtProblem,
    config: ExperimentConfig,
    tols: Tolerances = DEFAULT_TOLS,
    threads: Optional[int] = None,
) -> ExperimentResult:
    """Full pipeline for a transport instance with a unique optimum.

    Builds the limit-law specification, samples the limit law, runs the
    fluctuation experiment at every configured sample size with the same
    tie-break policy, and compares the last sample size's batch with the limit
    draws.  The energy distance's blocks run on ``threads`` workers beside
    the other stages: the Y-Y blocks (limit draws, on the columns they carry)
    are queued right after the draws, the X-Y and X-X blocks right after the
    fluctuations; the KS statistics, covariance error, support frequencies and
    Hausdorff replicates follow while they run.  A stage that raises cancels
    the queued blocks and waits for the running ones.  The LP and ledger are
    built once, at tols, by ``ot_limit_spec``; ``spec.ledger`` holds them.
    """
    spec = ot_module.ot_limit_spec(ot, config.mode, config.solver_policy, tols)
    solver = RepeatedSolver(spec.ledger, tols)
    limit_result = sample_limit(spec, config.comparison_samples, config.seed + 1, tols.boundary_tol)
    Y = limit_result.samples[:ENERGY_MAX_ROWS]
    Y_own = Y.compress(_carrying_columns(Y), axis=1)
    # the widest B is Y, or X with at most config.replicates rows
    blocks = _CdistBlocks(threads, min(max(config.replicates, Y.shape[0]), ENERGY_MAX_ROWS))
    try:
        within_y = blocks.submit([(Y_own, Y_own)])
        batches = fluctuation_run(solver, config, config.mode)
        main = batches[-1]
        energy = _queue_energy(blocks, *_first_rows(main.fluctuations, Y, ENERGY_MAX_ROWS), within_y)
        blocks.finish()
        limit_values = cones_limit.optimal_value_limit(spec.ledger, limit_result.gaussian_directions)
        ks, cov_err, value_ks = _sample_statistics(
            main.fluctuations, limit_result.samples, main.value_fluctuations, limit_values)
        partition = cones_limit.support_partition(spec.ledger, tols=tols)
        frequencies = support_frequencies(main.solutions, partition, tols.feas_tol)
        hausdorff = None
        if config.hausdorff_sizes:
            hausdorff = hausdorff_run(solver, config.mode, config.hausdorff_sizes,
                                      config.hausdorff_replicates, config.seed + 2)
    except BaseException:
        blocks.close()
        raise

    def join_report() -> ComparisonReport:
        with contextlib.closing(blocks):
            return ComparisonReport(ks, energy(), cov_err, value_ks)

    return ExperimentResult(
        batches=batches,
        limit_result=limit_result,
        hausdorff=hausdorff,
        partition=partition,
        support_frequencies=frequencies,
        spec=spec,
        _join_report=join_report,
    )
