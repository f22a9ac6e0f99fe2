"""Monte-Carlo verification harness.

Resamples right-hand sides (one check of b per batch; the keyed generator
states of a batch are derived with one vectorized SeedSequence hash and
loaded in turn into one generator), solves every replicate with the limit
functional's tie-break, and compares the scaled fluctuations, optimal values,
optimality sets and support patterns with their limits, on the coordinates
that are nonzero in some row.  The Hausdorff replicates of a
sample size are solved as one batch; the energy distance runs on ``threads``
workers.
"""

from __future__ import annotations

import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

from . import cones_limit, ot as ot_module
from .cones_limit import LimitSampleResult, SupportPartition, TieBreak, basis_products, sample_limit
from .errors import (
    DimensionMismatch,
    EmptySet,
    Infeasible,
    NonConvergence,
    TooManyInfeasible,
)
from .lp_core import BasisLedger, StandardLp, dedup_vertices, enumerate_ledger
from .ot import OneSample, OtProblem, TwoSample
from .tolerances import DEFAULT_TOLS, Tolerances

SampleSize = Union[int, tuple[int, int]]

# SeedSequence's hash constants and PCG64's multiplier (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_CDIST_BLOCK = 125  # rows per cdist task: 125 x 5000 distances are 5 MB per worker
_MAX_WORKERS = 4  # caps the output buffers at 20 MB whatever the host's CPU count
_VERTEX_BLOCK = 1 << 18  # basic coordinates per block of RepeatedSolver rows: 2 MB
PROJECTION_MAX_ITERS = 100_000  # Frank-Wolfe budget of point_to_polytope
PROJECTION_TOL = 1e-10  # duality gap at which point_to_polytope stops


def _integer(value, name: str, least: int = 1) -> int:
    """value as a Python int; DimensionMismatch for a bool, float, string or integer below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DimensionMismatch(f"{name}: expected an integer of at least {least}, got {value!r}")
    return int(value)


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
        if any(isinstance(n, tuple) and len(n) != 2 for n in sizes):
            raise DimensionMismatch(f"sample_sizes entries must be n or (n, m), got {sizes}")
        checked = {"sample_sizes": sizes, "seed": _integer(self.seed, "seed", least=0),
                   "hausdorff_sizes": _integers(self.hausdorff_sizes, "hausdorff_sizes")}
        for name in ("replicates", "comparison_samples", "hausdorff_replicates"):
            checked[name] = _integer(getattr(self, name), name)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MultinomialMarginal:
    """Resampling model for transport right-hand sides (r truncated, s full).

    One-sample mode replaces only the r block by empirical frequencies of n
    categorical draws; two-sample mode also resamples the s block with its
    own sample size.
    """

    n_points: int
    two_sample: bool = False


@dataclass(frozen=True, eq=False)
class UserSamples:
    """Externally supplied pool of right-hand sides, one drawn per replicate."""

    rows: np.ndarray


def resample_rhs(model, b, n: SampleSize, rng: np.random.Generator) -> np.ndarray:
    """One resampled right-hand side; deterministic given the generator state."""
    return _draw_rows(model, b, n, [rng], 1)[0]


def _resample_rows(model, b, n: SampleSize, keys) -> np.ndarray:
    """Row i is ``resample_rhs(model, b, n, np.random.default_rng(keys[i]))``; b is checked once."""
    return _draw_rows(model, b, n, _keyed_generators(keys), len(keys))


def _draw_rows(model, b, n: SampleSize, rngs, count: int) -> np.ndarray:
    """count resampled right-hand sides, row i drawn from the i-th generator of rngs."""
    b = np.asarray(b, dtype=float)
    if isinstance(model, UserSamples):
        rows = np.asarray(model.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != b.size:
            raise DimensionMismatch("user sample rows must match the rhs length")
        return rows[[int(rng.integers(rows.shape[0])) for rng in rngs]]
    if not isinstance(model, MultinomialMarginal):
        raise DimensionMismatch(f"unknown resampling model {model!r}")
    N = model.n_points
    if b.size != 2 * N - 1:
        raise DimensionMismatch(f"rhs must have length {2 * N - 1}, got {b.size}")
    # the check make_ot_problem applies to r and s
    r = ot_module._check_probability(np.concatenate([b[: N - 1], [1.0 - b[: N - 1].sum()]]), "r")
    s = ot_module._check_probability(b[N - 1 :], "s")
    n_r, n_s = n if isinstance(n, tuple) else (n, n)
    p_r, p_s = (np.clip(v, 0.0, None) / v.sum() for v in (r, s))
    counts = np.zeros((count, 2, N), dtype=np.int64)
    for row, rng in zip(counts, rngs):
        row[0] = rng.multinomial(int(n_r), p_r)
        if model.two_sample:
            row[1] = rng.multinomial(int(n_s), p_s)
    out = np.tile(b, (count, 1))  # one-sample rows keep the s block of b
    out[:, : N - 1] = counts[:, 0, : N - 1] / float(n_r)
    if model.two_sample:
        out[:, N - 1 :] = counts[:, 1] / float(n_s)
    return out


def _keyed_generators(keys):
    """One Generator, put in turn into the state ``np.random.default_rng(key)`` starts in."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in _pcg64_states(keys):
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _pcg64_states(keys) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.default_rng(key).bit_generator`` for each tuple key.

    SeedSequence hashes a key's uint32 words into a 4-word pool and
    ``generate_state(4, np.uint64)`` expands it; both run here as uint32 array
    arithmetic over all keys with as many words.  PCG64 then seeds from
    (s, q) = (words 0-1, words 2-3): state 0, inc = 2q + 1, step, add s, step.
    """
    words = [_entropy_words(key) for key in keys]
    states = [(0, 0)] * len(words)
    for length in set(map(len, words)):
        members = [i for i, w in enumerate(words) if len(w) == length]
        entropy = np.array([words[i] for i in members], np.uint32).reshape(len(members), length)
        for i, (s_hi, s_lo, q_hi, q_lo) in zip(members, _seed_words(entropy).tolist()):
            inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
            states[i] = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc
    return states


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
    """Min-index solves of one LP family over many right-hand sides.

    Dual feasibility of a basis does not depend on the right-hand side, so
    the dual feasible bases and their inverses (``BasisLedger.inverses``)
    are fixed once; each solve is then a blocked feasibility scan in
    lexicographic basis order.
    """

    def __init__(self, lp: StandardLp, tols: Tolerances = DEFAULT_TOLS,
                 ledger: Optional[BasisLedger] = None):
        if ledger is None:
            ledger = enumerate_ledger(lp, tols)
        self.lp = lp
        self.tols = tols
        order = sorted(range(len(ledger.bases)), key=lambda k: ledger.bases[k].indices)
        self.inverses = ledger.inverses[order]
        self.columns = np.array([ledger.bases[k].indices for k in order]).reshape(-1, lp.n_rows)

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

        Row i's weights come from row i of ``cones_limit.keyed_spacings(key,
        R, n_bases)``, drawn one spacing block of rows at a time.  Returns
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


def fluctuation_run(
    lp: StandardLp,
    config: ExperimentConfig,
    model,
    solver: Optional[RepeatedSolver] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[FluctuationBatch]:
    """Scaled solution and value fluctuations under resampled right-hand sides.

    Every replicate is solved with the configured tie-break; replicates
    whose resampled problem is infeasible are dropped and counted, and more
    than 50% of them aborts the run.
    """
    if solver is None:
        solver = RepeatedSolver(lp, tols)
    base_solutions, base_values, _, base_ok = solver.solve_batch(lp.rhs.reshape(1, -1))
    if not base_ok[0]:
        raise Infeasible("the base problem itself is infeasible")
    x_star = base_solutions[0]
    value_star = base_values[0]
    batches: list[FluctuationBatch] = []
    for n in config.sample_sizes:
        rate = config.mode.rate(n)
        n_key = n if isinstance(n, tuple) else (n,)
        keys = [(config.seed, *n_key, rep) for rep in range(config.replicates)]
        rows = _resample_rows(model, lp.rhs, n, keys)
        if config.solver_policy is TieBreak.MIN_INDEX:
            solutions, values, _, ok = solver.solve_batch(rows)
        else:
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


def _mean_distances(pairs, threads: Optional[int]) -> list[float]:
    """Mean Euclidean distance over all row pairs of each (A, B), on min(threads, tasks, _MAX_WORKERS) threads.

    Tasks: each _CDIST_BLOCK-row block of A against B or, when B is A, against A from the block
    on (pairs past it count twice).  Sums add in task order, so threads never changes a result.
    """
    threads = available_cpus() if threads is None else threads
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    tasks = [(t, i) for t, (A, _) in enumerate(pairs) for i in range(0, A.shape[0], _CDIST_BLOCK)]
    workers = min(threads, len(tasks), _MAX_WORKERS)
    # one output buffer per running task, allocated here, not in a worker thread's malloc arena
    free = [np.empty(_CDIST_BLOCK * max(B.shape[0] for _, B in pairs)) for _ in range(workers)]

    def block_sum(task):
        (A, B), i = pairs[task[0]], task[1]
        rows, cols, buf = A[i : i + _CDIST_BLOCK], A[i:] if A is B else B, free.pop()
        D = cdist(rows, cols, out=buf[: len(rows) * len(cols)].reshape(len(rows), len(cols)))
        total = D[:, : len(rows)].sum() + 2.0 * D[:, len(rows) :].sum() if A is B else D.sum()
        free.append(buf)
        return total

    if workers <= 1:
        sums = map(block_sum, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(block_sum, tasks))
    totals = [0.0] * len(pairs)
    for (t, _), value in zip(tasks, sums):
        totals[t] += value
    return [total / (A.shape[0] * B.shape[0]) for total, (A, B) in zip(totals, pairs)]


def _carrying_columns(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Mask of the columns with an entry other than ±0 in X or in Y (NaN counts)."""
    return (X != 0).any(axis=0) | (Y != 0).any(axis=0)


def _first_rows(x, y, max_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """First max_rows rows of both 2-D samples, on the columns either carries; EmptySet if one is empty."""
    X, Y = (np.asarray(v, dtype=float)[:max_rows] for v in (x, y))
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("sample matrices must share their column count")
    if len(X) == 0 or len(Y) == 0:
        raise EmptySet("every sample needs at least one row")
    keep = _carrying_columns(X, Y)
    return X.compress(keep, axis=1), Y.compress(keep, axis=1)  # C order: cdist copies no block


def energy_distance(x, y, max_rows: int = 5000, threads: Optional[int] = None) -> float:
    """Energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'|| with all-pairs means.

    Inputs are truncated to their first max_rows rows to keep the quadratic-cost
    computation at desk scale.  threads: worker threads, at most 4 (None: every available CPU).
    Columns that are ±0 in every kept row of both samples are dropped first: cdist
    adds the squared differences one coordinate after another, and adding +0.0 to a
    non-negative partial sum is exact, so no distance changes in any bit.
    """
    X, Y = _first_rows(x, y, max_rows)
    if X.shape[1] == 0 or np.array_equal(X, Y):
        return 0.0  # the exact value; the triangle sums need not cancel the full cross sum
    cross, within_x, within_y = _mean_distances([(X, Y), (X, X), (Y, Y)], threads)
    return float(2.0 * cross - within_x - within_y)


def mean_pairwise_norm(x: np.ndarray, y: np.ndarray, max_rows: int = 5000) -> float:
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
    return ComparisonReport(
        per_coordinate_ks=ks,
        energy_distance=energy_distance(X, Y, threads=threads),
        covariance_frobenius_error=cov_err,
        value_ks=value_ks,
    )


@dataclass(frozen=True, eq=False)
class HausdorffExperiment:
    """Per-replicate Hausdorff distances to the base optimality set."""

    rows: tuple[tuple[int, int, float], ...]
    summary: tuple[tuple[float, float, float, float], ...]
    skipped: int


def hausdorff_run(
    lp: StandardLp,
    model,
    sample_sizes: Sequence[int],
    replicates: int,
    seed: int,
    solver: Optional[RepeatedSolver] = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> HausdorffExperiment:
    """Hausdorff distance between empirical and base optimality sets by n.

    Infeasible replicates are skipped and counted.  The summary holds
    (n, median, lower quartile, upper quartile) per sample size.
    """
    if solver is None:
        solver = RepeatedSolver(lp, tols)
    base = solver.vertices_at(lp.rhs)
    if not base:
        raise Infeasible("the base problem is infeasible")
    base_array = np.array(base)
    rows: list[tuple[int, int, float]] = []
    summary: list[tuple[float, float, float, float]] = []
    skipped = 0
    for n in sample_sizes:
        dists: list[float] = []
        keys = [(seed, n, rep) for rep in range(replicates)]
        rhs_batch = _resample_rows(model, lp.rhs, int(n), keys)
        for rep, vertices in enumerate(solver._vertex_sets(rhs_batch)):
            if not vertices:
                skipped += 1
                continue
            if len(base) == 1:
                # d(x*, conv V) never exceeds max_v ||v - x*||, so that maximum is d_H
                dist = max(float(np.linalg.norm(v - base[0])) for v in vertices)
            else:
                dist = hausdorff_distance(np.array(vertices), base_array)
            rows.append((int(n), rep, dist))
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
    """End-to-end outcome of a resampling experiment against the limit law."""

    report: ComparisonReport
    batches: list[FluctuationBatch]
    limit_result: LimitSampleResult
    hausdorff: Optional[HausdorffExperiment]
    partition: SupportPartition
    support_frequencies: SupportFrequencies  # of the last sample size's solutions
    spec: cones_limit.LimitLawSpec


def run_experiment(
    ot: OtProblem,
    config: ExperimentConfig,
    tols: Tolerances = DEFAULT_TOLS,
    threads: Optional[int] = None,
    ledger=None,
) -> ExperimentResult:
    """Full pipeline for a transport instance with a unique optimum.

    Builds the limit-law specification, runs the fluctuation experiment at
    every configured sample size, samples the limit law with the same
    tie-break policy, and compares the last sample size's batch with it.
    ledger: the ledger of ``reduce_to_lp(ot, tols)``, when the caller has built it.
    """
    spec = ot_module.ot_limit_spec(ot, config.mode, config.solver_policy, tols, ledger)
    lp = spec.ledger.lp
    solver = RepeatedSolver(lp, tols, ledger=spec.ledger)
    model = MultinomialMarginal(ot.n_points, two_sample=isinstance(config.mode, TwoSample))
    batches = fluctuation_run(lp, config, model, solver=solver, tols=tols)
    main = batches[-1]
    limit_result = sample_limit(spec, config.comparison_samples, config.seed + 1, tols.boundary_tol)
    duals = spec.ledger.optimal_duals()[:, : spec.m0]
    limit_values = (limit_result.gaussian_directions @ duals.T).max(axis=1)
    report = compare_distributions(
        main.fluctuations,
        limit_result.samples,
        empirical_values=main.value_fluctuations,
        limit_values=limit_values,
        threads=threads,
    )
    partition = cones_limit.support_partition(spec.ledger, tols=tols)
    hausdorff = None
    if config.hausdorff_sizes:
        hausdorff = hausdorff_run(
            lp,
            model,
            config.hausdorff_sizes,
            config.hausdorff_replicates,
            config.seed + 2,
            solver=solver,
            tols=tols,
        )
    return ExperimentResult(
        report=report,
        batches=batches,
        limit_result=limit_result,
        hausdorff=hausdorff,
        partition=partition,
        support_frequencies=support_frequencies(main.solutions, partition, tols.feas_tol),
        spec=spec,
    )
