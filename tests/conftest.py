"""Shared instances and golden data for the test suite.

The recurring scenario is optimal transport between three ordered points
on the real line with cost |x - y|**p.  With equal marginals the unique
optimum is the diagonal coupling and the optimal-basis structure depends
only on whether p is below, at, or above 1.  All index data here is
0-based; transport scheme s maps to LP column 3*i + j for cell (i, j).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import lplimits as lpl

UNIFORM3 = np.array([1.0, 1.0, 1.0]) / 3.0
LINE3 = np.array([0.0, 1.0, 2.0])

# The twelve diagonal-carrying transport schemes of the equal-marginal
# three-point instance, keyed by their conventional numbering.
EQUAL_MARGINAL_SCHEMES = {
    1: (0, 1, 4, 7, 8),
    2: (0, 3, 4, 5, 8),
    3: (0, 3, 4, 6, 8),
    4: (0, 2, 4, 5, 8),
    5: (0, 1, 2, 4, 8),
    6: (0, 4, 6, 7, 8),
    7: (0, 3, 4, 7, 8),
    8: (0, 1, 4, 5, 8),
    9: (0, 2, 4, 7, 8),
    10: (0, 2, 3, 4, 8),
    11: (0, 4, 5, 6, 8),
    12: (0, 1, 4, 6, 8),
}

# Which schemes are optimal for each cost-exponent regime.
OPTIMAL_SCHEME_IDS = {
    0.5: {1, 2, 3, 4, 5, 6},
    1.0: {1, 2, 3, 4, 5, 6, 7, 8},
    2.0: {1, 2, 7, 8},
}

# Half-space systems of the eight stability cones (rows n with n @ v >= 0).
CONE_SYSTEMS = {
    1: [(1, 0, -1, 0, 0), (-1, -1, 1, 1, 0)],
    2: [(-1, 0, 1, 0, 0), (1, 1, -1, -1, 0)],
    3: [(0, 1, 0, -1, 0), (-1, -1, 1, 1, 0)],
    4: [(1, 0, -1, 0, 0), (0, 1, 0, -1, 0)],
    5: [(0, -1, 0, 1, 0), (1, 1, -1, -1, 0)],
    6: [(-1, 0, 1, 0, 0), (0, -1, 0, 1, 0)],
    7: [(-1, 0, 1, 0, 0), (-1, -1, 1, 1, 0)],
    8: [(1, 0, -1, 0, 0), (1, 1, -1, -1, 0)],
}

# Pairs of schemes whose cones overlap on a full-dimensional set at p = 1.
FULL_DIM_INTERSECTIONS = [(3, 7), (6, 7), (4, 8), (5, 8)]

# Two-vertex instance: p = 1, r = (1/4, 1/4, 1/2), s = (1/2, 1/4, 1/4).
SKEWED_R = np.array([0.25, 0.25, 0.5])
SKEWED_S = np.array([0.5, 0.25, 0.25])
SKEWED_SCHEMES = {
    1: (0, 3, 6, 7, 8),
    2: (0, 3, 4, 7, 8),
    3: (0, 4, 6, 7, 8),
    4: (0, 3, 4, 6, 8),
}
SKEWED_VERTEX_A = np.array(
    [[0.25, 0, 0], [0.25, 0, 0], [0, 0.25, 0.25]], dtype=float
).ravel()
SKEWED_VERTEX_B = np.array(
    [[0.25, 0, 0], [0, 0.25, 0], [0.25, 0, 0.25]], dtype=float
).ravel()

# Nondegenerate instance: distinct sorted line supports, strictly convex
# cost, marginals with no matching partial sums.
NONDEG_XS = np.array([0.0, 1.0, 2.2])
NONDEG_YS = np.array([0.15, 0.9, 2.6])
NONDEG_R = np.array([0.2, 0.3, 0.5])
NONDEG_S = np.array([0.25, 0.35, 0.4])


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fails a test when a thread it started is still alive 1 s after it ends (a worker pool left running)."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [thread.name for thread in started if thread.is_alive()]
    assert not alive, f"threads still alive 1 s after the test: {alive}"


def line_problem(p, r=None, s=None, xs=LINE3):
    r = UNIFORM3 if r is None else np.asarray(r, dtype=float)
    s = r if s is None else np.asarray(s, dtype=float)
    return lpl.make_ot_problem(points_x=np.asarray(xs, dtype=float), r=r, s=s, p=p, q=2.0)


def nondegenerate_problem():
    return lpl.make_ot_problem(
        points_x=NONDEG_XS, points_y=NONDEG_YS, r=NONDEG_R, s=NONDEG_S, p=2.0, q=2.0
    )


def scheme_ids_of_ledger(ledger) -> list:
    """Map each optimal ledger basis to its conventional scheme number."""
    lookup = {v: k for k, v in EQUAL_MARGINAL_SCHEMES.items()}
    return [lookup.get(b.indices) for b in ledger.bases[: ledger.optimal_count]]


@pytest.fixture(scope="session")
def ledger_p1():
    return lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(1.0)))


@pytest.fixture(scope="session")
def ledger_p2():
    return lpl.enumerate_ledger(lpl.reduce_to_lp(line_problem(2.0)))


@pytest.fixture(scope="session")
def spec_p2_two_sample():
    return lpl.ot_limit_spec(line_problem(2.0), lpl.TwoSample(0.5))


@pytest.fixture(scope="session")
def spec_nondegenerate():
    return lpl.ot_limit_spec(nondegenerate_problem(), lpl.OneSample())
