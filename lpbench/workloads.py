"""Workload inputs: generated from the workload seed, handed to the CLI as files.

Every workload draws its ops from a fixed pool of ``POOL_SIZE`` inputs so
that reference outputs can be recorded once (``refs/``) and checked for any
workload seed.  The workload seed fixes the order in which the pool is
visited; each op uses the next pool member.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POOL_SIZE = 8

# Three ordered points on the line with equal marginals: the golden instance
# at p=2 (4 optimal bases, unique diagonal optimum) and its degenerate p=1
# variant (8 optimal bases whose cones overlap on full-dimensional sets).
LINE3 = {"points_x": [0.0, 1.0, 2.0], "q": 2.0, "r": [1 / 3, 1 / 3, 1 / 3], "s": [1 / 3, 1 / 3, 1 / 3]}

# The monte-carlo configuration documented in the README, minus its seed.
MC_CONFIG = {
    "sample_sizes": [[10000, 10000]],
    "replicates": 2000,
    "mode": "two-sample",
    "lambda": 0.5,
    "comparison_samples": 20000,
    "hausdorff_sizes": [100, 1000, 10000],
    "hausdorff_replicates": 200,
}

LIMIT_SAMPLES = 20000
OT_N_RANGE = range(4, 9)


def generic_ot(n_points: int, key) -> dict:
    """Planar standard-normal points, Dirichlet(1) marginals, squared Euclidean cost."""
    rng = np.random.default_rng(key)
    points = rng.standard_normal((n_points, 2))
    r = rng.dirichlet(np.ones(n_points))
    s = rng.dirichlet(np.ones(n_points))
    return {"points_x": points.tolist(), "p": 2.0, "q": 2.0, "r": r.tolist(), "s": s.tolist()}


WORKLOADS = ("golden-mc", "degenerate-random", "ot4-analyze")


def pool_inputs(workload: str, index: int) -> dict[str, dict]:
    """File name -> JSON payload for pool member ``index``."""
    if workload == "golden-mc":
        return {"problem.json": dict(LINE3, p=2.0),
                "config.json": dict(MC_CONFIG, seed=index, policy="min-index")}
    if workload == "degenerate-random":
        return {"problem.json": dict(LINE3, p=1.0),
                "config.json": dict(MC_CONFIG, seed=index, policy="uniform-random")}
    if workload == "ot4-analyze":
        return {"problem.json": generic_ot(4, [4, index])}
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, index: int, inputs: Path, out: Path) -> list[list[str]]:
    """CLI argument lists of one op on pool member ``index``."""
    problem = str(inputs / "problem.json")
    if workload in ("golden-mc", "degenerate-random"):
        return [["monte-carlo", problem, str(inputs / "config.json"), "--out-dir", str(out)]]
    return [
        ["analyze", problem, "--out-dir", str(out / "analyze")],
        ["certify", problem, "--out-dir", str(out / "certify")],
        ["limit-sample", problem, "--samples", str(LIMIT_SAMPLES), "--seed", str(index),
         "--mode", "one-sample", "--out-dir", str(out / "limit-sample")],
    ]


def pool_order(seed: int) -> list[int]:
    """Order in which a run with this workload seed visits the pool."""
    return [int(i) for i in np.random.default_rng(seed).permutation(POOL_SIZE)]


def write_inputs(workload: str, root: Path) -> list[Path]:
    """Write every pool member's input files under root; returns their directories."""
    dirs = []
    for index in range(POOL_SIZE):
        directory = root / f"pool-{index:02d}"
        directory.mkdir(parents=True, exist_ok=True)
        for name, payload in pool_inputs(workload, index).items():
            (directory / name).write_text(json.dumps(payload), encoding="utf-8")
        dirs.append(directory)
    return dirs
