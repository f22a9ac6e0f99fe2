"""Output checks run on each op's files after the timed phase.

(a) ``check_reference``: primary CSVs byte-identical to the recorded
    references, JSON outputs equal to them within 1e-9 relative.
(b) ``check_monte_carlo``: the energy distance and per-coordinate KS
    statistics recomputed from the written CSVs, the acceptance thresholds,
    and the structure of every limit draw and fluctuation row.
(c) ``check_optimal_value``: the optimal value of ``analysis.json`` against
    an independent HiGHS solve of the transport problem.

Each check returns a list of human-readable problems; empty means pass.
Nothing here imports the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.spatial.distance
import scipy.stats

REL_TOL = 1e-9
FEAS_TOL = 1e-9          # the documented default feasibility slack
ENERGY_MAX_ROWS = 5000   # rows the reported energy distance is computed on
KS_COORD_MAX = 0.06      # acceptance criterion 4
KS_VALUE_MAX = 0.05      # acceptance criterion 5
MC_CSVS = ("fluctuations.csv", "limit_samples.csv", "hausdorff.csv")


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def strip_manifest(payload):
    """JSON payload without run-time provenance (timestamps live in 'manifest')."""
    if isinstance(payload, dict):
        return {k: strip_manifest(v) for k, v in payload.items() if k != "manifest"}
    return payload


def json_mismatches(actual, expected, where: str = "$") -> list[str]:
    """Differences between two JSON values; floats compared to REL_TOL relative."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        out = []
        for key in expected:
            out += json_mismatches(actual[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += json_mismatches(a, e, f"{where}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, bool) or isinstance(expected, bool):
            return [f"{where}: {actual!r} != {expected!r}"]
        a, e = float(actual), float(expected)
        if (math.isnan(a) and math.isnan(e)) or math.isclose(a, e, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: {a!r} != {e!r}"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def record_reference(out_dir: Path, csvs, jsons) -> dict:
    """Reference entry of one op: CSV digests and manifest-free JSON values."""
    return {
        "digests": {name: digest(out_dir / name) for name in csvs},
        "values": {name: strip_manifest(load_json(out_dir / name)) for name in jsons},
    }


def check_reference(out_dir: Path, reference: dict) -> list[str]:
    problems = []
    for name, expected in reference["digests"].items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif digest(path) != expected:
            problems.append(f"{name}: digest differs from the reference")
    for name, expected in reference["values"].items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        problems += [f"{name} {m}" for m in json_mismatches(strip_manifest(load_json(path)), expected)]
    return problems


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def transport_lp(problem: dict):
    """Cost vector and full (row and column sum) constraints of an OT problem."""
    x = np.asarray(problem["points_x"], dtype=float)
    x = x.reshape(len(x), -1)
    y = np.asarray(problem.get("points_y", problem["points_x"]), dtype=float).reshape(len(x), -1)
    cost = scipy.spatial.distance.cdist(x, y, "minkowski", p=problem.get("q", 2.0)) ** problem["p"]
    n = len(x)
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
    b_eq = np.concatenate([problem["r"], problem["s"]])
    return cost.ravel(), a_eq, b_eq


def highs_optimum(problem: dict):
    c, a_eq, b_eq = transport_lp(problem)
    res = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.x, float(res.fun)


def mean_pairwise(a: np.ndarray, b: np.ndarray, block: int = 1000) -> float:
    total = 0.0
    for start in range(0, a.shape[0], block):
        total += scipy.spatial.distance.cdist(a[start : start + block], b).sum()
    return total / (a.shape[0] * b.shape[0])


def check_monte_carlo(out_dir: Path, problem: dict) -> list[str]:
    problems = []
    report = load_json(out_dir / "report.json")
    fluct = read_csv(out_dir / "fluctuations.csv")
    limit = read_csv(out_dir / "limit_samples.csv")
    n_points = len(problem["r"])
    if fluct.shape[1] != n_points**2 or limit.shape[1] != n_points**2:
        return ["CSV column count differs from N^2"]

    X, Y = fluct[:ENERGY_MAX_ROWS], limit[:ENERGY_MAX_ROWS]
    cross = mean_pairwise(X, Y)
    energy = 2.0 * cross - mean_pairwise(X, X) - mean_pairwise(Y, Y)
    if abs(energy - report["energy_distance"]) > REL_TOL * cross:
        problems.append(f"energy distance {report['energy_distance']!r} != recomputed {energy!r}")

    ks = [scipy.stats.ks_2samp(fluct[:, j], limit[:, j]).statistic for j in range(fluct.shape[1])]
    if np.max(np.abs(np.array(ks) - report["per_coordinate_ks"])) > REL_TOL:
        problems.append("per-coordinate KS differs from the recomputed statistics")
    if max(ks) > KS_COORD_MAX:
        problems.append(f"per-coordinate KS {max(ks):.4f} > {KS_COORD_MAX}")
    if report["value_ks"] is None or report["value_ks"] > KS_VALUE_MAX:
        problems.append(f"value KS {report['value_ks']} > {KS_VALUE_MAX}")

    x_star, _ = highs_optimum(problem)
    pos = report["partition"]["pos"]
    if sorted(np.flatnonzero(x_star > FEAS_TOL).tolist()) != sorted(pos):
        problems.append("partition 'pos' is not the support of the HiGHS optimum")
    outside = sorted(set(range(limit.shape[1])) - set(pos))
    scale = 1.0 + np.abs(limit).max(axis=1)
    if np.any(np.abs(limit.sum(axis=1)) > FEAS_TOL * scale):
        problems.append("a limit draw does not sum to 0")
    if outside and limit[:, outside].min() < -FEAS_TOL:
        problems.append("a limit draw is below -feas_tol outside 'pos'")
    tz = report["partition"]["tz"]
    if tz and np.any(limit[:, tz] != 0.0):
        problems.append("a limit draw is not exactly 0 on 'tz'")

    n_r, n_s = report["sample_sizes"][-1]
    rate = math.sqrt(n_r * n_s / (n_r + n_s))
    plans = (x_star + fluct / rate).reshape(-1, n_points, n_points)
    if plans.min() < -FEAS_TOL - 1e-12:
        problems.append("a fluctuation row gives a negative coupling entry")
    for sums, n in ((plans.sum(axis=2), n_r), (plans.sum(axis=1), n_s)):
        if np.max(np.abs(sums * n - np.round(sums * n))) > 1e-6:
            problems.append("a fluctuation row's marginal is not an empirical measure of the sample size")
    if np.max(np.abs(plans.sum(axis=(1, 2)) - 1.0)) > 1e-9:
        problems.append("a fluctuation row does not carry unit mass")
    return problems


def check_optimal_value(out_dir: Path, problem: dict) -> list[str]:
    reported = load_json(out_dir / "analysis.json")["optimal_value"]
    _, value = highs_optimum(problem)
    if not math.isclose(reported, value, rel_tol=REL_TOL, abs_tol=0.0):
        return [f"optimal value {reported!r} != HiGHS {value!r}"]
    return []


OT4_CSVS = ("limit-sample/limit_samples.csv",)
OT4_JSONS = ("analyze/analysis.json", "certify/certificates.json", "limit-sample/limit_samples.json")


def reference_files(workload: str):
    """(CSV names, JSON names) compared against the references, or None."""
    if workload == "golden-mc":
        return MC_CSVS, ("report.json",)
    if workload == "ot4-analyze":
        return OT4_CSVS, OT4_JSONS
    return None


def check_op(workload: str, out_dir: Path, problem: dict, reference) -> list[str]:
    """Every check that applies to one op of the workload."""
    problems = []
    if reference_files(workload) is not None:
        if reference is None:
            return ["no recorded reference for this input"]
        problems += check_reference(out_dir, reference)
    if workload in ("golden-mc", "degenerate-random"):
        problems += check_monte_carlo(out_dir, problem)
    if workload == "ot4-analyze":
        problems += check_optimal_value(out_dir / "analyze", problem)
    return problems
