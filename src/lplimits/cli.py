"""Command-line entry point.

Subcommands: ``analyze`` (bases, assumptions, partition, cones),
``limit-sample`` (Monte-Carlo draws of the limit law), ``monte-carlo``
(full resampling experiment against the limit law), and ``certify``
(transport uniqueness/nondegeneracy certificates).  All numerics live in
the library modules; this module only parses inputs and writes files.

Exit codes: 0 success, 2 input error, 3 cap exceeded, 4 assumption
violated, 5 experiment degenerate, 6 internal failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, cones_limit, lp_core, ot, stochastic_harness
from .errors import (
    CapExceeded,
    DimensionMismatch,
    EnumerationCapExceeded,
    LpLimitsError,
    NoFeasibleCone,
    NonConvergence,
    NotAProbabilityVector,
    NotUnique,
    RankDeficient,
    TooManyInfeasible,
)
from .tolerances import DEFAULT_TOLS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_ASSUMPTION = 4
EXIT_DEGENERATE = 5
EXIT_INTERNAL = 6

logger = logging.getLogger(__name__)

_CSV_BLOCK = 1024  # rows formatted per write; bounds the temporary Python lists and strings

_TOL_NAMES = ("feas_tol", "rank_tol", "dedup_tol", "boundary_tol", "sum_tol")

# The keys a monte-carlo config file may set; any other key is an input error.
_CONFIG_KEYS = frozenset({"sample_sizes", "replicates", "seed", "mode", "lambda", "policy",
                          "comparison_samples", "hausdorff_sizes", "hausdorff_replicates"})

_INPUT_ERRORS = (
    json.JSONDecodeError,
    DimensionMismatch,
    RankDeficient,
    NotAProbabilityVector,
    FileNotFoundError,
    KeyError,
    ValueError,
)

# First matching row wins; any other LpLimitsError subclass is an input error.
_EXIT_CODES = (
    ((EnumerationCapExceeded, CapExceeded), EXIT_CAP),
    ((NotUnique,), EXIT_ASSUMPTION),
    ((TooManyInfeasible,), EXIT_DEGENERATE),
    ((NonConvergence, NoFeasibleCone), EXIT_INTERNAL),
    (_INPUT_ERRORS, EXIT_INPUT),
)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    input_paths: tuple[str, ...]
    seed: Optional[int]
    threads: Optional[int]
    tool_version: str
    config_digest: str
    started: str
    finished: str


def config_digest(payload) -> str:
    """Stable hash of a canonicalized JSON-serializable configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_problem(path: str, tols):
    """Returns (lp, ot_problem_or_None, payload); OT problems are auto-reduced, both at tols."""
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise DimensionMismatch("problem JSON must be an object")
    if "A" in payload:
        return lp_core.lp_from_dict(payload, tols), None, payload
    problem = ot.ot_from_dict(payload)
    if min(problem.r.min(), problem.s.min()) <= 0.0:
        logger.warning(
            "a marginal has a zero coordinate; the limit theory assumes "
            "strictly interior probability vectors"
        )
    return ot.reduce_to_lp(problem, tols), problem, payload


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        if rows.size == 0:
            return
        rows = np.atleast_2d(rows)
        bits = rows.view(np.uint64)
        # Equal bits format to equal strings, so a column with one bit pattern
        # in every row is written from its first row's string.
        varying = (bits != bits[0]).any(axis=0)
        cells = ["%.17g" if v else "%.17g" % x for v, x in zip(varying, rows[0].tolist())]
        fmt = ",".join(cells) + "\n"
        for start in range(0, rows.shape[0], _CSV_BLOCK):
            block = rows[start : start + _CSV_BLOCK, varying]
            handle.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_otc_csv(path, thresholds, values) -> None:
    """Transport-cost curve as CSV with columns t,value."""
    rows = np.column_stack([np.asarray(thresholds, float), np.asarray(values, float)])
    _write_csv(Path(path), ["t", "value"], rows)


def write_geodesic_csv(path, measure) -> None:
    """Interpolated measure as CSV: one coordinate column per dimension plus weight."""
    locations = np.atleast_2d(np.asarray(measure.locations, float))
    header = [f"coord_{i + 1}" for i in range(locations.shape[1])] + ["weight"]
    rows = np.column_stack([locations, np.asarray(measure.weights, float)])
    _write_csv(Path(path), header, rows)


def _manifest(command, inputs, seed, threads, digest_payload, started) -> RunManifest:
    return RunManifest(
        command=command,
        input_paths=tuple(str(p) for p in inputs),
        seed=seed,
        threads=threads,
        tool_version=__version__,
        config_digest=config_digest(digest_payload),
        started=started,
        finished=_now(),
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tols(args):
    overrides = {}
    for name in _TOL_NAMES:
        value = getattr(args, name, None)  # None also for a flag the command does not declare
        if value is not None:
            overrides[name] = value
    return DEFAULT_TOLS.with_(**overrides) if overrides else DEFAULT_TOLS


def cmd_analyze(args) -> int:
    started = _now()
    tols = _tols(args)
    lp, _, payload = _load_problem(args.problem, tols)
    ledger = lp_core.enumerate_ledger(lp, tols)
    report = lp_core.check_assumptions(lp, ledger, tols)
    out: dict = {
        "m": lp.n_rows,
        "d": lp.n_cols,
        "dual_feasible_count": len(ledger.bases),
        "optimal_count": ledger.optimal_count,
        "optimal_value": ledger.optimal_value,
        "optimal_bases": [list(b.indices) for b in ledger.bases[: ledger.optimal_count]],
        "degeneracy": [
            {
                "basis": list(p.basis.indices),
                "primal_degenerate": p.primal_degenerate,
                "dual_degenerate": p.dual_degenerate,
            }
            for p in ledger.optimal_pairs()
        ],
        "vertices": [v.tolist() for v in ledger.primal_optimal_vertices],
        "assumptions": {
            "a1": report.a1_bounded_nonempty_optimum,
            "a2": report.a2_unique_optimum,
            "a3": report.a3_distinct_optimal_duals,
            "a3_witness": list(report.a3_witness) if report.a3_witness else None,
            "slater": report.slater,
            "bounded": report.bounded,
        },
        "partition": None,
        "cones": None,
    }
    if report.a2_unique_optimum:
        partition = cones_limit.support_partition(ledger, tols=tols)
        cones = cones_limit.build_cones(ledger, partition)
        out["partition"] = {
            "pos": list(partition.pos),
            "tz": list(partition.tz),
            "dz": list(partition.dz),
        }
        out["cones"] = [
            {
                "basis_index": cone.basis_index,
                "basis": list(ledger.bases[cone.basis_index].indices),
                "halfspace_normals": cone.halfspace_normals.tolist(),
            }
            for cone in cones
        ]
    out_dir = _out_dir(args)
    _write_json(out_dir / "analysis.json", out)
    manifest = _manifest("analyze", [args.problem], None, None, payload, started)
    _write_json(out_dir / "manifest.json", asdict(manifest))
    return EXIT_OK


def _mode_from_args(mode: str, lam: float):
    if mode == "one-sample":
        return ot.OneSample()
    if mode == "two-sample":
        return ot.TwoSample(lam)
    raise DimensionMismatch(f"unknown mode {mode!r}")


def _policy(name: str) -> cones_limit.TieBreak:
    try:
        return cones_limit.TieBreak(name)
    except ValueError:
        raise DimensionMismatch(f"unknown tie-break policy {name!r}") from None


def cmd_limit_sample(args) -> int:
    started = _now()
    tols = _tols(args)
    lp, problem, payload = _load_problem(args.problem, tols)
    if problem is None:
        raise DimensionMismatch(
            "limit-sample needs an OT problem (cost or ground points plus marginals)"
        )
    spec = ot.ot_limit_spec(
        problem, _mode_from_args(args.mode, args.lam), tie_break=_policy(args.policy), tols=tols,
        ledger=lp_core.enumerate_ledger(lp, tols),
    )
    result = cones_limit.sample_limit(spec, args.samples, args.seed, tol=tols.boundary_tol)
    out_dir = _out_dir(args)
    _write_csv(out_dir / "limit_samples.csv", list(lp.names()), result.samples)
    sidecar = {
        "seed": args.seed,
        "mode": args.mode,
        "lambda": args.lam if args.mode == "two-sample" else None,
        "policy": args.policy,
        "rate": spec.rate_name,
        "m0": spec.m0,
        "covariance": np.asarray(spec.covariance).tolist(),
        "boundary_hits": result.boundary_hits.tolist(),
        "occupancy_counts": result.occupancy_counts.tolist(),
        "occupancy_frequencies": result.occupancy_frequencies.tolist(),
        "optimal_bases": [
            list(b.indices) for b in spec.ledger.bases[: spec.ledger.optimal_count]
        ],
    }
    _write_json(out_dir / "limit_samples.json", sidecar)
    digest = {"problem": payload, "samples": args.samples, "seed": args.seed,
              "mode": args.mode, "lambda": sidecar["lambda"], "policy": args.policy}
    manifest = _manifest("limit-sample", [args.problem], args.seed, None, digest, started)
    _write_json(out_dir / "manifest.json", asdict(manifest))
    return EXIT_OK


def _experiment_config(config: dict) -> stochastic_harness.ExperimentConfig:
    if not isinstance(config, dict):
        raise DimensionMismatch("config JSON must be an object")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise DimensionMismatch(f"unknown monte-carlo config keys: {', '.join(unknown)}")
    mode = _mode_from_args(config.get("mode", "one-sample"), config.get("lambda", 0.5))
    sizes = []
    for entry in config.get("sample_sizes", [10_000]):
        sizes.append(tuple(int(v) for v in entry) if isinstance(entry, list) else int(entry))
    return stochastic_harness.ExperimentConfig(
        sample_sizes=tuple(sizes),
        replicates=int(config.get("replicates", 200)),
        seed=int(config.get("seed", 0)),
        mode=mode,
        solver_policy=_policy(config.get("policy", "min-index")),
        comparison_samples=int(config.get("comparison_samples", 20_000)),
        hausdorff_sizes=tuple(int(v) for v in config.get("hausdorff_sizes", [])),
        hausdorff_replicates=int(config.get("hausdorff_replicates", 200)),
    )


def cmd_monte_carlo(args) -> int:
    started = _now()
    tols = _tols(args)
    lp, problem, payload = _load_problem(args.problem, tols)
    if problem is None:
        raise DimensionMismatch(
            "monte-carlo needs an OT problem (cost or ground points plus marginals)"
        )
    config_payload = _load_json(args.config)
    config = _experiment_config(config_payload)
    ledger = lp_core.enumerate_ledger(lp, tols)
    result = stochastic_harness.run_experiment(problem, config, tols, args.threads, ledger)
    out_dir = _out_dir(args)
    names = list(lp.names())
    main_batch = result.batches[-1]
    _write_csv(out_dir / "fluctuations.csv", names, main_batch.fluctuations)
    _write_csv(out_dir / "limit_samples.csv", names, result.limit_result.samples)
    hausdorff_rows = (
        np.array(result.hausdorff.rows, dtype=float)
        if result.hausdorff is not None and result.hausdorff.rows
        else np.empty((0, 3))
    )
    _write_csv(out_dir / "hausdorff.csv", ["n", "replicate", "d_H"], hausdorff_rows)
    report = result.report
    freqs = report.support_frequencies
    digest = {"problem": payload, "config": config_payload}
    manifest = _manifest(
        "monte-carlo", [args.problem, args.config], config.seed, args.threads, digest, started
    )
    report_payload = {
        "manifest": asdict(manifest),
        "rate": config.mode.rate_name,
        "sample_sizes": [list(n) if isinstance(n, tuple) else n for n in config.sample_sizes],
        "replicates": config.replicates,
        "per_coordinate_ks": report.per_coordinate_ks.tolist(),
        "energy_distance": report.energy_distance,
        "covariance_frobenius_error": report.covariance_frobenius_error,
        "value_ks": report.value_ks,
        "infeasible_rate": report.infeasible_rate,
        "support_frequencies": {
            "pos_positive_rate": freqs.pos_positive_rate,
            "tz_zero_rate": freqs.tz_zero_rate,
            "dz_positive_rates": list(freqs.dz_positive_rates),
        },
        "partition": {
            "pos": list(result.partition.pos),
            "tz": list(result.partition.tz),
            "dz": list(result.partition.dz),
        },
        "hausdorff_by_n": [list(row) for row in report.hausdorff_by_n],
        "limit_occupancy_frequencies": result.limit_result.occupancy_frequencies.tolist(),
        "limit_boundary_hits": result.limit_result.boundary_hits.tolist(),
    }
    _write_json(out_dir / "report.json", report_payload)
    _write_json(out_dir / "manifest.json", asdict(manifest))
    return EXIT_OK


def cmd_certify(args) -> int:
    started = _now()
    tols = _tols(args)
    lp, problem, payload = _load_problem(args.problem, tols)
    if problem is None:
        raise DimensionMismatch("certify needs an OT problem form")
    report = ot.certify(problem, max_len=args.max_cycle_len, tols=tols, lp=lp)

    def check_dict(check: ot.CertificateCheck) -> dict:
        witness = check.witness
        if witness is not None:
            witness = json.loads(json.dumps(witness))
        return {"holds": check.holds, "witness": witness}

    out = {
        "strict_monge": check_dict(report.strict_monge),
        "primal_summability": check_dict(report.primal_summability),
        "dual_summability": check_dict(report.dual_summability),
        "strict_cyclical_monotone_support": check_dict(report.strict_cyclical_monotone_support),
        "uniqueness_implied": report.uniqueness_implied,
    }
    out_dir = _out_dir(args)
    _write_json(out_dir / "certificates.json", out)
    digest = {"problem": payload, "max_cycle_len": args.max_cycle_len}
    manifest = _manifest("certify", [args.problem], None, None, digest, started)
    _write_json(out_dir / "manifest.json", asdict(manifest))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *tol_names: str) -> None:
    """--out-dir and a flag for each tolerance the command reads."""
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    for name in tol_names:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp-limitlaw",
        description="Limit laws of optimal solutions to randomly perturbed linear programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bases, assumptions, support partition, cones")
    p.add_argument("problem")
    _add_common(p, "rank_tol", "feas_tol", "dedup_tol")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("limit-sample", help="Monte-Carlo draws of the limit law")
    p.add_argument("problem")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["one-sample", "two-sample"], default="one-sample")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--policy", choices=["min-index", "uniform-random"], default="min-index")
    _add_common(p, "rank_tol", "feas_tol", "dedup_tol", "boundary_tol")
    p.set_defaults(func=cmd_limit_sample)

    p = sub.add_parser("monte-carlo", help="resampling experiment against the limit law")
    p.add_argument("problem")
    p.add_argument("config")
    p.add_argument(
        "--threads",
        type=int,
        default=stochastic_harness.available_cpus(),
        help="energy-distance worker threads; results do not depend on its value",
    )
    _add_common(p, "rank_tol", "feas_tol", "dedup_tol", "boundary_tol")
    p.set_defaults(func=cmd_monte_carlo)

    p = sub.add_parser("certify", help="transport uniqueness/nondegeneracy certificates")
    p.add_argument("problem")
    p.add_argument("--max-cycle-len", type=int, default=None)
    _add_common(p, "rank_tol", "feas_tol", "sum_tol")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:  # only monte-carlo declares --threads
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    # The package's warnings reach stderr even where the caller set up no logging.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    package_logger = logging.getLogger(__package__)
    package_logger.addHandler(handler)
    try:
        return args.func(args)
    except (LpLimitsError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if type(exc) is LpLimitsError:  # the bare base class marks a failure of the numerics
            return EXIT_INTERNAL
        return next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), EXIT_INPUT)
    finally:
        package_logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
