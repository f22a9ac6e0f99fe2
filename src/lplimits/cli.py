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

_CSV_BLOCK = 1024  # rows per write when six columns vary
_CSV_CELLS = 6 * _CSV_BLOCK  # varying cells formatted per write: about 1 MiB of temporaries

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


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


_CELL = 24  # the longest "%.17g" string: "-d.dddddddddddddddde-ddd"
_POW10 = np.array([float(10**s) for s in range(23)])  # exact for every s <= 22
# _QUADS[q] is the ASCII of the 4-digit group q as one uint32; _ZEROS4[q] counts its trailing zeros.
_QUADS = np.ravel(
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view(np.uint32))
_ZEROS4 = (np.arange(10_000)[:, None] % [10, 100, 1000, 10_000] == 0).sum(axis=1, dtype=np.uint8)
# _KEEP[L] keeps the first L bytes of a cell, as three uint64 masks.
_KEEP = np.where(np.arange(_CELL) < np.arange(_CELL + 1)[:, None], 255, 0).astype(np.uint8).view(np.uint64)


def _split(x):
    """Veltkamp's split of binary64 x into two 26-bit halves."""
    t = 134217729.0 * x  # 2**27 + 1
    return t - (t - x), x - (t - (t - x))


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, s):
    """hi = fl(a * 10**s) and lo with hi + lo == a * 10**s exactly (Dekker, 1971)."""
    hi = a * _POW10[s]
    (a1, a2), b1, b2 = _split(a), _POW10_HI[s], _POW10_LO[s]
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """The ASCII of "%.17g" % v for each value, NUL-padded to a (k, 24) uint8 array.

    Cells with 1e-4 <= |v| < 1e16, where "%.17g" is fixed notation, and
    +-0.0 are formed here, byte for byte as CPython's correctly rounded
    conversion; "%" formats the rest (subnormal, tiny, huge, inf, nan).
    """
    mag = np.abs(values)
    fixed = (mag >= 1e-4) & (mag < 1e16)
    cells = np.flatnonzero(fixed)
    a = mag[cells]
    # The 17 significant digits are n = round-half-even(a * 10**(16 - x)), with
    # x the decimal exponent: n in [1e16, 1e17).  hi + lo is that product
    # exactly, and hi is an even integer above 2**53, so n = hi + rint(lo).  n
    # never rounds up to 1e17: below a power of ten, a binary64 value is at
    # least 1.1e-16 short.
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - x)
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # only these can need a shift
    if len(edge):
        hi_e, lo_e = hi[edge], lo[edge]
        shift = ((hi_e > 1e17) | ((hi_e == 1e17) & (lo_e >= 0))).astype(np.int64)
        shift -= (hi_e < 1e16) | ((hi_e == 1e16) & (lo_e < 0))
        wrong = edge[shift != 0]  # log10 rounded across a power of ten
        x[wrong] += shift[shift != 0]
        hi[wrong], lo[wrong] = _scaled(a[wrong], 16 - x[wrong])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    del a, hi, lo  # each block's temporaries are freed as soon as they are dead
    # Cells sorted by exponent (x >= -4) put each exponent's digits in one slice.
    order = np.argsort((x + 4).astype(np.uint8), kind="stable")
    n, x = n[order], x[order]
    quads = np.full((len(n), 6), _QUADS[0])
    zeros = 0
    for col in range(5, 1, -1):  # four 4-digit groups, least significant first
        high = n // 10_000  # not np.divmod, which skips NumPy's fast division by a scalar
        group = n - high * 10_000
        n = high
        quads[:, col] = _QUADS[group]
        zeros = zeros + (zeros == 4 * (5 - col)) * _ZEROS4[group]
    quads[:, 1] = _QUADS[n]  # the leading digit
    digits = quads.view(np.uint8)  # "0000000d" then 16 digits
    body = np.zeros((len(x), _CELL), np.uint8)  # byte 0 is the sign's
    counts = np.bincount(x + 4)
    stop = 0
    for e in np.flatnonzero(counts) - 4:
        start, stop = stop, stop + counts[e + 4]
        point = 8 + e  # digits[:, point:] follow the decimal point
        width = point - 7 - min(e, 0)  # integer digits, or the "0" before the point
        body[start:stop, 1 : 1 + width] = digits[start:stop, point - width : point]
        body[start:stop, 1 + width] = 46  # "."
        body[start:stop, 2 + width : 26 + width - point] = digits[start:stop, point:]
    del quads, digits, n
    # Trailing zeros go, and the point with them when no fraction digit is left.
    end = 19 - zeros - np.minimum(x, 0)
    end = np.where(end <= x + 3, x + 2, end)
    words = body.view(np.uint64)
    np.bitwise_and(words, np.take(_KEEP, end, axis=0), out=words)
    out = np.zeros(len(values), f"V{_CELL}")
    out[cells[order]] = body.view(out.dtype).ravel()
    out = out.view(np.uint8).reshape(-1, _CELL)
    out[:, 0] = np.signbit(values) * np.uint8(45)  # "-"
    out[:, 1][mag == 0.0] = 48  # "0"
    rest = np.flatnonzero(~fixed & (mag != 0.0))
    if len(rest):
        text = "".join(("%.17g" % v).ljust(_CELL, "\0") for v in values[rest].tolist())
        out[rest] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _CELL)
    return out


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        if rows.size == 0:
            return
        rows = np.atleast_2d(rows)
        bits = rows.view(np.uint64)
        # Equal bits format to equal strings, so a column with one bit pattern
        # in every row is written from its first row's string.
        varying = (bits != bits[0]).any(axis=0)
        line = ",".join("\0" if v else "%.17g" % x for v, x in zip(varying, rows[0].tolist()))
        head, *tails = (line + "\n").split("\0")
        # Each varying column's slot is its cell, then the constant text up to
        # the next varying column; the text before the first one leads the row.
        template = (head + "".join("\0" * _CELL + tail for tail in tails)).encode("ascii")
        starts = np.cumsum([len(head)] + [_CELL + len(tail) for tail in tails])[:-1]
        step = max(1, _CSV_CELLS // max(1, len(starts)))  # _CSV_CELLS varying cells, or one row
        buffer = np.tile(np.frombuffer(template, np.uint8), (min(len(rows), step), 1))
        for first in range(0, rows.shape[0], step):
            block = rows[first : first + step, varying]
            out = buffer[: len(block)]
            cells = _g17_cells(block.ravel()).reshape(len(block), -1, _CELL)
            for j, start in enumerate(starts):
                out[:, start : start + _CELL] = cells[:, j]
            handle.write(out.tobytes().translate(None, b"\0"))  # CSV text is NUL-free


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


def _tols(args):
    overrides = {}
    for name in _TOL_NAMES:
        value = getattr(args, name, None)  # None also for a flag the command does not declare
        if value is not None:
            overrides[name] = value
    return DEFAULT_TOLS.with_(**overrides) if overrides else DEFAULT_TOLS


def _inputs(args):
    """(tols, problem, problem payload).

    analyze's problem is an LP, which an OT problem is auto-reduced to at tols;
    every other command needs an OT problem and gets it as an ``OtProblem``.
    """
    tols = _tols(args)
    payload = _load_json(args.problem)
    if not isinstance(payload, dict):
        raise DimensionMismatch("problem JSON must be an object")
    if "A" in payload:
        if args.command != "analyze":
            raise DimensionMismatch(
                f"{args.command} needs an OT problem (cost or ground points plus marginals)"
            )
        return tols, lp_core.lp_from_dict(payload, tols), payload
    problem = ot.ot_from_dict(payload)
    if min(problem.r.min(), problem.s.min()) <= 0.0:
        logger.warning(
            "a marginal has a zero coordinate; the limit theory assumes "
            "strictly interior probability vectors"
        )
    if args.command == "analyze":
        return tols, ot.reduce_to_lp(problem, tols), payload
    return tols, problem, payload


def _run(args) -> int:
    """Runs the command, then writes its files and the run manifest into --out-dir.

    A command returns (files, digest payload, seed).  files maps each output
    name to a JSON payload or, for a ``.csv`` name, to (header, rows); a JSON
    payload may come as the function that returns it, called once every CSV is
    written.  A JSON payload's ``manifest`` key receives the run manifest,
    whose ``finished`` time follows those calls.  Nothing is written when the
    command raises, nor when --out-dir cannot be a directory (its nearest
    existing ancestor is not one), which is found before any work; when a
    write or a payload function raises, the files and directories made so
    far are removed.
    """
    started = _now()
    out_dir = Path(args.out_dir)
    ancestor = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not ancestor.is_dir():
        raise DimensionMismatch(f"--out-dir {out_dir}: {ancestor} is not a directory")
    files, digest_payload, seed = args.func(args)
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, content in files.items():
            if name.endswith(".csv"):
                written.append(out_dir / name)
                _write_csv(out_dir / name, *content)
        payloads = {name: content() if callable(content) else content
                    for name, content in files.items() if not name.endswith(".csv")}
        manifest = asdict(RunManifest(
            command=args.command,
            input_paths=tuple(
                getattr(args, name) for name in ("problem", "config") if hasattr(args, name)
            ),
            seed=seed,
            threads=getattr(args, "threads", None),  # only monte-carlo declares --threads
            tool_version=__version__,
            config_digest=config_digest(digest_payload),
            started=started,
            finished=_now(),
        ))
        for name, content in {**payloads, "manifest.json": manifest}.items():
            written.append(out_dir / name)
            _write_json(out_dir / name, dict(content, manifest=manifest) if "manifest" in content else content)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for path in created:
            path.rmdir()
        raise
    return EXIT_OK


def cmd_analyze(args):
    tols, lp, payload = _inputs(args)
    ledger = lp_core.enumerate_ledger(lp, tols)
    report = lp_core.check_assumptions(ledger)
    out: dict = {
        "m": lp.n_rows,
        "d": lp.n_cols,
        "dual_feasible_count": len(ledger.bases),
        "optimal_count": ledger.optimal_count,
        "optimal_value": ledger.optimal_value,
        "optimal_bases": ledger.bases[: ledger.optimal_count].tolist(),
        "degeneracy": [
            {
                "basis": list(p.basis.indices),
                "primal_degenerate": p.primal_degenerate,
                "dual_degenerate": p.dual_degenerate,
            }
            for p in ledger.pairs
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
        partition = cones_limit.support_partition(ledger)
        cones = cones_limit.build_cones(ledger)
        out["partition"] = {
            "pos": list(partition.pos),
            "tz": list(partition.tz),
            "dz": list(partition.dz),
        }
        out["cones"] = [
            {
                "basis_index": k,
                "basis": ledger.bases[k].tolist(),
                "halfspace_normals": cone.halfspace_normals.tolist(),
            }
            for k, cone in enumerate(cones)
        ]
    return {"analysis.json": out}, payload, None


def _mode(name: str, *lam):
    """The sampling mode called name; lam, when given, is read in two-sample mode only."""
    if name == "one-sample":
        return ot.OneSample()
    if name == "two-sample":
        return ot.TwoSample(*lam)
    raise DimensionMismatch(f"unknown mode {name!r}")


def _policy(name: str) -> cones_limit.TieBreak:
    try:
        return cones_limit.TieBreak(name)
    except ValueError:
        raise DimensionMismatch(f"unknown tie-break policy {name!r}") from None


def cmd_limit_sample(args):
    tols, problem, payload = _inputs(args)
    spec = ot.ot_limit_spec(problem, _mode(args.mode, args.lam), tie_break=_policy(args.policy), tols=tols)
    result = cones_limit.sample_limit(spec, args.samples, args.seed)
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
        "optimal_bases": spec.ledger.bases[: spec.ledger.optimal_count].tolist(),
    }
    files = {"limit_samples.csv": (list(spec.ledger.lp.names()), result.samples),
             "limit_samples.json": sidecar}
    digest = {"problem": payload, "samples": args.samples, "seed": args.seed,
              "mode": args.mode, "lambda": sidecar["lambda"], "policy": args.policy}
    return files, digest, args.seed


def _experiment_config(config: dict) -> stochastic_harness.ExperimentConfig:
    """The config file's settings; ExperimentConfig holds the default of every omitted key."""
    if not isinstance(config, dict):
        raise DimensionMismatch("config JSON must be an object")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise DimensionMismatch(f"unknown monte-carlo config keys: {', '.join(unknown)}")
    fields = {key: value for key, value in config.items() if key not in ("mode", "lambda", "policy")}
    if "mode" in config:
        lam = [config["lambda"]] if "lambda" in config else []
        fields["mode"] = _mode(config["mode"], *lam)
    if "policy" in config:
        fields["solver_policy"] = _policy(config["policy"])
    return stochastic_harness.ExperimentConfig(**fields)


def cmd_monte_carlo(args):
    tols, problem, payload = _inputs(args)
    config_payload = _load_json(args.config)
    config = _experiment_config(config_payload)
    result = stochastic_harness.run_experiment(problem, config, tols, args.threads)
    names = list(result.spec.ledger.lp.names())
    main_batch = result.batches[-1]
    hausdorff = result.hausdorff
    hausdorff_rows = np.array(hausdorff.rows if hausdorff is not None else (), float).reshape(-1, 3)

    def report_payload() -> dict:
        """report.json; its first read of result.report waits for the energy distance."""
        report = result.report
        freqs = result.support_frequencies
        return {
            "manifest": None,  # the run manifest, filled in by _run
            "rate": config.mode.rate_name,
            "sample_sizes": [list(n) if isinstance(n, tuple) else n for n in config.sample_sizes],
            "replicates": config.replicates,
            "per_coordinate_ks": report.per_coordinate_ks.tolist(),
            "energy_distance": report.energy_distance,
            "covariance_frobenius_error": report.covariance_frobenius_error,
            "value_ks": report.value_ks,
            "infeasible_rate": main_batch.infeasible_rate,
            "support_frequencies": {
                "pos_positive_rate": freqs.pos_positive_rate,
                "tz_zero_rate": freqs.tz_zero_rate,
                "dz_positive_rates": list(freqs.dz_positive_rates),
            },
            "partition": {
                "pos": list(result.spec.partition.pos),
                "tz": list(result.spec.partition.tz),
                "dz": list(result.spec.partition.dz),
            },
            "hausdorff_by_n": [list(row) for row in hausdorff.summary] if hausdorff is not None else [],
            "limit_occupancy_frequencies": result.limit_result.occupancy_frequencies.tolist(),
            "limit_boundary_hits": result.limit_result.boundary_hits.tolist(),
        }

    files = {
        "fluctuations.csv": (names, main_batch.fluctuations),
        "limit_samples.csv": (names, result.limit_result.samples),
        "hausdorff.csv": (["n", "replicate", "d_H"], hausdorff_rows),
        "report.json": report_payload,
    }
    return files, {"problem": payload, "config": config_payload}, config.seed


def cmd_certify(args):
    tols, problem, payload = _inputs(args)
    report = ot.certify(problem, tols=tols)

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
    return {"certificates.json": out}, {"problem": payload}, None


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
        help="energy-distance worker threads, at most 4; they run beside the main thread, which "
             "computes the other stages meanwhile, and their buffers stay <= 20 MB; results do "
             "not depend on the value",
    )
    _add_common(p, "rank_tol", "feas_tol", "dedup_tol", "boundary_tol")
    p.set_defaults(func=cmd_monte_carlo)

    p = sub.add_parser("certify", help="transport uniqueness/nondegeneracy certificates")
    p.add_argument("problem")
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
        return _run(args)
    except (LpLimitsError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if type(exc) is LpLimitsError:  # the bare base class marks a failure of the numerics
            return EXIT_INTERNAL
        return next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), EXIT_INPUT)
    finally:
        package_logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
