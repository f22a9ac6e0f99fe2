"""Benchmark of the ``lp-limitlaw`` command line, end to end and per layer.

    python3 lpbench/run.py --workload golden-mc --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after the other, each in
its own process.

Run from a source checkout; the package is imported from ``src/``.  One
client issues one op at a time (a closed loop) for ``--seconds`` seconds.
An op is one or more in-process ``lplimits.cli.main([...])`` calls on the
next input of the workload's pool, so argument parsing and CSV/JSON writing
are timed with the numerics.  After the timed phase every op's outputs are
checked (see ``checks.py``); an op that raised, exited non-zero or failed a
check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Op and
set-up times are wall-clock seconds scaled to a nominal machine speed by a
calibration kernel timed next to each op (see ``Calibration``); the raw
times are kept in the result file.  The run also times three
fresh-interpreter set-ups and probes the largest transport size ``analyze``
can handle.  ``--trace 1`` visits each input twice, once traced, in
alternating order, and reports the per-layer metrics (median per traced
op, raw seconds) plus the tracing overhead; its spans go to
``.bench_work/results``.

The last line of stdout is the JSON result; the lines before it print each
metric with its unit and the run metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, str(NPROC))

SETUP_REPEATS = 3
PROBE_BUDGET_S = 15.0
TAIL_BEYOND = 10
# Median time of the calibration kernel over 236 measurements on a shared
# 2-vCPU Xeon VM; reported op times are scaled to that machine speed (see
# Calibration), so they read close to wall-clock seconds there.
NOMINAL_CALIBRATION_S = 0.15


if not (SRC / "lplimits" / "cli.py").is_file():
    sys.exit("lpbench: no package source at src/lplimits; run from a source checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def library_modules() -> dict:
    """The package and its modules, keyed by the names the tracer uses."""
    import lplimits
    from lplimits import cli, cones_limit, lp_core, ot, stochastic_harness

    return {"lplimits": lplimits, "cli": cli, "cones_limit": cones_limit,
            "lp_core": lp_core, "ot": ot, "stochastic_harness": stochastic_harness}


def prepare(workload: str, work: Path, with_refs: bool = True) -> dict:
    """Everything an op needs before the first one runs: imports, inputs, references."""
    modules = library_modules()
    refs = None
    if with_refs and checks.reference_files(workload) is not None:
        refs = checks.load_json(Path(__file__).parent / "refs" / f"{workload}.json")
    return {"modules": modules, "inputs": workloads.write_inputs(workload, work / "inputs"),
            "refs": refs}


class Calibration:
    """A fixed CPU kernel timed between ops to track the machine's current speed.

    On a shared machine the same op can take twice as long from one minute
    to the next.  Timing this kernel before and after every op and scaling
    the op time by NOMINAL_CALIBRATION_S / (mean of the two) removes part of
    that drift: on a shared 2-vCPU VM it roughly halved the seed-to-seed
    spread of the median op time in most ten-run windows, though not in all.  The kernel mixes what the ops spend time on: many
    small dense factorizations called from Python, and pairwise-distance
    broadcasts.  The broadcasts run in small blocks so the kernel never
    raises the peak resident memory the benchmark reports.  It uses numpy
    and scipy only, never the package, so no change to the package can
    move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrices = rng.standard_normal((200, 7, 7))
        self.points = rng.standard_normal((1500, 9))
        self.times: list[float] = []
        self.measure()  # warm-up
        self.times.clear()

    def measure(self) -> float:
        import scipy.linalg

        start = time.perf_counter()
        for _ in range(4):
            for matrix in self.matrices:
                scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), matrix[0])
            for row in range(0, 400, 40):
                block = self.points[row : row + 40, None, :] - self.points[None, :, :]
                (block * block).sum(axis=2).sum()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def speed_factors(self) -> list[float]:
        """Per op bracketed by measurements k and k+1: nominal over measured time."""
        return [2.0 * NOMINAL_CALIBRATION_S / (a + b) for a, b in zip(self.times, self.times[1:])]


def run_op(cli, commands, out: Path, tracer=None) -> tuple[float, str | None]:
    """Wall time of one op and its error, if it raised or exited non-zero."""
    error = None
    start = time.perf_counter()
    try:
        for argv in commands:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(tracing.CLI_SPAN):
                    code = cli.main(argv)
            if code != 0:
                error = f"{argv[0]} exited {code}"
                break
    except (Exception, SystemExit) as exc:  # an op failure is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail op time.

    The highest percentile with at least TAIL_BEYOND ops beyond it, when that
    percentile is at or above the median; otherwise the slowest op (100).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank >= (n + 1) // 2:
        return ordered[rank - 1], 100.0 * rank / n
    return ordered[-1], 100.0


def measure_setup(workload: str, seed: int, calibration: Calibration) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    Each time is scaled by the calibrations taken just before and after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        calibration.measure()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=child_env(), check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        calibration.measure()
        times[-1] *= calibration.speed_factors()[-1]
    return times


def probe_ot_n_max(seed: int, work: Path) -> tuple[int, list[dict]]:
    """Largest N in 4..8 whose ``analyze`` exits 0 within PROBE_BUDGET_S, one process each.

    N is raised until the first size that is not reached (cap refusal,
    another error, or the budget).  Below 4 reports 3.
    """
    reached = workloads.OT_N_RANGE.start - 1
    log = []
    for n_points in workloads.OT_N_RANGE:
        directory = work / "probe" / f"n{n_points}"
        directory.mkdir(parents=True, exist_ok=True)
        problem = directory / "problem.json"
        problem.write_text(json.dumps(workloads.generic_ot(n_points, [n_points, seed])))
        start = time.perf_counter()
        try:
            code = subprocess.run(
                [sys.executable, "-m", "lplimits.cli", "analyze", str(problem),
                 "--out-dir", str(directory)],
                cwd=ROOT, env=child_env(), timeout=PROBE_BUDGET_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        log.append({"n": n_points, "exit": code, "seconds": time.perf_counter() - start})
        if code != 0:
            break
        reached = n_points
    return reached, log


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": NPROC,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def timed_phase(workload: str, ctx: dict, order: list[int], seconds: float, work: Path,
                tracer=None, calibration=None) -> list[dict]:
    """The closed loop: one op at a time until ``seconds`` have passed."""
    cli = ctx["modules"]["cli"]
    ops: list[dict] = []
    if calibration:
        calibration.measure()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not ops or (tracer and len(ops) % 2):
        i = len(ops)
        # A traced run visits each pool member twice, once traced; which of
        # the two visits is traced alternates from one member to the next.
        index = order[(i // 2 if tracer else i) % len(order)]
        out = work / f"op-{i:03d}"
        commands = workloads.commands(workload, index, ctx["inputs"][index], out)
        traced = tracer is not None and i % 2 != (i // 2) % 2
        if traced:
            tracer.op = i
            tracer.install(ctx["modules"])
            try:
                seconds_i, error = run_op(cli, commands, out, tracer)
            finally:
                tracer.uninstall()
            tracer.finish_op(i)
            tracer.add(i, "cli.bytes_written", bytes_under(out))
        else:
            seconds_i, error = run_op(cli, commands, out)
        ops.append({"op": i, "pool": index, "seconds": seconds_i, "traced": traced,
                    "error": error, "out": out})
        if calibration:
            calibration.measure()
    return ops


def check_ops(workload: str, ctx: dict, ops: list[dict]) -> None:
    """Check the outputs of every op that exited 0; a problem becomes the op's error."""
    for op in ops:
        out = op.pop("out")
        if op["error"] is None:
            problem = checks.load_json(ctx["inputs"][op["pool"]] / "problem.json")
            reference = None if ctx["refs"] is None else ctx["refs"].get(str(op["pool"]))
            try:
                problems = checks.check_op(workload, out, problem, reference)
            except (OSError, ValueError, KeyError, RuntimeError) as exc:
                problems = [f"check could not run: {type(exc).__name__}: {exc}"]
            if problems:
                op["error"] = "; ".join(problems)
        if op["error"] is not None:
            print(f"op {op['op']} (pool {op['pool']}) failed: {op['error']}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    codes = [
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        for workload in workloads.WORKLOADS
    ]
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = args.workload
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"

    if args.setup_only:
        setup_dir = WORK / f"setup-{os.getpid()}"
        prepare(workload, setup_dir)
        shutil.rmtree(setup_dir)
        return 0

    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = prepare(workload, work)
    info: dict = {"own_setup_s": time.perf_counter() - PROCESS_START}
    order = workloads.pool_order(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    calibration = None if tracer else Calibration()
    ops = timed_phase(workload, ctx, order, args.seconds, work, tracer, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_ops(workload, ctx, ops)
    failed = sum(op["error"] is not None for op in ops)
    info["ops"] = ops

    if tracer:
        per_op = tracer.per_op_metrics()
        values = tracing.median_metrics(per_op)
        values["trace.overhead_s"] = statistics.median(
            (b["seconds"] - a["seconds"]) * (1 if b["traced"] else -1)
            for a, b in zip(ops[0::2], ops[1::2]))
        info["per_op"] = {str(k): v for k, v in per_op.items()}
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{tag}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    else:
        for op, factor in zip(ops, calibration.speed_factors()):
            op["scaled_seconds"] = op["seconds"] * factor
        scaled = [op["scaled_seconds"] for op in ops]
        tail_s, info["tail_percentile"] = tail(scaled)
        info["setup_times"] = measure_setup(workload, args.seed, calibration)
        n_max, info["probe"] = probe_ot_n_max(args.seed, work)
        info["calibration_s"] = calibration.times
        info["failed_op_frac"] = failed / len(ops)
        info["raw_op_s_p50"] = statistics.median(op["seconds"] for op in ops)
        values = {
            "setup_s": statistics.median(info["setup_times"]),
            "op_s_p50": statistics.median(scaled),
            "op_s_tail": tail_s,
            "ops_per_s": (len(ops) - failed) / sum(scaled),
            "ok_op_frac": 1.0 - failed / len(ops),
            "peak_rss_mb": peak_rss_mb,
            "ot_n_max": n_max,
        }
    shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in declared_metrics(bool(args.trace)):
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{workload:18s} {entry['name']:48s} {values[entry['name']]:.6g} {entry['unit']}")
    if not tracer:
        print(f"{workload:18s} op_s_tail is p{info['tail_percentile']:.1f} of {len(ops)} ops; "
              f"failed_op_frac {info['failed_op_frac']:.6g}; "
              f"unscaled op_s_p50 {info['raw_op_s_p50']:.4f} s; "
              f"setup runs {', '.join(f'{t:.3f}' for t in info['setup_times'])} s")
    meta = metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({"meta": meta, "metrics": metrics, **info},
                                                    indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
