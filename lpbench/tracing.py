"""In-memory span recorder wrapped around the library's public functions.

Spans are recorded from the benchmark's own files: installing a ``Tracer``
replaces every module attribute (and class method) through which callers
reach a traced function with a timing wrapper, and ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.  Counters are taken from
the arguments and return values of the traced calls, and are evaluated
only after an op has finished, so their cost lands outside every span and
outside the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    """One traced call: name, wall-clock interval, parent span index, op id."""

    name: str
    start: float
    end: float
    parent: int
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def lex_rank(combo, d: int) -> int:
    """0-based position of an increasing m-subset of range(d) in lexicographic order."""
    m = len(combo)
    rank = 0
    previous = -1
    for position, value in enumerate(combo):
        for skipped in range(previous + 1, value):
            rank += math.comb(d - skipped - 1, m - position - 1)
        previous = value
    return rank


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


# Counter functions: (arguments, result) -> {counter name: increment}.

def _count_ledger(a, ledger):
    lp = a["lp"]
    return {"lp_core.bases_scanned": math.comb(lp.n_cols, lp.n_rows),
            "lp_core.bases_kept": len(ledger.bases)}


def _count_min_index(a, pair):
    return {"lp_core.bases_scanned": lex_rank(pair.basis.indices, a["lp"].n_cols) + 1,
            "lp_core.bases_kept": 1}


def _count_limit(a, result):
    from lplimits.tolerances import DEFAULT_TOLS

    tol = DEFAULT_TOLS.boundary_tol if a["tol"] is None else a["tol"]
    g = result.gaussian_directions
    feasible = 0
    for cone in a["spec"].cones:
        if cone.halfspace_normals.shape[0] == 0:
            feasible += g.shape[0]
        else:
            feasible += int(np.sum(cone.products(g).min(axis=1) >= -tol))
    return {"cones_limit.limit_draws": result.samples.shape[0],
            "cones_limit.boundary_hits": int(result.boundary_hits.sum()),
            "cones_limit.feasible_cones": feasible}


def _count_fluctuations(a, batches):
    return {"stochastic_harness.replicates_infeasible": sum(b.infeasible_count for b in batches)}


def _count_energy(a, value):
    nx, ny = len(a["x"]), len(a["y"])
    kx, ky = min(nx, a["max_rows"]), min(ny, a["max_rows"])
    return {"stochastic_harness.energy_pairs": kx * ky + kx * kx + ky * ky,
            "stochastic_harness.energy_rows_dropped": (nx - kx) + (ny - ky)}


# (span name, defining module, attribute, counter).  The span name is the
# metric prefix; "Class.method" attributes are patched on the class.
TRACED = (
    ("ot.reduce_to_lp", "ot", "reduce_to_lp", None),
    ("ot.ot_limit_spec", "ot", "ot_limit_spec", None),
    ("ot.certify", "ot", "certify", None),
    ("lp_core.enumerate_ledger", "lp_core", "enumerate_ledger", _count_ledger),
    ("lp_core.solve_min_index", "lp_core", "solve_min_index", _count_min_index),
    ("lp_core.check_assumptions", "lp_core", "check_assumptions", None),
    ("cones_limit.build_cones", "cones_limit", "build_cones", None),
    ("cones_limit.sample_limit", "cones_limit", "sample_limit", None),
    ("cones_limit.evaluate_limit", "cones_limit", "evaluate_limit", _count_limit),
    ("stochastic_harness.run_experiment", "stochastic_harness", "run_experiment", None),
    ("stochastic_harness.RepeatedSolver", "stochastic_harness", "RepeatedSolver.__init__", None),
    ("stochastic_harness.solve_batch", "stochastic_harness", "RepeatedSolver.solve_batch", None),
    ("stochastic_harness.mixed_solution", "stochastic_harness", "RepeatedSolver.mixed_solution", None),
    ("stochastic_harness.vertices_at", "stochastic_harness", "RepeatedSolver.vertices_at", None),
    ("stochastic_harness.fluctuation_run", "stochastic_harness", "fluctuation_run", _count_fluctuations),
    ("stochastic_harness.resample_rhs", "stochastic_harness", "resample_rhs", None),
    ("stochastic_harness.compare_distributions", "stochastic_harness", "compare_distributions", None),
    ("stochastic_harness.energy_distance", "stochastic_harness", "energy_distance", _count_energy),
    ("stochastic_harness.hausdorff_run", "stochastic_harness", "hausdorff_run", None),
    ("stochastic_harness.hausdorff_distance", "stochastic_harness", "hausdorff_distance", None),
)

CLI_SPAN = "cli"

SELF_TIME_SPANS = tuple(name for name, *_ in TRACED) + (CLI_SPAN,)
CALL_COUNTS = (
    "lp_core.enumerate_ledger", "stochastic_harness.resample_rhs",
    "stochastic_harness.mixed_solution", "stochastic_harness.hausdorff_distance",
)
COUNTERS = (
    "lp_core.bases_scanned", "lp_core.bases_kept", "cones_limit.limit_draws",
    "cones_limit.boundary_hits", "stochastic_harness.replicates_infeasible",
    "stochastic_harness.energy_pairs", "stochastic_harness.energy_rows_dropped",
    "cli.bytes_written",
)


class Tracer:
    """Records spans and counters of the ops it is told about."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._pending: list[tuple[Callable, Callable, tuple, dict, object]] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self._pending.append((counter, fn, args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Patch every name under which ``modules`` expose a traced function.

        ``modules`` maps short names ("ot", "lp_core", ...) to the library's
        modules; the package module itself goes under "lplimits".
        """
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, home, attr, counter in TRACED:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[home], cls_name)
                original = cls.__dict__[method]
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, counter))
                continue
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, op: int, name: str, value: float) -> None:
        bucket = self.counters.setdefault(op, {})
        bucket[name] = bucket.get(name, 0) + value

    def finish_op(self, op: int) -> None:
        """Evaluate the counters of op's traced calls; runs outside all spans."""
        self.counters.setdefault(op, {})
        for counter, fn, args, kwargs, result in self._pending:
            for key, value in counter(_bound(fn, args, kwargs), result).items():
                self.add(op, key, value)
        self._pending.clear()

    def per_op_metrics(self) -> dict[int, dict[str, float]]:
        """Per traced op: self time per span name, call counts, counters."""
        out: dict[int, dict[str, float]] = {}
        for op, counters in self.counters.items():
            row = {f"{n}.self_s": 0.0 for n in SELF_TIME_SPANS}
            row.update({f"{n}.calls": 0 for n in CALL_COUNTS})
            row.update({n: 0 for n in COUNTERS})
            row.update(counters)
            out[op] = row
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.op not in out:
                continue
            row = out[span.op]
            key = f"{span.name}.self_s"
            if key in row:
                row[key] += own
            if span.name in CALL_COUNTS:
                row[f"{span.name}.calls"] += 1
        for row in out.values():
            scanned = row["lp_core.bases_scanned"]
            draws = row["cones_limit.limit_draws"]
            row["lp_core.kept_per_scanned"] = row["lp_core.bases_kept"] / scanned if scanned else 0.0
            row["cones_limit.feasible_cones_per_draw"] = (
                row.pop("cones_limit.feasible_cones", 0) / draws if draws else 0.0
            )
        return out


def median_metrics(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-op metric."""
    rows = list(per_op.values())
    if not rows:
        return {}
    return {key: float(statistics.median(row[key] for row in rows)) for key in rows[0]}
