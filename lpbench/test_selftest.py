"""Self-tests of the benchmark: span arithmetic, checkers, tracing.

    python3 -m pytest lpbench -q

The checker and tracing tests run real ops (about 10 s in total).
"""

from __future__ import annotations

import itertools
import json
import shutil

import numpy as np
import pytest

import run  # puts src/ on sys.path
import checks
import tracing
import workloads
from tracing import Span


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),      # overlaps a: the union 1..6 is covered
        Span("c", 9.0, 12.0, 0, 0),     # clipped at the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def test_self_times_of_one_name_add_up_per_op():
    tracer = tracing.Tracer()
    tracer.spans = [
        Span("cli", 0.0, 5.0, -1, 1),
        Span("lp_core.enumerate_ledger", 1.0, 2.0, 0, 1),
        Span("lp_core.enumerate_ledger", 2.5, 3.0, 0, 1),
        Span("cli", 6.0, 7.0, -1, 1),
    ]
    tracer.counters = {1: {}}
    row = tracer.per_op_metrics()[1]
    assert row["lp_core.enumerate_ledger.self_s"] == pytest.approx(1.5)
    assert row["lp_core.enumerate_ledger.calls"] == 2
    assert row["cli.self_s"] == pytest.approx(3.5 + 1.0)


def test_lex_rank_matches_combinations_order():
    for d, m in ((5, 2), (7, 3), (9, 5)):
        for rank, combo in enumerate(itertools.combinations(range(d), m)):
            assert tracing.lex_rank(combo, d) == rank


def test_tail_has_ten_ops_beyond_or_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(100.0 * 20 / 30))


@pytest.fixture(scope="module")
def golden_op(tmp_path_factory):
    """Outputs of golden-mc pool member 0, with its problem and reference."""
    root = tmp_path_factory.mktemp("golden")
    ctx = run.prepare("golden-mc", root)
    out = root / "op"
    commands = workloads.commands("golden-mc", 0, ctx["inputs"][0], out)
    _, error = run.run_op(ctx["modules"]["cli"], commands, out)
    assert error is None
    problem = checks.load_json(ctx["inputs"][0] / "problem.json")
    return out, problem, ctx["refs"]["0"]


def corrupted(golden_op, tmp_path):
    out, problem, reference = golden_op
    copy = tmp_path / "op"
    shutil.copytree(out, copy)
    return copy, problem, reference


def test_golden_op_passes_every_check(golden_op):
    out, problem, reference = golden_op
    assert checks.check_op("golden-mc", out, problem, reference) == []


def test_flipped_csv_byte_is_rejected(golden_op, tmp_path):
    out, problem, reference = corrupted(golden_op, tmp_path)
    path = out / "hausdorff.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    assert any("hausdorff.csv: digest" in p for p in checks.check_reference(out, reference))


def test_shifted_energy_is_rejected(golden_op, tmp_path):
    out, problem, reference = corrupted(golden_op, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["energy_distance"] += 1e-4
    (out / "report.json").write_text(json.dumps(report))
    assert any("energy distance" in p for p in checks.check_monte_carlo(out, problem))
    assert any("energy_distance" in p for p in checks.check_reference(out, reference))


def test_negative_true_zero_entry_is_rejected(golden_op, tmp_path):
    out, problem, reference = corrupted(golden_op, tmp_path)
    tz = json.loads((out / "report.json").read_text())["partition"]["tz"]
    assert tz
    lines = (out / "limit_samples.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[tz[0]] = "-0.001"
    lines[1] = ",".join(cells)
    (out / "limit_samples.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_monte_carlo(out, problem)
    assert any("'tz'" in p for p in problems)
    assert any("below -feas_tol" in p for p in problems)


def test_json_comparison_tolerance():
    assert checks.json_mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) == []
    assert checks.json_mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-6, 2]})
    assert checks.json_mismatches({"a": True}, {"a": 1})


def test_tracer_wraps_every_alias_and_restores_them():
    modules = run.library_modules()
    lplimits, lp_core, ot = modules["lplimits"], modules["lp_core"], modules["ot"]
    cones_limit, stochastic_harness = modules["cones_limit"], modules["stochastic_harness"]
    original = lp_core.enumerate_ledger
    solve_batch = stochastic_harness.RepeatedSolver.solve_batch
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for owner in (lplimits, lp_core, ot, stochastic_harness):
            assert owner.enumerate_ledger is not original
            assert owner.enumerate_ledger.__wrapped__ is original
        assert cones_limit.sample_limit is stochastic_harness.sample_limit
        assert stochastic_harness.RepeatedSolver.solve_batch is not solve_batch
    finally:
        tracer.uninstall()
    for owner in (lplimits, lp_core, ot, stochastic_harness):
        assert owner.enumerate_ledger is original
    assert stochastic_harness.RepeatedSolver.solve_batch is solve_batch


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    ctx = run.prepare("ot4-analyze", tmp_path)
    cli = ctx["modules"]["cli"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    _, error = run.run_op(cli, workloads.commands("ot4-analyze", 3, ctx["inputs"][3], plain), plain)
    assert error is None
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install(ctx["modules"])
    try:
        commands = workloads.commands("ot4-analyze", 3, ctx["inputs"][3], traced)
        _, error = run.run_op(cli, commands, traced, tracer)
    finally:
        tracer.uninstall()
    assert error is None
    tracer.finish_op(0)
    files = checks.reference_files("ot4-analyze")
    assert checks.record_reference(plain, *files) == checks.record_reference(traced, *files)
    assert checks.check_reference(traced, ctx["refs"]["3"]) == []
    row = tracer.per_op_metrics()[0]
    assert row["lp_core.enumerate_ledger.calls"] == 2
    assert row["lp_core.bases_scanned"] > 2 * 11440
    assert row["cones_limit.limit_draws"] == workloads.LIMIT_SAMPLES
    assert row["lp_core.enumerate_ledger.self_s"] == max(
        v for k, v in row.items() if k.endswith(".self_s"))
    assert np.isfinite(list(row.values())).all()
