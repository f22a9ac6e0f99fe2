"""Command-line interface: file outputs, exit codes, determinism."""

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplimits import cli, ot
from lplimits.tolerances import Tolerances
from test_output_digests import CASES, CONFIG as DIGEST_CONFIG, CSV_NAMES, DIGESTS, LINE3, REPORT_DIGESTS


@pytest.fixture()
def problem_paths(tmp_path):
    base = {
        "points_x": [0.0, 1.0, 2.0],
        "p": 2.0,
        "q": 2.0,
        "r": [1 / 3, 1 / 3, 1 / 3],
        "s": [1 / 3, 1 / 3, 1 / 3],
    }
    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps(base))
    base_p1 = dict(base, p=1.0)
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps(base_p1))
    return {"p2": str(p2), "p1": str(p1), "dir": tmp_path}


def run(args):
    return cli.main(args)


class TestAnalyze:
    def test_convex_cost_reports_four_bases(self, problem_paths):
        out = problem_paths["dir"] / "analyze"
        assert run(["analyze", problem_paths["p2"], "--out-dir", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["optimal_count"] == 4
        assert payload["assumptions"]["a2"] and payload["assumptions"]["a3"]
        assert payload["partition"] == {"pos": [0, 4, 8], "tz": [2, 6], "dz": [1, 3, 5, 7]}
        assert len(payload["cones"]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["tool_version"]

    def test_square_lp(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1, 2], "c": [1, 1]}))
        out = tmp_path / "out"
        assert run(["analyze", str(path), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["optimal_count"] == 1

    def test_positive_recession_direction_keeps_slater(self, tmp_path):
        # (1, 1) is strictly positive and feasible, and (1, 1) is also a recession direction.
        path = tmp_path / "ray.json"
        path.write_text(json.dumps({"A": [[1, -1]], "b": [0], "c": [1, 1]}))
        out = tmp_path / "out"
        assert run(["analyze", str(path), "--out-dir", str(out)]) == 0
        assert json.loads((out / "analysis.json").read_text())["assumptions"]["slater"] is True

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip()

    def test_invalid_problem_exits_two(self, tmp_path):
        path = tmp_path / "rankdef.json"
        path.write_text(json.dumps({"A": [[1.0, 2.0], [2.0, 4.0]], "b": [1, 2], "c": [0, 0]}))
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_rank_tol_reaches_the_rank_check(self, tmp_path):
        # The rows differ by 1e-12: rank 1 at the default rank_tol of 1e-10, rank 2 at 1e-14.
        path = tmp_path / "near_rankdef.json"
        path.write_text(json.dumps({"A": [[1, 0, 1], [1, 1e-12, 1]], "b": [1, 1], "c": [1, 2, 3]}))
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 2
        assert run(["analyze", str(path), "--out-dir", str(tmp_path), "--rank-tol", "1e-14"]) == 0

    @staticmethod
    def _line5(tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "points_x": [0.0, 1.0, 2.0, 3.0, 4.0],
                    "p": 2.0,
                    "q": 2.0,
                    "r": [0.2] * 5,
                    "s": [0.2] * 5,
                }
            )
        )
        return path

    def test_enumeration_cap_exit_three(self, tmp_path, monkeypatch):
        # The basis walk proposes 70 bases on five support points, over a cap of 50.
        original = cli.lp_core.enumerate_ledger
        monkeypatch.setattr(
            cli.lp_core, "enumerate_ledger", functools.partial(original, enumeration_cap=50)
        )
        path = self._line5(tmp_path)
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 3

    def test_five_points_solve_under_the_default_cap(self, tmp_path):
        # C(25, 9) = 2,042,975 column subsets exceed the default cap; the walk proposes 70 bases.
        path = self._line5(tmp_path)
        assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["dual_feasible_count"] == 70
        assert payload["optimal_count"] == 16

    @pytest.mark.parametrize("error", ["NonConvergence", "NoFeasibleCone", "LpLimitsError"])
    def test_internal_failure_exits_six(self, problem_paths, monkeypatch, capsys, error):
        import lplimits

        def explode(*args, **kwargs):
            raise getattr(lplimits, error)("forced for the exit-code contract")

        monkeypatch.setattr(cli.lp_core, "enumerate_ledger", explode)
        out = problem_paths["dir"] / "internal"
        assert run(["analyze", problem_paths["p2"], "--out-dir", str(out)]) == 6
        assert "forced" in capsys.readouterr().err

    def test_removed_tolerance_flags_are_rejected(self, problem_paths):
        # Each command declares only the tolerances it reads (TestEveryFlagIsRead).
        removed = {
            ("analyze",): ("--value-tol", "--slack-tol", "--boundary-tol", "--sum-tol"),
            ("limit-sample", "--samples", "10"): ("--sum-tol",),
            ("monte-carlo", "config.json"): ("--sum-tol",),
            ("certify",): ("--dedup-tol", "--boundary-tol"),
        }
        for (command, *rest), flags in removed.items():
            for flag in flags:
                with pytest.raises(SystemExit) as exc:
                    cli.build_parser().parse_args([command, problem_paths["p2"], *rest, flag, "1e-3"])
                assert exc.value.code == cli.EXIT_INPUT

    def test_zero_marginal_warns(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps(
                {
                    "cost": [[0.0, 1.0], [1.0, 0.0]],
                    "r": [1.0, 0.0],
                    "s": [0.5, 0.5],
                }
            )
        )
        run(["analyze", str(path), "--out-dir", str(tmp_path)])
        assert "zero coordinate" in capsys.readouterr().err

    def test_zero_marginal_warning_is_logged(self, tmp_path, caplog):
        path = tmp_path / "zero.json"
        problem = {"cost": [[0.0, 1.0], [1.0, 0.0]], "r": [1.0, 0.0], "s": [0.5, 0.5]}
        path.write_text(json.dumps(problem))
        with caplog.at_level(logging.WARNING, logger="lplimits.cli"):
            assert run(["analyze", str(path), "--out-dir", str(tmp_path)]) == 0
        records = [r for r in caplog.records if r.name == "lplimits.cli"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "zero coordinate" in records[0].getMessage()


class TestLimitSample:
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exit_two(self, problem_paths, capsys, samples):
        out = problem_paths["dir"] / "ls0"
        code = run(
            ["limit-sample", problem_paths["p2"], "--samples", samples, "--seed", "1",
             "--out-dir", str(out)]
        )
        assert code == cli.EXIT_INPUT
        assert f"n_samples: expected an integer of at least 1, got {samples}" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_byte_identical(self, problem_paths):
        out1 = problem_paths["dir"] / "ls1"
        out2 = problem_paths["dir"] / "ls2"
        for out in (out1, out2):
            assert run(
                ["limit-sample", problem_paths["p2"], "--samples", "200", "--seed", "7",
                 "--mode", "two-sample", "--out-dir", str(out)]
            ) == 0
        assert (out1 / "limit_samples.csv").read_bytes() == (out2 / "limit_samples.csv").read_bytes()
        assert (out1 / "limit_samples.json").read_bytes() == (out2 / "limit_samples.json").read_bytes()

    def test_occupancy_sums_to_one(self, problem_paths):
        out = problem_paths["dir"] / "ls3"
        assert run(
            ["limit-sample", problem_paths["p2"], "--samples", "20000", "--seed", "3",
             "--mode", "two-sample", "--out-dir", str(out)]
        ) == 0
        sidecar = json.loads((out / "limit_samples.json").read_text())
        assert len(sidecar["occupancy_frequencies"]) == 4
        assert sum(sidecar["occupancy_frequencies"]) == pytest.approx(1.0)

    def test_non_unique_optimum_exits_four(self, tmp_path):
        path = tmp_path / "nonunique.json"
        path.write_text(
            json.dumps(
                {
                    "points_x": [0.0, 1.0, 2.0],
                    "p": 1.0,
                    "q": 2.0,
                    "r": [0.25, 0.25, 0.5],
                    "s": [0.5, 0.25, 0.25],
                }
            )
        )
        assert run(
            ["limit-sample", str(path), "--samples", "10", "--out-dir", str(tmp_path)]
        ) == 4

    @pytest.mark.parametrize("mode", ["one-sample", "two-sample"])
    def test_config_digest_changes_with_lambda_only_where_it_is_read(self, problem_paths, mode):
        outs = []
        for lam in ("0.3", "0.5"):
            out = problem_paths["dir"] / f"ls_{mode}_{lam}"
            assert run(["limit-sample", problem_paths["p2"], "--samples", "50", "--seed", "2",
                        "--mode", mode, "--lambda", lam, "--out-dir", str(out)]) == 0
            outs.append(out)
        a, b = ((out / "limit_samples.csv").read_bytes() for out in outs)
        digests = {json.loads((out / "manifest.json").read_text())["config_digest"] for out in outs}
        assert (a != b) == (len(digests) == 2) == (mode == "two-sample")

    def test_lp_form_rejected(self, tmp_path):
        path = tmp_path / "lp.json"
        path.write_text(json.dumps({"A": [[1.0]], "b": [1.0], "c": [1.0]}))
        assert run(
            ["limit-sample", str(path), "--samples", "10", "--out-dir", str(tmp_path)]
        ) == 2


class TestThreads:
    @pytest.mark.parametrize("argv", [["analyze"], ["limit-sample", "--samples", "10"], ["certify"]])
    def test_only_monte_carlo_takes_threads(self, problem_paths, argv):
        out = problem_paths["dir"] / "threads_unread"
        with pytest.raises(SystemExit) as exc:
            run([argv[0], problem_paths["p2"], *argv[1:], "--threads", "2", "--out-dir", str(out)])
        assert exc.value.code == cli.EXIT_INPUT
        assert not out.exists()

    @staticmethod
    def _config(problem_paths):
        config = problem_paths["dir"] / "config_threads.json"
        config.write_text(json.dumps({"sample_sizes": [400], "replicates": 300, "seed": 9,
                                      "comparison_samples": 600,
                                      "hausdorff_sizes": [50], "hausdorff_replicates": 5}))
        return str(config)

    @classmethod
    def _monte_carlo(cls, problem_paths, name, *flags):
        out = problem_paths["dir"] / name
        assert run(["monte-carlo", problem_paths["p2"], cls._config(problem_paths),
                    "--out-dir", str(out), *flags]) == 0
        return out

    def test_monte_carlo_outputs_do_not_depend_on_threads(self, problem_paths):
        outs = {t: self._monte_carlo(problem_paths, f"mc_threads{t}", "--threads", str(t))
                for t in (1, 2, 3)}
        for name in ("fluctuations.csv", "limit_samples.csv", "hausdorff.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
            assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name
        reports = {}
        for t, out in outs.items():
            reports[t] = json.loads((out / "report.json").read_text())
            assert reports[t].pop("manifest")["threads"] == t
        assert reports[1] == reports[2] == reports[3]

    def test_pool_never_exceeds_the_task_count(self, problem_paths, pool_threads):
        cap = cli.stochastic_harness._MAX_WORKERS
        out = self._monte_carlo(problem_paths, "mc_many", "--threads", "100000")
        serial = self._monte_carlo(problem_paths, "mc_one", "--threads", "1")
        # fewer tasks than the cap: one block per term
        cli.stochastic_harness.energy_distance(np.zeros((5, 2)), np.ones((7, 2)), threads=100000)
        # 300 fluctuation rows and 600 limit draws in 125-row blocks: 3 + 3 + 5 tasks
        assert [(pool["max_workers"], pool["tasks"]) for pool in pool_threads] == [(cap, 11), (1, 11), (cap, 3)]
        assert [len(pool["started"]) <= min(pool["max_workers"], pool["tasks"]) for pool in pool_threads] == [True] * 3
        assert len(pool_threads[1]["started"]) == 1 and cap > 3
        report, serial_report = (json.loads((d / "report.json").read_text()) for d in (out, serial))
        assert report["energy_distance"] == serial_report["energy_distance"]
        assert report["manifest"]["threads"] == 100000

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_exit_two(self, problem_paths, capsys, value):
        out = problem_paths["dir"] / f"threads_bad{value}"
        with pytest.raises(SystemExit) as exc:
            run(["monte-carlo", problem_paths["p2"], self._config(problem_paths),
                 "--threads", value, "--out-dir", str(out)])
        assert exc.value.code == cli.EXIT_INPUT
        assert f"argument --threads: must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_threads_are_the_available_cpus(self, problem_paths):
        args = cli.build_parser().parse_args(["monte-carlo", problem_paths["p2"], "config.json"])
        assert args.threads == cli.stochastic_harness.available_cpus() >= 1


class TestEveryFlagIsRead:
    @staticmethod
    def _declared(command) -> set:
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {action.dest for action in sub.choices[command]._actions}

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["limit-sample", "--samples", "200"], ["certify"],
        ["monte-carlo", "{config}", "--threads", "3"],
    ])
    def test_declared_settings_are_the_settings_read(self, problem_paths, monkeypatch, argv):
        config = problem_paths["dir"] / "config_reach.json"
        config.write_text(json.dumps({"sample_sizes": [200], "replicates": 50, "seed": 3,
                                      "comparison_samples": 200,
                                      "hausdorff_sizes": [50], "hausdorff_replicates": 5}))
        argv = [arg.format(config=config) for arg in argv]
        reads, pools = set(), []

        class SpyTolerances(Tolerances):
            def __getattribute__(self, name):
                if name in cli._TOL_NAMES:
                    reads.add(name)
                return super().__getattribute__(name)

        tols, real_pool = cli._tols, cli.stochastic_harness.ThreadPoolExecutor
        monkeypatch.setattr(
            cli, "_tols", lambda args: SpyTolerances(**dataclasses.asdict(tols(args)))
        )

        def spy_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(cli.stochastic_harness, "ThreadPoolExecutor", spy_pool)
        out = problem_paths["dir"] / f"reach_{argv[0]}"
        assert run([argv[0], problem_paths["p2"], *argv[1:], "--out-dir", str(out)]) == 0
        declared = self._declared(argv[0])
        assert reads == declared & set(cli._TOL_NAMES)
        manifest = json.loads((out / "manifest.json").read_text())
        if "threads" in declared:
            assert pools == [3] and manifest["threads"] == 3
        else:
            assert pools == [] and manifest["threads"] is None


def _digests(out) -> dict:
    """sha256 of each monte-carlo CSV in out, and of its report without the manifest."""
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CSV_NAMES}
    report = json.loads((out / "report.json").read_text())
    del report["manifest"]
    digests["report.json"] = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    return digests


@pytest.fixture
def pool_threads(monkeypatch):
    """Per energy pool: its max_workers, the threads it started and the number of tasks submitted to it."""
    pools = []
    real_pool = cli.stochastic_harness.ThreadPoolExecutor

    class RecordingPool(real_pool):
        def __init__(self, max_workers):
            self.record = {"max_workers": max_workers, "started": [], "tasks": 0}
            pools.append(self.record)
            super().__init__(max_workers=max_workers,
                             initializer=lambda: self.record["started"].append(threading.current_thread()))

        def submit(self, fn, *args):
            self.record["tasks"] += 1
            return super().submit(fn, *args)

    monkeypatch.setattr(cli.stochastic_harness, "ThreadPoolExecutor", RecordingPool)
    return pools


class TestStagedMonteCarlo:
    """The energy distance's blocks run beside the other monte-carlo stages."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bytes_match_the_recorded_digests_for_every_thread_count(self, tmp_path, case):
        p, policy = CASES[case]
        problem, config = tmp_path / "problem.json", tmp_path / "config.json"
        problem.write_text(json.dumps(dict(LINE3, p=p)))
        config.write_text(json.dumps(dict(DIGEST_CONFIG, policy=policy)))
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out{threads}"
            assert run(["monte-carlo", str(problem), str(config), "--out-dir", str(out),
                        "--threads", threads]) == 0
            assert _digests(out) == dict(DIGESTS[case], **{"report.json": REPORT_DIGESTS[case]})

    @staticmethod
    def _zero_energy_runs(problem_paths, problem, comparison_samples=600):
        config = problem_paths["dir"] / "config_zero.json"
        config.write_text(json.dumps({"sample_sizes": [400], "replicates": 300, "seed": 9,
                                      "comparison_samples": comparison_samples,
                                      "hausdorff_sizes": [50], "hausdorff_replicates": 5}))
        outs = []
        for threads in ("1", "2", "3"):
            out = problem_paths["dir"] / f"zero{threads}"
            assert run(["monte-carlo", problem, str(config), "--out-dir", str(out),
                        "--threads", threads]) == 0
            outs.append(_digests(out))
            assert json.loads((out / "report.json").read_text())["energy_distance"] == 0.0
        assert outs[0] == outs[1] == outs[2]

    def test_no_carrying_column_gives_zero_for_every_thread_count(self, problem_paths, pool_threads):
        # point-mass marginals: every fluctuation and every limit draw is 0
        problem = problem_paths["dir"] / "point_mass.json"
        problem.write_text(json.dumps({"points_x": [0.0, 1.0, 2.0], "p": 2.0, "q": 2.0,
                                       "r": [1.0, 0.0, 0.0], "s": [1.0, 0.0, 0.0]}))
        self._zero_energy_runs(problem_paths, str(problem))
        limit = (problem_paths["dir"] / "zero1" / "limit_samples.csv").read_text().splitlines()
        fluctuations = (problem_paths["dir"] / "zero1" / "fluctuations.csv").read_text().splitlines()
        assert {row.replace("-", "") for row in limit[1:] + fluctuations[1:]} == {",".join("0" * 9)}
        # the limit draws' Y-Y triangle on their 0 carried columns: 5 blocks of 600 rows, no X blocks
        assert [pool["tasks"] for pool in pool_threads] == [5, 5, 5]

    def test_identical_samples_give_exact_zero_for_every_thread_count(self, problem_paths, monkeypatch):
        draws = []
        real_sample_limit, real_fluctuation_run = (cli.stochastic_harness.sample_limit,
                                                   cli.stochastic_harness.fluctuation_run)

        def recorded_sample_limit(*args, **kwargs):
            draws.append(real_sample_limit(*args, **kwargs))
            return draws[-1]

        def fluctuations_equal_to_the_draws(*args, **kwargs):
            *rest, last = real_fluctuation_run(*args, **kwargs)
            return [*rest, dataclasses.replace(last, fluctuations=draws[-1].samples.copy())]

        monkeypatch.setattr(cli.stochastic_harness, "sample_limit", recorded_sample_limit)
        monkeypatch.setattr(cli.stochastic_harness, "fluctuation_run", fluctuations_equal_to_the_draws)
        # as many limit draws as replicates, all of them feasible: the two samples are the same
        self._zero_energy_runs(problem_paths, problem_paths["p2"], comparison_samples=300)
        fluctuations, limit = ((problem_paths["dir"] / "zero1" / name).read_bytes()
                               for name in ("fluctuations.csv", "limit_samples.csv"))
        assert fluctuations == limit

    @staticmethod
    def _mostly_infeasible(monkeypatch):
        real = cli.stochastic_harness.RepeatedSolver.solve_batch

        def solve_batch(self, rhs_batch):
            solutions, values, chosen, ok = real(self, rhs_batch)
            return solutions, values, chosen, np.zeros_like(ok)

        monkeypatch.setattr(cli.stochastic_harness.RepeatedSolver, "solve_batch", solve_batch)

    @staticmethod
    def _infeasible_hausdorff_replicates(monkeypatch):
        def vertex_sets(self, rhs_batch):
            raise cli.stochastic_harness.Infeasible("forced on the Hausdorff path")

        monkeypatch.setattr(cli.stochastic_harness.RepeatedSolver, "_vertex_sets", vertex_sets)

    @pytest.mark.parametrize("fault, code", [
        ("_mostly_infeasible", cli.EXIT_DEGENERATE),  # TooManyInfeasible from fluctuation_run
        ("_infeasible_hausdorff_replicates", cli.EXIT_INPUT),  # Infeasible from hausdorff_run
    ])
    def test_stage_raising_after_the_y_blocks_writes_nothing_and_ends_the_workers(
            self, problem_paths, monkeypatch, pool_threads, fault, code):
        getattr(self, fault)(monkeypatch)
        out = problem_paths["dir"] / "failed"
        assert run(["monte-carlo", problem_paths["p2"], TestThreads._config(problem_paths),
                    "--out-dir", str(out), "--threads", "2"]) == code
        assert not out.exists()
        (pool,) = pool_threads
        assert pool["tasks"] >= 5 and pool["started"]  # the limit draws' blocks were queued and running
        assert [thread.is_alive() for thread in pool["started"]] == [False] * len(pool["started"])

    def test_cdist_error_at_the_join_leaves_no_output_file(self, problem_paths, monkeypatch, pool_threads):
        written = []
        real_write_csv = cli._write_csv

        def recorded_write_csv(path, *content):
            written.append(path.name)
            real_write_csv(path, *content)

        def failing_cdist(*args, **kwargs):
            raise MemoryError("cdist")

        monkeypatch.setattr(cli, "_write_csv", recorded_write_csv)
        monkeypatch.setattr(cli.stochastic_harness, "cdist", failing_cdist)
        kept = problem_paths["dir"] / "kept.txt"
        kept.write_text("kept")
        out = problem_paths["dir"] / "new" / "out"
        with pytest.raises(MemoryError):
            run(["monte-carlo", problem_paths["p2"], TestThreads._config(problem_paths), "--out-dir", str(out)])
        assert written == ["fluctuations.csv", "limit_samples.csv", "hausdorff.csv"]  # before the join
        assert not (problem_paths["dir"] / "new").exists()
        assert kept.read_text() == "kept"
        (pool,) = pool_threads
        assert [thread.is_alive() for thread in pool["started"]] == [False] * len(pool["started"])


class TestMonteCarlo:
    def test_minimal_run_produces_all_files(self, problem_paths):
        out = problem_paths["dir"] / "mc1"
        config = problem_paths["dir"] / "config1.json"
        config.write_text(
            json.dumps(
                {"sample_sizes": [10], "replicates": 1, "seed": 5,
                 "comparison_samples": 50}
            )
        )
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == 0
        fluct_lines = (out / "fluctuations.csv").read_text().splitlines()
        assert len(fluct_lines) == 2  # header + one replicate
        assert (out / "limit_samples.csv").exists()
        assert (out / "hausdorff.csv").read_text().splitlines()[0] == "n,replicate,d_H"
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_coordinate_ks"]) == 9
        assert report["manifest"]["command"] == "monte-carlo"
        assert report["manifest"]["config_digest"]

    def test_degenerate_experiment_exits_five(self, problem_paths, monkeypatch):
        import lplimits

        def explode(*args, **kwargs):
            raise lplimits.TooManyInfeasible("forced for the exit-code contract")

        monkeypatch.setattr(cli.stochastic_harness, "run_experiment", explode)
        config = problem_paths["dir"] / "config5.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 1}))
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir",
             str(problem_paths["dir"] / "mc5")]
        ) == 5

    def test_config_digest_covers_the_problem(self, problem_paths):
        config = problem_paths["dir"] / "config_digest.json"
        settings = {"sample_sizes": [10], "replicates": 1, "comparison_samples": 50}
        config.write_text(json.dumps(settings))
        digests = []
        for name in ("p1", "p2"):
            out = problem_paths["dir"] / f"mc_digest_{name}"
            path = problem_paths[name]
            assert run(["monte-carlo", path, str(config), "--out-dir", str(out)]) == 0
            digest = json.loads((out / "report.json").read_text())["manifest"]["config_digest"]
            problem = json.loads((problem_paths["dir"] / f"{name}.json").read_text())
            assert digest == cli.config_digest({"problem": problem, "config": settings})
            digests.append(digest)
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("entry", [
        {"comparison_samples": 0}, {"hausdorf_sizes": [100]},
        {"sample_sizes": []}, {"sample_sizes": 100}, {"lambda": "x", "mode": "two-sample"},
        {"replicates": 20.7}, {"replicates": "20"}, {"sample_sizes": [True]},
        {"sample_sizes": [[100, 200, 300]]}, {"replicates": -3}, {"seed": 1.5},
    ])
    def test_bad_config_exits_two_before_any_work(self, problem_paths, monkeypatch, capsys, entry):
        def explode(*args, **kwargs):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(cli.stochastic_harness, "run_experiment", explode)
        config = problem_paths["dir"] / "config_bad.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 1, **entry}))
        out = problem_paths["dir"] / "mc_bad"
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == cli.EXIT_INPUT
        assert next(iter(entry)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [{"hausdorff_sizes": [100, 0]}, {"hausdorff_replicates": 0}])
    def test_bad_hausdorff_settings_exit_two(self, problem_paths, entry):
        config = problem_paths["dir"] / "config_hausdorff.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 1, **entry}))
        out = problem_paths["dir"] / "mc_hausdorff"
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == cli.EXIT_INPUT
        assert not out.exists()

    def test_pair_size_needs_two_sample_mode(self, problem_paths, capsys):
        settings = {"sample_sizes": [[100, 200]], "replicates": 5}
        config = problem_paths["dir"] / "config_pair.json"
        config.write_text(json.dumps(settings))
        out = problem_paths["dir"] / "mc_pair_one"
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == cli.EXIT_INPUT
        assert "sample_sizes" in capsys.readouterr().err
        assert not out.exists()
        config.write_text(json.dumps(dict(settings, mode="two-sample")))
        out = problem_paths["dir"] / "mc_pair_two"
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == 0
        assert json.loads((out / "report.json").read_text())["sample_sizes"] == [[100, 200]]

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_out_dir_under_a_file_exits_two_before_any_work(self, problem_paths, monkeypatch, below):
        def explode(*args, **kwargs):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(cli.stochastic_harness, "run_experiment", explode)
        config = problem_paths["dir"] / "config_out_dir.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 1}))
        afile = problem_paths["dir"] / "afile"
        afile.write_text("kept")
        out = afile.joinpath(*below)
        assert run(
            ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
        ) == cli.EXIT_INPUT
        assert afile.read_text() == "kept"

    def test_empty_config_takes_the_experiment_defaults(self, problem_paths):
        config = problem_paths["dir"] / "config_empty.json"
        config.write_text("{}")
        assert (cli._experiment_config(cli._load_json(str(config)))
                == cli.stochastic_harness.ExperimentConfig())

    def test_report_is_deterministic_up_to_manifest(self, problem_paths):
        config = problem_paths["dir"] / "config2.json"
        config.write_text(
            json.dumps(
                {"sample_sizes": [[200, 200]], "replicates": 20, "seed": 6,
                 "mode": "two-sample", "lambda": 0.5, "comparison_samples": 200,
                 "hausdorff_sizes": [50], "hausdorff_replicates": 5}
            )
        )
        outs = []
        for name in ("mc2a", "mc2b"):
            out = problem_paths["dir"] / name
            assert run(
                ["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "fluctuations.csv").read_bytes() == (b / "fluctuations.csv").read_bytes()
        assert (a / "limit_samples.csv").read_bytes() == (b / "limit_samples.csv").read_bytes()
        assert (a / "hausdorff.csv").read_bytes() == (b / "hausdorff.csv").read_bytes()
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        ra.pop("manifest")
        rb.pop("manifest")
        assert ra == rb


class TestManifest:
    def test_report_embeds_the_manifest_field_by_field(self, problem_paths):
        config = problem_paths["dir"] / "config_manifest.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 2, "seed": 4,
                                      "comparison_samples": 50}))
        out = problem_paths["dir"] / "mc_manifest"
        assert run(["monte-carlo", problem_paths["p2"], str(config), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert next(iter(report)) == "manifest"
        assert list(report["manifest"]) == list(manifest)
        for field, value in manifest.items():
            assert report["manifest"][field] == value, field

    @pytest.mark.parametrize("argv, seed, threads", [
        (["analyze"], None, None),
        (["limit-sample", "--samples", "20", "--seed", "9"], 9, None),
        (["certify"], None, None),
        (["monte-carlo", "{config}", "--threads", "2"], 4, 2),
    ])
    def test_each_command_lists_inputs_seed_and_threads(self, problem_paths, argv, seed, threads):
        import lplimits

        config = problem_paths["dir"] / "config_inputs.json"
        config.write_text(json.dumps({"sample_sizes": [10], "replicates": 2, "seed": 4,
                                      "comparison_samples": 50}))
        argv = [arg.format(config=config) for arg in argv]
        out = problem_paths["dir"] / f"inputs_{argv[0]}"
        assert run([argv[0], problem_paths["p2"], *argv[1:], "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        inputs = [problem_paths["p2"]] + ([str(config)] if argv[0] == "monte-carlo" else [])
        assert manifest["command"] == argv[0] and manifest["input_paths"] == inputs
        assert manifest["seed"] == seed and manifest["threads"] == threads
        assert manifest["tool_version"] == lplimits.__version__
        assert manifest["started"] <= manifest["finished"]


class TestSameSeed:
    @pytest.mark.parametrize("seed", [0, 3, 2**31 + 5])
    def test_every_csv_is_byte_identical(self, problem_paths, seed):
        config = problem_paths["dir"] / "config_seed.json"
        common = {"sample_sizes": [[100, 200]], "replicates": 40, "seed": seed,
                  "mode": "two-sample", "comparison_samples": 300,
                  "hausdorff_sizes": [50], "hausdorff_replicates": 5}
        commands = []
        for policy in ("min-index", "uniform-random"):
            path = problem_paths["dir"] / f"config_{policy}.json"
            path.write_text(json.dumps(dict(common, policy=policy)))
            commands += [
                ["monte-carlo", problem_paths["p1"], str(path)],
                ["limit-sample", problem_paths["p1"], "--samples", "300", "--seed", str(seed),
                 "--mode", "two-sample", "--policy", policy],
            ]
        for i, argv in enumerate(commands):
            outs = [problem_paths["dir"] / f"same{i}{run_id}" for run_id in "ab"]
            for out in outs:
                assert run(argv + ["--out-dir", str(out)]) == 0
            names = sorted(path.name for path in outs[0].glob("*.csv"))
            assert names and names == sorted(path.name for path in outs[1].glob("*.csv"))
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# Each value has one bit pattern, so a column of it is constant by bits.
BIT_CONSTANTS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1)


@st.composite
def csv_arrays(draw):
    """Arrays mixing bit-constant columns, +0.0/-0.0 columns and varying columns.

    Row counts sit on both sides of a CSV block; one draw in a few is 1-D or
    has only constant columns.
    """
    n = draw(st.sampled_from([1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1]))
    shape = draw(st.sampled_from(["mixed", "all-constant", "1-D"]))
    if shape == "1-D":
        n = 1
    kinds = ["constant", "signed-zeros", "varying"] if shape != "all-constant" else ["constant"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "constant":
            column = np.full(n, draw(st.sampled_from(BIT_CONSTANTS)))
        elif kind == "signed-zeros":
            column = rng.choice([0.0, -0.0], n)
            column[0], column[-1] = 0.0, -0.0  # mixed whenever n > 1
        else:
            column = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            column[rng.random(n) < 0.1] = rng.choice(BIT_CONSTANTS)
        columns.append(column)
    rows = np.column_stack(columns)
    return rows[0] if shape == "1-D" else rows


class TestOutDir:
    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_out_dir_that_cannot_be_a_directory_exits_two(self, problem_paths, capsys, below):
        afile = problem_paths["dir"] / "afile"
        afile.write_text("kept")
        before = sorted(problem_paths["dir"].iterdir())
        out = afile.joinpath(*below)
        assert run(["analyze", problem_paths["p2"], "--out-dir", str(out)]) == cli.EXIT_INPUT
        assert "not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept"
        assert sorted(problem_paths["dir"].iterdir()) == before

    def test_missing_ancestors_are_created(self, problem_paths):
        out = problem_paths["dir"] / "a" / "b"
        assert run(["analyze", problem_paths["p2"], "--out-dir", str(out)]) == 0
        assert (out / "analysis.json").exists()


class TestCurveWriters:
    def test_otc_csv(self, tmp_path):
        path = tmp_path / "otc.csv"
        cli.write_otc_csv(path, [0.0, 1.0], [0.7, 1.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "0,0.69999999999999996"

    def test_geodesic_csv(self, tmp_path):
        import lplimits as lpl

        coupling = lpl.coupling_from_matrix(np.diag([0.5, 0.5]))
        measure = lpl.geodesic_at(coupling, [0.0, 1.0], [0.0, 1.0], 0.25)
        path = tmp_path / "geodesic.csv"
        cli.write_geodesic_csv(path, measure)
        lines = path.read_text().splitlines()
        assert lines[0] == "coord_1,weight"
        assert len(lines) == 3

    def test_csv_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
        rows[0] = [-0.0, np.nan, np.inf, -np.inf]
        rows[1] = [5e-324, -2.2250738585072e-310, 1.0, 0.1]
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["a", "b", "c", "d"], rows)
        expected = "a,b,c,d\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(csv_arrays())
    def test_csv_matches_per_value_oracle(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        header = [f"c{j}" for j in range(np.atleast_2d(rows).shape[1])]
        cli._write_csv(path, header, rows)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in np.atleast_2d(rows)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_csv_writer_never_holds_the_whole_file(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((20_000, 16))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            cli._write_csv(path, [f"c{j}" for j in range(16)], rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


class TestCertify:
    def test_unit_exponent_line_witness(self, problem_paths):
        out = problem_paths["dir"] / "cert1"
        assert run(["certify", problem_paths["p1"], "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert payload["dual_summability"] == {
            "holds": False,
            "witness": [[0, 1], [1, 2]],
        }
        assert payload["strict_monge"]["holds"] is False
        assert payload["uniqueness_implied"] is True

    def test_convex_cost_is_monge(self, problem_paths):
        out = problem_paths["dir"] / "cert2"
        assert run(["certify", problem_paths["p2"], "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert payload["strict_monge"]["holds"] is True
        assert payload["primal_summability"]["holds"] is False  # equal marginals

    def test_sum_tol_flag_reaches_certificates(self, problem_paths):
        # The smallest strict-Monge margin of the p=2 line cost is 2; a
        # relative sum tolerance of 0.2 scales to 0.2 * (1 + 12) = 2.6.
        out = problem_paths["dir"] / "cert_tol"
        argv = ["certify", problem_paths["p2"], "--out-dir", str(out), "--sum-tol", "0.2"]
        assert run(argv) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert payload["strict_monge"] == {"holds": False, "witness": [0, 1, 0, 1]}

    def test_single_point_all_vacuous(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"cost": [[0.0]], "r": [1.0], "s": [1.0]}))
        out = tmp_path / "out"
        assert run(["certify", str(path), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert payload["strict_monge"]["holds"]
        assert payload["dual_summability"]["holds"]
        assert payload["strict_cyclical_monotone_support"]["holds"]

    def test_non_unique_optimum_is_not_certified(self, tmp_path):
        # analyze finds this optimum not unique (a2 false); no cycle scan may certify it.
        path = tmp_path / "tied.json"
        path.write_text(json.dumps({"points_x": [0.0, 1.0, 2.0], "p": 1.0, "q": 1.0,
                                    "r": [0.25, 0.25, 0.5], "s": [0.5, 0.25, 0.25]}))
        out = tmp_path / "out"
        assert run(["analyze", str(path), "--out-dir", str(out)]) == 0
        assert json.loads((out / "analysis.json").read_text())["assumptions"]["a2"] is False
        assert run(["certify", str(path), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "certificates.json").read_text())
        assert payload["dual_summability"]["holds"] is False
        assert payload["strict_cyclical_monotone_support"]["holds"] is False
        assert payload["uniqueness_implied"] is False

    def test_truncated_cycle_scan_flag_is_rejected(self, problem_paths, tmp_path):
        # A scan over cycles shorter than N certified the non-unique optimum above.
        argv = ["certify", problem_paths["p1"], "--out-dir", str(tmp_path), "--max-cycle-len", "1"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_INPUT
        assert not (tmp_path / "certificates.json").exists()

    def test_cap_exit_three(self, tmp_path):
        rng = np.random.default_rng(0)
        N = 8
        cost = rng.uniform(0, 1, (N, N))
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {"cost": cost.tolist(), "r": [1 / N] * N, "s": [1 / N] * N}
            )
        )
        assert run(["certify", str(path), "--out-dir", str(tmp_path)]) == 3


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneLpPerCommand:
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["certify"], ["limit-sample", "--samples", "50"], ["monte-carlo", "{config}"],
    ])
    def test_each_command_builds_the_lp_once(self, problem_paths, monkeypatch, argv):
        import scipy.optimize

        config = problem_paths["dir"] / "config_small.json"
        config.write_text(json.dumps({"sample_sizes": [200], "replicates": 50, "seed": 3,
                                      "comparison_samples": 200}))
        argv = [arg.format(config=config) for arg in argv]
        calls = _counting(monkeypatch, ot, "reduce_to_lp")
        solves = _counting(monkeypatch, scipy.optimize, "linprog")
        out = problem_paths["dir"] / argv[0]
        assert run([argv[0], problem_paths["p2"], *argv[1:], "--out-dir", str(out)]) == 0
        assert len(calls) == 1
        # Transport walks start from row-minimum potentials, A >= 0 decides a1,
        # and a transport polytope's Slater margin has a closed form, so no
        # command reaches HiGHS.
        assert len(solves) == 0

    def test_general_lp_starts_its_walk_with_highs(self, tmp_path, monkeypatch):
        import scipy.optimize

        from lplimits import lp_core

        path = tmp_path / "lp.json"
        path.write_text(json.dumps({"A": [[1, -1, 0], [0, 1, 1]], "b": [0, 1], "c": [1, 1, 1]}))
        starts = _counting(monkeypatch, lp_core, "_start_basis")
        solves = _counting(monkeypatch, scipy.optimize, "linprog")
        assert run(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert len(starts) == 1
        # the walk start, the two recession LPs (A has a negative entry) and Slater
        assert len(solves) == 4
