#!/usr/bin/env python3
"""Unit tests for tools/bench_trajectory.py (run via ctest or directly)."""

from __future__ import annotations

import importlib.util
import json
import os
import tempfile
import unittest
from pathlib import Path

MODULE_PATH = Path(__file__).resolve().parent / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", MODULE_PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def perfbench_line(trials_per_s: float = 100.0, **overrides) -> dict:
    """A perfbench/run.py result line; ``overrides`` replace or add keys."""
    line = {"correct": True, "attempted": 400, "failed": 0, "metrics": {
        "setup_s": {"value": 0.08, "unit": "s"},
        "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
        "verdict_latency_p50_ms": {"value": 0.32, "unit": "ms"},
    }}
    line.update(overrides)
    return line


def perf_report(trials: int, wall_ms: float) -> dict:
    """A report of the retired engine bench, as the committed pre/post
    pairs that --require-speedup reads still carry it."""
    return {"bench": "perf_engine", "seed": 20190707, "trials": trials,
            "wall_ms_wide": wall_ms}


class TrajectoryTestCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)
        self.trajectory = self.dir / "trajectory.json"

    def write_run(self, report: dict, name: str = "run.json") -> Path:
        path = self.dir / name
        # Mimic `bench --json | tail` capture: banner noise above, report last.
        path.write_text("=== banner ===\n\n" + json.dumps(report) + "\n",
                        encoding="utf-8")
        return path

    def append(self, report: dict, label: str = "", machine: str = "",
               bench: str = "") -> int:
        run = self.write_run(report)
        argv = ["append", "--run", str(run), "--trajectory",
                str(self.trajectory)]
        if bench:
            argv += ["--bench", bench]
        if label:
            argv += ["--label", label]
        if machine:
            argv += ["--machine", machine]
        return bench_trajectory.main(argv)

    def append_workload(self, bench: str, trials_per_s: float,
                        label: str = "", machine: str = "") -> int:
        return self.append(perfbench_line(trials_per_s), label, machine,
                           bench=bench)

    def check(self, max_regression: float | None = None,
              require: list[str] | None = None,
              require_speedup: list[str] | None = None) -> int:
        argv = ["check", "--trajectory", str(self.trajectory)]
        if max_regression is not None:
            argv += ["--max-regression", str(max_regression)]
        for expr in require or []:
            argv += ["--require", expr]
        for expr in require_speedup or []:
            argv += ["--require-speedup", expr]
        return bench_trajectory.main(argv)

    # -- append ---------------------------------------------------------------

    def test_append_creates_trajectory_and_accumulates_runs(self) -> None:
        self.assertEqual(self.append_workload("trial-fresh", 100.0, "first"),
                         0)
        self.assertEqual(self.append(self.hotpath_report(7.0, 1.3)), 0)
        data = json.loads(self.trajectory.read_text(encoding="utf-8"))
        self.assertEqual(data["trajectory_schema"], 1)
        self.assertEqual(len(data["runs"]), 2)
        self.assertEqual(data["runs"][0]["label"], "first")
        self.assertEqual(data["runs"][1]["label"], "run-1")  # default label
        self.assertEqual(data["runs"][1]["report"]["convolve_speedup"], 7.0)

    def test_append_flattens_perfbench_line(self) -> None:
        self.assertEqual(self.append_workload("sentry-air", 1625.5), 0)
        data = json.loads(self.trajectory.read_text(encoding="utf-8"))
        entry = data["runs"][0]
        self.assertEqual(entry["report"], {
            "bench": "sentry-air", "correct": True, "attempted": 400,
            "failed": 0, "setup_s": 0.08, "trials_per_s": 1625.5,
            "verdict_latency_p50_ms": 0.32})
        # The fingerprint carries the CPU count: a 1-CPU and a 4-CPU run
        # of the same workload never gate each other.
        self.assertEqual(entry["machine"],
                         bench_trajectory.machine_fingerprint())
        self.assertTrue(entry["machine"].endswith(f"-{os.cpu_count()}cpu"))

    def test_append_refuses_bad_perfbench_lines_untouched(self) -> None:
        self.append_workload("trial-fresh", 100.0, "kept")
        before = self.trajectory.read_bytes()
        refused = {
            "correct false": (perfbench_line(correct=False), "trial-fresh"),
            "failed 1": (perfbench_line(failed=1), "trial-fresh"),
            "extra key": (perfbench_line(seed=1), "trial-fresh"),
            "no --bench": (perfbench_line(), ""),
            "metric without value": (
                perfbench_line(metrics={"trials_per_s": 1.0}), "trial-fresh"),
            "--bench on a bench report": (self.hotpath_report(7.0, 1.3),
                                          "perf_hotpath"),
        }
        for case, (line, bench) in refused.items():
            with self.subTest(case), self.assertRaises(SystemExit):
                self.append(line, bench=bench)
            self.assertEqual(self.trajectory.read_bytes(), before, case)

    def test_append_rejects_run_without_bench_field(self) -> None:
        run = self.write_run({"seed": 1})
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(run),
                                   "--trajectory", str(self.trajectory)])

    def test_append_rejects_empty_and_non_json_runs(self) -> None:
        empty = self.dir / "empty.json"
        empty.write_text("\n\n", encoding="utf-8")
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(empty),
                                   "--trajectory", str(self.trajectory)])
        garbage = self.dir / "garbage.json"
        garbage.write_text("not json\n", encoding="utf-8")
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(garbage),
                                   "--trajectory", str(self.trajectory)])

    def test_rejects_wrong_schema_and_malformed_trajectory(self) -> None:
        self.trajectory.write_text(
            json.dumps({"trajectory_schema": 99, "runs": []}),
            encoding="utf-8")
        with self.assertRaises(SystemExit):
            self.append_workload("trial-fresh", 100.0)
        self.trajectory.write_text(json.dumps({"no_runs": True}),
                                   encoding="utf-8")
        with self.assertRaises(SystemExit):
            self.check()

    # -- check ----------------------------------------------------------------

    def test_check_passes_trivially_with_fewer_than_two_runs(self) -> None:
        self.assertEqual(self.check(), 0)  # missing file == empty trajectory
        self.append_workload("trial-fresh", 100.0)
        self.append_workload("mesh-repeat", 10.0)   # another workload
        self.append(self.hotpath_report(7.0, 1.3))  # no trials_per_s
        self.assertEqual(self.check(), 0)

    def test_check_passes_within_regression_budget(self) -> None:
        self.append_workload("trial-fresh", 100.0, "base")
        self.append_workload("trial-fresh", 83.3, "latest")   # -16.7%
        self.assertEqual(self.check(), 0)                     # default 25%

    def test_check_fails_beyond_regression_budget(self) -> None:
        self.append_workload("trial-fresh", 100.0, "base")
        self.append_workload("trial-fresh", 50.0, "latest")   # -50%
        self.assertEqual(self.check(), 1)
        self.assertEqual(self.check(max_regression=0.6), 0)  # widened budget

    def test_check_compares_latest_against_best_earlier(self) -> None:
        self.append_workload("mesh-repeat", 250.0, "slow-start")
        self.append_workload("mesh-repeat", 500.0, "best")
        self.append_workload("mesh-repeat", 385.0, "latest")  # -23% vs best
        self.assertEqual(self.check(), 0)
        self.append_workload("mesh-repeat", 312.5, "regressed")  # -37.5%
        self.assertEqual(self.check(), 1)

    def test_check_gates_each_workload_separately(self) -> None:
        # Workloads never compare with one another: mesh-repeat's 500/s is
        # no baseline for trial-fresh's 100/s ...
        self.append_workload("mesh-repeat", 500.0)
        self.append_workload("trial-fresh", 100.0)
        self.assertEqual(self.check(), 0)
        # ... and a regression in one is not hidden by a later entry of
        # another.
        self.append_workload("mesh-repeat", 200.0)   # -60%
        self.append_workload("trial-fresh", 110.0)
        self.assertEqual(self.check(), 1)

    def test_check_ignores_runs_without_usable_throughput(self) -> None:
        self.append_workload("trial-fresh", 100.0)
        self.append_workload("trial-fresh", 0.0)          # not a rate
        self.append(perfbench_line(metrics={}), bench="trial-fresh")
        self.assertEqual(self.check(), 0)  # only one usable run -> pass

    def test_check_ignores_retired_engine_entries(self) -> None:
        # The committed perf_engine pairs carry no trials_per_s; a 50% drop
        # between them is history, not a regression.
        self.append(perf_report(100, 10.0), "pre", machine="m")
        self.append(perf_report(100, 20.0), "post", machine="m")
        self.assertEqual(self.check(), 0)

    # -- machine awareness ----------------------------------------------------

    def test_append_stamps_machine_fingerprint(self) -> None:
        self.append_workload("trial-fresh", 100.0)
        self.append_workload("trial-fresh", 100.0, machine="ci-runner")
        data = json.loads(self.trajectory.read_text(encoding="utf-8"))
        self.assertEqual(data["runs"][0]["machine"],
                         bench_trajectory.machine_fingerprint())
        self.assertEqual(data["runs"][1]["machine"], "ci-runner")

    def test_check_skips_wall_comparison_across_machines(self) -> None:
        # A 50% drop vs a *different* machine's run must not fail — wall
        # clock only compares within one fingerprint.
        self.append_workload("trial-fresh", 100.0, "dev", machine="dev-box")
        self.append_workload("trial-fresh", 50.0, "ci", machine="ci-runner")
        self.assertEqual(self.check(), 0)
        # Same drop on the same machine still fails.
        self.append_workload("trial-fresh", 100.0, "ci-base",
                             machine="ci-runner")
        self.append_workload("trial-fresh", 50.0, "ci-slow",
                             machine="ci-runner")
        self.assertEqual(self.check(), 1)

    def test_check_treats_untagged_legacy_entries_as_comparable(self) -> None:
        # Entries written before machine stamping (edited in by hand here)
        # must keep gating runs from any machine.
        data = {"trajectory_schema": 1, "runs": [
            {"label": "legacy",
             "report": {"bench": "trial-fresh", "trials_per_s": 100.0}},
        ]}
        self.trajectory.write_text(json.dumps(data), encoding="utf-8")
        self.append_workload("trial-fresh", 50.0, "now", machine="ci-runner")
        self.assertEqual(self.check(), 1)

    # -- --require ------------------------------------------------------------

    def hotpath_report(self, convolve: float, despread: float) -> dict:
        return {"bench": "perf_hotpath", "convolve_speedup": convolve,
                "despread_speedup": despread}

    def test_require_asserts_on_latest_report_of_bench(self) -> None:
        self.append(self.hotpath_report(0.5, 0.5), "old")
        self.append(self.hotpath_report(7.0, 1.3), "new")
        self.assertEqual(
            self.check(require=["perf_hotpath:convolve_speedup>=1.5",
                                "perf_hotpath:despread_speedup>=1.0"]), 0)
        self.assertEqual(
            self.check(require=["perf_hotpath:convolve_speedup>=10"]), 1)

    def test_require_fails_on_missing_bench_or_field(self) -> None:
        self.assertEqual(self.check(require=["perf_hotpath:x>=1"]), 1)
        self.append(self.hotpath_report(7.0, 1.3))
        self.assertEqual(self.check(require=["perf_hotpath:nope>=1"]), 1)

    def test_require_rejects_malformed_expression(self) -> None:
        self.append(self.hotpath_report(7.0, 1.3))
        with self.assertRaises(SystemExit):
            self.check(require=["not an expression"])

    def test_malformed_bounds_are_usage_errors(self) -> None:
        # Both match the expression grammar but are not numbers: a usage
        # error (SystemExit), never a ValueError traceback.
        self.append(self.hotpath_report(7.0, 1.3))
        with self.assertRaises(SystemExit):
            self.check(require=["perf_hotpath:convolve_speedup>=1..2"])
        with self.assertRaises(SystemExit):
            self.check(require_speedup=["perf_hotpath>=e"])

    def test_require_reads_flattened_workload_metrics(self) -> None:
        self.append_workload("sentry-air", 1600.0, "old")
        self.append(perfbench_line(metrics={
            "msamples_per_s": {"value": 30.8, "unit": "Msample/s"},
            "verdict_latency_p50_ms": {"value": 0.31, "unit": "ms"},
        }), "new", bench="sentry-air")
        self.assertEqual(self.check(require=[
            "sentry-air:msamples_per_s>=16",
            "sentry-air:verdict_latency_p50_ms<=0.5"]), 0)
        self.assertEqual(
            self.check(require=["sentry-air:verdict_latency_p50_ms<=0.3"]), 1)
        # The latest sentry-air entry has no trials_per_s: the field is
        # looked up there only, never in an older entry.
        self.assertEqual(
            self.check(require=["sentry-air:trials_per_s>=1"]), 1)

    # -- --require-speedup ----------------------------------------------------

    def test_require_speedup_certifies_pre_post_pair(self) -> None:
        # 10 -> 2.5 ms for the same trial count: 4x single-thread speedup.
        self.append(perf_report(100, 10.0), "pre", machine="dev-box")
        self.append(perf_report(100, 2.5), "post", machine="dev-box")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_engine>=5"]), 1)

    def test_require_speedup_uses_threads1_wall_when_present(self) -> None:
        pre = dict(perf_report(100, 2.0), wall_ms_threads1=10.0)
        post = dict(perf_report(100, 2.0), wall_ms_threads1=4.0)
        self.append(pre, "pre", machine="m")
        self.append(post, "post", machine="m")
        # wall_ms_wide is identical; only the threads1 field shows the 2.5x.
        self.assertEqual(self.check(require_speedup=["perf_engine>=2.5"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_engine>=3"]), 1)

    def test_require_speedup_reads_sentry_sustained_rate(self) -> None:
        # perf_sentry has no trials/wall fields; the gate reads the
        # sustained single-channel Msamples/s directly.
        pre = {"bench": "perf_sentry", "sustained_msamples_per_sec": 4.0}
        post = {"bench": "perf_sentry", "sustained_msamples_per_sec": 9.0}
        self.append(pre, "pre", machine="m")
        self.append(post, "post", machine="m")
        self.assertEqual(self.check(require_speedup=["perf_sentry>=2"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_sentry>=3"]), 1)
        # A report with a missing or non-positive rate is not a usable run.
        self.assertIsNone(bench_trajectory._single_thread_throughput(
            {"bench": "perf_sentry"}, "perf_sentry"))
        self.assertIsNone(bench_trajectory._single_thread_throughput(
            {"bench": "perf_sentry", "sustained_msamples_per_sec": 0.0},
            "perf_sentry"))

    def test_require_speedup_fails_without_a_baseline(self) -> None:
        # No run at all, then a run with no same-machine predecessor: both
        # must fail — the gate certifies a recorded pair.
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)
        self.append(perf_report(100, 10.0), "pre", machine="dev-box")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)
        self.append(perf_report(100, 2.0), "ci", machine="ci-runner")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)


if __name__ == "__main__":
    unittest.main()

