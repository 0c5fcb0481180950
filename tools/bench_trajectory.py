#!/usr/bin/env python3
"""Append bench JSON reports to a trajectory file and gate on regressions.

Two kinds of run report feed the *trajectory*, the machine-readable record
of throughput and latency across changes:

* the result line of ``perfbench/run.py``, the repository benchmark:
  ``{"correct", "attempted", "failed", "metrics"}``, where each metric is
  ``{"value": ..., "unit": ...}``.  The line carries no workload name, so
  ``append --bench WORKLOAD`` names it;
* the one-line JSON a ``bench/`` binary prints with ``--json``, which names
  itself in its ``bench`` field (``perf_hotpath``'s kernel ratios).

Subcommands
-----------
append   Read one run report (a file whose last non-empty line is the JSON
         object) and append it to the trajectory file::

             python3 perfbench/run.py --workload sentry-air --seed 1 \
                 --seconds 10 --trace 0 > run.txt
             python3 tools/bench_trajectory.py append --run run.txt \
                 --bench sentry-air --trajectory BENCH_telemetry.json \
                 --label "$SHA"

         A perfbench line is stored flattened as ``{"bench": WORKLOAD,
         "correct", "attempted", "failed", METRIC: value, ...}``.  A line
         with ``correct: false``, ``failed > 0`` or keys other than those
         four is refused and the trajectory file is left untouched, as is
         a perfbench line without ``--bench``.

check    Gate: for every workload, compare the latest ``trials_per_s``
         against the best earlier entry of that workload.  Exits non-zero
         when it dropped by more than ``--max-regression`` (default 0.25,
         i.e. >25% slower)::

             python3 tools/bench_trajectory.py check --trajectory BENCH_telemetry.json

         Wall-clock throughput is only comparable between runs recorded on
         the same machine, so ``append`` stamps each entry with a machine
         fingerprint (system, architecture, CPU count) and ``check``
         compares the latest run only against earlier entries carrying the
         same fingerprint (entries without one, from older trajectories,
         match anything).

         Two more assertions complement the wall-clock gate:

         ``--require BENCH:FIELD>=VALUE`` asserts a numeric field of the
         latest BENCH entry (repeatable; ops ``>= <= > < ==``)::

             ... check --trajectory t.json --require 'sentry-air:msamples_per_s>=16'

         ``--require-speedup BENCH>=FACTOR`` asserts that the latest BENCH
         run improved single-thread throughput by at least FACTOR over the
         *earliest* same-machine BENCH run — the committed pre/post pair
         that records an optimization's win.  Unlike the regression check,
         this fails when no comparable pair exists: a gate that cannot find
         its baseline must not silently pass.

The trajectory file is a single JSON object ``{"trajectory_schema": 1,
"runs": [...]}``; each entry is ``{"label": ..., "machine": ...,
"report": {...}}``.  A workload with fewer than two same-machine entries
(a fresh trajectory, or a cache miss in CI) passes the regression check
trivially.

Standard library only — no third-party imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
from pathlib import Path

TRAJECTORY_SCHEMA = 1

# The four keys of a perfbench/run.py result line.
PERFBENCH_KEYS = {"correct", "attempted", "failed", "metrics"}

_REQUIRE_RE = re.compile(
    r"^(?P<bench>[\w.-]+):(?P<field>[\w.]+)\s*(?P<op>>=|<=|==|>|<)\s*"
    r"(?P<value>[-+0-9.eE]+)$")
_SPEEDUP_RE = re.compile(r"^(?P<bench>[\w.-]+)\s*>=\s*(?P<factor>[-+0-9.eE]+)$")

_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


def machine_fingerprint() -> str:
    """Coarse host fingerprint: wall-clock numbers are only comparable
    between runs that share it."""
    return f"{platform.system()}-{platform.machine()}-{os.cpu_count()}cpu"


def _same_machine(a: dict, b: dict) -> bool:
    """Entries without a fingerprint (older trajectories) match anything."""
    ma, mb = a.get("machine"), b.get("machine")
    return ma is None or mb is None or ma == mb


def _load_trajectory(path: Path) -> dict:
    if not path.exists():
        return {"trajectory_schema": TRAJECTORY_SCHEMA, "runs": []}
    with path.open(encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "runs" not in data:
        raise SystemExit(f"{path}: not a trajectory file (missing 'runs')")
    schema = data.get("trajectory_schema")
    if schema != TRAJECTORY_SCHEMA:
        raise SystemExit(f"{path}: unsupported trajectory_schema {schema!r}")
    return data


def _perfbench_entry(path: Path, line: dict, bench: str) -> dict:
    """Flatten a perfbench result line into a trajectory report named
    ``bench``; refuse a line that is not a clean, fully checked run."""
    if set(line) != PERFBENCH_KEYS:
        raise SystemExit(f"{path}: perfbench result keys {sorted(line)} != "
                         f"{sorted(PERFBENCH_KEYS)}")
    if line["correct"] is not True:
        raise SystemExit(f"{path}: perfbench run is not correct; not recorded")
    if line["failed"] != 0:
        raise SystemExit(f"{path}: perfbench run failed {line['failed']!r} "
                         "operation(s); not recorded")
    try:
        values = {name: metric["value"]
                  for name, metric in line["metrics"].items()}
    except (AttributeError, KeyError, TypeError):
        raise SystemExit(f"{path}: perfbench metrics are not "
                         "{NAME: {\"value\": ...}} objects") from None
    return {"bench": bench, "correct": True, "attempted": line["attempted"],
            "failed": 0, **values}


def _load_run_report(path: Path, bench: str) -> dict:
    """Parse the last non-empty line of ``path``: a bench ``--json`` report
    (``bench`` empty) or a perfbench result line named ``bench``."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty run file")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise SystemExit(f"{path}: last line is not JSON: {error}") from error
    if not isinstance(report, dict):
        raise SystemExit(f"{path}: last line is not a JSON object")
    if bench:
        return _perfbench_entry(path, report, bench)
    if "metrics" in report:
        raise SystemExit(f"{path}: a perfbench result line needs "
                         "--bench WORKLOAD")
    if "bench" not in report:
        raise SystemExit(f"{path}: report has no 'bench' field")
    return report


def cmd_append(args: argparse.Namespace) -> int:
    trajectory_path = Path(args.trajectory)
    trajectory = _load_trajectory(trajectory_path)
    report = _load_run_report(Path(args.run), args.bench)
    label = args.label if args.label else f"run-{len(trajectory['runs'])}"
    machine = args.machine if args.machine else machine_fingerprint()
    trajectory["runs"].append(
        {"label": label, "machine": machine, "report": report})
    trajectory_path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=False) + "\n",
        encoding="utf-8")
    print(f"appended {report['bench']} run '{label}' "
          f"({len(trajectory['runs'])} total) to {trajectory_path}")
    return 0


def _single_thread_throughput(report: dict, bench: str) -> float | None:
    """Single-thread throughput for a report of ``bench``, else None.

    Reads the committed pre/post pairs of the retired ``bench/`` engine and
    sentry benches: perf_sentry reports carry their single-channel rate
    directly as ``sustained_msamples_per_sec``; everything else derives
    trials / single-thread wall ms."""
    if report.get("bench") != bench:
        return None
    if bench == "perf_sentry":
        sustained = report.get("sustained_msamples_per_sec")
        if not isinstance(sustained, (int, float)) or sustained <= 0:
            return None
        return float(sustained)
    trials = report.get("trials")
    wall_ms = report.get("wall_ms_threads1", report.get("wall_ms_wide"))
    if not isinstance(trials, (int, float)) or not isinstance(wall_ms, (int, float)):
        return None
    if wall_ms <= 0:
        return None
    return float(trials) / float(wall_ms)


def _trials_per_s(entry: dict) -> float | None:
    """The entry's positive ``trials_per_s`` (a perfbench workload), else
    None."""
    value = entry.get("report", {}).get("trials_per_s")
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


def _check_regression(runs: list[dict], max_regression: float) -> bool:
    """Wall-clock gate: per workload, the latest ``trials_per_s`` vs the
    best earlier entry on the same machine. A workload without a comparable
    pair (a fresh trajectory, or the first run on a new machine) passes."""
    by_bench: dict[str, list[dict]] = {}
    for entry in runs:
        if _trials_per_s(entry) is not None:
            by_bench.setdefault(entry["report"]["bench"], []).append(entry)
    if not by_bench:
        print("no trials_per_s entries in trajectory; nothing to compare "
              "— pass")
    ok = True
    for bench, entries in by_bench.items():
        latest_entry = entries[-1]
        comparable = [entry for entry in entries[:-1]
                      if _same_machine(entry, latest_entry)]
        if not comparable:
            print(f"{bench}: no earlier run on this machine; wall-clock "
                  "comparison skipped — pass")
            continue
        latest = _trials_per_s(latest_entry)
        best_entry = max(comparable, key=_trials_per_s)
        best = _trials_per_s(best_entry)
        drop = 1.0 - latest / best
        print(f"{bench} trials_per_s: latest "
              f"'{latest_entry.get('label', '?')}' = {latest:.3f}, best "
              f"earlier '{best_entry.get('label', '?')}' = {best:.3f} "
              f"({drop:+.1%} regression)")
        if drop > max_regression:
            print(f"FAIL: {bench} trials_per_s dropped {drop:.1%} > "
                  f"{max_regression:.0%} allowed", file=sys.stderr)
            ok = False
    return ok


def _bound(text: str, flag: str, expr: str) -> float:
    """The numeric bound of a --require/--require-speedup expression; a
    malformed number is a usage error, like a malformed expression."""
    try:
        return float(text)
    except ValueError:
        raise SystemExit(
            f"{flag} {expr!r}: {text!r} is not a number") from None


def _check_require(runs: list[dict], expr: str) -> bool:
    """--require BENCH:FIELD OP VALUE against the latest BENCH report.
    Missing bench or field fails: an unverifiable assertion is a failure,
    not a pass."""
    match = _REQUIRE_RE.match(expr)
    if not match:
        raise SystemExit(f"--require {expr!r}: expected BENCH:FIELD>=VALUE")
    bench, field = match["bench"], match["field"]
    op, bound = match["op"], _bound(match["value"], "--require", expr)
    latest = None
    for entry in runs:
        if entry.get("report", {}).get("bench") == bench:
            latest = entry
    if latest is None:
        print(f"FAIL: --require {expr!r}: no {bench} run in trajectory",
              file=sys.stderr)
        return False
    value = latest["report"].get(field)
    if not isinstance(value, (int, float)):
        print(f"FAIL: --require {expr!r}: latest {bench} run "
              f"'{latest.get('label', '?')}' has no numeric field "
              f"{field!r}", file=sys.stderr)
        return False
    ok = _OPS[op](float(value), bound)
    status = "ok" if ok else "FAIL"
    print(f"{status}: {bench}:{field} = {value:g} (required {op} {bound:g})",
          file=sys.stdout if ok else sys.stderr)
    return ok


def _check_require_speedup(runs: list[dict], expr: str) -> bool:
    """--require-speedup BENCH>=FACTOR: latest vs earliest same-machine
    BENCH run by single-thread throughput. Fails when the pair does not
    exist — this gate certifies a recorded pre/post win, so a missing
    baseline means the record is broken."""
    match = _SPEEDUP_RE.match(expr)
    if not match:
        raise SystemExit(
            f"--require-speedup {expr!r}: expected BENCH>=FACTOR")
    bench = match["bench"]
    factor = _bound(match["factor"], "--require-speedup", expr)
    entries = [entry for entry in runs
               if _single_thread_throughput(entry.get("report", {}), bench)
               is not None]
    if not entries:
        print(f"FAIL: --require-speedup {expr!r}: no {bench} run in "
              "trajectory", file=sys.stderr)
        return False
    latest = entries[-1]
    baselines = [entry for entry in entries[:-1]
                 if _same_machine(entry, latest)]
    if not baselines:
        print(f"FAIL: --require-speedup {expr!r}: no earlier {bench} run "
              f"on machine {latest.get('machine', '?')!r} to compare "
              "against", file=sys.stderr)
        return False
    baseline = baselines[0]
    speedup = (_single_thread_throughput(latest["report"], bench)
               / _single_thread_throughput(baseline["report"], bench))
    ok = speedup >= factor
    status = "ok" if ok else "FAIL"
    print(f"{status}: {bench} single-thread speedup "
          f"'{baseline.get('label', '?')}' -> '{latest.get('label', '?')}' "
          f"= {speedup:.2f}x (required >= {factor:g}x)",
          file=sys.stdout if ok else sys.stderr)
    return ok


def cmd_check(args: argparse.Namespace) -> int:
    trajectory = _load_trajectory(Path(args.trajectory))
    runs = trajectory["runs"]
    ok = _check_regression(runs, args.max_regression)
    for expr in args.require:
        ok = _check_require(runs, expr) and ok
    for expr in args.require_speedup:
        ok = _check_require_speedup(runs, expr) and ok
    if not ok:
        return 1
    print("pass")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    append = sub.add_parser("append", help="append a run report to the trajectory")
    append.add_argument("--run", required=True,
                        help="file whose last line is a bench --json report "
                             "or a perfbench result line")
    append.add_argument("--bench", default="",
                        help="workload name of a perfbench result line "
                             "(required for one, refused otherwise)")
    append.add_argument("--trajectory", required=True,
                        help="trajectory JSON file (created if missing)")
    append.add_argument("--label", default="",
                        help="label for this run (default: run-<index>)")
    append.add_argument("--machine", default="",
                        help="machine fingerprint for this run "
                             "(default: auto-detected)")
    append.set_defaults(func=cmd_append)

    check = sub.add_parser("check", help="fail on a per-workload "
                                         "trials_per_s regression")
    check.add_argument("--trajectory", required=True)
    check.add_argument("--max-regression", type=float, default=0.25,
                       help="maximum tolerated fractional drop (default 0.25)")
    check.add_argument("--require", action="append", default=[],
                       metavar="BENCH:FIELD>=VALUE",
                       help="assert a numeric field of the latest BENCH "
                            "report (machine-independent; repeatable)")
    check.add_argument("--require-speedup", action="append", default=[],
                       metavar="BENCH>=FACTOR",
                       help="assert latest vs earliest same-machine BENCH "
                            "single-thread throughput ratio (repeatable)")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
