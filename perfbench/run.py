#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload trial-fresh|mesh-repeat|sentry-air \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The harness is built with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run compiles the library sources, later runs only relink what changed.
Build output goes to standard error. The harness's standard output is passed
through; its last line is the result JSON. With --trace 1 the spans of the
traced run are written to <build dir>/spans/<workload>-<seed>.json.

Exit codes: 0 when every output check passed, 1 when one failed or the
result line is malformed, 2 when the checkout cannot be built.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ctc_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return out / "ctc_perfbench"


def expected_metrics(trace: bool):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line: str, trace: bool) -> list:
    """Problems with the result line (empty when it is well formed)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"result line is not JSON: {error}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        problems.append("metric names differ from BENCHMARK.json")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace == "1") if lines[-1] else ["no result line"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for problem in problems:
            print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
