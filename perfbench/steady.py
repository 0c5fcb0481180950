#!/usr/bin/env python3
"""Steadiness runner: is the benchmark steady enough for its bounds?

    python3 perfbench/steady.py [--runs 10]

For every workload it makes two sets of runs of perfbench/run.py
--trace 0, one run per seed (1 .. runs) in each set, interleaved: seed 1
of set A, seed 1 of set B, seed 2 of set A, and so on, so a change in the
host's speed during the proof reaches both sets alike. Every run is
printed. For each end-to-end metric and each set it reports the median,
the first and third quartiles (Python's statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median, and then the shift of set B's
median from set A's in the metric's worse direction, as a share of set
A's median.

Each metric's regression bound is derived from those figures: the larger
of three times the worst spread and the worst shift, rounded up to the
next step of 0.02, 0.05, 0.10, 0.15, 0.20, 0.25, and at most 0.25;
setup_s, whose spread is not gated, gets the largest bound, 0.25. The
derivation and the bound BENCHMARK.json holds are printed side by side.

Output checks are repeated: every run checks its outputs at its own seed,
the two runs of one seed must print the same result digests, and every
workload runs once traced at seed runs + 1 (probes and trace
reconciliation must pass).

Exits 0 when every run passed its checks, every spread except setup_s's
is below a third of its bound, no median shift exceeds its bound, and the
repeated checks hold; 1 otherwise.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["trial-fresh", "mesh-repeat", "sentry-air"]
SETS = ["A", "B"]
BOUND_STEPS = [0.02, 0.05, 0.10, 0.15, 0.20, 0.25]


def run(workload, seed, seconds, trace):
    """One run.py invocation: (ok, result dict or None, digest lines)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = done.stdout.strip().split("\n")
    digests = [line for line in lines if line.startswith("# digest")]
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return False, None, digests
    return done.returncode == 0 and result.get("correct") is True, result, digests


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def worse_shift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first if first else math.inf
    return change if better == "lower" else -change


def derive_bound(name, worst_spread, worst_shift):
    if name == "setup_s":
        return 0.25
    need = max(3 * worst_spread, worst_shift)
    return next((step for step in BOUND_STEPS if step >= need), BOUND_STEPS[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    healthy = True
    worst_spread = {name: 0.0 for name in metrics}
    worst_shift = {name: 0.0 for name in metrics}

    for workload in WORKLOADS:
        values = {s: {name: [] for name in metrics} for s in SETS}
        print(f"\n{workload}: two interleaved sets of {args.runs} runs of {seconds} s", flush=True)
        for seed in range(1, args.runs + 1):
            digests = {}
            for s in SETS:
                ok, result, digests[s] = run(workload, seed, seconds, trace=False)
                shown = "  ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                                  for name in metrics) if result else "no result"
                print(f"  set {s} seed {seed:2}: {'ok' if ok else 'FAILED'}  {shown}", flush=True)
                healthy &= ok
                if result is None:
                    continue
                for name in metrics:
                    values[s][name].append(result["metrics"][name]["value"])
            if digests["A"] != digests["B"]:
                print(f"  seed {seed}: the two runs printed different digests", flush=True)
                healthy = False

        print(f"  {'metric':24} {'set':>3} {'median':>13} {'q1':>13} {'q3':>13}"
              f" {'spread':>7} {'shift':>7} {'bound':>5}")
        for name, metric in metrics.items():
            medians = {}
            for s in SETS:
                series = values[s][name]
                if len(series) < 2:
                    healthy = False
                    continue
                med, q1, q3, rel = spread(series)
                medians[s] = med
                worst_spread[name] = max(worst_spread[name], rel)
                flag = ""
                if name != "setup_s" and rel >= metric["bound"] / 3:
                    flag = "  <- spread reaches a third of the bound"
                    healthy = False
                shift = ""
                if s == "B" and "A" in medians:
                    moved = worse_shift(medians["A"], med, metric["better"])
                    worst_shift[name] = max(worst_shift[name], moved)
                    shift = f"{moved:7.4f}"
                    if moved > metric["bound"]:
                        flag += "  <- median shift exceeds the bound"
                        healthy = False
                print(f"  {name:24} {s:>3} {med:13.6g} {q1:13.6g} {q3:13.6g} {rel:7.4f}"
                      f" {shift:>7} {metric['bound']:5.2f}{flag}")

    print("\nbound derivation: max(3 x worst spread, worst shift), rounded up to a step of"
          f" {BOUND_STEPS}, at most 0.25; setup_s 0.25")
    for name, metric in metrics.items():
        derived = derive_bound(name, worst_spread[name], worst_shift[name])
        print(f"  {name:24} worst spread {worst_spread[name]:.4f}, worst shift"
              f" {worst_shift[name]:+.4f} -> {derived:.2f} (BENCHMARK.json {metric['bound']:.2f})")

    traced_seed = args.runs + 1
    print(f"\ntraced output checks at seed {traced_seed}")
    for workload in WORKLOADS:
        ok, result, _ = run(workload, traced_seed, seconds, trace=True)
        gap = result["metrics"]["bench.reconcile_gap_ratio"]["value"] if result else None
        healthy &= ok
        print(f"  {workload:12} traced run ok: {ok}  reconcile gap: {gap}", flush=True)

    print("\nsteady" if healthy else "\nNOT steady or a check failed")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
