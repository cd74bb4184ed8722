"""Run one workload of the repository benchmark and print its metrics.

    python3 wlbench/run.py --workload rider_reads --seed 1 --seconds 15 --trace 0

Prints the run context, every end-to-end metric that applies to the
workload (value, unit and sample count), the operations attempted and
failed, the output checks, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``; with
``--trace 1`` the run installs the span wrappers and the metrics are its
``per_layer`` ones.  Exits 1 when an output check fails, 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import checkout


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: a busy machine shows here."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_ms": round(calibration_ms(), 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one wlbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkout.require_src()
    checkout.pin_hash_seed(args.seed)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    before = run_context()
    scratch = checkout.scratch_dir()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context = {"before": before, "after": run_context()}

    print(f"wlbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context: " + json.dumps(context, sort_keys=True))
    for note in outcome.notes:
        print("note: " + note)
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = outcome.layers
        for entry in spec["per_layer"]:
            print(f"  {entry['name']:<40} {values[entry['name']]:>14.6g} {entry['unit']}")
    else:
        values = {name: value for name, (value, _, _) in outcome.e2e.items()}
        for name, (value, unit, n) in sorted(outcome.e2e.items()):
            print(f"  {name:<28} {value:>14.6g} {unit:<10} n={n}")
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    tally = outcome.tally
    print(f"operations: attempted={tally.attempted} failed={tally.failed}")
    correct = tally.failed == 0 and not tally.problems
    for problem in tally.problems[:20]:
        print("check failed: " + problem)
    print("checks: " + ("ok" if correct else f"{len(tally.problems)} failed"))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
