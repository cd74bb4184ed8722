"""Steadiness and comparison tooling for the repository benchmark.

Repeat one workload over several seeds and print, per metric, the
median, quartiles and spreads (and, for gated metrics, whether the
spread stays under a third of the metric's bound)::

    python3 wlbench/steady.py repeat --workload rider_reads --runs 10 \\
        --seconds 30 --out parent-rider.json

Compare two result sets, parent against change, per workload and
metric: each side's median and quartiles, the change in the median, the
pairs the change won (run i against run i) and a verdict by the rule of
the choosing-metrics guide, section 8::

    python3 wlbench/steady.py compare --parent parent-rider.json --change change-rider.json

Result files hold every run's final JSON line and context, so sets made
on different commits (with identical benchmark code) can be compared.
Each side may be several files, as when the two sides' runs alternate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict[str, dict]:
    """Gated metric name -> its BENCHMARK.json entry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(paths: list[Path]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for run in json.loads(path.read_text())["runs"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def repeat(args: argparse.Namespace) -> int:
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall_s = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        context = next(
            (json.loads(line[9:]) for line in lines if line.startswith("context: ")), {}
        )
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"run with seed {seed} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        runs.append(
            {
                "workload": args.workload,
                "seed": seed,
                "trace": args.trace,
                "result": json.loads(lines[-1]),
                "context": context,
                "wall_s": wall_s,
            }
        )
        print(f"seed {seed}: done", file=sys.stderr)
        if args.out:
            args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    summarize(runs)
    return 0


def summarize(runs: list[dict]) -> None:
    spec = _spec()
    names = list(runs[0]["result"]["metrics"])
    print(f"{runs[0]['workload']}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    print(
        f"{'metric':<36} {'unit':<8} {'median':>11} {'q1':>11} {'q3':>11} "
        f"{'iqr/med':>8} {'min':>11} {'max':>11} {'rng/med':>8}  bound"
    )
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        q1, med, q3 = _quartiles(values)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = f"{bound:g} " + ("ok" if iqr < bound / 3 else "SPREAD > bound/3")
        print(
            f"{name:<36} {unit:<8} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
            f"{iqr:>8.3f} {min(values):>11.5g} {max(values):>11.5g} {rng:>8.3f}  {flag}"
        )
    cal = [r["context"].get("before", {}).get("calibration_ms") for r in runs]
    print(f"calibration_ms before each run: {cal}")
    walls = [r.get("wall_s", 0.0) for r in runs]
    print(f"wall seconds per run: median {statistics.median(walls):.1f}, max {max(walls):.1f}")


def compare(args: argparse.Namespace) -> int:
    spec = _spec()
    parent, change = _load(args.parent), _load(args.change)
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        print(
            f"{workload}: parent {len(p_runs)} runs, change {len(c_runs)} runs; "
            f"calibration_ms median: parent {_calibration(p_runs):.3g}, "
            f"change {_calibration(c_runs):.3g}"
        )
        print(
            f"  {'metric':<34} {'parent med [q1, q3]':>30} {'change med [q1, q3]':>30} "
            f"{'delta':>8} {'wins':>7}  verdict"
        )
        for name in p_runs[0]["result"]["metrics"]:
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            pq1, pmed, pq3 = _quartiles(p)
            cq1, cmed, cq3 = _quartiles(c)
            delta = (cmed - pmed) / pmed if pmed else 0.0
            entry = spec.get(name, {})
            sign = {"lower": -1, "higher": 1}.get(entry.get("better"), 0)
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if sign and (b - a) * sign > 0)
            verdict = _verdict(entry, sign, p, c, pmed, cmed, pq1, pq3, wins, len(pairs))
            print(
                f"  {name:<34} {pmed:>11.5g} [{pq1:.5g}, {pq3:.5g}]".ljust(67)
                + f"{cmed:>11.5g} [{cq1:.5g}, {cq3:.5g}]".rjust(30)
                + f" {100 * delta:>+7.2f}% {wins:>3}/{len(pairs):<3}  {verdict}"
            )
    return 0


def _calibration(runs: list[dict]) -> float:
    """Median calibration loop time around the runs: the host's speed.

    Sides whose calibration differs compare the host as much as the code.
    """
    return statistics.median(
        r["context"][side]["calibration_ms"] for r in runs for side in ("before", "after")
    )


def _verdict(entry, sign, p, c, pmed, cmed, pq1, pq3, wins, pairs) -> str:
    if not sign:
        return "not gated"
    worse = (pmed - cmed) * sign / pmed if pmed else 0.0
    bound = entry.get("bound")
    if wins >= 0.9 * pairs and abs(cmed - pmed) > (pq3 - pq1):
        return "gain"
    if bound is not None and (pq3 - pq1) / pmed > bound:
        if all((b - a) * sign > 0 for a in p for b in c):
            return "better in every run"
        return "unresolved: spread wider than bound"
    if bound is not None and worse > bound:
        return f"REGRESSION beyond bound {bound:g}"
    return "no change beyond bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rep = sub.add_parser("repeat", help="run one workload over several seeds")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--seed0", type=int, default=1)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rep.add_argument("--seconds", type=float, default=run_seconds)
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--out", type=Path)
    cmp_ = sub.add_parser("compare", help="parent result set against change result set")
    cmp_.add_argument("--parent", type=Path, nargs="+", required=True)
    cmp_.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args()
    return repeat(args) if args.cmd == "repeat" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
