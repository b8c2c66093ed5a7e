"""Steadiness report: how much each end-to-end metric moves between runs.

Runs the benchmark in several sets of runs per workload, each run with
another seed, and prints per set and end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to the metric's bound in
``BENCHMARK.json``, and the spread of the raw (unscaled) values.  A
metric is steady when its spread stays below a third of its bound in
every set, and when every later set's median is no worse than the first
set's by more than the bound::

    python3 perfbench/steadiness.py --runs 10 --sets 2 [--workloads W ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> tuple[dict, dict]:
    """(reported metrics, raw metrics) of one run; the raw ones are the
    times before host-speed scaling."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    raw = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("raw_metrics "))
    return ({name: entry["value"] for name, entry in
             result["metrics"].items()}, raw)


def spread_of(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, quartile spread as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def worsening(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            runs = []
            for i in range(args.runs):
                runs.append(run_once(spec["command"], workload, first + i,
                                     spec["run_seconds"]))
                print(f"{workload} set {s + 1} run {i + 1}/{args.runs} "
                      f"done", file=sys.stderr, flush=True)
            print(f"\n{workload} set {s + 1} ({args.runs} runs, seeds "
                  f"{first}..{first + args.runs - 1})")
            print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  steady"
                  f"  {'raw spread':>10s}")
            medians.append({})
            for metric in spec["end_to_end"]:
                name = metric["name"]
                q1, median, q3, spread = spread_of(
                    [run[name] for run, _ in runs])
                raw_spread = spread_of([raw[name] for _, raw in runs])[3]
                ok = spread < metric["bound"] / 3.0
                steady &= ok
                medians[-1][name] = median
                print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                      f" {spread:8.4f} {metric['bound']:6.2f}  "
                      f"{'yes' if ok else 'NO ':6s} {raw_spread:10.4f}")
        for s in range(1, args.sets):
            print(f"\n{workload}: set {s + 1} median against set 1 "
                  f"(worse by, share of set 1)")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                worse = worsening(metric, medians[0][name], medians[s][name])
                ok = worse <= metric["bound"]
                steady &= ok
                print(f"  {name:14s} {worse:+8.4f} {metric['bound']:6.2f}  "
                      f"{'ok' if ok else 'WORSE THAN BOUND'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
