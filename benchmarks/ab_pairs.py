"""A/B pairs: two revisions, run alternately on one benchmark workload.

    python3 benchmarks/ab_pairs.py --base <rev> --workload <w>
        [--change HEAD] [--claim <metric>] [--trace] [--pairs 10]
        [--first-seed 1000] [--out bench-ab-<w>.jsonl]

or ``make bench-ab BASE=<rev> WORKLOAD=<w> [CHANGE=HEAD]
[CLAIM=<metric>] [PAIRS=10] [SEED=1000] [OUT=<file>]``, and for the
per-layer metrics ``make bench-layers BASE=<rev> WORKLOAD=<w>
[CHANGE=HEAD] [PAIRS=3] [SEED=1000] [OUT=<file>]``.

Both revisions are exported with ``git archive`` into one temporary
directory; they must carry the same ``BENCHMARK.json`` and
``perfbench/``, or nothing runs.  Pair ``i`` runs the benchmark command
of ``BENCHMARK.json`` (``perfbench/run.py --trace 0``) at its
``run_seconds`` once in each export, both with seed ``first_seed + i``.
The side that goes first alternates from pair to pair.  Both sides run
with ``PYTHONDONTWRITEBYTECODE=1``, so neither tree has bytecode the
other lacks, and ``setup_s`` compares like with like.

The report gives, per end-to-end metric, the base's median and
quartiles, the change's median, their ratio and how many pairs the
change won (ties count for neither side).  A metric whose change median
is worse than the base's by more than its ``bound`` is flagged
``WORSE``.  One whose base spread (quartile distance over median)
exceeds its bound is ``unresolved``, unless every change run beat every
base run.  ``--claim`` names a metric the change claims to improve; the
claim is met when the change wins at least 9 of every 10 pairs and the
medians differ by more than the base's quartile distance.

With ``--trace`` every run is the traced one (``--trace 1``), and the
report gives, per per-layer metric of ``BENCHMARK.json``, the base's
median, the change's median and their ratio.  It judges nothing, since
tracing slows both sides; it shows which layer a speed change touched.

Every run's JSON result is written to ``--out``, one line per run.  The
exit code is non-zero when any run was not ``correct`` (a traced run
is not correct when a no-change prediction of its workload broke).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: What both revisions must share for their numbers to be comparable.
BENCHMARK_PATHS = ("BENCHMARK.json", "perfbench")

#: A claimed gain needs the change to win 9 of every 10 pairs.
CLAIM_WINS = (9, 10)


# ----------------------------------------------------------------------
# Summary (pure; tested in tests/test_ab_pairs.py)
# ----------------------------------------------------------------------

def _better(metric: dict, a: float, b: float) -> bool:
    """Whether ``a`` is strictly better than ``b`` for ``metric``."""
    return a < b if metric["better"] == "lower" else a > b


def summarize_metric(metric: dict, pairs: list[tuple[float, float]]
                     ) -> dict:
    """One end-to-end metric over ``(base, change)`` value pairs.

    ``metric`` is its ``BENCHMARK.json`` entry (``name``, ``better``,
    ``bound``).  ``worsening`` is how much worse the change median is,
    as a share of the base median (negative when it is better);
    ``spread`` is the base's quartile distance over its median.
    """
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, median, q3 = statistics.quantiles(base, n=4)
    change_median = statistics.median(change)
    wins = sum(1 for b, c in pairs if _better(metric, c, b))
    worsening = (change_median - median) / median if median else 0.0
    if metric["better"] != "lower":
        worsening = -worsening
    spread = (q3 - q1) / median if median else 0.0
    if worsening > metric["bound"]:
        verdict = "WORSE"
    elif spread > metric["bound"] and not all(
            _better(metric, c, b) for c in change for b in base):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"name": metric["name"], "better": metric["better"],
            "bound": metric["bound"],
            "base_q1": q1, "base_median": median, "base_q3": q3,
            "change_median": change_median,
            "ratio": change_median / median if median else float("nan"),
            "wins": wins, "pairs": len(pairs), "worsening": worsening,
            "spread": spread, "verdict": verdict}


def median_gain(row: dict) -> float:
    """How much better the change median is than the base median, in
    the metric's unit (negative when it is worse)."""
    gap = row["change_median"] - row["base_median"]
    return -gap if row["better"] == "lower" else gap


def claim_met(row: dict) -> bool:
    """The gain rule: the change wins at least 9/10 of the pairs, and
    its median beats the base's by more than the base's quartile
    distance."""
    won, of = CLAIM_WINS
    return (of * row["wins"] >= won * row["pairs"]
            and median_gain(row) > row["base_q3"] - row["base_q1"])


def summarize(end_to_end: list[dict], runs: list[dict]) -> list[dict]:
    """Per end-to-end metric, the summary row of ``runs``.

    ``runs`` are the records this script writes: ``pair``, ``side``
    (``"base"`` or ``"change"``) and ``result``, the benchmark's JSON
    result (``None`` when the run produced none).  Only pairs with a
    result on both sides count; with fewer than two there is no
    summary (empty list).
    """
    complete = complete_pairs(runs)
    if len(complete) < 2:
        return []
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        pairs = [(sides["base"]["metrics"][name]["value"],
                  sides["change"]["metrics"][name]["value"])
                 for sides in complete]
        rows.append(summarize_metric(metric, pairs))
    return rows


def complete_pairs(runs: list[dict]) -> list[dict]:
    """``{"base": result, "change": result}`` of every pair with a
    result on both sides, in pair order."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        if run["result"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    return [sides for _, sides in sorted(by_pair.items())
            if len(sides) == 2]


def summarize_layers(per_layer: list[dict], runs: list[dict]
                     ) -> list[dict]:
    """Per per-layer metric (its ``BENCHMARK.json`` entry), the base
    and change medians over the complete pairs of traced ``runs`` and
    their ratio (NaN when the base median is 0).  Empty when no pair
    is complete."""
    complete = complete_pairs(runs)
    if not complete:
        return []
    rows = []
    for metric in per_layer:
        name = metric["name"]
        base = statistics.median(sides["base"]["metrics"][name]["value"]
                                 for sides in complete)
        change = statistics.median(
            sides["change"]["metrics"][name]["value"] for sides in complete)
        rows.append({"name": name, "unit": metric["unit"],
                     "base_median": base, "change_median": change,
                     "ratio": change / base if base else math.nan,
                     "pairs": len(complete)})
    return rows


def layer_report_lines(rows: list[dict]) -> list[str]:
    lines = [f"{'per-layer metric':32s} {'base median':>12s} "
             f"{'change':>12s} {'ratio':>7s}  unit"]
    for row in rows:
        lines.append(f"{row['name']:32s} {row['base_median']:12.5g} "
                     f"{row['change_median']:12.5g} {row['ratio']:7.3f}"
                     f"  {row['unit']}")
    return lines


def report_lines(rows: list[dict], claim: str | None) -> list[str]:
    lines = [f"{'metric':14s} {'base median':>12s} {'[q1, q3]':>24s} "
             f"{'change':>12s} {'ratio':>7s} {'wins':>6s}  verdict"]
    for row in rows:
        quartiles = f"[{row['base_q1']:.4g}, {row['base_q3']:.4g}]"
        lines.append(
            f"{row['name']:14s} {row['base_median']:12.5g} "
            f"{quartiles:>24s} {row['change_median']:12.5g} "
            f"{row['ratio']:7.3f} {row['wins']:>3d}/{row['pairs']:<2d}  "
            f"{row['verdict']} (spread {row['spread']:.3f}, bound "
            f"{row['bound']})")
    if claim is not None:
        row = next(r for r in rows if r["name"] == claim)
        lines.append(f"claim {claim}: "
                     f"{'met' if claim_met(row) else 'NOT met'} "
                     f"({row['wins']}/{row['pairs']} pairs won, median "
                     f"gain {median_gain(row):.4g}, base IQR "
                     f"{row['base_q3'] - row['base_q1']:.4g})")
    return lines


# ----------------------------------------------------------------------
# Exports and runs
# ----------------------------------------------------------------------

def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def resolve(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def _object_id(rev: str, path: str) -> str | None:
    """The git object of ``path`` in ``rev``; ``None`` when absent."""
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                           f"{rev}:{path}"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def benchmark_differs(base: str, change: str) -> list[str]:
    """The benchmark paths whose content differs between the two (a
    path missing from either counts as differing)."""
    differs = []
    for path in BENCHMARK_PATHS:
        base_id = _object_id(base, path)
        if base_id is None or base_id != _object_id(change, path):
            differs.append(path)
    return differs


def export(rev: str, dest: Path) -> None:
    """Extract ``rev``'s tree into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: bool = False
             ) -> tuple[int, dict | None, str]:
    """(exit code, JSON result or ``None``, output) of one run."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    timeout = max(600.0, 20.0 * seconds)
    try:
        done = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds),
                       "--trace", "1" if trace else "0"],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1, None, f"timed out after {timeout:.0f} s"
    output = done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", default="HEAD",
                        help="changed revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--claim", help="end-to-end metric the change "
                                        "claims to improve")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs; report the per-layer metrics")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path,
                        help="JSON lines of every run (default "
                             "bench-ab-<workload>.jsonl)")
    args = parser.parse_args(argv)
    if args.trace and args.claim is not None:
        parser.error("--claim compares untraced runs; drop --trace")
    if args.pairs < (1 if args.trace else 2):
        parser.error("--pairs must be at least 2 (quartiles), or 1 with "
                     "--trace")
    revs = {"base": resolve(args.base), "change": resolve(args.change)}
    differs = benchmark_differs(revs["base"], revs["change"])
    if differs:
        print(f"bench-ab: {', '.join(differs)} differ between "
              f"{args.base} and {args.change}; their numbers would not "
              f"compare", file=sys.stderr)
        return 2
    out = args.out or Path(f"bench-{'layers' if args.trace else 'ab'}-"
                           f"{args.workload}.jsonl")
    spec = json.loads(_git("show", f"{revs['base']}:BENCHMARK.json"))
    if args.claim is not None and args.claim not in {
            m["name"] for m in spec["end_to_end"]}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    seconds = spec["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        with out.open("w", encoding="utf-8") as handle:
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                order = (("base", "change") if pair % 2 == 0
                         else ("change", "base"))
                for position, side in enumerate(order):
                    code, result, output = run_once(
                        trees[side], spec["command"], args.workload, seed,
                        seconds, args.trace)
                    record = {"pair": pair, "seed": seed, "side": side,
                              "rev": revs[side], "first": position == 0,
                              "exit": code, "result": result}
                    runs.append(record)
                    handle.write(json.dumps(record) + "\n")
                    handle.flush()
                    correct = result is not None and result["correct"]
                    print(f"pair {pair + 1}/{args.pairs} seed {seed} "
                          f"{side}: {'correct' if correct else 'FAILED'}",
                          file=sys.stderr, flush=True)
                    if not correct:
                        print(output[-2000:], file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs, base {revs['base'][:12]}"
          f", change {revs['change'][:12]}, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, {seconds} s per run; "
          f"runs in {out}")
    if args.trace:
        rows = summarize_layers(spec["per_layer"], runs)
        lines = layer_report_lines(rows)
    else:
        rows = summarize(spec["end_to_end"], runs)
        lines = report_lines(rows, args.claim)
    if rows:
        print("\n".join(lines))
    else:
        print("fewer than two pairs have a result on both sides; "
              "no summary")
    failed = [run for run in runs
              if run["result"] is None or not run["result"]["correct"]]
    for run in failed:
        print(f"run not correct: pair {run['pair'] + 1} {run['side']} "
              f"(exit {run['exit']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
