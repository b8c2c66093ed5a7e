"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload event_ftgcs --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``event_ftgcs``
    FTGCS on the event engine: line and ring cluster graphs, D = 2..16,
    f = 1 with one equivocator per cluster, random initial offsets
    within kappa, max-rule MAX channel on; cells run serially.
``vec_scale``
    The vectorized engine: ``gcs_single`` and the ``ftgcs`` skeleton on
    1e4..1e5-node caterpillars, ``srikanth_toueg`` cliques, and static
    and adaptive adversary cells; cells run serially.
``service_faulted``
    Small lossy and churning event-engine cells over ``ftgcs``,
    ``gcs_single`` and ``master_slave``, submitted as one job through
    the REST layer (fresh cache, 2-worker pool), polled, fetched, and
    submitted again.

A *pass* submits the workload's grid as one job.  On ``service_faulted``
it then submits the same grid again: the first job is cold (computes and
writes the result cache), the second warm (only reads it).  The serial
workloads have no cache, so their one job is both the cold and the warm
job.  Passes repeat until ``--seconds`` is used up.

End-to-end metrics (tracing off; per-pass times are medians over the
passes, scaled to a reference host speed, see ``HostSpeed``; the raw
values are printed next to them):

``setup_s``
    Process start to ready-to-dispatch (imports, registry load, input
    generation, app and pool start), median of several fresh
    interpreters.  Shows work moved out of the measured passes.
``wall_s``
    One pass: what a user waits for the whole workload.
``work_per_s``
    Throughput at the workload's fixed size: kernel events per second
    on the event workloads (printed as ``sim_events_per_s``),
    node-rounds per second on ``vec_scale`` (``node_rounds_per_s``).
    One name, because every end-to-end metric is reported, and must be
    non-zero, on every workload.
``cell_s_p50`` / ``cell_s_tail``
    Per-cell latency (build, run and collect, in the worker): the
    median and a fixed high percentile with at least 10 samples beyond
    it; the sample count is printed with them.
``cold_job_s`` / ``warm_job_s``
    Submit to results in hand.  On ``service_faulted`` cold computes
    and writes the cache and warm only reads it; on the serial
    workloads both report the pass's one job.
``peak_rss_mb``
    Peak resident memory of the process plus its live pool workers.

The share of failed cells is the JSON's ``failed`` / ``attempted`` (a
metric that is 0 on a correct run cannot carry a relative bound) and is
printed as ``failed_frac``.

``--trace 1`` runs a few untraced passes, then wraps every layer's
public functions (``tracing.py``), runs traced passes, reports the
per-layer metrics per pass, and checks the no-change predictions.

Every executed cell is checked against ``reference.json``, the paper
bounds, and its fault-feature guards; any failure makes the exit code
non-zero.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space (result caches, temp files) inside the checkout.
WORK = ROOT / ".perfbench_tmp"

SETUP_PROBES = 5
#: Host-speed calibration: a fixed pure-Python loop (no repository
#: code) timed before every set-up probe and pass and after the last.
#: Each probe's and pass's times are scaled by the loop times on either
#: side of it to a host on which the loop takes
#: ``REFERENCE_CALIBRATION_S``; the raw times are printed next to them.
#: On a shared 2-core host the interpreter's speed swings by up to 60%
#: for minutes at a time, longer than a run, so no median within a run
#: removes it.  Over 10 seeds the scaled times spread by 0.03-0.15
#: (quartile distance over median) where the raw ones spread by
#: 0.10-0.32, on all three workloads, the numpy and pool ones included.
CALIBRATION_LOOP = 2_000_000
REFERENCE_CALIBRATION_S = 0.2
#: Passes a run makes at least: with 1.5 cells per grid beyond
#: ``cell_s_tail`` in each pass, 7 passes leave 10 samples beyond it.
MIN_PASSES = 7
POOL_WORKERS = 2
#: Job polling backs off from the first to the last interval, so a long
#: job is not slowed by a polling client competing for the two cores.
POLL_S = (0.001, 0.010)


# ----------------------------------------------------------------------
# Runners: how a workload's grid is submitted as a job
# ----------------------------------------------------------------------

@dataclass
class Job:
    wall: float                 # submit to results in hand
    sweep: float                # the executing layer's own time
    results: list
    executed: bool              # False when every cell came from cache
    snapshot: dict = field(default_factory=dict)


class SerialRunner:
    """``SweepRunner.run`` in-process; no result cache."""

    parallelism = 1
    jobs_per_pass = 1

    def __init__(self, cells) -> None:
        from repro import SweepRunner
        self.specs = [cell.spec for cell in cells]
        self.runner = SweepRunner(processes=1)

    def reset(self) -> None:
        pass

    def job(self) -> Job:
        start = perf_counter()
        results = self.runner.run(self.specs)
        wall = perf_counter() - start
        return Job(wall, wall, results, executed=True)

    def close(self) -> None:
        pass


class ServiceRunner:
    """The REST layer over a fresh result cache and a 2-worker pool."""

    parallelism = POOL_WORKERS
    jobs_per_pass = 2           # cold, then warm

    def __init__(self, cells, tracer=None) -> None:
        from repro.service.app import create_app
        from workloads import warmup_cells
        self.tracer = tracer
        self.cache = WORK / f"cache-{os.getpid()}-{time.monotonic_ns()}"
        self.app = create_app(cache_dir=self.cache, processes=POOL_WORKERS)
        self.client = self.app.test_client()
        self.body = {"cells": [cell.spec.to_dict() for cell in cells],
                     "base_seed": 0}
        # Start the pool: a two-cell job outside the measured grid.
        self._submit({"cells": [spec.to_dict() for spec in warmup_cells()]})
        self.reset()

    def _request(self, method: str, path: str, **kwargs):
        call = getattr(self.client, method)
        if self.tracer is None:
            response = call(path, **kwargs)
        else:
            with self.tracer.span("service.request"):
                response = call(path, **kwargs)
        if response.status_code >= 300:
            raise RuntimeError(f"{method.upper()} {path}: "
                               f"{response.status_code} {response.data!r}")
        return response.get_json()

    def _submit(self, body: dict) -> tuple[dict, list]:
        from repro.harness import serialize
        job_id = self._request("post", "/jobs", json=body)["id"]
        interval, longest = POLL_S
        while True:
            snapshot = self._request("get", f"/jobs/{job_id}")
            if snapshot["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(interval)
            interval = min(2.0 * interval, longest)
        if snapshot["state"] != "done":
            raise RuntimeError(f"job {job_id} {snapshot['state']}: "
                               f"{snapshot['error']}")
        cells = self._request("get", f"/jobs/{job_id}/cells")["cells"]
        return snapshot, [serialize.decode(cell) for cell in cells]

    def reset(self) -> None:
        self._request("post", "/cache/clear")

    def job(self) -> Job:
        start = perf_counter()
        snapshot, results = self._submit(self.body)
        wall = perf_counter() - start
        executed = snapshot["progress"]["executed_cells"] > 0
        sweep = snapshot["finished"] - snapshot["started"]
        return Job(wall, sweep, results, executed, snapshot)

    def close(self) -> None:
        self.app.config["REPRO_MANAGER"].shutdown()
        shutil.rmtree(self.cache, ignore_errors=True)


def make_runner(workload: str, cells, tracer=None):
    if workload == "service_faulted":
        return ServiceRunner(cells, tracer)
    return SerialRunner(cells)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

class HostSpeed:
    """Calibration loop timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        self.samples.append(perf_counter() - start)

    def scales(self) -> list[float]:
        """Per interval between two samples, the factor from measured
        seconds to reference-host seconds: the reference over the mean
        of the samples on either side."""
        return [2.0 * REFERENCE_CALIBRATION_S / (before + after)
                for before, after in zip(self.samples, self.samples[1:])]


@dataclass
class PassResult:
    wall: float
    cold: float
    warm: float
    work: float
    cell_times: list
    dispatch_overhead: float
    jobs: list


def work_of(cells, results) -> float:
    """Kernel events of event-engine cells plus node-rounds of
    vectorized cells."""
    work = 0.0
    for cell, result in zip(cells, results):
        if cell.spec.engine == "vectorized":
            nodes, rounds = cell.size
            work += nodes * rounds
        else:
            work += result.result.events_processed
    return work


def run_pass(runner, cells, checker, tracer) -> PassResult:
    runner.reset()
    start = perf_counter()
    jobs = []
    for _ in range(runner.jobs_per_pass):
        try:
            jobs.append(runner.job())
        except Exception as error:  # a raising job is a failed job
            checker.job_failed(f"{type(error).__name__}: {error}")
            jobs.append(None)
    wall = perf_counter() - start
    work = 0.0
    cell_times = []
    overhead = 0.0
    with (tracer.paused() if tracer is not None else nullcontext()):
        for job in jobs:
            if job is None:
                continue
            checker.check(job.results)
            if job.executed:
                work += work_of(cells, job.results)
                times = [r.extras.get("bench_cell_s", 0.0)
                         for r in job.results]
                cell_times += times
                overhead += job.sweep - sum(times) / runner.parallelism
    walls = [job.wall if job is not None else math.nan for job in jobs]
    return PassResult(wall, walls[0], walls[-1], work, cell_times, overhead,
                      [job for job in jobs if job is not None])


def run_passes(runner, cells, checker, seconds: float, tracer=None,
               min_passes: int = MIN_PASSES, speed=None,
               on_min_passes=None) -> list[PassResult]:
    """Passes until the next one would overrun ``seconds``, and at least
    ``min_passes``.  ``speed`` is sampled before every pass;
    ``on_min_passes`` is called once the minimum number of passes is
    done."""
    start = perf_counter()
    passes: list[PassResult] = []
    while True:
        pass_start = perf_counter()
        if speed is not None:
            speed.sample()
        passes.append(run_pass(runner, cells, checker, tracer))
        if len(passes) == min_passes and on_min_passes is not None:
            on_min_passes()
        last = perf_counter() - pass_start
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + last > seconds:
            return passes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def vm_hwm_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (the service's pool workers)."""
    total = vm_hwm_mb("self")
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                total += vm_hwm_mb(entry)
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
    return total


def tail_percentile(cells_per_job: int) -> float:
    """The percentile at the centre of the second-slowest cell's
    samples: a fixed rank, so runs with more or fewer passes report the
    same cell, and with ``MIN_PASSES`` passes 10 or more samples lie
    beyond it."""
    return 100.0 * (1.0 - 1.5 / cells_per_job)


def summarize(passes: list[PassResult], setup: list[float], rss: float,
              cells_per_job: int, scales: list[float]) -> dict:
    """Per-pass medians and per-cell latency percentiles.  ``setup``
    holds the set-up probe times; ``scales[i]`` multiplies the times of
    the i-th probe, and after the probes those of the passes in turn."""
    median = statistics.median
    pass_scales = scales[len(setup):]
    cell_times = [t * s for p, s in zip(passes, pass_scales)
                  for t in p.cell_times]
    return {
        "setup_s": median(t * s for t, s in zip(setup, scales)),
        "wall_s": median(p.wall * s for p, s in zip(passes, pass_scales)),
        "work_per_s": median(p.work / (p.wall * s)
                             for p, s in zip(passes, pass_scales)),
        "cell_s_p50": median(cell_times),
        "cell_s_tail": percentile(cell_times,
                                  tail_percentile(cells_per_job)),
        "cold_job_s": median(p.cold * s for p, s in zip(passes, pass_scales)),
        "warm_job_s": median(p.warm * s for p, s in zip(passes, pass_scales)),
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def setup(workload: str, seed: int, tracer=None):
    """Generate the grid and start the runner (the part of set-up that
    follows the imports)."""
    from workloads import generate
    if tracer is None:
        cells = generate(workload, seed)
    else:
        with tracer.span("harness.plan"):
            cells = generate(workload, seed)
    return cells, make_runner(workload, cells, tracer)


def probe_setup(workload: str, seed: int) -> int:
    """Child mode: set up, say ``ready``, tear down."""
    import tracing
    tracing.install_cell_runner()
    cells, runner = setup(workload, seed)
    print("ready", flush=True)
    runner.close()
    return 0


def measure_setup(workload: str, seed: int,
                  speed: HostSpeed) -> list[float]:
    """Process start to ready, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--probe-setup"]
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_untraced(workload: str, seed: int, seconds: float):
    import tracing
    from checks import Checker
    speed = HostSpeed()
    setup_times = measure_setup(workload, seed, speed)
    tracing.install_cell_runner()
    cells, runner = setup(workload, seed)
    checker = Checker(workload, cells)
    rss = []
    try:
        # Peak memory after a fixed number of passes: the job manager
        # keeps every finished job, so later passes would make it grow
        # with the host's speed.
        passes = run_passes(runner, cells, checker, seconds, speed=speed,
                            on_min_passes=lambda: rss.append(peak_rss_mb()))
    finally:
        runner.close()
    speed.sample()
    scales = speed.scales()
    metrics = summarize(passes, setup_times, rss[0], len(cells), scales)
    raw = summarize(passes, setup_times, rss[0], len(cells),
                    [1.0] * len(scales))
    info = {"passes": len(passes),
            "host_scale": round(statistics.median(scales), 4),
            "cells_timed": len(cells) * len(passes),
            "tail_percentile": round(tail_percentile(len(cells)), 2)}
    return metrics, raw, info, checker, []


def run_traced(workload: str, seed: int, seconds: float):
    import tracing
    from checks import Checker
    tracing.install_cell_runner()
    cells, runner = setup(workload, seed)
    checker = Checker(workload, cells)
    try:
        plain = run_passes(runner, cells, checker, seconds / 3.0,
                           min_passes=1)
    finally:
        runner.close()

    tracer = tracing.Tracer()
    tracing.install(tracer)
    cells, runner = setup(workload, seed, tracer)
    setup_data = tracer.drain()
    try:
        traced = run_passes(runner, cells, checker, seconds * 2.0 / 3.0,
                            tracer, min_passes=1)
    finally:
        runner.close()
    data = tracer.drain()

    n = len(traced)
    metrics = tracing.layer_metrics(data, n)
    inclusive, _ = tracing.span_totals(setup_data)
    metrics["harness.plan_s"] = inclusive.get("harness.plan", 0.0)
    metrics["harness.cells"] = sum(len(job.results) for p in traced
                                   for job in p.jobs) / n
    metrics["harness.dispatch_overhead_s"] = sum(
        p.dispatch_overhead for p in traced) / n
    metrics["harness.cells_errored"] = checker.errored
    metrics["harness.cells_mismatched"] = checker.mismatched
    metrics["analysis.bound_violations"] = checker.bound_violations
    snapshots = [job.snapshot for p in traced for job in p.jobs
                 if job.snapshot]
    if snapshots:
        # The job manager's sweep: job started to finished.
        metrics["harness.sweep_s"] = sum(
            job.sweep for p in traced for job in p.jobs) / n
        ratio = [s["progress"]["cached_cells"] / s["progress"]["total_cells"]
                 for s in snapshots]
        metrics["service.hit_ratio_cold"] = statistics.mean(ratio[0::2])
        metrics["service.hit_ratio_warm"] = statistics.mean(ratio[1::2])
        metrics["service.queue_wait_s"] = sum(
            s["started"] - s["created"] for s in snapshots) / n
    else:
        metrics["service.hit_ratio_cold"] = 0.0
        metrics["service.hit_ratio_warm"] = 0.0
        metrics["service.queue_wait_s"] = 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain))
    broken = tracing.check_predictions(workload, metrics)
    print("spans per traced pass (name <- parent):")
    for line in tracing.span_lines(data, n):
        print(f"  {line}")
    info = {"passes_untraced": len(plain), "passes_traced": n}
    return metrics, {}, info, checker, broken


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            metrics, raw, info, checker, broken = run_traced(
                args.workload, args.seed, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, raw, info, checker, broken = run_untraced(
                args.workload, args.seed, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    report(args.workload, metrics, raw, units, info, checker, broken)
    correct = checker.failed == 0 and not broken
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def report(workload, metrics, raw, units, info, checker, broken) -> None:
    """Human-readable lines ahead of the JSON result.  ``raw`` (the
    unscaled end-to-end metrics) is printed in a column of its own and
    as a ``raw_metrics`` JSON line, which ``steadiness.py`` reads."""
    print(f"workload {workload}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, unit in units.items():
        unscaled = f" {raw[name]:14.6g} raw" if raw else ""
        print(f"  {name:32s} {metrics[name]:14.6g} {unit:6s}{unscaled}")
    if "work_per_s" in metrics:
        named = ("node_rounds_per_s" if workload == "vec_scale"
                 else "sim_events_per_s")
        print(f"  {named:32s} {metrics['work_per_s']:14.6g} 1/s "
              f"(= work_per_s on this workload)")
    frac = checker.failed / checker.attempted if checker.attempted else 0.0
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio "
          f"({checker.failed} of {checker.attempted} cells)")
    for message in checker.messages:
        print(f"  FAILED {message}")
    for line in broken:
        print(f"  PREDICTION BROKEN {line}")
    if raw:
        print("raw_metrics " + json.dumps(raw))


if __name__ == "__main__":
    sys.exit(main())
