"""Async job manager: queued sweep jobs over one warm worker pool.

A *job* is one table-sized unit of work — a registry experiment
(``t01`` … ``t18``) or an ad-hoc grid of
:class:`~repro.harness.sweep.ScenarioSpec` cells.  Submission returns
immediately with a :class:`Job` handle; background worker threads
drain the queue, so many users (or one impatient one) can stack
submissions while earlier tables are still computing.

Execution path, per job:

1. Compile the cell grid and resolve per-cell seeds through
   :func:`~repro.harness.sweep.resolve_cell_seeds` — *exactly* the
   derivation ``SweepRunner.run`` applies, so a served job is
   cell-for-cell bit-identical to ``repro run``.
2. Partition the grid against the content-addressed
   :class:`~repro.service.store.ResultStore`: hits are decoded from
   disk and never touch the kernel (the per-job ``executed_cells``
   counter stays at 0 for a fully cached resubmission).  The job keeps
   its resolved spec hashes, which address the stored cells from then
   on; the request specs of a grid job are dropped.
3. Execute the misses — serially in-process, or streamed through
   **one warm ``multiprocessing`` pool** shared by every job the
   manager ever runs (created once, reused; no per-job pool startup).
   The pool path keeps at most ``2 * processes`` cells submitted but
   not yet persisted and collects them in grid order, so the workers
   keep computing while the job thread persists each result (and
   merges it back at its grid index) as it arrives.
4. Finish the table (the experiment's registered ``finish`` step, or
   a generic per-cell summary for ad-hoc grids) and drop the decoded
   cells: a finished job keeps its table, counters and spec hashes,
   and :meth:`JobManager.cell_texts` reads its cells back from the
   store as stored.

Job states: ``queued → running → done | failed | cancelled``.
Cancellation is checked before each cell is started: a queued job
cancels immediately; an executing one starts no further cell, lets
the at most ``2 * processes`` cells already in the pool finish, and
keeps every persisted cell in the cache.  A failing cell fails the job
with the first error in grid order, after the cells still in flight
are collected and the successful ones persisted, so no leftover work
stays on the shared pool.

The manager keeps the last :data:`JOB_HISTORY` finished jobs; queued
and running jobs are never evicted.  Job ids are sequential and never
reused, so an evicted id is told apart from one never issued.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue
import threading
import time

from repro.core.protocol import ProtocolRunResult
from repro.errors import ConfigError, ReproError
from repro.harness.registry import REGISTRY
from repro.harness.sweep import (
    ScenarioSpec,
    SweepCellResult,
    check_spec,
    default_processes,
    resolve_cell_seeds,
    run_cell,
    spec_hash,
)
from repro.harness.tables import Table
from repro.service.store import ResultStore, decode_cell

#: Legal :attr:`Job.state` values, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Finished jobs a manager keeps for lookup; older ones are evicted.
JOB_HISTORY = 1000


class CellsGone(ReproError):
    """A done job's cell is no longer in the result store (absent,
    stale or corrupt, e.g. after a cache clear)."""

    def __init__(self, job_id: str, index: int) -> None:
        super().__init__(
            f"cell {index} of job {job_id} is no longer in the result "
            f"store; resubmit the job to recompute it")


def _job_id(number: int) -> str:
    return f"job-{number:04d}"


def check_job_fields(**fields) -> None:
    """Reject an ill-typed ``quick``/``seed``/``base_seed`` (the
    OpenAPI ``JobRequest`` types) with a
    :class:`~repro.errors.ConfigError` naming the field.  Values are
    checked, never coerced: ``"false"`` is not ``False``, ``1.7`` is
    not ``1``, and a boolean is not an integer."""
    for name, value in fields.items():
        integer = isinstance(value, int) and not isinstance(value, bool)
        valid, expected = {
            "quick": (isinstance(value, bool), "a boolean"),
            "seed": (integer or value is None, "an integer or null"),
            "base_seed": (integer, "an integer"),
        }[name]
        if not valid:
            raise ConfigError(
                f"{name!r} must be {expected}, got {value!r}")


class Job:
    """One submitted unit of work and its observable progress.

    Readers on other threads — the REST layer polling progress — need
    no lock: every field is published by a single assignment, and
    ``state`` is assigned last, after the fields its value promises
    (``started`` before ``running``; ``finished``, ``table`` and
    ``error`` before a terminal state).
    """

    def __init__(self, id: str, kind: str, request: dict,
                 label: str) -> None:
        self.id = id
        self.kind = kind  # "experiment" | "grid"
        self.request = request
        self.label = label
        self.state = "queued"
        self.error: str | None = None
        self.total_cells = 0
        self.completed_cells = 0
        self.cached_cells = 0
        self.executed_cells = 0
        # repro: allow[wall-clock] -- job-lifecycle timestamp shown
        # in the REST status body; results stay deterministic.
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.table: Table | None = None
        self.spec_hashes: list[str] | None = None
        self._grid: tuple[list[ScenarioSpec], int] | None = None
        self.cancel_event = threading.Event()
        self.finished_event = threading.Event()

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    def snapshot(self) -> dict:
        """JSON-safe progress summary (the ``GET /jobs/<id>`` body)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "label": self.label,
            "request": self.request,
            "state": self.state,
            "error": self.error,
            "progress": {
                "total_cells": self.total_cells,
                "completed_cells": self.completed_cells,
                "cached_cells": self.cached_cells,
                "executed_cells": self.executed_cells,
            },
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }


def grid_summary_table(cells: list[SweepCellResult],
                       title: str) -> Table:
    """The generic per-cell table for ad-hoc grid jobs.

    Protocol cells report their uniform headline skews; other kinds
    (Monte Carlo probabilities, fuzz violation counts, …) report their
    scalar result in ``value``.
    """
    table = Table(title=title,
                  columns=["cell", "key", "seed", "max global skew",
                           "max local skew", "value"])
    for index, cell in enumerate(cells):
        result = cell.result
        if isinstance(result, ProtocolRunResult):
            table.add_row(index, repr(cell.key), cell.seed,
                          result.max_global_skew, result.max_local_skew,
                          None)
        else:
            value = result if isinstance(result, (int, float, str)) \
                else repr(result)
            table.add_row(index, repr(cell.key), cell.seed, None, None,
                          value)
    return table


class JobManager:
    """Background executor multiplexing sweep jobs over one warm pool.

    Parameters
    ----------
    store:
        The content-addressed result cache (default: a
        :class:`ResultStore` at the default cache dir).
    processes:
        Worker processes of the warm pool, resolved through
        :func:`~repro.harness.sweep.default_processes`.  ``1`` (the
        stock default) executes misses serially in the worker thread;
        larger values create one long-lived ``multiprocessing`` pool
        on first use, reuse it for every subsequent job, and keep up
        to ``2 * processes`` of a job's cells in it at a time.
    workers:
        Job-consumer threads.  One (the default) serializes jobs —
        deterministic end-to-end ordering and no pool contention;
        more overlap the cache lookups and finish steps of jobs, while
        jobs with misses take turns on the pool one whole job at a
        time.
    """

    def __init__(self, store: ResultStore | None = None,
                 processes: int | None = None,
                 workers: int = 1) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1: {workers!r}")
        self.store = store if store is not None else ResultStore()
        self.processes = default_processes(processes)
        self._queue: queue.Queue = queue.Queue()
        self._jobs: dict[str, Job] = {}  # retained, in submission order
        self._finished: collections.deque[str] = collections.deque()
        self._lock = threading.Lock()
        self._issued = 0
        self._pool = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-job-worker-{i}", daemon=True)
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------

    def _register(self, kind: str, request: dict, label: str,
                  grid: tuple | None = None) -> Job:
        with self._lock:
            self._issued += 1
            job = Job(id=_job_id(self._issued), kind=kind,
                      request=request, label=label)
            job._grid = grid  # worker-side payload of a grid job
            self._jobs[job.id] = job
        self._queue.put(job.id)
        return job

    def submit_experiment(self, experiment_id: str, *,
                          quick: bool = True,
                          seed: int | None = None,
                          label: str | None = None) -> Job:
        """Queue one registry experiment; unknown ids and ill-typed
        ``quick``/``seed`` values fail eagerly."""
        check_job_fields(quick=quick, seed=seed)
        experiment = REGISTRY.get(experiment_id)  # raises ConfigError
        resolved_seed = seed if seed is not None \
            else experiment.default_seed
        request = {"experiment": experiment.id, "quick": quick,
                   "seed": resolved_seed}
        return self._register(
            "experiment", request,
            label or f"{experiment.id} "
                     f"({'quick' if quick else 'full'}, "
                     f"seed {resolved_seed})")

    def submit_grid(self, specs: list[ScenarioSpec], *,
                    base_seed: int = 0,
                    label: str | None = None) -> Job:
        """Queue an ad-hoc grid of specs; each cell must pass
        :func:`~repro.harness.sweep.check_spec` (a failure names
        its index), so a cell that could only fail is never queued and
        never looked up in the cache."""
        check_job_fields(base_seed=base_seed)
        if not specs:
            raise ConfigError("submit_grid needs at least one spec")
        for index, spec in enumerate(specs):
            if not isinstance(spec, ScenarioSpec):
                raise ConfigError(
                    f"submit_grid needs ScenarioSpec cells, got "
                    f"{type(spec).__name__}")
            try:
                check_spec(spec)
            except ConfigError as error:
                raise ConfigError(f"cell {index}: {error}") from None
        request = {"cells": len(specs), "base_seed": base_seed}
        return self._register(
            "grid", request, label or f"grid ({len(specs)} cells)",
            grid=(list(specs), base_seed))

    def get(self, job_id: str) -> Job:
        """The job ``job_id``; a :class:`ConfigError` says whether an
        unknown id was evicted or never issued."""
        with self._lock:
            job = self._jobs.get(job_id)
            issued = self._issued
        if job is not None:
            return job
        digits = job_id.removeprefix("job-")
        if digits.isdecimal() and _job_id(int(digits)) == job_id \
                and 0 < int(digits) <= issued:
            raise ConfigError(
                f"job {job_id!r} was evicted: the service keeps only "
                f"the last {JOB_HISTORY} finished jobs")
        raise ConfigError(f"unknown job {job_id!r}")

    def jobs(self) -> list[Job]:
        """The retained jobs, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cell_texts(self, job_id: str) -> list[str]:
        """A done job's cells in grid order, each the canonical text
        its store entry holds; nothing is decoded.  Raises
        :class:`CellsGone` naming the first cell whose entry is absent,
        stale or corrupt."""
        job = self.get(job_id)
        if job.state != "done":
            raise ConfigError(f"job {job_id!r} is {job.state}, not done")
        texts = []
        for index, key in enumerate(job.spec_hashes):
            text = self.store.cell_text(key)
            if text is None:
                raise CellsGone(job_id, index)
            texts.append(text)
        return texts

    def cells(self, job_id: str) -> list[SweepCellResult]:
        """A done job's cells, decoded from the result store."""
        return [decode_cell(text) for text in self.cell_texts(job_id)]

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False for finished jobs."""
        job = self.get(job_id)
        if job.done:
            return False
        job.cancel_event.set()
        return True

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        if not job.finished_event.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state} after {timeout}s")
        return job

    def shutdown(self) -> None:
        """Stop the worker threads and release the warm pool.

        Every unfinished job is cancelled first: a running one starts
        no further cell and only finishes the cells already in flight;
        queued jobs that never started are marked cancelled.  No pool
        is created after this call.
        """
        self._closed = True
        for job in self.jobs():
            if not job.done:
                job.cancel_event.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
        for job in self.jobs():
            if job.state == "queued":
                self._finish(job, "cancelled")
        with self._pool_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------

    def _warm_pool(self):
        """The shared long-lived pool (created on first use), or
        ``None`` once :meth:`shutdown` has begun."""
        if self._closed:
            return None
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            ctx = multiprocessing.get_context(method)
            self._pool = ctx.Pool(processes=self.processes)
        return self._pool

    def _persist(self, job: Job, results: list, index: int,
                 spec: ScenarioSpec, cell: SweepCellResult) -> None:
        self.store.put(spec, cell)
        results[index] = cell
        job.executed_cells += 1
        job.completed_cells += 1

    def _execute_misses(self, job: Job,
                        misses: list[tuple[int, ScenarioSpec]],
                        results: list) -> None:
        """Run the cache misses and persist each result as it arrives
        (the only kernel-touching path in the whole service).  The pool
        path holds ``_pool_lock`` throughout; the module docstring has
        its window, ordering, cancellation and failure rules."""
        if self.processes <= 1:
            for index, spec in misses:
                if job.cancel_event.is_set():
                    return
                self._persist(job, results, index, spec, run_cell(spec))
            return
        if not misses:
            return
        window = 2 * self.processes
        in_flight = collections.deque()
        errors: list[Exception] = []

        def collect() -> None:
            index, spec, pending = in_flight.popleft()
            try:
                cell = pending.get()
            except Exception as error:  # the cell's own exception
                errors.append(error)
            else:
                self._persist(job, results, index, spec, cell)

        with self._pool_lock:
            pool = self._warm_pool()
            if pool is None:  # shut down: no pool to run the job on
                job.cancel_event.set()
                return
            for index, spec in misses:
                if errors or job.cancel_event.is_set():
                    break
                in_flight.append(
                    (index, spec, pool.apply_async(run_cell, (spec,))))
                if len(in_flight) == window:
                    collect()
            while in_flight:
                collect()
        if errors:
            raise errors[0]

    def _compile(self, job: Job):
        """Resolve the job to (resolved specs, finish step, table)."""
        if job.kind == "experiment":
            request = job.request
            experiment = REGISTRY.get(request["experiment"])
            seed = request["seed"]
            plan = experiment.plan(quick=request["quick"], seed=seed)
            specs = resolve_cell_seeds(plan.specs, seed)
            return specs, plan.finish, experiment.make_table()
        (specs, base_seed), job._grid = job._grid, None
        resolved = resolve_cell_seeds(specs, base_seed)

        def finish(cells, table):  # table arrives pre-built (None here)
            return grid_summary_table(list(cells), title=job.label)

        return resolved, finish, None

    def _run_job(self, job: Job) -> str:
        """Run one job; returns its terminal state for the caller to
        publish after stamping ``finished``."""
        specs, finish, table = self._compile(job)
        job.spec_hashes = [spec_hash(spec) for spec in specs]
        job.total_cells = len(specs)
        results: list[SweepCellResult | None] = [None] * len(specs)
        misses: list[tuple[int, ScenarioSpec]] = []
        for index, spec in enumerate(specs):
            cached = self.store.get(spec)
            if cached is not None:
                results[index] = cached
                job.cached_cells += 1
                job.completed_cells += 1
            else:
                misses.append((index, spec))
        self._execute_misses(job, misses, results)
        if job.cancel_event.is_set():
            return "cancelled"
        job.table = finish(results, table)
        return "done"

    def _finish(self, job: Job, state: str) -> None:
        """Stamp ``finished``, then publish the terminal ``state``, then
        wake waiters; evict the oldest finished jobs past the bound."""
        # repro: allow[wall-clock] -- lifecycle timestamp.
        job.finished = time.time()
        job.state = state
        job.finished_event.set()
        with self._lock:
            self._finished.append(job.id)
            while len(self._finished) > JOB_HISTORY:
                self._jobs.pop(self._finished.popleft(), None)

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None:  # pragma: no cover - defensive
                continue
            if job.cancel_event.is_set():
                self._finish(job, "cancelled")
                continue
            # repro: allow[wall-clock] -- lifecycle timestamp.
            job.started = time.time()
            job.state = "running"
            state = "failed"
            try:
                state = self._run_job(job)
            except Exception as error:
                job.error = f"{type(error).__name__}: {error}"
            finally:
                self._finish(job, state)


__all__ = ["JOB_HISTORY", "JOB_STATES", "CellsGone", "Job", "JobManager",
           "check_job_fields", "grid_summary_table"]
