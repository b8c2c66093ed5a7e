"""The simulation service: result store, job manager, scenario
library, and the REST layer.

The acceptance criteria of the serving layer are tested end-to-end
here through ``app.test_client()`` (no sockets):

- served ``format=json`` results are **byte-identical** to direct
  ``run_experiment`` output for t01, t14 (quick), and t16 (quick);
- resubmitting an identical job completes from the content-addressed
  cache with ``executed_cells == 0``.
"""

import dataclasses
import gc
import json
import logging
import math
import os
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.baselines.gcs_single import GcsParams
from repro.core.params import Parameters
from repro.core.system import RunResult
from repro.errors import ConfigError
from repro.harness import serialize
from repro.harness.registry import REGISTRY, run_experiment
from repro.harness.scenario import Scenario
from repro.harness.sweep import (
    CELL_KINDS,
    ScenarioSpec,
    SweepCellResult,
    register_cell_kind,
    resolve_cell_seeds,
    run_cell,
    spec_hash,
)
from repro.service import JobManager, ResultStore, ScenarioLibrary
from repro.service import jobs as jobs_module
from repro.service.app import create_app
from repro.service.library import LibraryScenario
from repro.service.store import STORE_FORMAT, decode_cell

PARAMS = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


def small_spec(seed=5, rounds=3):
    return (Scenario.line(3).params(PARAMS).rounds(rounds).seed(seed)
            .build())


def failing_spec(seed=5):
    """A cell every eager check accepts and the worker rejects: the
    sampler refuses a zero interval when the system is built."""
    return (Scenario.line(3).params(PARAMS).rounds(1).seed(seed)
            .configure(sample_interval=0.0).build())


#: The error a job running :func:`failing_spec` fails with.
FAILING_SPEC_ERROR = "ConfigError: interval must be positive"


SLEEP_KIND = "test_service_sleep"
PID_KIND = "test_service_pid"
ODD_KIND = "test_service_odd_values"


def _sleep_cell(spec):
    # The monotonic clock is system-wide, so start and end times
    # compare across the pool's worker processes.
    start = time.monotonic()
    time.sleep(spec.payload["seconds"])
    return SweepCellResult(key=spec.key, seed=spec.seed,
                           result=(start, time.monotonic()))


def _pid_cell(spec):
    return SweepCellResult(key=spec.key, seed=spec.seed,
                           result=os.getpid())


def _odd_values_cell(spec):
    # Every tagged form of the codec plus non-ASCII text.
    return SweepCellResult(
        key=spec.key, seed=spec.seed,
        result={"nan": math.nan, "-inf": -math.inf, "text": "µs ✓",
                (1, 2): (0.1, None)},
        extras={"__tuple__": [1.5e-300, True]})


def sleep_specs(*seconds):
    return [ScenarioSpec(kind=SLEEP_KIND, payload={"seconds": s},
                         key=("cell", index))
            for index, s in enumerate(seconds)]


def stored_count(store, specs, base_seed=0):
    return sum(store.get(spec) is not None
               for spec in resolve_cell_seeds(specs, base_seed))


def entry_header(path):
    """Line 1 of a stored entry, decoded."""
    return json.loads(path.read_text().partition("\n")[0])


def edit_entry(path, edit=None, cell_line=None):
    """Rewrite a stored entry: ``edit`` mutates its header dict;
    ``cell_line`` replaces line 2."""
    header, _, line = path.read_text().partition("\n")
    header = json.loads(header)
    if edit is not None:
        edit(header)
    path.write_text(json.dumps(header) + "\n"
                    + (line if cell_line is None else cell_line))


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture
def manager(store):
    mgr = JobManager(store=store, processes=1)
    yield mgr
    mgr.shutdown()


@pytest.fixture
def idle_manager(store):
    """A manager whose workers are already gone: submitted jobs stay
    ``queued`` forever — deterministic not-done states for tests."""
    mgr = JobManager(store=store, processes=1)
    mgr.shutdown()
    return mgr


@pytest.fixture
def scenario_dir(tmp_path):
    root = tmp_path / "scenarios"
    root.mkdir()
    return root


@pytest.fixture
def client(manager, scenario_dir):
    app = create_app(manager=manager,
                     library=ScenarioLibrary(scenario_dir))
    app.config["TESTING"] = True
    return app.test_client()


def finish(client, job_id, timeout=120.0):
    manager = client.application.config["REPRO_MANAGER"]
    manager.wait(job_id, timeout=timeout)
    return client.get(f"/jobs/{job_id}").get_json()


class TestResultStore:
    def test_put_get_roundtrip_is_bit_identical(self, store):
        spec = small_spec()
        cell = run_cell(spec)
        store.put(spec, cell)
        cached = store.get(spec)
        assert cached is not None
        assert cached.key == cell.key
        assert cached.seed == cell.seed
        assert cached.result.max_global_skew \
            == cell.result.max_global_skew
        assert store.hits == 1

    @pytest.mark.parametrize("shape", [
        "ftgcs", "gcs_single", "master_slave_series", "vectorized",
        "failure_mc"])
    def test_every_result_shape_reads_back_as_stored(self, store, shape):
        spec = {
            "ftgcs": small_spec(),
            "gcs_single": (Scenario.line(3).protocol("gcs_single")
                           .payload(params=GcsParams.default(), until=20.0)
                           .seed(2).build()),
            "master_slave_series": (
                Scenario.line(3).protocol("master_slave").params(PARAMS)
                .rounds(3).seed(3)
                .payload(record_series=True, track_edges=True).build()),
            "vectorized": dataclasses.replace(small_spec(),
                                              engine="vectorized"),
            "failure_mc": ScenarioSpec(kind="failure_mc", seed=1, payload={
                "f": 1, "p": 0.5, "trials": 10}),
        }[shape]
        path = store.put(spec, run_cell(spec))
        stored = path.read_text(encoding="utf-8").partition("\n")[2]
        cell = store.get(spec)
        assert serialize.canonical_json(cell) == stored
        series = getattr(cell.result, "series", None)
        if shape == "ftgcs":
            assert isinstance(cell.result.detail, RunResult)
            assert cell.result.detail.series[-1].edge_skews
        elif shape == "gcs_single":
            assert isinstance(cell.result.detail, list)
            assert isinstance(cell.result.detail[0], tuple)
        elif shape == "master_slave_series":
            assert series[-1].edge_skews
        elif shape == "vectorized":
            assert isinstance(cell.result.detail, dict)
            assert isinstance(series[0], tuple)
        else:
            assert isinstance(cell.result, float)

    def test_absent_entry_is_a_miss(self, store):
        assert store.get(small_spec()) is None
        assert store.misses == 1 and store.corrupt == 0

    def test_truncated_entry_is_a_miss_with_warning(self, store,
                                                    caplog):
        spec = small_spec()
        path = store.put(spec, run_cell(spec))
        path.write_text(path.read_text()[: 40])  # simulate torn write
        with caplog.at_level(logging.WARNING, "repro.service.store"):
            assert store.get(spec) is None
        assert store.corrupt == 1
        assert "corrupt cache entry" in caplog.text
        # Recompute + put overwrites the bad entry; hits work again.
        store.put(spec, run_cell(spec))
        assert store.get(spec) is not None

    def test_wrong_hash_entry_is_a_miss(self, store):
        spec = small_spec()
        path = store.put(spec, run_cell(spec))
        edit_entry(path, lambda header: header.update(spec_hash="0" * 40))
        assert store.get(spec) is None
        assert store.corrupt == 1

    @pytest.mark.parametrize("version", [1, None])
    def test_stale_format_is_a_miss_then_rewritten(self, store, caplog,
                                                   version):
        # Entries from an older layout (or with no format field) are
        # never served; the recompute overwrites them in the current
        # format.
        spec = small_spec()
        path = store.put(spec, run_cell(spec))
        assert entry_header(path)["format"] == STORE_FORMAT == 3

        def edit(header):
            if version is None:
                del header["format"]
            else:
                header["format"] = version

        edit_entry(path, edit)
        with caplog.at_level(logging.WARNING, "repro.service.store"):
            assert store.get(spec) is None
        assert store.misses == 1 and store.corrupt == 0
        assert "stale cache entry" in caplog.text
        store.put(spec, run_cell(spec))
        assert entry_header(path)["format"] == STORE_FORMAT
        assert store.get(spec) is not None
        assert store.hits == 1

    def test_non_cell_payload_is_a_miss(self, store):
        spec = small_spec()
        path = store.put(spec, run_cell(spec))
        payload = {"not": "a cell"}
        edit_entry(path, lambda header: header.update(
            digest=serialize.content_hash(payload)),
            cell_line=serialize.canonical_json(payload))
        assert store.get(spec) is None

    def test_stats_and_clear(self, store):
        assert store.stats()["entries"] == 0
        for seed in (1, 2):
            spec = small_spec(seed=seed)
            store.put(spec, run_cell(spec))
        stats = store.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_entries_shard_by_hash_prefix(self, store):
        spec = small_spec()
        path = store.put(spec, run_cell(spec))
        key = spec_hash(spec)
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_entry_is_a_header_line_and_the_canonical_cell(self, store):
        spec = small_spec()
        cell = run_cell(spec)
        path = store.put(spec, cell)
        header, cell_line = path.read_text().split("\n")
        assert json.loads(header) == {
            "format": 3, "spec_hash": spec_hash(spec),
            "spec": spec.to_dict(),
            "digest": serialize.content_hash(cell)}
        assert cell_line == serialize.canonical_json(cell)
        assert store.cell_text(spec_hash(spec)) == cell_line

    @pytest.mark.parametrize("damage", ["truncated", "digest"])
    def test_damaged_cell_line_is_a_corrupt_miss(self, store, caplog,
                                                 damage):
        spec = small_spec()
        cell = run_cell(spec)
        path = store.put(spec, cell)
        if damage == "truncated":
            line = serialize.canonical_json(cell)[:-20]
        else:  # a well-formed cell, but not the one the digest names
            cell.seed += 1
            line = serialize.canonical_json(cell)
        edit_entry(path, cell_line=line)
        with caplog.at_level(logging.WARNING, "repro.service.store"):
            assert store.cell_text(spec_hash(spec)) is None
            assert store.get(spec) is None
        assert store.corrupt == 2 and store.misses == 1
        assert "does not match its digest" in caplog.text

    def test_format_2_entry_is_stale_then_rewritten(self, store, caplog):
        spec = small_spec()
        cell = run_cell(spec)
        path = store.path_for(spec_hash(spec))
        path.parent.mkdir(parents=True)
        # Format 2 stored one JSON document with the encoded cell in it.
        path.write_text(json.dumps(
            {"format": 2, "spec_hash": spec_hash(spec),
             "spec": spec.to_dict(), "cell": serialize.encode(cell)},
            allow_nan=False))
        with caplog.at_level(logging.WARNING, "repro.service.store"):
            assert store.get(spec) is None
        assert store.misses == 1 and store.corrupt == 0
        assert "stale cache entry" in caplog.text
        assert "format 2" in caplog.text
        store.put(spec, cell)
        assert entry_header(path)["format"] == STORE_FORMAT
        assert path.read_text().count("\n") == 1
        assert store.get(spec) is not None


class TestJobManager:
    def test_experiment_job_runs_to_done(self, manager):
        job = manager.submit_experiment("t01", quick=True)
        assert job.state in ("queued", "running", "done")
        manager.wait(job.id, timeout=120)
        assert job.state == "done"
        assert job.table is not None
        assert job.executed_cells == job.total_cells > 0
        assert job.cached_cells == 0
        assert job.table.to_json() \
            == run_experiment("t01", quick=True).to_json()

    def test_resubmission_is_all_cache_hits(self, manager):
        first = manager.submit_experiment("t01", quick=True)
        manager.wait(first.id, timeout=120)
        again = manager.submit_experiment("t01", quick=True)
        manager.wait(again.id, timeout=120)
        assert again.state == "done"
        assert again.executed_cells == 0
        assert again.cached_cells == again.total_cells > 0
        assert again.table.to_json() == first.table.to_json()

    def test_unknown_experiment_fails_eagerly(self, manager):
        with pytest.raises(ConfigError, match="unknown experiment"):
            manager.submit_experiment("t99")

    def test_grid_job(self, manager):
        specs = [small_spec(seed=None, rounds=r) for r in (2, 3)]
        job = manager.submit_grid(specs, base_seed=7)
        manager.wait(job.id, timeout=120)
        assert job.state == "done"
        assert job.total_cells == 2
        # The grid rode SweepRunner's seed derivation.
        resolved = resolve_cell_seeds(specs, 7)
        assert [cell.seed for cell in manager.cells(job.id)] \
            == [spec.seed for spec in resolved]
        assert job.table.columns[0] == "cell"

    def test_ill_typed_fields_fail_eagerly(self, idle_manager):
        for kwargs in ({"quick": "false"}, {"quick": 1},
                       {"seed": "abc"}, {"seed": 2.5}, {"seed": True}):
            (field,) = kwargs
            with pytest.raises(ConfigError, match=repr(field)):
                idle_manager.submit_experiment("t01", **kwargs)
        for base_seed in ("abc", 1.7, False, None):
            with pytest.raises(ConfigError, match="'base_seed'"):
                idle_manager.submit_grid([small_spec()],
                                         base_seed=base_seed)
        assert idle_manager.jobs() == []

    def test_grid_rejects_empty_and_non_specs(self, manager):
        with pytest.raises(ConfigError, match="at least one"):
            manager.submit_grid([])
        with pytest.raises(ConfigError, match="ScenarioSpec"):
            manager.submit_grid([{"graph": "line"}])

    def test_broken_cell_marks_job_failed(self, manager):
        job = manager.submit_grid([failing_spec()])
        manager.wait(job.id, timeout=120)
        assert job.state == "failed"
        assert FAILING_SPEC_ERROR in job.error
        assert job.table is None

    def test_cancel_and_shutdown(self, idle_manager):
        job = idle_manager.submit_experiment("t01")
        assert job.state == "queued"
        assert idle_manager.cancel(job.id) is True
        idle_manager.shutdown()  # sweeps queued jobs to cancelled
        assert job.state == "cancelled"
        assert idle_manager.cancel(job.id) is False

    def test_wait_timeout(self, idle_manager):
        job = idle_manager.submit_experiment("t01")
        with pytest.raises(TimeoutError):
            idle_manager.wait(job.id, timeout=0.05)

    def test_unknown_job_id(self, manager):
        with pytest.raises(ConfigError, match="unknown job"):
            manager.get("job-9999")

    def test_workers_must_be_positive(self, store):
        with pytest.raises(ConfigError, match="workers"):
            JobManager(store=store, workers=0)

    def test_jobs_listed_in_submission_order(self, idle_manager):
        a = idle_manager.submit_experiment("t01")
        b = idle_manager.submit_experiment("t02")
        assert [job.id for job in idle_manager.jobs()] == [a.id, b.id]

    @staticmethod
    def state_clock(manager, seen):
        """A stand-in for the ``time`` module that records the state
        of the manager's first job whenever a time is stamped on it."""

        class Clock:
            @staticmethod
            def time():
                jobs = list(manager._jobs.values())
                if jobs:  # not the job's own creation stamp
                    seen.append(jobs[0].state)
                return 0.0

        return Clock

    def test_each_time_is_stamped_before_its_state(self, store,
                                                   monkeypatch):
        # A reader that sees "running" also sees ``started``, and one
        # that sees a terminal state also sees ``finished``.
        manager = JobManager(store=store, processes=1)
        seen = []
        monkeypatch.setattr(jobs_module, "time",
                            self.state_clock(manager, seen))
        try:
            job = manager.wait(manager.submit_grid([small_spec()]).id,
                               timeout=60)
        finally:
            manager.shutdown()
        assert job.state == "done"
        assert seen == ["queued", "running"]

    def test_shutdown_stamps_finished_before_cancelling(
            self, idle_manager, monkeypatch):
        seen = []
        monkeypatch.setattr(jobs_module, "time",
                            self.state_clock(idle_manager, seen))
        job = idle_manager.submit_experiment("t01")
        idle_manager.shutdown()
        assert job.state == "cancelled"
        assert seen == ["queued"]

    def test_finished_jobs_keep_no_cells_but_serve_them(self, manager):
        specs = [small_spec(seed=None, rounds=r) for r in (2, 3)]
        job = manager.wait(manager.submit_grid(specs).id, timeout=120)
        assert not hasattr(job, "cells") and job._grid is None
        assert job.spec_hashes == [
            spec_hash(spec) for spec in resolve_cell_seeds(specs, 0)]
        assert [serialize.canonical_json(cell)
                for cell in manager.cells(job.id)] \
            == manager.cell_texts(job.id)
        manager.store.clear()
        with pytest.raises(jobs_module.CellsGone, match="cell 0 of"):
            manager.cells(job.id)


class TestPooledJobManager:
    """The warm-pool path (``processes=2``).  The test cell kinds are
    registered before any manager here forks its pool, so the forked
    workers see them."""

    PROCESSES = 2

    @pytest.fixture(autouse=True, scope="class")
    def cell_kinds(self):
        register_cell_kind(SLEEP_KIND, _sleep_cell)
        register_cell_kind(PID_KIND, _pid_cell)
        yield
        CELL_KINDS.pop(SLEEP_KIND)
        CELL_KINDS.pop(PID_KIND)

    @pytest.fixture
    def pooled(self, store):
        mgr = JobManager(store=store, processes=self.PROCESSES)
        yield mgr
        mgr.shutdown()

    def test_pooled_grid_matches_serial(self, pooled, tmp_path):
        specs = [small_spec(seed=None, rounds=r) for r in (2, 3, 4, 5, 6)]
        serial = JobManager(store=ResultStore(tmp_path / "serial"),
                            processes=1)
        try:
            expected = serial.wait(
                serial.submit_grid(specs, base_seed=4).id, timeout=120)
            expected_cells = [serialize.encode(cell)
                              for cell in serial.cells(expected.id)]
        finally:
            serial.shutdown()
        job = pooled.wait(pooled.submit_grid(specs, base_seed=4).id,
                          timeout=120)
        assert job.state == expected.state == "done"
        assert job.executed_cells == len(specs)
        assert [serialize.encode(cell) for cell in pooled.cells(job.id)] \
            == expected_cells
        assert stored_count(pooled.store, specs, 4) == len(specs)
        again = pooled.wait(pooled.submit_grid(specs, base_seed=4).id,
                            timeout=120)
        assert again.state == "done"
        assert again.executed_cells == 0
        assert again.cached_cells == len(specs)
        assert [serialize.encode(cell)
                for cell in pooled.cells(again.id)] == expected_cells

    def test_cells_stream_past_a_slow_cell(self, pooled):
        # No batch barrier: while cell 0 runs on one worker, the other
        # worker goes on to cells 1, 2 and 3.
        job = pooled.wait(
            pooled.submit_grid(sleep_specs(0.6, 0.05, 0.05, 0.05)).id,
            timeout=60)
        assert job.state == "done"
        (_, slow_end), _, (third_start, _), _ = \
            [cell.result for cell in pooled.cells(job.id)]
        assert third_start < slow_end

    def test_lone_miss_runs_in_a_worker(self, pooled):
        job = pooled.wait(
            pooled.submit_grid([ScenarioSpec(kind=PID_KIND)]).id,
            timeout=60)
        assert job.state == "done" and job.executed_cells == 1
        assert pooled.cells(job.id)[0].result != os.getpid()

    def test_no_decoded_cell_outlives_its_job(self, pooled, monkeypatch):
        refs = []
        get, put = pooled.store.get, pooled.store.put

        def tracked_get(spec):
            cell = get(spec)
            if cell is not None:
                refs.append(weakref.ref(cell))
            return cell

        def tracked_put(spec, cell):
            refs.append(weakref.ref(cell))
            return put(spec, cell)

        monkeypatch.setattr(pooled.store, "get", tracked_get)
        monkeypatch.setattr(pooled.store, "put", tracked_put)
        specs = [small_spec(seed=None, rounds=r) for r in (2, 3, 4)]
        for executed in (len(specs), 0):  # cold, then warm
            job = pooled.wait(pooled.submit_grid(specs).id, timeout=120)
            assert (job.state, job.executed_cells) == ("done", executed)
        assert len(refs) == 2 * len(specs)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_cancel_finishes_in_flight_cells(self, pooled, monkeypatch):
        put = pooled.store.put
        cancelled = []

        def put_then_cancel(spec, cell):
            path = put(spec, cell)
            if not cancelled:
                (running,) = [job for job in pooled.jobs()
                              if not job.done]
                cancelled.append(pooled.cancel(running.id))
            return path

        monkeypatch.setattr(pooled.store, "put", put_then_cancel)
        specs = sleep_specs(*[0.05] * 12)
        job = pooled.wait(pooled.submit_grid(specs).id, timeout=60)
        assert cancelled == [True]
        assert job.state == "cancelled"
        assert 1 <= job.executed_cells <= 1 + 2 * self.PROCESSES
        assert stored_count(pooled.store, specs) == job.executed_cells
        after = pooled.wait(pooled.submit_grid(sleep_specs(0.01)).id,
                            timeout=60)
        assert after.state == "done"

    def test_failing_cell_fails_job_after_draining(self, pooled):
        specs = sleep_specs(*[0.02] * 8)
        specs[3] = failing_spec()
        job = pooled.wait(pooled.submit_grid(specs).id, timeout=60)
        assert job.state == "failed"
        assert FAILING_SPEC_ERROR in job.error
        assert job.table is None
        # The cells before the broken one and those still in flight
        # when it failed are persisted; no cell starts after it.
        assert stored_count(pooled.store, specs[:3]) == 3
        assert stored_count(pooled.store, specs) == job.executed_cells
        assert job.executed_cells < len(specs) - 1
        after = pooled.wait(pooled.submit_grid(sleep_specs(0.01)).id,
                            timeout=60)
        assert after.state == "done"

    def test_concurrent_jobs_take_turns_on_the_pool(self, store,
                                                    monkeypatch):
        put = store.put

        def slow_put(spec, cell):
            time.sleep(0.01)  # room for another job to cut in
            return put(spec, cell)

        monkeypatch.setattr(store, "put", slow_put)
        manager = JobManager(store=store, processes=self.PROCESSES,
                             workers=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [manager.submit_grid(sleep_specs(*[0.02] * 6),
                                        base_seed=base_seed)
                    for base_seed in range(3)]
            for job in jobs:
                manager.wait(job.id, timeout=60)
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
        assert [(job.state, job.executed_cells) for job in jobs] \
            == [("done", 6)] * 3
        assert store.stats()["entries"] == 18
        # One whole job at a time: no cell of the next job starts
        # before the last cell of the previous one ends.
        cells = [manager.cells(job.id) for job in jobs]
        spans = sorted((min(cell.result[0] for cell in job_cells),
                        max(cell.result[1] for cell in job_cells))
                       for job_cells in cells)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_shutdown_cancels_a_running_job(self, store, monkeypatch):
        manager = JobManager(store=store, processes=self.PROCESSES)
        persisted = threading.Event()
        put = store.put

        def put_and_signal(spec, cell):
            path = put(spec, cell)
            persisted.set()
            return path

        monkeypatch.setattr(store, "put", put_and_signal)
        job = manager.submit_grid(sleep_specs(*[0.4] * 40))
        assert persisted.wait(timeout=60)
        start = time.monotonic()
        manager.shutdown()
        elapsed = time.monotonic() - start
        assert not any(thread.is_alive() for thread in manager._threads)
        assert elapsed < 2.5  # the thread join gives up after 5 s
        assert job.state == "cancelled"
        assert job.executed_cells < job.total_cells
        assert manager._pool is None


@pytest.mark.slow
class TestServedByteIdentity:
    """The acceptance criteria, per experiment."""

    @pytest.mark.parametrize("experiment_id", ["t01", "t14", "t16"])
    def test_served_result_matches_direct_run(self, client,
                                              experiment_id):
        direct = run_experiment(experiment_id, quick=True).to_json()

        cold = client.post("/jobs",
                           json={"experiment": experiment_id,
                                 "quick": True})
        assert cold.status_code == 202
        snapshot = finish(client, cold.get_json()["id"])
        assert snapshot["state"] == "done"
        progress = snapshot["progress"]
        assert progress["executed_cells"] == progress["total_cells"] > 0
        assert progress["cached_cells"] == 0
        served = client.get(
            f"/jobs/{snapshot['id']}/result?format=json")
        assert served.status_code == 200
        assert served.data == direct.encode("utf-8")

        # Identical resubmission: zero simulator cells executed.
        warm = client.post("/jobs",
                           json={"experiment": experiment_id,
                                 "quick": True})
        snapshot = finish(client, warm.get_json()["id"])
        assert snapshot["state"] == "done"
        progress = snapshot["progress"]
        assert progress["executed_cells"] == 0
        assert progress["cached_cells"] == progress["total_cells"] > 0
        served = client.get(
            f"/jobs/{snapshot['id']}/result?format=json")
        assert served.data == direct.encode("utf-8")


class TestRestApi:
    def test_health(self, client):
        body = client.get("/health").get_json()
        assert body["status"] == "ok"
        assert body["experiments"] == 18

    def test_experiments_listing(self, client):
        body = client.get("/experiments").get_json()
        ids = [entry["id"] for entry in body["experiments"]]
        assert ids == [f"t{i:02d}" for i in range(1, 19)]
        assert all(entry["claim"] for entry in body["experiments"])

    def test_result_formats(self, client):
        job = client.post("/jobs", json={"experiment": "t01"})
        job_id = job.get_json()["id"]
        finish(client, job_id)
        table = client.get(f"/jobs/{job_id}/result")
        assert table.mimetype == "text/plain"
        assert table.get_data(as_text=True).endswith("\n")
        csv = client.get(f"/jobs/{job_id}/result?format=csv")
        assert csv.mimetype == "text/csv"
        assert "," in csv.get_data(as_text=True)
        bad = client.get(f"/jobs/{job_id}/result?format=xml")
        assert bad.status_code == 400
        assert "unknown format" in bad.get_json()["error"]

    def test_cells_endpoint_roundtrips(self, client):
        from repro.harness import serialize
        from repro.harness.sweep import SweepCellResult

        job = client.post("/jobs", json={"experiment": "t01"})
        job_id = job.get_json()["id"]
        finish(client, job_id)
        body = client.get(f"/jobs/{job_id}/cells").get_json()
        cells = [serialize.decode(cell) for cell in body["cells"]]
        assert cells and all(isinstance(cell, SweepCellResult)
                             for cell in cells)

    def test_grid_submission_via_cells_body(self, client):
        cells = [small_spec(seed=None).to_dict() for _ in range(2)]
        job = client.post("/jobs", json={"cells": cells,
                                         "base_seed": 3,
                                         "label": "adhoc"})
        assert job.status_code == 202
        assert job.get_json()["label"] == "adhoc"
        snapshot = finish(client, job.get_json()["id"])
        assert snapshot["state"] == "done"
        assert snapshot["progress"]["total_cells"] == 2

    @pytest.mark.parametrize("field, value", [
        ("base_seed", "abc"), ("base_seed", 1.7), ("base_seed", True),
        ("quick", "false"), ("quick", 1),
        ("seed", "abc"), ("seed", 2.5), ("seed", False)])
    def test_ill_typed_fields_are_400(self, client, field, value):
        body = {"cells": [small_spec(seed=None).to_dict()]} \
            if field == "base_seed" else {"experiment": "t01"}
        body[field] = value
        response = client.post("/jobs", json=body)
        assert response.status_code == 400
        assert repr(field) in response.get_json()["error"]
        assert client.get("/jobs").get_json()["jobs"] == []

    def test_typed_fields_are_queued_as_given(self, idle_manager):
        stuck = create_app(manager=idle_manager).test_client()
        bodies = [
            ({"experiment": "t01", "quick": False, "seed": 3},
             {"experiment": "t01", "quick": False, "seed": 3}),
            ({"experiment": "t01", "seed": None},
             {"experiment": "t01", "quick": True,
              "seed": REGISTRY.get("t01").default_seed}),
            ({"cells": [small_spec(seed=None).to_dict()],
              "base_seed": 9}, {"cells": 1, "base_seed": 9}),
            ({"cells": [small_spec(seed=None).to_dict()]},
             {"cells": 1, "base_seed": 0}),
        ]
        for body, request in bodies:
            response = stuck.post("/jobs", json=body)
            assert response.status_code == 202
            assert response.get_json()["request"] == request

    def test_bad_submissions_are_400(self, client):
        no_source = client.post("/jobs", json={"quick": True})
        assert no_source.status_code == 400
        assert "exactly one" in no_source.get_json()["error"]
        two_sources = client.post(
            "/jobs", json={"experiment": "t01", "cells": []})
        assert two_sources.status_code == 400
        not_a_dict = client.post("/jobs", json=[1, 2])
        assert not_a_dict.status_code == 400
        unknown = client.post("/jobs", json={"experiment": "t99"})
        assert unknown.status_code == 400
        assert "unknown experiment" in unknown.get_json()["error"]
        bad_cells = client.post("/jobs", json={"cells": "nope"})
        assert bad_cells.status_code == 400

    @pytest.mark.parametrize("edit, message", [
        ({"protocol": "paxos"}, "unknown protocol"),
        ({"strategy": "quantum"}, "retired; use adversary="),
        ({"adversary": {"name": "nope"}}, "unknown adversary"),
        ({"adversary": "silent"}, "must be a dict"),
        ({"collect": ["entropy"]}, "unknown collector"),
        ({"strategy": "silent", "adversary": {"name": "silent"}},
         "retired; use adversary="),
        ({"engine": "vectorized", "loss": {"kind": "bernoulli",
                                           "rate": 0.1}},
         "loss models"),
        ({"adversary": {"amplitude": 1.0}}, "string 'name'"),
        ({"schedule": "node_churn", "schedule_args": [10.0, 0.2]},
         "schedule_args must be a mapping"),
        ({"kind": ["protocol"]}, "unknown cell kind"),
        ({"collect": [["pulse_diameters"]]}, "unknown collector"),
        ({"graph": 3}, "graph must be"),
        ({"strategy": "equivocate"}, "retired; use adversary="),
        ({"faults_per_cluster": 0}, "retired; use the adversary's count="),
        ({"kind": "ftgcs"}, "kind 'protocol' with protocol='ftgcs'"),
        ({"config": 3}, "config must be a mapping"),
        ({"payload": ["bogus"]}, "payload must be a mapping"),
    ], ids=["protocol", "strategy", "adversary", "adversary-not-a-dict",
            "collector", "strategy+adversary", "vectorized+loss",
            "adversary-without-name", "node-churn-args-not-a-mapping",
            "kind-not-a-string", "collector-not-a-string",
            "graph-not-a-string", "retired-strategy",
            "retired-faults_per_cluster", "legacy-kind",
            "config-not-a-mapping", "payload-not-a-mapping"])
    def test_cells_that_cannot_build_are_400(self, client, edit,
                                             message):
        good = small_spec(seed=None).to_dict()
        response = client.post("/jobs",
                               json={"cells": [good, {**good, **edit}]})
        assert response.status_code == 400
        error = response.get_json()["error"]
        assert error.startswith("cell 1: ") and message in error
        assert client.get("/jobs").get_json()["jobs"] == []

    @pytest.mark.parametrize("fields, message", [
        ({"config": {"bogus": 1}}, "ftgcs on the event engine does not "
         "accept config key(s) ['bogus']"),
        ({"payload": {"bogus": 1}}, "ftgcs on the event engine does not "
         "accept payload key(s) ['bogus']; supported: []"),
        ({"params": None}, "protocol 'ftgcs' needs params; call "
         ".params(...)"),
        ({"graph": "", "graph_args": ()}, "protocol 'ftgcs' needs a "
         "topology; call .topology(...)"),
        ({"protocol": "gcs_single", "params": None,
          "payload": {"params": GcsParams.default()}},
         "gcs_single needs payload['until']"),
        ({"protocol": "gcs_single", "params": None, "engine": "vectorized",
          "payload": {"params": GcsParams.default(), "until": 20.0,
                      "liars": {0: {1: 1}}}},
         "gcs_single on the vectorized engine does not accept payload "
         "key(s) ['liars']"),
        ({"protocol": "gcs_single", "params": None, "engine": "vectorized",
          "payload": {"params": GcsParams.default(), "until": 20.0,
                      "sample_interval": 5.0}},
         "gcs_single on the vectorized engine does not accept payload "
         "key(s) ['sample_interval']"),
        ({"graph": "bogus"}, "unknown graph constructor 'bogus'"),
        ({"graph_args": ()}, "bad graph_args () for line"),
        ({"graph_args": (3, 3, 3)}, "bad graph_args (3, 3, 3) for line"),
    ], ids=["unknown-config", "unknown-payload", "no-params", "no-graph",
            "no-until", "vectorized-liars", "vectorized-sample-interval",
            "unknown-graph", "no-graph-args", "too-many-graph-args"])
    def test_cells_the_worker_would_reject_are_400(self, client, fields,
                                                    message):
        cell = dataclasses.replace(small_spec(seed=None), **fields)
        response = client.post("/jobs",
                               json={"cells": [cell.to_dict()]})
        assert response.status_code == 400
        error = response.get_json()["error"]
        assert error.startswith("cell 0: ") and message in error
        assert client.get("/jobs").get_json()["jobs"] == []

    def test_stored_result_of_unbuildable_spec_is_not_served(
            self, client, store):
        # VecLynchWelch injects no fault vector: a result stored under
        # this spec is a fault-free run, and the spec no longer builds.
        spec = ScenarioSpec(protocol="lynch_welch", params=PARAMS,
                            rounds=2, seed=4, engine="vectorized",
                            adversary={"name": "silent"})
        store.put(spec, run_cell(ScenarioSpec(
            protocol="lynch_welch", params=PARAMS, rounds=2, seed=4,
            engine="vectorized")))
        response = client.post("/jobs",
                               json={"cells": [spec.to_dict()]})
        assert response.status_code == 400
        assert "supports_vectorized_faults" in \
            response.get_json()["error"]
        assert client.get("/jobs").get_json()["jobs"] == []

    def test_unknown_job_is_404(self, client):
        assert client.get("/jobs/job-9999").status_code == 404
        assert client.get("/jobs/job-9999/result").status_code == 404
        assert client.delete("/jobs/job-9999").status_code == 404

    def test_result_before_done_is_409(self, scenario_dir,
                                       idle_manager):
        app = create_app(manager=idle_manager)
        stuck = app.test_client()
        job = stuck.post("/jobs", json={"experiment": "t01"})
        job_id = job.get_json()["id"]
        result = stuck.get(f"/jobs/{job_id}/result")
        assert result.status_code == 409
        assert result.get_json()["state"] == "queued"
        assert stuck.get(f"/jobs/{job_id}/cells").status_code == 409
        cancel = stuck.delete(f"/jobs/{job_id}")
        assert cancel.get_json()["cancelled"] is True

    def test_failed_job_result_is_500(self, client):
        bad_cell = failing_spec(seed=None).to_dict()
        job = client.post("/jobs", json={"cells": [bad_cell]})
        snapshot = finish(client, job.get_json()["id"])
        assert snapshot["state"] == "failed"
        result = client.get(f"/jobs/{snapshot['id']}/result")
        assert result.status_code == 500
        assert FAILING_SPEC_ERROR in result.get_json()["error"]

    def test_jobs_listing(self, client):
        client.post("/jobs", json={"experiment": "t01"})
        body = client.get("/jobs").get_json()
        assert len(body["jobs"]) == 1
        assert body["jobs"][0]["kind"] == "experiment"

    def test_cache_endpoints(self, client):
        job = client.post("/jobs", json={"experiment": "t01"})
        finish(client, job.get_json()["id"])
        stats = client.get("/cache/stats").get_json()
        assert stats["entries"] > 0
        cleared = client.post("/cache/clear").get_json()
        assert cleared["removed"] == stats["entries"]
        assert client.get("/cache/stats").get_json()["entries"] == 0

    def test_finished_job_history_is_bounded(self, client, monkeypatch):
        monkeypatch.setattr(jobs_module, "JOB_HISTORY", 2)
        body = {"cells": [small_spec(seed=None).to_dict()]}
        ids = []
        for _ in range(4):
            ids.append(client.post("/jobs", json=body).get_json()["id"])
            finish(client, ids[-1])
        for job_id in ids[:2]:
            for path in ("", "/result", "/cells"):
                response = client.get(f"/jobs/{job_id}{path}")
                assert response.status_code == 404
                error = response.get_json()["error"]
                assert "evicted" in error
                assert "last 2 finished jobs" in error
            assert client.delete(f"/jobs/{job_id}").status_code == 404
        for job_id in ids[2:]:
            assert client.get(f"/jobs/{job_id}/result").status_code == 200
            assert client.get(f"/jobs/{job_id}/cells").status_code == 200
        listed = client.get("/jobs").get_json()["jobs"]
        assert [job["id"] for job in listed] == ids[2:]
        never = client.get("/jobs/job-0005")
        assert never.status_code == 404
        assert "unknown job" in never.get_json()["error"]


class TestServedCells:
    """``GET /jobs/<id>/cells`` splices the result store's stored text
    and serves the bytes the re-encoding endpoint used to serve."""

    @pytest.fixture(autouse=True)
    def odd_kind(self):
        register_cell_kind(ODD_KIND, _odd_values_cell)
        yield
        CELL_KINDS.pop(ODD_KIND)

    SPECS = [
        Scenario.line(3).params(PARAMS).rounds(3)
        .measure("pulse_diameters").tag("D", 2).build(),
        Scenario.line(3).params(PARAMS).rounds(3).lossy(rate=0.1)
        .tag("lossy").build(),
        ScenarioSpec(kind=ODD_KIND, key=("odd",)),
    ]

    def submit(self, client):
        job = client.post("/jobs", json={
            "cells": [spec.to_dict() for spec in self.SPECS],
            "base_seed": 3})
        return finish(client, job.get_json()["id"])

    def test_bytes_equal_the_re_encoded_cells(self, client):
        cells = [run_cell(spec)
                 for spec in resolve_cell_seeds(self.SPECS, 3)]
        for cached in (0, len(cells)):  # cold, then warm
            snapshot = self.submit(client)
            assert snapshot["progress"]["cached_cells"] == cached
            served = client.get(f"/jobs/{snapshot['id']}/cells")
            assert served.status_code == 200
            assert served.mimetype == "application/json"
            body = {"id": snapshot["id"],
                    "cells": [serialize.encode(cell) for cell in cells]}
            assert served.data == (json.dumps(
                body, sort_keys=True, separators=(",", ":"))
                + "\n").encode("ascii")
            # ... which is what Flask makes of the same dict.
            assert served.data \
                == client.application.json.response(body).get_data()

    def test_cache_clear_makes_cells_gone(self, client):
        snapshot = self.submit(client)
        client.post("/cache/clear")
        gone = client.get(f"/jobs/{snapshot['id']}/cells")
        assert gone.status_code == 410
        error = gone.get_json()["error"]
        assert error.startswith("cell 0 of ") and "resubmit" in error
        result = client.get(f"/jobs/{snapshot['id']}/result")
        assert result.status_code == 200

    @pytest.mark.parametrize("damage", ["truncated", "digest", "stale"])
    def test_damaged_entry_makes_cells_gone(self, client, store, damage):
        snapshot = self.submit(client)
        spec = resolve_cell_seeds(self.SPECS, 3)[1]
        path = store.path_for(spec_hash(spec))
        line = path.read_text().partition("\n")[2]
        if damage == "truncated":
            edit_entry(path, cell_line=line[:-20])
        elif damage == "digest":  # well-formed, but not the digest's
            cell = decode_cell(line)
            cell.seed += 1
            edit_entry(path, cell_line=serialize.canonical_json(cell))
        else:
            edit_entry(path, lambda header: header.update(format=2))
        gone = client.get(f"/jobs/{snapshot['id']}/cells")
        assert gone.status_code == 410
        assert gone.get_json()["error"].startswith("cell 1 of ")


@pytest.mark.parametrize("experiment_id", REGISTRY.ids())
def test_finish_does_not_depend_on_key_order(quick_tables,
                                             experiment_id):
    """A cache hit decodes str-keyed dicts in sorted key order (line 2
    of an entry is canonical JSON); every quick table must finish
    byte-identically on such stored-form cells."""
    table = quick_tables[experiment_id]
    experiment = REGISTRY.get(experiment_id)
    plan = experiment.plan(quick=True, seed=experiment.default_seed)
    stored = [decode_cell(serialize.canonical_json(cell))
              for cell in quick_tables.cells[experiment_id]]
    assert plan.finish(stored, experiment.make_table()).to_json() \
        == table.to_json()


class TestScenarioLibrary:
    def write(self, root, name, text):
        (root / name).write_text(textwrap.dedent(text))

    def test_experiment_scenario_yaml(self, scenario_dir):
        self.write(scenario_dir, "t01_quick.yaml", """\
            title: T1 quick
            experiment: t01
            quick: true
            seed: 3
        """)
        library = ScenarioLibrary(scenario_dir)
        assert library.names() == ["t01_quick"]
        entry = library.load("t01_quick")
        assert isinstance(entry, LibraryScenario)
        assert entry.experiment == "t01"
        assert entry.quick is True and entry.seed == 3
        assert entry.describe()["experiment"] == "t01"

    def test_grid_scenario_with_preset_shorthand(self, scenario_dir):
        self.write(scenario_dir, "grid.yaml", """\
            title: small grid
            base_seed: 7
            cells:
              - graph: line
                graph_args: [3]
                rounds: 3
                params: {preset: practical, rho: 1.0e-4, d: 1.0,
                         u: 0.1, f: 1}
                key: [D, 2]
        """)
        entry = ScenarioLibrary(scenario_dir).load("grid")
        assert entry.base_seed == 7
        assert len(entry.specs) == 1
        spec = entry.specs[0]
        assert spec.params == PARAMS
        assert spec.key == ("D", 2)
        assert entry.describe()["cells"] == 1

    def test_json_scenario(self, scenario_dir):
        (scenario_dir / "direct.json").write_text(json.dumps(
            {"experiment": "t02", "quick": True}))
        entry = ScenarioLibrary(scenario_dir).load("direct")
        assert entry.experiment == "t02"
        assert entry.title == "direct"  # defaults to the name

    def test_unknown_scenario_name(self, scenario_dir):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ScenarioLibrary(scenario_dir).load("nope")

    def test_both_sources_rejected(self, scenario_dir):
        self.write(scenario_dir, "both.yaml", """\
            experiment: t01
            cells: []
        """)
        with pytest.raises(ConfigError, match="exactly one"):
            ScenarioLibrary(scenario_dir).load("both")

    def test_unknown_keys_rejected(self, scenario_dir):
        self.write(scenario_dir, "extra.yaml", """\
            experiment: t01
            sneed: 3
        """)
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioLibrary(scenario_dir).load("extra")

    def test_bad_cell_names_file_and_index(self, scenario_dir):
        self.write(scenario_dir, "typo.yaml", """\
            cells:
              - graph: line
                graph_args: [3]
                wat: true
        """)
        with pytest.raises(ConfigError,
                           match=r"typo\.yaml: cell 0"):
            ScenarioLibrary(scenario_dir).load("typo")

    def test_unknown_preset_rejected(self, scenario_dir):
        self.write(scenario_dir, "preset.yaml", """\
            cells:
              - graph: line
                graph_args: [3]
                params: {preset: warp}
        """)
        with pytest.raises(ConfigError, match="unknown params preset"):
            ScenarioLibrary(scenario_dir).load("preset")

    def test_describe_all_survives_broken_files(self, scenario_dir):
        self.write(scenario_dir, "good.yaml", "experiment: t01\n")
        self.write(scenario_dir, "broken.yaml", "cells: 3\n")
        entries = ScenarioLibrary(scenario_dir).describe_all()
        by_name = {entry["name"]: entry for entry in entries}
        assert "error" in by_name["broken"]
        assert by_name["good"]["experiment"] == "t01"

    @pytest.mark.parametrize("text, field", [
        ("experiment: t01\nquick: 'false'\n", "quick"),
        ("experiment: t01\nseed: 2.5\n", "seed"),
        ("base_seed: abc\ncells:\n  - {graph: line, graph_args: [3]}\n",
         "base_seed"),
    ])
    def test_ill_typed_field_lists_as_error_entry(self, client,
                                                  scenario_dir, text,
                                                  field):
        self.write(scenario_dir, "good.yaml", "experiment: t01\n")
        self.write(scenario_dir, "bad.yaml", text)
        listing = client.get("/scenarios")
        assert listing.status_code == 200
        by_name = {entry["name"]: entry
                   for entry in listing.get_json()["scenarios"]}
        assert by_name["good"] == {"name": "good", "title": "good",
                                   "experiment": "t01", "quick": True}
        assert by_name["bad"]["error"].startswith("bad.yaml: ")
        assert repr(field) in by_name["bad"]["error"]
        submit = client.post("/jobs", json={"scenario": "bad"})
        assert submit.status_code == 400
        assert repr(field) in submit.get_json()["error"]

    @pytest.mark.parametrize("cell, message", [
        ("engine: vectorized\n    loss: {kind: bernoulli, rate: 0.1}",
         "loss models"),
        ("adversary: {amplitude: 1.0}", "string 'name'"),
        ("schedule: node_churn\n    schedule_args: [10.0, 0.2]",
         "schedule_args must be a mapping"),
        ("schedule: node_churn\n    schedule_args: {interval: 10.0, "
         "crash: high}", "bad node_churn cell"),
    ], ids=["vectorized+loss", "adversary-without-name",
            "node-churn-args-not-a-mapping",
            "node-churn-crash-not-a-number"])
    def test_unbuildable_cell_lists_as_error_entry(self, client,
                                                   scenario_dir, cell,
                                                   message):
        self.write(scenario_dir, "good.yaml", "experiment: t01\n")
        self.write(scenario_dir, "bad.yaml",
                   f"cells:\n  - graph: line\n    graph_args: [3]\n"
                   f"    {cell}\n")
        listing = client.get("/scenarios")
        assert listing.status_code == 200
        by_name = {entry["name"]: entry
                   for entry in listing.get_json()["scenarios"]}
        assert by_name["good"]["experiment"] == "t01"
        error = by_name["bad"]["error"]
        assert error.startswith("bad.yaml: cell 0: ") and message in error
        submit = client.post("/jobs", json={"scenario": "bad"})
        assert submit.status_code == 400

    def test_example_scenarios_load(self):
        root = Path(__file__).resolve().parents[1] / "examples" \
            / "scenarios"
        assert ScenarioLibrary(root).describe_all() == [
            {"name": "ftgcs_line_diameters",
             "title": "FTGCS line, three diameters",
             "cells": 3, "base_seed": 7},
            {"name": "t01_quick",
             "title": "T1 local skew vs diameter (quick, published seed)",
             "experiment": "t01", "quick": True},
        ]

    def test_missing_directory_is_empty(self, tmp_path):
        library = ScenarioLibrary(tmp_path / "nope")
        assert library.names() == []
        assert library.describe_all() == []

    def test_scenarios_endpoint_and_submission(self, client,
                                               scenario_dir):
        self.write(scenario_dir, "t01_quick.yaml", """\
            title: T1 quick
            experiment: t01
        """)
        listing = client.get("/scenarios").get_json()
        assert [s["name"] for s in listing["scenarios"]] \
            == ["t01_quick"]
        job = client.post("/jobs", json={"scenario": "t01_quick"})
        assert job.status_code == 202
        assert job.get_json()["label"] == "T1 quick"
        snapshot = finish(client, job.get_json()["id"])
        assert snapshot["state"] == "done"

    def test_unknown_scenario_submission_is_400(self, client):
        response = client.post("/jobs", json={"scenario": "nope"})
        assert response.status_code == 400

    def test_no_library_submission_is_400(self, idle_manager):
        app = create_app(manager=idle_manager)
        response = app.test_client().post(
            "/jobs", json={"scenario": "x"})
        assert response.status_code == 400
        assert "no scenario library" \
            in response.get_json()["error"]


class TestOpenApi:
    """GET /openapi.json describes the whole live routing table."""

    def test_document_served(self, client):
        response = client.get("/openapi.json")
        assert response.status_code == 200
        doc = response.get_json()
        assert doc["openapi"].startswith("3.")
        assert doc["info"]["title"] == "repro simulation service"

    def test_every_route_documented(self, client):
        """Each (path, method) Flask serves appears in the document,
        and vice versa — adding a route without describing it (or
        describing a route that does not exist) fails here."""
        doc = client.get("/openapi.json").get_json()
        documented = {
            (path, method.upper())
            for path, item in doc["paths"].items()
            for method in item
            if method in ("get", "post", "put", "delete", "patch")}
        served = set()
        for rule in client.application.url_map.iter_rules():
            if rule.endpoint == "static":
                continue
            # Flask's <job_id> converters are OpenAPI's {job_id}.
            path = rule.rule.replace("<", "{").replace(">", "}")
            for method in rule.methods - {"HEAD", "OPTIONS"}:
                served.add((path, method))
        assert documented == served

    def test_spec_schema_mentions_engine_cache_keying(self, client):
        """The ScenarioSpec schema documents that 'engine' is part of
        the content hash (the result cache keys engines separately)."""
        doc = client.get("/openapi.json").get_json()
        spec = doc["components"]["schemas"]["ScenarioSpec"]
        assert spec["properties"]["engine"]["enum"] \
            == ["event", "vectorized"]
        assert "separately" in spec["description"]
