"""REST layer: the sweep engine behind HTTP endpoints.

Routes (all JSON unless noted):

====================================  =================================
``GET  /openapi.json``                the OpenAPI 3 description of
                                      this surface
                                      (:mod:`repro.service.openapi`)
``GET  /health``                      liveness + cache/queue summary
``GET  /experiments``                 registry metadata (id, title,
                                      claim, columns, default seed)
``GET  /scenarios``                   the scenario-library listing
``POST /jobs``                        submit; body is one of
                                      ``{"experiment": "t01", "quick":
                                      true, "seed": 3}``,
                                      ``{"scenario": "<name>"}``, or
                                      ``{"cells": [...], "base_seed":
                                      0}`` (spec plain-data form) →
                                      202 + job snapshot
``GET  /jobs``                        snapshots of the retained jobs
``GET  /jobs/<id>``                   one job snapshot (poll this);
                                      404 once evicted from the
                                      finished-job history
``DELETE /jobs/<id>``                 request cancellation
``GET  /jobs/<id>/result``            the finished table;
                                      ``?format=table|json|csv``
                                      (text, ``Table.to_json`` bytes,
                                      ``Table.to_csv`` text)
``GET  /jobs/<id>/cells``             the job's cells in the canonical
                                      tagged encoding, spliced from
                                      the result store's stored text;
                                      410 once an entry is gone
``GET  /cache/stats``                 result-store entry count/bytes
``POST /cache/clear``                 drop every cached result
====================================  =================================

Determinism guarantee: a job's ``format=json`` result bytes are
identical to ``repro run <id> --format json`` for the same
(experiment, quick, seed) — cells ride the same seed derivation and
the same worker routine, and cache hits decode bit-identically
(:mod:`repro.harness.serialize`).  Submitting the same job twice
therefore completes the second time with ``executed_cells == 0``.

The app factory keeps everything injectable (store, manager, library)
so tests drive it through ``app.test_client()`` with temp dirs and no
sockets; ``python -m repro serve`` wraps :func:`serve`.
"""

from __future__ import annotations

import json
import sys

from repro.errors import ConfigError
from repro.harness.registry import REGISTRY
from repro.harness.sweep import ScenarioSpec
from repro.service.jobs import CellsGone, JobManager
from repro.service.library import ScenarioLibrary
from repro.service.store import ResultStore

try:
    import flask
except ImportError:  # pragma: no cover - flask is in the image
    flask = None

#: Accepted ``?format=`` values for the result endpoint.
RESULT_FORMATS = ("table", "json", "csv")


def _require_flask():
    if flask is None:  # pragma: no cover - flask is in the image
        raise ConfigError(
            "the simulation service needs Flask (install flask, or "
            "use the library API: repro.service.JobManager)")
    return flask


def create_app(cache_dir=None, scenario_dir=None, processes=None,
               workers: int = 1, store: ResultStore | None = None,
               manager: JobManager | None = None,
               library: ScenarioLibrary | None = None):
    """Build the Flask app (everything injectable for tests).

    ``manager`` wins over (``store``, ``processes``, ``workers``);
    ``library`` wins over ``scenario_dir``; no scenario source means
    ``GET /scenarios`` serves an empty listing.
    """
    fl = _require_flask()
    if manager is None:
        if store is None:
            store = ResultStore(cache_dir)
        manager = JobManager(store=store, processes=processes,
                             workers=workers)
    if library is None and scenario_dir is not None:
        library = ScenarioLibrary(scenario_dir)

    app = fl.Flask("repro.service")
    # Test handles: reach the live manager/store from app fixtures.
    app.config["REPRO_MANAGER"] = manager
    app.config["REPRO_LIBRARY"] = library

    @app.errorhandler(ConfigError)
    def _bad_request(error):
        return {"error": str(error)}, 400

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @app.get("/openapi.json")
    def openapi():
        from repro.service.openapi import openapi_document
        return openapi_document()

    @app.get("/health")
    def health():
        return {
            "status": "ok",
            "experiments": len(REGISTRY),
            "jobs": len(manager.jobs()),
            "cache": manager.store.stats(),
        }

    @app.get("/experiments")
    def experiments():
        return {"experiments": [
            {"id": e.id, "title": e.title, "claim": e.claim,
             "columns": list(e.columns),
             "default_seed": e.default_seed, "tags": list(e.tags)}
            for e in REGISTRY]}

    @app.get("/scenarios")
    def scenarios():
        if library is None:
            return {"scenarios": [], "root": None}
        return {"scenarios": library.describe_all(),
                "root": str(library.root)}

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def _submit(body: dict):
        sources = [key for key in ("experiment", "scenario", "cells")
                   if key in body]
        if len(sources) != 1:
            raise ConfigError(
                "POST /jobs needs exactly one of 'experiment', "
                "'scenario', or 'cells'")
        label = body.get("label")
        if "experiment" in body:
            return manager.submit_experiment(
                body["experiment"], quick=body.get("quick", True),
                seed=body.get("seed"), label=label)
        if "scenario" in body:
            if library is None:
                raise ConfigError(
                    "no scenario library configured (serve with "
                    "--scenarios DIR)")
            entry = library.load(body["scenario"])
            if entry.experiment is not None:
                return manager.submit_experiment(
                    entry.experiment, quick=entry.quick,
                    seed=entry.seed, label=label or entry.title)
            return manager.submit_grid(
                list(entry.specs), base_seed=entry.base_seed,
                label=label or entry.title)
        cells = body["cells"]
        if not isinstance(cells, list):
            raise ConfigError("'cells' must be a list of spec dicts")
        specs = []
        for index, cell in enumerate(cells):
            try:
                specs.append(ScenarioSpec.from_dict(cell))
            except ConfigError as error:
                raise ConfigError(f"cell {index}: {error}") from None
        return manager.submit_grid(
            specs, base_seed=body.get("base_seed", 0), label=label)

    @app.post("/jobs")
    def submit_job():
        body = fl.request.get_json(force=True, silent=True)
        if not isinstance(body, dict):
            raise ConfigError("POST /jobs needs a JSON object body")
        job = _submit(body)
        return job.snapshot(), 202

    @app.get("/jobs")
    def list_jobs():
        return {"jobs": [job.snapshot() for job in manager.jobs()]}

    def _job_or_404(job_id: str):
        try:
            return manager.get(job_id)
        except ConfigError as error:
            fl.abort(fl.Response(
                fl.json.dumps({"error": str(error)}), status=404,
                mimetype="application/json"))

    @app.get("/jobs/<job_id>")
    def job_status(job_id):
        return _job_or_404(job_id).snapshot()

    @app.delete("/jobs/<job_id>")
    def cancel_job(job_id):
        job = _job_or_404(job_id)
        cancelled = manager.cancel(job.id)
        return {"id": job.id, "state": job.state,
                "cancelled": cancelled}

    @app.get("/jobs/<job_id>/result")
    def job_result(job_id):
        job = _job_or_404(job_id)
        if job.state == "failed":
            return {"id": job.id, "state": job.state,
                    "error": job.error}, 500
        if job.state != "done":
            return {"id": job.id, "state": job.state,
                    "error": "result not ready"}, 409
        fmt = fl.request.args.get("format", "table")
        if fmt not in RESULT_FORMATS:
            raise ConfigError(
                f"unknown format {fmt!r}; known: {list(RESULT_FORMATS)}")
        if fmt == "json":
            return fl.Response(job.table.to_json(),
                               mimetype="application/json")
        if fmt == "csv":
            return fl.Response(job.table.to_csv(), mimetype="text/csv")
        return fl.Response(job.table.format() + "\n",
                           mimetype="text/plain")

    @app.get("/jobs/<job_id>/cells")
    def job_cells(job_id):
        job = _job_or_404(job_id)
        if job.state != "done":
            return {"id": job.id, "state": job.state,
                    "error": "cells not ready"}, 409
        try:
            texts = manager.cell_texts(job.id)
        except CellsGone as error:
            return {"id": job.id, "state": job.state,
                    "error": str(error)}, 410
        # The bytes Flask would emit for {"id": ..., "cells": [...]}
        # (sorted keys, compact), with each cell as the store holds it.
        body = ('{"cells":[' + ",".join(texts) + '],"id":'
                + json.dumps(job.id) + "}\n")
        return fl.Response(body, mimetype="application/json")

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------

    @app.get("/cache/stats")
    def cache_stats():
        return manager.store.stats()

    @app.post("/cache/clear")
    def cache_clear():
        return {"removed": manager.store.clear()}

    return app


def serve(host: str = "127.0.0.1", port: int = 8765,
          cache_dir=None, scenario_dir=None, processes=None,
          workers: int = 1) -> None:  # pragma: no cover - blocking
    """Run the development server (``python -m repro serve``)."""
    app = create_app(cache_dir=cache_dir, scenario_dir=scenario_dir,
                     processes=processes, workers=workers)
    store = app.config["REPRO_MANAGER"].store
    print(f"[repro serve] listening on http://{host}:{port} "
          f"(cache: {store.root}"
          + (f", scenarios: {scenario_dir}" if scenario_dir else "")
          + ")", file=sys.stderr)
    app.run(host=host, port=port, threaded=True, use_reloader=False)


__all__ = ["RESULT_FORMATS", "create_app", "serve"]
