"""The service's OpenAPI 3 description, served at ``GET /openapi.json``.

Hand-maintained rather than generated: the surface is ten routes and
the schemas matter more than automation — the document spells out the
job-submission body (exactly one of ``experiment`` / ``scenario`` /
``cells``), the job-snapshot state machine, and the result formats.
``tests/test_service.py`` cross-checks it against ``app.url_map`` so a
route added without a matching path entry fails CI.
"""

from __future__ import annotations

from repro.service.jobs import JOB_HISTORY

OPENAPI_VERSION = "3.0.3"

_JOB_SNAPSHOT = {
    "type": "object",
    "description": "One job's observable state; poll GET /jobs/{id}.",
    "properties": {
        "id": {"type": "string"},
        "label": {"type": "string", "nullable": True},
        "state": {
            "type": "string",
            "enum": ["queued", "running", "done", "failed",
                     "cancelled"],
        },
        "submitted_at": {"type": "number"},
        "started_at": {"type": "number", "nullable": True},
        "finished_at": {"type": "number", "nullable": True},
        "total_cells": {"type": "integer"},
        "executed_cells": {
            "type": "integer",
            "description": "Cells actually simulated; cache hits do "
                           "not count, so resubmitting an identical "
                           "job reports 0.",
        },
        "cached_cells": {"type": "integer"},
        "error": {"type": "string", "nullable": True},
    },
}

_JOB_REQUEST = {
    "type": "object",
    "description": "Exactly one of 'experiment', 'scenario', or "
                   "'cells' selects the job source.",
    "properties": {
        "experiment": {
            "type": "string",
            "description": "Registry id (t01..t18).",
        },
        "scenario": {
            "type": "string",
            "description": "Name from the scenario library "
                           "(GET /scenarios).",
        },
        "cells": {
            "type": "array",
            "items": {"$ref": "#/components/schemas/ScenarioSpec"},
            "description": "Ad-hoc grid of spec dicts.",
        },
        "quick": {"type": "boolean", "default": True},
        "seed": {"type": "integer", "nullable": True},
        "base_seed": {"type": "integer", "default": 0},
        "label": {"type": "string", "nullable": True},
    },
}

_SCENARIO_SPEC = {
    "type": "object",
    "description": "Plain-data ScenarioSpec "
                   "(repro.harness.sweep.ScenarioSpec.to_dict). "
                   "Notable fields: 'engine' selects the execution "
                   "backend ('event' or 'vectorized') and is part of "
                   "the content hash, so the result cache keys the "
                   "two engines' results separately; 'timing' opts "
                   "into wall-clock measurement.",
    "properties": {
        "kind": {"type": "string"},
        "graph": {"type": "string"},
        "graph_args": {"type": "array"},
        "engine": {
            "type": "string",
            "enum": ["event", "vectorized"],
            "default": "event",
        },
        "timing": {"type": "boolean", "default": False},
        "seed": {"type": "integer", "nullable": True},
        "rounds": {"type": "integer", "nullable": True},
        "payload": {"type": "object"},
        "config": {"type": "object"},
        "key": {"type": "array"},
    },
    "additionalProperties": True,
}

_ERROR = {
    "type": "object",
    "properties": {"error": {"type": "string"}},
    "required": ["error"],
}

_JOB_ID_PARAM = {
    "name": "job_id",
    "in": "path",
    "required": True,
    "schema": {"type": "string"},
}


def _json_response(description: str, schema: dict | None = None,
                   status: str = "200") -> dict:
    content = {"application/json": {}}
    if schema is not None:
        content["application/json"]["schema"] = schema
    return {status: {"description": description, "content": content}}


def openapi_document() -> dict:
    """The complete OpenAPI document as plain JSON-ready data."""
    return {
        "openapi": OPENAPI_VERSION,
        "info": {
            "title": "repro simulation service",
            "description": (
                "Async sweep jobs with a content-addressed result "
                "cache over the FTGCS reproduction's experiment "
                "registry.  A job's format=json result bytes are "
                "bit-identical to `repro run <id> --format json` for "
                "the same (experiment, quick, seed)."),
            "version": "1.0.0",
        },
        "paths": {
            "/openapi.json": {
                "get": {
                    "summary": "This document.",
                    "responses": _json_response("The OpenAPI 3 "
                                                "description."),
                },
            },
            "/health": {
                "get": {
                    "summary": "Liveness plus cache/queue summary.",
                    "responses": _json_response(
                        "Service status.",
                        {"type": "object", "properties": {
                            "status": {"type": "string"},
                            "experiments": {"type": "integer"},
                            "jobs": {"type": "integer"},
                            "cache": {"type": "object"},
                        }}),
                },
            },
            "/experiments": {
                "get": {
                    "summary": "Registry metadata for every "
                               "experiment (t01..t18).",
                    "responses": _json_response(
                        "id, title, claim, columns, default seed, "
                        "tags per experiment."),
                },
            },
            "/scenarios": {
                "get": {
                    "summary": "The scenario-library listing "
                               "(empty without --scenarios).",
                    "responses": _json_response("Scenario listing."),
                },
            },
            "/jobs": {
                "get": {
                    "summary": "Snapshots of the retained jobs (the "
                               f"last {JOB_HISTORY} finished ones plus "
                               "every queued or running one).",
                    "responses": _json_response(
                        "Snapshot list.",
                        {"type": "object", "properties": {
                            "jobs": {"type": "array", "items": {
                                "$ref": "#/components/schemas/"
                                        "JobSnapshot"}}}}),
                },
                "post": {
                    "summary": "Submit a job (experiment, library "
                               "scenario, or ad-hoc cell grid).",
                    "requestBody": {
                        "required": True,
                        "content": {"application/json": {"schema": {
                            "$ref": "#/components/schemas/"
                                    "JobRequest"}}},
                    },
                    "responses": {
                        **_json_response(
                            "Accepted; poll GET /jobs/{job_id}.",
                            {"$ref": "#/components/schemas/"
                                     "JobSnapshot"},
                            status="202"),
                        **_json_response(
                            "Malformed body (not exactly one "
                            "source, unknown experiment, bad spec, "
                            "a cell that fails check_spec, named by "
                            "its index, or an ill-typed "
                            "quick/seed/base_seed).",
                            {"$ref": "#/components/schemas/Error"},
                            status="400"),
                    },
                },
            },
            "/jobs/{job_id}": {
                "get": {
                    "summary": "One job snapshot (poll this).",
                    "parameters": [_JOB_ID_PARAM],
                    "responses": {
                        **_json_response(
                            "Snapshot.",
                            {"$ref": "#/components/schemas/"
                                     "JobSnapshot"}),
                        **_json_response(
                            "Unknown job id, or a finished job "
                            "evicted from the history (the error "
                            "says which and gives the bound).",
                            {"$ref": "#/components/schemas/Error"},
                            status="404"),
                    },
                },
                "delete": {
                    "summary": "Request cancellation.",
                    "parameters": [_JOB_ID_PARAM],
                    "responses": _json_response(
                        "id, state, and whether cancellation was "
                        "applied."),
                },
            },
            "/jobs/{job_id}/result": {
                "get": {
                    "summary": "The finished table.",
                    "parameters": [
                        _JOB_ID_PARAM,
                        {
                            "name": "format",
                            "in": "query",
                            "schema": {
                                "type": "string",
                                "enum": ["table", "json", "csv"],
                                "default": "table",
                            },
                        },
                    ],
                    "responses": {
                        "200": {"description":
                                "text/plain (table), "
                                "application/json, or text/csv."},
                        **_json_response(
                            "Result not ready (job still queued or "
                            "running).",
                            {"$ref": "#/components/schemas/Error"},
                            status="409"),
                        **_json_response(
                            "Job failed; body carries the error.",
                            {"$ref": "#/components/schemas/Error"},
                            status="500"),
                    },
                },
            },
            "/jobs/{job_id}/cells": {
                "get": {
                    "summary": "The job's cells in the canonical "
                               "tagged encoding "
                               "(repro.harness.serialize), as the "
                               "result store holds them.",
                    "parameters": [_JOB_ID_PARAM],
                    "responses": {
                        **_json_response("Encoded cell list."),
                        **_json_response(
                            "Cells not ready.",
                            {"$ref": "#/components/schemas/Error"},
                            status="409"),
                        **_json_response(
                            "A cell's store entry is gone, stale or "
                            "corrupt (e.g. after POST /cache/clear); "
                            "the error names the first such cell "
                            "index.  Resubmit the job.",
                            {"$ref": "#/components/schemas/Error"},
                            status="410"),
                    },
                },
            },
            "/cache/stats": {
                "get": {
                    "summary": "Result-store entry count and bytes.",
                    "responses": _json_response("Store statistics."),
                },
            },
            "/cache/clear": {
                "post": {
                    "summary": "Drop every cached result.",
                    "responses": _json_response(
                        "Number of entries removed."),
                },
            },
        },
        "components": {
            "schemas": {
                "JobSnapshot": _JOB_SNAPSHOT,
                "JobRequest": _JOB_REQUEST,
                "ScenarioSpec": _SCENARIO_SPEC,
                "Error": _ERROR,
            },
        },
    }


__all__ = ["OPENAPI_VERSION", "openapi_document"]
