"""Experiment harness: scenario builders, the sweep engine, tables,
and the registered T1-T18 suite.

The stable programmatic surface (see API.md):

- :class:`Scenario` — fluent builder compiling to picklable
  :class:`ScenarioSpec` cells.
- :class:`SweepRunner` — fans spec grids across worker processes with
  deterministic per-cell seeding.
- :data:`REGISTRY` / :func:`run_experiment` — every table of the
  reproduction, one uniform entry point.
"""

from repro.core.protocol import (
    PROTOCOLS,
    ProtocolRunResult,
    SyncProtocol,
    SystemBuilder,
    register_protocol,
)
from repro.harness.experiments import fast_dynamics_params
from repro.harness.registry import (
    REGISTRY,
    Experiment,
    ExperimentPlan,
    ExperimentRegistry,
    run_experiment,
)
from repro.harness.runner import (
    ScenarioResult,
    default_params,
    gradient_offsets,
    run_scenario,
    steady_state_skews,
    step_offsets,
)
from repro.harness.scenario import Scenario
from repro.harness.serialize import (
    canonical_json,
    content_hash,
    register_serializable,
)
from repro.harness.sweep import (
    CELL_KINDS,
    COLLECTORS,
    ScenarioSpec,
    SweepCellResult,
    SweepRunner,
    default_processes,
    register_cell_kind,
    resolve_cell_seeds,
    run_cell,
    spec_hash,
)
from repro.harness.tables import Table

__all__ = [
    # experiments + registry
    "REGISTRY",
    "Experiment",
    "ExperimentPlan",
    "ExperimentRegistry",
    "run_experiment",
    # unified protocol surface (re-exported from repro.core.protocol)
    "PROTOCOLS",
    "ProtocolRunResult",
    "SyncProtocol",
    "SystemBuilder",
    "register_protocol",
    # scenario construction
    "Scenario",
    "ScenarioSpec",
    "fast_dynamics_params",
    "default_params",
    "gradient_offsets",
    "step_offsets",
    # direct runners
    "ScenarioResult",
    "run_scenario",
    "steady_state_skews",
    # sweep engine
    "CELL_KINDS",
    "COLLECTORS",
    "SweepCellResult",
    "SweepRunner",
    "default_processes",
    "register_cell_kind",
    "resolve_cell_seeds",
    "run_cell",
    # serialization (the simulation service rides on these)
    "canonical_json",
    "content_hash",
    "register_serializable",
    "spec_hash",
    # output
    "Table",
]
