"""repro — Fault Tolerant Gradient Clock Synchronization (PODC 2019).

A production-quality reproduction of *Fault Tolerant Gradient Clock
Synchronization* by Bund, Lenzen, and Rosenbaum: a discrete-event
simulation substrate with exact piecewise-constant clocks, the paper's
cluster algorithm (amortized Lynch–Welch), the intercluster GCS
simulation, Byzantine fault strategies, baselines, and an experiment
harness validating every bound the paper proves.

Quickstart
----------
>>> from repro import ClusterGraph, Parameters, FtgcsSystem
>>> params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
>>> system = FtgcsSystem.build(ClusterGraph.line(4), params, seed=7)
>>> result = system.run_rounds(20)
"""

from repro.clocks import (
    ConstantRate,
    FlipRate,
    HardwareClock,
    LogicalClock,
    RateModel,
    ScaledClock,
)
from repro.errors import (
    ClockError,
    ConfigError,
    NetworkError,
    ParameterError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.net import Network, Pulse, PulseKind, UniformDelay
from repro.sim import RngRegistry, Simulator
from repro.topology import AugmentedGraph, ClusterGraph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "SimulationError", "ClockError", "TopologyError",
    "ParameterError", "NetworkError", "ConfigError",
    # substrate
    "Simulator", "RngRegistry",
    "HardwareClock", "LogicalClock", "ScaledClock", "RateModel",
    "ConstantRate", "FlipRate",
    "Network", "UniformDelay", "Pulse", "PulseKind",
    "ClusterGraph", "AugmentedGraph",
]

try:  # Core layers are appended as they are built on top of the substrate.
    from repro.core import (  # noqa: F401
        ClusterSyncNode,
        FtgcsNode,
        FtgcsSystem,
        Parameters,
        ProtocolRunResult,
        Reads,
        RoundSchedule,
        SyncProtocol,
        SystemBuilder,
        register_protocol,
    )
    from repro.topology import (  # noqa: F401
        AdversarialSweepSchedule,
        EdgeChurnSchedule,
        RewireSchedule,
        TIntervalSchedule,
        TopologySchedule,
    )

    __all__ += [
        "Parameters", "RoundSchedule", "ClusterSyncNode", "FtgcsNode",
        "FtgcsSystem",
        "SyncProtocol", "SystemBuilder", "ProtocolRunResult", "Reads",
        "register_protocol",
        "TopologySchedule", "EdgeChurnSchedule", "RewireSchedule",
        "TIntervalSchedule", "AdversarialSweepSchedule",
    ]
except ImportError:  # pragma: no cover - during bootstrap only
    pass

try:  # The declarative experiment API (see API.md).
    from repro.harness import (  # noqa: F401
        REGISTRY,
        ExperimentRegistry,
        Scenario,
        ScenarioSpec,
        SweepCellResult,
        SweepRunner,
        Table,
        run_experiment,
        spec_hash,
    )

    __all__ += [
        "REGISTRY", "ExperimentRegistry", "Scenario", "ScenarioSpec",
        "SweepCellResult", "SweepRunner", "Table", "run_experiment",
        "spec_hash",
    ]
except ImportError:  # pragma: no cover - during bootstrap only
    pass

try:  # The simulation service (see repro.service.app for the REST
    # surface; the library half needs no Flask).
    from repro.service import (  # noqa: F401
        JobManager,
        ResultStore,
        ScenarioLibrary,
    )

    __all__ += ["JobManager", "ResultStore", "ScenarioLibrary"]
except ImportError:  # pragma: no cover - during bootstrap only
    pass
