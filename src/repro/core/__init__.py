"""The paper's algorithms: ClusterSync, InterclusterSync, assembly."""

from repro.core.cluster_sync import (
    ClusterSyncCore,
    CoreStats,
    RoundRecord,
)
from repro.core.estimates import ClusterEstimator
from repro.core.intercluster import (
    MODE_POLICIES,
    InterclusterStats,
    InterclusterSync,
    ModeRecord,
)
from repro.core.max_estimate import MaxEstimate
from repro.core.node import FtgcsNode, MaxEstimateConfig, NodeStats
from repro.core.params import Parameters, contraction_factor
from repro.core.protocol import (
    PROTOCOLS,
    BuildContext,
    ProtocolRunResult,
    Reads,
    SyncProtocol,
    System,
    SystemBuilder,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.core.rounds import RoundSchedule
from repro.core.system import FtgcsSystem, RunResult, SystemConfig
from repro.core.triggers import TriggerDecision, evaluate

#: Back-compat alias: the active engine is the cluster algorithm node.
ClusterSyncNode = ClusterSyncCore

__all__ = [
    "ClusterSyncCore",
    "ClusterSyncNode",
    "CoreStats",
    "RoundRecord",
    "ClusterEstimator",
    "MODE_POLICIES",
    "InterclusterStats",
    "InterclusterSync",
    "ModeRecord",
    "MaxEstimate",
    "FtgcsNode",
    "MaxEstimateConfig",
    "NodeStats",
    "Parameters",
    "contraction_factor",
    "RoundSchedule",
    "FtgcsSystem",
    "RunResult",
    "SystemConfig",
    "PROTOCOLS",
    "BuildContext",
    "ProtocolRunResult",
    "Reads",
    "SyncProtocol",
    "System",
    "SystemBuilder",
    "get_protocol",
    "protocol_names",
    "register_protocol",
    "TriggerDecision",
    "evaluate",
]
