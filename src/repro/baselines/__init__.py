"""Baseline algorithms the paper compares against or builds upon."""

from repro.baselines.gcs_single import (
    GcsLiarNode,
    GcsParams,
    GcsSingleNode,
    GcsSingleSystem,
)
from repro.baselines.lynch_welch import LynchWelchSystem
from repro.baselines.master_slave import (
    MasterSlaveNode,
    MasterSlaveSystem,
    bfs_tree,
)
from repro.baselines.srikanth_toueg import (
    SrikanthTouegNode,
    SrikanthTouegSystem,
    StParams,
    StStats,
)

__all__ = [
    "GcsLiarNode",
    "GcsParams",
    "GcsSingleNode",
    "GcsSingleSystem",
    "LynchWelchSystem",
    "MasterSlaveNode",
    "MasterSlaveSystem",
    "bfs_tree",
    "SrikanthTouegNode",
    "SrikanthTouegSystem",
    "StParams",
    "StStats",
]
