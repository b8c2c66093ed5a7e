"""Baseline: the plain (amortized) Lynch–Welch algorithm on a clique.

Running the full system on a single-cluster graph *is* the Lynch–Welch
algorithm of Section 3 — there are no intercluster edges, the triggers
never fire, and ``gamma`` stays 0.  This module packages that
configuration for experiments comparing clique synchronization quality
(e.g. against Srikanth–Toueg, or across cluster sizes/fault counts).
"""

from __future__ import annotations

from repro.core.params import Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.errors import ConfigError
from repro.topology.cluster_graph import ClusterGraph


class LynchWelchSystem(FtgcsSystem):
    """The amortized Lynch–Welch algorithm as a standalone system.

    Exactly the FTGCS machinery restricted to one fully connected
    cluster: there are no intercluster edges, the triggers never fire,
    ``gamma`` stays 0, and what remains *is* the Section 3 algorithm.
    Sharing the engine keeps the two byte-identical by construction —
    a single-cluster ``FtgcsSystem`` and a ``LynchWelchSystem`` with
    the same seed produce the same execution, event for event.
    """

    def __init__(self, params: Parameters,
                 config: SystemConfig | None = None,
                 seed: int = 0,
                 cluster_graph: ClusterGraph | None = None) -> None:
        if cluster_graph is None:
            cluster_graph = ClusterGraph.line(1)
        if cluster_graph.num_clusters != 1:
            raise ConfigError(
                f"Lynch–Welch is a single-cluster algorithm; got "
                f"{cluster_graph.num_clusters} clusters (use the "
                f"'ftgcs' protocol for multi-cluster graphs)")
        super().__init__(cluster_graph, params,
                         config or SystemConfig(), seed)

    @classmethod
    def build(cls, cluster_graph: ClusterGraph, params: Parameters,
              seed: int = 0,
              config: SystemConfig | None = None) -> "LynchWelchSystem":
        """Parent-compatible constructor (graph must be one cluster)."""
        return cls(params, config=config, seed=seed,
                   cluster_graph=cluster_graph)
