"""Fault placement policies.

The model fixes a set ``F`` of faulty nodes with at most ``f`` per
cluster.  These helpers build the ``{node_id: model}`` maps of
:class:`~repro.faults.adversary.AdversaryModel` instances that
:class:`~repro.core.system.SystemConfig` consumes.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ConfigError
from repro.faults.adversary import AdversaryModel
from repro.topology.cluster_graph import AugmentedGraph

#: Builds a fresh model for a node id (models may keep state).
AdversaryFactory = Callable[[int], AdversaryModel]


def place_in_clusters(graph: AugmentedGraph, clusters: list[int],
                      per_cluster: int, factory: AdversaryFactory,
                      rng: random.Random | None = None,
                      pick: str = "first"
                      ) -> dict[int, AdversaryModel]:
    """Make ``per_cluster`` nodes faulty in each listed cluster.

    ``pick`` selects which members: ``"first"`` (deterministic: lowest
    ids) or ``"random"`` (requires ``rng``).
    """
    if per_cluster < 0:
        raise ConfigError(f"per_cluster must be >= 0: {per_cluster!r}")
    if pick not in ("first", "random"):
        raise ConfigError(f"pick must be 'first' or 'random': {pick!r}")
    if pick == "random" and rng is None:
        raise ConfigError("pick='random' requires an rng")
    result: dict[int, AdversaryModel] = {}
    for cluster in clusters:
        members = list(graph.members(cluster))
        if per_cluster > len(members):
            raise ConfigError(
                f"cluster {cluster} has only {len(members)} members, "
                f"cannot make {per_cluster} faulty")
        if pick == "random":
            chosen = rng.sample(members, per_cluster)
        else:
            chosen = members[:per_cluster]
        for node_id in chosen:
            result[node_id] = factory(node_id)
    return result


def place_everywhere(graph: AugmentedGraph, per_cluster: int,
                     factory: AdversaryFactory,
                     rng: random.Random | None = None,
                     pick: str = "first") -> dict[int, AdversaryModel]:
    """``per_cluster`` faults in *every* cluster — the worst allowed
    deterministic placement."""
    clusters = list(range(graph.cluster_graph.num_clusters))
    return place_in_clusters(graph, clusters, per_cluster, factory,
                             rng, pick)
