#!/usr/bin/env python3
"""Quickstart: fault-tolerant gradient clock synchronization in ~30 lines.

Builds a ring of 4 clusters (4 nodes each, tolerating 1 Byzantine node
per cluster), runs 15 rounds with one *silent* Byzantine node in every
cluster, and checks every skew metric against the paper's bounds.

Run:  python examples/quickstart.py
"""

from repro import ClusterGraph, Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.faults import SilentAdversary, place_everywhere

# 1. Model parameters: drift rho, max delay d, uncertainty U, faults f.
params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
print(params.summary())
print()

# 2. Topology: a ring of 4 clusters; the augmentation (cliques inside,
#    complete bipartite across edges) happens inside the system builder.
graph = ClusterGraph.ring(4)

# 3. Faults: one silent Byzantine node in every cluster (= the budget).
augmented = graph.augment(params.cluster_size)
byzantine = place_everywhere(augmented, 1, lambda node_id: SilentAdversary())

# 4. Build and run.
system = FtgcsSystem.build(graph, params, seed=42,
                           config=SystemConfig(byzantine=byzantine))
result = system.run_rounds(15)

# 5. Compare measurements against the paper's bounds.
print(f"rounds completed          : {result.rounds_completed}")
print(f"messages sent             : {result.messages_sent}")
print(f"intra-cluster skew        : {result.max_intra_cluster_skew:.4f}"
      f"  (bound {result.bounds.intra_cluster_bound:.4f})")
print(f"local cluster skew        : {result.max_local_cluster_skew:.4f}"
      f"  (bound {result.bounds.local_skew_bound:.4f})")
print(f"local node skew           : {result.max_local_node_skew:.4f}"
      f"  (bound {result.bounds.node_local_skew_bound:.4f})")
print(f"global skew               : {result.max_global_skew:.4f}"
      f"  (bound {result.bounds.global_skew_bound:.4f})")
print(f"estimate error            : {result.max_estimate_error:.4f}"
      f"  (bound {result.bounds.estimate_error_bound:.4f})")
print(f"missing pulses substituted: {result.missing_pulses}")
print()
print("all bounds hold" if result.all_bounds_hold
      else "BOUND VIOLATION — this should never happen")
