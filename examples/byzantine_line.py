#!/usr/bin/env python3
"""A line network under sustained Byzantine equivocation.

Scenario: a line of 5 clusters (think: a chain of racks, or a long
System-on-Chip spine) with one *equivocating* Byzantine node per
cluster — the strongest pulse-level attack, sending early pulses to one
half of its neighbors and late pulses to the other.  On top, clusters
start with a skew gradient of ``1.5 kappa`` per hop.

The run prints the per-edge skew profile so you can see the gradient
the GCS layer maintains, and verifies every Theorem 1.1 bound.

Run:  python examples/byzantine_line.py
"""

from repro import ClusterGraph, Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.faults import EquivocateAdversary, place_everywhere

params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1, eps=0.2,
                              k_stab=1)
num_clusters = 5
graph = ClusterGraph.line(num_clusters)
augmented = graph.augment(params.cluster_size)

byzantine = place_everywhere(augmented, 1,
                             lambda node_id: EquivocateAdversary())
offsets = [i * 1.5 * params.kappa for i in range(num_clusters)]

config = SystemConfig(byzantine=byzantine, cluster_offsets=offsets,
                      record_series=True, track_edges=True)
system = FtgcsSystem.build(graph, params, seed=7, config=config)
result = system.run_rounds(30)

print(f"line of {num_clusters} clusters, k={params.cluster_size}, "
      f"one equivocator per cluster")
print(f"kappa = {params.kappa:.3f}, initial gradient = "
      f"{1.5 * params.kappa:.3f} per edge")
print()
print("per-edge max cluster skew (the gradient profile):")
for (a, b), skew in sorted(result.edge_maxima.items()):
    bar = "#" * int(40 * skew / max(result.edge_maxima.values()))
    print(f"  edge ({a},{b}): {skew:9.3f}  {bar}")
print()
print(f"max local cluster skew : {result.max_local_cluster_skew:.3f} "
      f"(bound {result.bounds.local_skew_bound:.3f})")
print(f"max intra-cluster skew : {result.max_intra_cluster_skew:.3f} "
      f"(bound {result.bounds.intra_cluster_bound:.3f})")
print(f"missing pulses         : {result.missing_pulses} "
      f"(substituted; Byzantine lies that fell outside the window)")
print(f"all bounds hold        : {result.all_bounds_hold}")
