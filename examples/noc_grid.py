#!/usr/bin/env python3
"""Network-on-Chip style scenario: a 4x4 grid of clock domains.

The paper's introduction motivates GCS with decentralized clocking for
Systems-on-Chip / Networks-on-Chip: neighboring tiles must stay tightly
aligned (local skew!) even though the chip is many hops wide.  This
example builds a 4x4 torus-less grid of clusters, injects crash *and*
equivocation faults in different tiles, and reports the skew metrics a
NoC designer would care about.

Run:  python examples/noc_grid.py
"""

from repro import ClusterGraph, Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.faults import CrashAdversary, EquivocateAdversary, place_in_clusters

params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
graph = ClusterGraph.grid(4, 4)
augmented = graph.augment(params.cluster_size)

# Mixed faults: equivocators in two corner tiles, mid-run crashes along
# one row (stays within the f=1 per-cluster budget).
byzantine = {}
byzantine.update(place_in_clusters(
    augmented, [0, 15], 1, lambda n: EquivocateAdversary()))
byzantine.update(place_in_clusters(
    augmented, [5, 6], 1,
    lambda n: CrashAdversary(crash_time=5 * params.round_length)))

system = FtgcsSystem.build(
    graph, params, seed=11,
    config=SystemConfig(byzantine=byzantine, record_series=True))
result = system.run_rounds(20)

print(f"4x4 grid ({augmented.num_nodes} nodes, "
      f"{augmented.num_edges} links), diameter {graph.diameter()}")
print(f"faults: equivocators in tiles 0 and 15, crashes in tiles 5, 6")
print()
print(f"{'metric':28s} {'measured':>10s} {'bound':>10s}")
rows = [
    ("neighbor-tile skew (local)", result.max_local_cluster_skew,
     result.bounds.local_skew_bound),
    ("intra-tile skew", result.max_intra_cluster_skew,
     result.bounds.intra_cluster_bound),
    ("chip-wide skew (global)", result.max_global_skew,
     result.bounds.global_skew_bound),
]
for name, measured, bound in rows:
    print(f"{name:28s} {measured:10.3f} {bound:10.3f}")
print()
print(f"messages per round per node ~ "
      f"{result.messages_sent / max(result.rounds_completed, 1) / augmented.num_nodes:.1f}")
print("all bounds hold:", result.all_bounds_hold)
