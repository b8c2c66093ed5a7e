#!/usr/bin/env python3
"""Run the Byzantine attacks one by one against the same deployment.

A ring of 4 clusters, one faulty node per cluster, each adversary in
turn.  For each attack the script reports steady-state skews and
whether every bound held — the empirical content of Theorem 1.1's
"tolerates f Byzantine faults per cluster".

Run:  python examples/attack_gallery.py
"""

from repro import ClusterGraph
from repro.faults import (
    CrashAdversary,
    EquivocateAdversary,
    FastClockAdversary,
    PullApartAdversary,
    RandomPulseAdversary,
    SilentAdversary,
)
from repro.harness.runner import default_params, run_scenario

params = default_params(f=1)
graph = ClusterGraph.ring(4)

attacks = [
    ("silent", lambda n: SilentAdversary()),
    ("crash @ 3T", lambda n: CrashAdversary(3 * params.round_length)),
    ("random pulses", lambda n: RandomPulseAdversary(pulses_per_round=4.0)),
    ("fast clock x1.5", lambda n: FastClockAdversary(1.5)),
    ("slow clock x0.7", lambda n: FastClockAdversary(0.7)),
    ("equivocator", lambda n: EquivocateAdversary()),
    ("pull-apart", lambda n: PullApartAdversary()),
]

print(f"ring of 4 clusters, k={params.cluster_size}, f=1, "
      f"15 rounds per attack")
print()
print(f"{'attack':18s} {'intra':>8s} {'local':>8s} {'global':>8s} "
      f"{'missing':>8s} {'bounds':>7s}")
for name, factory in attacks:
    scenario = run_scenario(graph, params, rounds=15, seed=3,
                            strategy_factory=factory)
    result = scenario.result
    steady = scenario.steady_state_skews()
    print(f"{name:18s} {steady['intra']:8.3f} "
          f"{steady['local_cluster']:8.3f} {steady['global']:8.3f} "
          f"{result.missing_pulses:8d} "
          f"{'OK' if result.all_bounds_hold else 'FAIL':>7s}")

print()
print(f"bounds: intra <= {params.intra_skew_bound():.2f}, "
      f"local cluster <= O(kappa log S), kappa = {params.kappa:.2f}")
