#!/usr/bin/env python3
"""Run the Byzantine attacks one by one against the same deployment.

A ring of 4 clusters, one faulty node per cluster, each adversary in
turn.  For each attack the script reports steady-state skews and
whether every bound held — the empirical content of Theorem 1.1's
"tolerates f Byzantine faults per cluster".

Run:  python examples/attack_gallery.py
"""

from repro.harness import Scenario, SweepRunner, default_params

params = default_params(f=1)

# (label, adversary model, its knobs)
attacks = [
    ("silent", "silent", {}),
    ("crash @ 3T", "crash", {"crash_time": 3 * params.round_length}),
    ("random pulses", "random_pulse", {"pulses_per_round": 4.0}),
    ("fast clock x1.5", "fast_clock", {"speed_factor": 1.5}),
    ("slow clock x0.7", "fast_clock", {"speed_factor": 0.7}),
    ("equivocator", "equivocate", {}),
    ("pull-apart", "pull_apart", {}),
]

base = Scenario.ring(4).params(params).rounds(15).seed(3)
cells = SweepRunner().run([base.adversarial(model, **knobs).build()
                           for _, model, knobs in attacks])

print(f"ring of 4 clusters, k={params.cluster_size}, f=1, "
      f"15 rounds per attack")
print()
print(f"{'attack':18s} {'intra':>8s} {'local':>8s} {'global':>8s} "
      f"{'missing':>8s} {'bounds':>7s}")
for (name, _, _), cell in zip(attacks, cells):
    result = cell.result.detail
    steady = cell.steady_state_skews()
    print(f"{name:18s} {steady['intra']:8.3f} "
          f"{steady['local_cluster']:8.3f} {steady['global']:8.3f} "
          f"{result.missing_pulses:8d} "
          f"{'OK' if result.all_bounds_hold else 'FAIL':>7s}")

print()
print(f"bounds: intra <= {params.intra_skew_bound():.2f}, "
      f"local cluster <= O(kappa log S), kappa = {params.kappa:.2f}")
