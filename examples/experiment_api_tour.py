#!/usr/bin/env python3
"""Tour of the declarative experiment API (Scenario + registry +
protocols).

Four layers, from highest to lowest:

1. ``run_experiment("tNN")`` — any published table, one call.
2. ``REGISTRY`` — metadata and grid sizes without running anything.
3. ``Scenario`` + ``SweepRunner`` — your own declarative grid of
   picklable cells, fanned across worker processes (``processes=`` or
   ``REPRO_SWEEP_PROCESSES``) with bit-identical results at any pool
   size.
4. ``SyncProtocol`` + ``SystemBuilder`` — the unified surface every
   algorithm implements; register your own protocol and it becomes
   addressable from Scenario grids like the built-ins.

Plus a tour of adversarial dynamic topologies: ``TIntervalSchedule``
(worst-case T-interval connectivity) with first-contact estimator
bring-up (``.first_contact()``) — and of deployment-grade fault
injection: lossy links (``.lossy(...)``) and crash-and-rejoin node
churn (``.churn_nodes(...)``) — and of the simulation service
(``repro.service``): async jobs over a content-addressed result
cache, where resubmitting an identical experiment is a disk read.

Run:  python examples/experiment_api_tour.py
"""

from repro import (
    REGISTRY,
    ProtocolRunResult,
    Reads,
    Scenario,
    SweepRunner,
    SyncProtocol,
    SystemBuilder,
    register_protocol,
    run_experiment,
)
from repro.harness import default_params

# 1. Any published table, one call.  Every experiment accepts
#    quick/full, processes, and seed the same way.
table = run_experiment("t08", quick=True)
print(table.format())
print()

# 2. The registry is introspectable: ids, claims, grid sizes.
experiment = REGISTRY.get("t05")
cells = len(experiment.plan(quick=True, seed=experiment.default_seed).specs)
print(f"{experiment.id}: {experiment.claim.splitlines()[0]}")
print(f"quick grid: {cells} cells")
print()

# 3. A custom sweep: how does the steady local skew respond to the
#    initial inter-cluster gradient?  One immutable base scenario fans
#    out into a grid; the sweep engine runs the cells (in parallel if
#    asked) and hands back picklable measurements.  Every simulation
#    cell runs through the generic "protocol" kind, so cell.result is
#    always a ProtocolRunResult (algorithm-native detail included).
params = default_params(f=1)
base = (Scenario.line(3).params(params).rounds(12)
        .adversarial("equivocate"))
gradients = (0.5, 1.5, 2.5)
specs = [base.offsets([i * g * params.kappa for i in range(3)])
         .tag("gradient", g).build()
         for g in gradients]
cells = SweepRunner().run(specs, base_seed=17)

print("gradient (kappa/edge)  steady local skew  bound  holds")
violations = 0
for cell in cells:
    steady = cell.steady_state_skews()["local_cluster"]
    bound = cell.result.detail.bounds.local_skew_bound
    ok = steady <= bound
    violations += 0 if ok else 1
    print(f"{cell.key[1]:>21}  {steady:>17.4f}  {bound:.4f}  {ok}")
print()
print("custom sweep: all bounds hold" if violations == 0
      else f"custom sweep: {violations} BOUND VIOLATIONS")
print()


# 4. A custom protocol.  Implement the SyncProtocol contract
#    (build_nodes / start / horizon / collect + capability flags and
#    the keys it reads), register it, and it composes with topologies
#    and rides Scenario grids exactly like the built-ins.  This toy
#    protocol does no synchronization at all — free-running hardware
#    clocks — so its skew is the pure drift accumulation every real
#    algorithm beats.
@register_protocol
class NoSyncProtocol(SyncProtocol):
    """Free-running clocks: a lower-bound baseline with no messages."""

    name = "no_sync"
    needs_params = False
    # Declare the full capability set explicitly — `repro lint`'s
    # contract pass flags protocols that silently inherit the
    # SyncProtocol defaults.
    supports_dynamic_topology = False
    supports_node_churn = False
    supports_first_contact = False
    supports_vectorized = False
    supports_vectorized_faults = False
    # The payload keys build_nodes reads; any other key is refused
    # when the system is built.
    reads = Reads(payload=("rho", "until"))

    def build_nodes(self, ctx):
        from repro.clocks.hardware import HardwareClock
        from repro.clocks.rate_models import ConstantRate
        from repro.net.network import Network
        from repro.sim.kernel import Simulator

        rho = ctx.payload.get("rho", 1e-4)
        self.until = ctx.payload.get("until", 100.0)
        self.sim = Simulator()
        self.network = Network(self.sim, d=1.0, u=0.1)
        self.clocks = []
        for cluster in range(ctx.graph.num_clusters):
            rate = 1.0 + rho * (cluster % 2)
            self.clocks.append(HardwareClock(
                self.sim, ConstantRate(rate), rho))

    def start(self):
        pass  # nothing to arm: clocks free-run

    def horizon(self):
        return self.until

    def collect(self):
        values = [clock.value() for clock in self.clocks]
        spread = max(values) - min(values)
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=spread, max_local_skew=spread,
            events_processed=self.sim.events_processed, detail=values)


# Direct use through the builder...
result = (SystemBuilder("no_sync")
          .topology(__import__("repro").ClusterGraph.line(4))
          .payload(rho=1e-3, until=500.0).seed(1).build().run())
print(f"no_sync via SystemBuilder: global skew {result.max_global_skew:.3f} "
      f"after t=500 (rho=1e-3)")

# ...and through a Scenario grid (same worker path as t01-t15).
specs = [Scenario.line(4).protocol("no_sync")
         .payload(rho=rho, until=500.0).tag("rho", rho).build()
         for rho in (1e-4, 1e-3)]
for cell in SweepRunner().run(specs, base_seed=1):
    print(f"no_sync via Scenario grid: rho={cell.key[1]:g} -> "
          f"skew {cell.result.max_global_skew:.4f}")
print()


# 5. Adversarial dynamic topologies.  TIntervalSchedule is the
#    worst-case T-interval-connected adversary (Kuhn et al.): one
#    seeded random spanning tree survives per epoch of T intervals,
#    every other edge is down.  `.first_contact()` opts into dynamic
#    estimator state — estimators whose link is down at start stay
#    dormant, come up on first contact, and enter the trigger
#    aggregation only after one completed exchange (the warm-up rule).
params = default_params(f=1)
for T in (1, 4):
    cell = SweepRunner().run(
        [Scenario.ring(4).params(params).rounds(6)
         .dynamic("t_interval", interval=params.round_length, T=T)
         .first_contact().tag("T", T).build()],
        base_seed=21)[0]
    detail = cell.result.detail
    print(f"t_interval T={T}: local skew "
          f"{cell.result.max_local_skew:.4f}, "
          f"{detail.estimator_bring_ups} bring-ups, "
          f"{detail.estimator_resyncs} resyncs, "
          f"{cell.result.messages_dropped} drops on down edges")
print()


# 6. Fault injection.  The paper's model has reliable links and
#    permanently live nodes; `.lossy()` and `.churn_nodes()` break both
#    assumptions on purpose.  Loss draws come from a dedicated stream,
#    so a run with no loss model is byte-identical to one built before
#    the fault layer existed.  The uniform result carries the
#    accounting: messages_lost (the wire ate it), dropped_link_down
#    (sent into a deactivated link), node_crashes / node_rejoins.
params = default_params(f=1)
faulted = (Scenario.line(4).params(params).rounds(12)
           .lossy(kind="bernoulli", rate=0.1)
           .churn_nodes(interval=2 * params.round_length, crash=0.1,
                        rejoin=0.8)
           .first_contact())
clean = Scenario.line(4).params(params).rounds(12)
for label, scenario in (("reliable", clean), ("faulted", faulted)):
    cell = SweepRunner().run([scenario.tag(label).build()], base_seed=16)[0]
    r = cell.result
    print(f"{label:>8}: local skew {r.max_local_skew:.4f}, "
          f"{r.messages_lost} lost, {r.dropped_link_down} link-down, "
          f"{r.node_crashes} crashes, {r.node_rejoins} rejoins")


# 7. The simulation service.  JobManager + ResultStore are the
#    library half of `python -m repro serve`: submissions queue on
#    background workers, and every executed cell lands in a
#    content-addressed cache keyed by the canonical BLAKE2b hash of
#    its seed-resolved spec.  A cold submission executes the grid; an
#    identical resubmission decodes every cell from disk —
#    executed_cells stays 0 and the finished table is byte-identical
#    (the same guarantee the REST layer serves over HTTP).
import tempfile
import time

from repro.service import JobManager, ResultStore

with tempfile.TemporaryDirectory(prefix="repro-tour-cache-") as root:
    manager = JobManager(store=ResultStore(root))
    started = time.perf_counter()
    cold = manager.wait(manager.submit_experiment("t01").id,
                        timeout=300)
    print(f"service cold submit: {cold.executed_cells} executed / "
          f"{cold.cached_cells} cached "
          f"({time.perf_counter() - started:.2f}s)")
    started = time.perf_counter()
    warm = manager.wait(manager.submit_experiment("t01").id,
                        timeout=300)
    print(f"service resubmit: {warm.executed_cells} executed / "
          f"{warm.cached_cells} cached "
          f"({time.perf_counter() - started:.2f}s), bytes identical: "
          f"{warm.table.to_json() == cold.table.to_json()}")
    manager.shutdown()
