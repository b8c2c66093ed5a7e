"""System assembly: build and run a complete FTGCS deployment.

:class:`FtgcsSystem` wires everything together from a cluster graph and
a parameter set: the kernel, per-node hardware clocks, the network over
the augmented graph, honest :class:`~repro.core.node.FtgcsNode`
instances, Byzantine adversary drivers, and a skew sampler.  It is the
entry point used by the examples and the benchmark harness:

>>> from repro import ClusterGraph, Parameters
>>> from repro.core.system import FtgcsSystem
>>> params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
>>> system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=1)
>>> result = system.run_rounds(10)
>>> result.max_intra_cluster_skew <= result.bounds.intra_cluster_bound
True
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.bounds import BoundsReport
from repro.analysis.metrics import (
    SkewSnapshot,
    pulse_diameters,
    stabilization_time,
    unanimity_by_round,
)
from repro.analysis.sampling import SkewSampler
from repro.clocks.hardware import HardwareClock
from repro.clocks.rate_models import ConstantRate, FlipRate, RateModel
from repro.core.node import (
    MAX_REANNOUNCE_LEVELS,
    FtgcsNode,
    MaxEstimateConfig,
)
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.errors import ConfigError
from repro.faults.adversary import AdversaryModel, EventContext
from repro.net.delays import DelayModel, ExtremalDelay, UniformDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.cluster_graph import AugmentedGraph, ClusterGraph

#: ``(node_id, rng, params) -> RateModel`` for custom drift trajectories.
RateModelFactory = Callable[[int, random.Random, Parameters], RateModel]
#: ``(a, b, rng, params) -> DelayModel`` for custom link delays.
DelayModelFactory = Callable[[int, int, random.Random, Parameters],
                             DelayModel]


@dataclass
class SystemConfig:
    """Scenario knobs for :meth:`FtgcsSystem.build`.

    Attributes
    ----------
    policy:
        Mode policy (see :mod:`repro.core.intercluster`).
    rate_model:
        ``"uniform"`` (constant per-node rate drawn from ``[1, 1+rho]``),
        ``"extremes"`` (alternate 1 / 1+rho by node id — the worst
        static spread), ``"min"``/``"max"`` (all nodes pinned), ``"flip"``
        (drift pump alternating extremes), or a
        :data:`RateModelFactory`.
    delay_model:
        ``"uniform"`` (i.i.d. per message), ``"min"``/``"max"``
        (envelope edges), or a :data:`DelayModelFactory`.
    cluster_offsets:
        Initial logical offset per cluster (defaults to all zero).
        These set up skew gradients for convergence experiments.
    init_jitter:
        Half-width of per-node initial offsets around the cluster base
        (default ``E / 4``; initialization must respect ``e(1)``).
    byzantine:
        ``{node_id: model}`` of
        :class:`~repro.faults.adversary.AdversaryModel` instances, one
        per faulty node — see :mod:`repro.faults`.
    allow_fault_overflow:
        Permit more than ``f`` faults in a cluster (for "what breaks
        beyond the bound" experiments).
    enable_max_estimate / max_estimate_unit:
        Theorem C.3 machinery; the unit defaults to ``delta_trigger``
        (see :mod:`repro.core.max_estimate` for the rationale).
    dynamic_estimators:
        First-contact estimator bring-up for dynamic topologies (see
        :mod:`repro.core.node`): estimators follow the live edge set —
        dormant while their link is down at start, brought up on first
        contact, resynced on re-contact, and gated by the warm-up rule
        (one completed exchange) before entering the trigger
        aggregation.  Off by default: static runs and legacy dynamic
        runs are bit-identical to the frozen-estimator implementation.
    max_reannounce_levels:
        Cap on MAX pulses re-sent per neighbor at link bring-up
        (dynamic mode).  A binding cap makes the receiver's decode an
        *under*-estimate — sound, but lossy on long outages; every
        capped re-announcement is counted in
        ``RunResult.reannounce_cap_hits`` so the cap can be sized.
    e1:
        Initial error bound for loose-initialization runs (adaptive
        round schedule); default: steady state ``E``.
    sample_interval:
        Skew sampling period (default: a quarter round).
    record_series / track_edges / record_rounds:
        Measurement verbosity.
    """

    policy: str = "slow_default"
    rate_model: str | RateModelFactory = "uniform"
    delay_model: str | DelayModelFactory = "uniform"
    cluster_offsets: list[float] | None = None
    init_jitter: float | None = None
    byzantine: dict[int, AdversaryModel] = field(default_factory=dict)
    allow_fault_overflow: bool = False
    enable_max_estimate: bool = False
    max_estimate_unit: float | None = None
    dynamic_estimators: bool = False
    max_reannounce_levels: int = MAX_REANNOUNCE_LEVELS
    e1: float | None = None
    sample_interval: float | None = None
    record_series: bool = False
    track_edges: bool = False
    record_rounds: bool = True


@dataclass
class RunResult:
    """Measurements and bound comparisons of one run."""

    params: Parameters
    diameter: int
    rounds_completed: int
    max_global_skew: float
    max_intra_cluster_skew: float
    max_local_cluster_skew: float
    max_local_node_skew: float
    max_estimate_error: float
    bounds: BoundsReport
    samples: int
    messages_sent: int
    events_processed: int
    missing_pulses: int
    clamped_corrections: int
    stale_pulses: int
    flooded_pulses: int
    both_triggers_rounds: int
    fast_rounds: int
    slow_rounds: int
    #: First-contact machinery counters (0 unless dynamic_estimators).
    estimator_bring_ups: int = 0
    estimator_resyncs: int = 0
    #: Re-announcements truncated by ``max_reannounce_levels`` (the
    #: undercount stays sound; nonzero means the cap was binding).
    reannounce_cap_hits: int = 0
    #: Fault-injection accounting (all 0 / None on clean runs):
    #: messages eaten by the loss model, messages dropped on down
    #: links, cluster crash / rejoin-with-amnesia events, and the time
    #: the local-skew series settles into its steady band (``None``
    #: without a recorded series).
    messages_lost: int = 0
    dropped_link_down: int = 0
    node_crashes: int = 0
    node_rejoins: int = 0
    stabilization_time: float | None = None
    series: list[SkewSnapshot] = field(default_factory=list)
    edge_maxima: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def within_intra_bound(self) -> bool:
        return (self.max_intra_cluster_skew
                <= self.bounds.intra_cluster_bound)

    @property
    def within_local_cluster_bound(self) -> bool:
        return (self.max_local_cluster_skew
                <= self.bounds.local_skew_bound)

    @property
    def within_local_node_bound(self) -> bool:
        return (self.max_local_node_skew
                <= self.bounds.node_local_skew_bound)

    @property
    def within_global_bound(self) -> bool:
        return self.max_global_skew <= self.bounds.global_skew_bound

    @property
    def all_bounds_hold(self) -> bool:
        return (self.within_intra_bound
                and self.within_local_cluster_bound
                and self.within_local_node_bound
                and self.within_global_bound)


class FtgcsSystem:
    """A fully wired FTGCS deployment on one simulation kernel."""

    def __init__(self, cluster_graph: ClusterGraph, params: Parameters,
                 config: SystemConfig, seed: int) -> None:
        """Use :meth:`build`; the constructor wires but does not start."""
        self.cluster_graph = cluster_graph
        self.params = params
        self.config = config
        self.graph: AugmentedGraph = cluster_graph.augment(
            params.cluster_size)
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.schedule = RoundSchedule(params, e1=config.e1)
        self._diameter = (cluster_graph.diameter()
                          if cluster_graph.is_connected() else -1)

        self.faulty_ids = frozenset(config.byzantine)
        self._validate_faults()

        self.network = self._build_network()
        self._bases = self._compute_bases()
        self.nodes: dict[int, FtgcsNode] = {}
        self.drivers: dict[int, object] = {}
        self.pulse_log: dict[tuple[int, int], list[tuple[int, float]]] = {}
        self._build_nodes()
        self._build_sample_layout()

        interval = config.sample_interval
        if interval is None:
            interval = self.schedule.round_length(1) / 4.0
        self.sampler = SkewSampler(
            self.sim, interval, self._collect_grouped,
            cluster_graph.edges, record_series=config.record_series,
            track_edges=config.track_edges)
        self._started = False
        #: Cluster-level churn events applied to this system.
        self.node_crashes = 0
        self.node_rejoins = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, cluster_graph: ClusterGraph, params: Parameters,
              seed: int = 0,
              config: SystemConfig | None = None) -> "FtgcsSystem":
        """Build a system ready to :meth:`run`."""
        return cls(cluster_graph, params, config or SystemConfig(), seed)

    def _validate_faults(self) -> None:
        per_cluster: dict[int, int] = {}
        for node_id in self.faulty_ids:
            cluster = self.graph.cluster_of(node_id)
            per_cluster[cluster] = per_cluster.get(cluster, 0) + 1
        if self.config.allow_fault_overflow:
            return
        for cluster, count in per_cluster.items():
            if count > self.params.f:
                raise ConfigError(
                    f"cluster {cluster} has {count} faults, exceeding "
                    f"f={self.params.f} (set allow_fault_overflow to "
                    f"experiment beyond the bound)")

    def _compute_bases(self) -> dict[int, float]:
        offsets = self.config.cluster_offsets
        n = self.cluster_graph.num_clusters
        if offsets is None:
            return {c: 0.0 for c in range(n)}
        if len(offsets) != n:
            raise ConfigError(
                f"cluster_offsets has {len(offsets)} entries for "
                f"{n} clusters")
        return {c: float(offsets[c]) for c in range(n)}

    def _build_network(self) -> Network:
        p = self.params
        net = Network(self.sim, d=p.d, u=p.u)
        for node_id in range(self.graph.num_nodes):
            net.add_node(node_id)
        for a, b in self.graph.node_edges():
            net.add_link(a, b, self._delay_model_for(a, b))
        return net

    def _delay_model_for(self, a: int, b: int) -> DelayModel:
        spec = self.config.delay_model
        p = self.params
        rng = self.rng.stream(f"delay/{a}-{b}")
        if callable(spec):
            return spec(a, b, rng, p)
        if spec == "uniform":
            return UniformDelay(p.d, p.u, rng)
        if spec in ("min", "max"):
            return ExtremalDelay(p.d, p.u, spec)
        raise ConfigError(f"unknown delay_model spec: {spec!r}")

    def _rate_model_for(self, node_id: int) -> RateModel:
        spec = self.config.rate_model
        p = self.params
        rng = self.rng.stream(f"rate/{node_id}")
        if callable(spec):
            return spec(node_id, rng, p)
        if spec == "uniform":
            return ConstantRate(1.0 + p.rho * rng.random())
        if spec == "extremes":
            rate = 1.0 + p.rho if node_id % 2 == 0 else 1.0
            return ConstantRate(rate)
        if spec == "min":
            return ConstantRate(1.0)
        if spec == "max":
            return ConstantRate(1.0 + p.rho)
        if spec == "flip":
            period = 4.0 * self.schedule.round_length(1)
            return FlipRate(1.0, 1.0 + p.rho, period,
                            start_high=node_id % 2 == 0)
        raise ConfigError(f"unknown rate_model spec: {spec!r}")

    def _jitter(self, rng: random.Random) -> float:
        width = self.config.init_jitter
        if width is None:
            width = self.params.cap_e / 4.0
        return width * (2.0 * rng.random() - 1.0)

    def _build_nodes(self) -> None:
        p = self.params
        cfg = self.config
        max_cfg = None
        if cfg.enable_max_estimate:
            unit = cfg.max_estimate_unit
            if unit is None:
                unit = p.delta_trigger
            max_cfg = MaxEstimateConfig(unit=unit)

        for node_id in range(self.graph.num_nodes):
            cluster = self.graph.cluster_of(node_id)
            rng = self.rng.stream(f"node/{node_id}")
            adversary = cfg.byzantine.get(node_id)

            rate_model: RateModel
            enforce = True
            if adversary is not None:
                spec = adversary.hardware_spec(p, rng)
                if spec is not None:
                    rate_model, enforce = spec
                else:
                    rate_model = self._rate_model_for(node_id)
            else:
                rate_model = self._rate_model_for(node_id)
            hardware = HardwareClock(self.sim, rate_model, p.rho,
                                     enforce_bounds=enforce,
                                     name=f"H[{node_id}]")

            members = self.graph.members(cluster)
            adjacent = self.graph.inter_neighbors(node_id)
            ctx = EventContext(
                node_id=node_id, cluster_id=cluster, sim=self.sim,
                network=self.network, params=p, schedule=self.schedule,
                hardware=hardware, base=self._bases[cluster],
                cluster_members=members, adjacent_members=adjacent,
                rng=rng)

            if adversary is not None and not adversary.wants_honest_node:
                self.drivers[node_id] = adversary.build(ctx)
                continue

            is_faulty = adversary is not None
            estimator_initials = {
                b: self._bases[b] + self._jitter(rng)
                for b in adjacent}
            node = FtgcsNode(
                node_id, cluster, sim=self.sim, network=self.network,
                params=p, schedule=self.schedule, hardware=hardware,
                cluster_members=members, adjacent_members=adjacent,
                bases=self._bases,
                initial_logical=self._bases[cluster] + self._jitter(rng),
                estimator_initials=estimator_initials, rng=rng,
                policy=cfg.policy, max_estimate=max_cfg,
                record_rounds=cfg.record_rounds and not is_faulty,
                dynamic_estimators=cfg.dynamic_estimators,
                max_reannounce_levels=cfg.max_reannounce_levels,
                on_pulse_sent=None if is_faulty else self._log_pulse)
            self.nodes[node_id] = node
            if is_faulty:
                ctx.honest_node = node
                self.drivers[node_id] = adversary.build(ctx)

    def _build_sample_layout(self) -> None:
        """Precompute the sampling hot path's data layout.

        The honest-node list, the per-cluster grouping, the bound
        ``logical.value`` getters, and the flat per-cluster value
        buffers are built once at construction — and rebuilt only on a
        node churn event (:meth:`crash_cluster` /
        :meth:`rejoin_cluster`), so crashed nodes leave the skew
        measurement while they are down.  Static runs build exactly
        once; every sample then only refills the preallocated buffers
        in stable (cluster, node id) order.
        """
        self._honest = [node for node_id, node in sorted(self.nodes.items())
                        if node_id not in self.faulty_ids
                        and not node.crashed]
        by_cluster: dict[int, list[FtgcsNode]] = {}
        for node in self._honest:
            by_cluster.setdefault(node.cluster_id, []).append(node)
        self._sample_getters = [
            (cluster, [node.logical.value for node in members],
             [0.0] * len(members))
            for cluster, members in sorted(by_cluster.items())]
        self._sample_groups = [(cluster, buffer)
                               for cluster, _, buffer in
                               self._sample_getters]

    def _log_pulse(self, cluster: int, round_index: int, node: int,
                   time: float) -> None:
        self.pulse_log.setdefault((cluster, round_index), []).append(
            (node, time))

    def notify_cluster_edge(self, edge: tuple[int, int],
                            active: bool) -> None:
        """Forward a topology-schedule edge event to the member nodes.

        This is the first-contact hook: nodes on either side of the
        cluster edge learn that their link set changed and (re)start
        estimators accordingly.  No-op unless the system was built with
        ``dynamic_estimators`` — the legacy frozen-estimator behavior
        stays bit-identical.
        """
        if not self.config.dynamic_estimators:
            return
        a, b = edge
        for node in self.nodes.values():
            if node.cluster_id == a:
                node.set_cluster_link(b, active)
            elif node.cluster_id == b:
                node.set_cluster_link(a, active)

    # ------------------------------------------------------------------
    # Node churn (crash-and-rejoin fault injection)
    # ------------------------------------------------------------------

    def crash_cluster(self, cluster: int) -> None:
        """Crash every correct member node of ``cluster``.

        Each member's engines stop (:meth:`FtgcsNode.crash`) and the
        crashed nodes leave the skew measurement until they rejoin.
        Link deactivation is the caller's job (the protocol adapter
        downs all incident links, optionally quarantining in-flight
        traffic) so that link state and node state cannot disagree.
        Byzantine members have no engine state to stop — their links
        going dark silences them for the outage.
        """
        for node_id in self.graph.members(cluster):
            node = self.nodes.get(node_id)
            if node is not None and not node.crashed:
                node.crash()
        self.node_crashes += 1
        self._build_sample_layout()

    def rejoin_cluster(self, cluster: int) -> None:
        """Rejoin ``cluster``'s crashed members with amnesia.

        Members restart through :meth:`FtgcsNode.rejoin` — round
        engine re-entered at the round their own (drifted) progress
        implies, estimators re-seeded via the first-contact bring-up
        path — and re-enter the skew measurement immediately, so the
        recovery transient is visible in the sampled series.
        """
        for node_id in self.graph.members(cluster):
            node = self.nodes.get(node_id)
            if node is not None and node.crashed:
                node.rejoin()
        self.node_rejoins += 1
        self._build_sample_layout()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    @property
    def diameter(self) -> int:
        return self._diameter

    def honest_nodes(self) -> list[FtgcsNode]:
        """Correct nodes (excludes every node with an adversary).

        The set is fixed at construction time, so this returns a cached
        list (do not mutate it).
        """
        return self._honest

    def _collect_grouped(self) -> list[tuple[int, list[float]]]:
        """Refill the preallocated per-cluster value buffers (hot path)."""
        for _cluster, getters, buffer in self._sample_getters:
            for i, getter in enumerate(getters):
                buffer[i] = getter()
        return self._sample_groups

    def start(self) -> None:
        """Start all nodes, drivers, and the sampler."""
        if self._started:
            raise ConfigError("system already started")
        self._started = True
        for node in self.nodes.values():
            node.start()
        for driver in self.drivers.values():
            driver.start()
        self.sampler.start()

    def run(self, until: float) -> RunResult:
        """Run (starting if necessary) to absolute time ``until``."""
        if not self._started:
            self.start()
        self.sim.run(until)
        return self.result()

    def run_rounds(self, rounds: int) -> RunResult:
        """Run until every correct node has completed ``rounds``.

        Logical clocks advance at rate >= 1, so a node reaches the end
        of round ``n`` within ``round_start(n+1)`` plus its initial
        jitter of real time.
        """
        if rounds < 1:
            raise ConfigError(f"rounds must be >= 1: {rounds!r}")
        width = self.config.init_jitter
        if width is None:
            width = self.params.cap_e / 4.0
        horizon = self.schedule.round_start(rounds + 1) + width + 1.0
        return self.run(self.sim.now + horizon)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _max_estimate_error(self) -> float:
        """Largest |estimate - true cluster clock| right now."""
        cluster_clocks = {cluster: 0.5 * (min(vals) + max(vals))
                          for cluster, vals in self._collect_grouped()}
        worst = 0.0
        for node in self.honest_nodes():
            for b_cluster, estimator in node.estimators.items():
                true_value = cluster_clocks.get(b_cluster)
                if true_value is None:
                    continue
                worst = max(worst,
                            abs(estimator.value() - true_value))
        return worst

    def result(self) -> RunResult:
        """Snapshot the run's measurements into a :class:`RunResult`."""
        self.sampler.sample_now()
        honest = self.honest_nodes()
        rounds_completed = min(
            (node.core.stats.rounds_completed for node in honest),
            default=0)
        missing = sum(n.core.stats.missing_pulses for n in honest)
        clamped = sum(n.core.stats.clamped_corrections for n in honest)
        stale = sum(n.core.stats.stale_pulses for n in honest)
        flooded = sum(n.core.stats.flooded_pulses for n in honest)
        both = sum(n.intercluster.stats.both_triggers_rounds
                   for n in honest)
        fast = sum(n.intercluster.stats.fast_rounds for n in honest)
        slow = sum(n.intercluster.stats.slow_rounds for n in honest)
        maxima = self.sampler.maxima
        bounds = BoundsReport.for_run(self.params, max(self._diameter, 0),
                                      global_skew=maxima.global_skew)
        return RunResult(
            params=self.params, diameter=self._diameter,
            rounds_completed=rounds_completed,
            max_global_skew=maxima.global_skew,
            max_intra_cluster_skew=maxima.intra_cluster,
            max_local_cluster_skew=maxima.local_cluster,
            max_local_node_skew=maxima.local_node,
            max_estimate_error=self._max_estimate_error(),
            bounds=bounds, samples=maxima.samples,
            messages_sent=self.network.messages_sent,
            events_processed=self.sim.events_processed,
            missing_pulses=missing, clamped_corrections=clamped,
            stale_pulses=stale, flooded_pulses=flooded,
            both_triggers_rounds=both, fast_rounds=fast, slow_rounds=slow,
            estimator_bring_ups=sum(n.stats.estimator_bring_ups
                                    for n in honest),
            estimator_resyncs=sum(n.stats.estimator_resyncs
                                  for n in honest),
            reannounce_cap_hits=sum(n.stats.reannounce_cap_hits
                                    for n in honest),
            messages_lost=self.network.dropped_loss,
            dropped_link_down=self.network.dropped_link_down,
            node_crashes=self.node_crashes,
            node_rejoins=self.node_rejoins,
            stabilization_time=(stabilization_time(
                [(s.time, s.max_local_cluster)
                 for s in self.sampler.series])
                if self.sampler.series else None),
            series=self.sampler.series,
            edge_maxima=dict(self.sampler.maxima.edge_maxima))

    # ------------------------------------------------------------------
    # Analysis accessors
    # ------------------------------------------------------------------

    def pulse_diameter_table(self) -> dict[tuple[int, int], float]:
        """``‖p_C(r)‖`` per (cluster, round) from correct pulses."""
        return pulse_diameters(self.pulse_log)

    def cluster_unanimity(self, cluster: int) -> dict[int, tuple[bool, int]]:
        """Per-round unanimity of one cluster's correct members."""
        logs = {node.node_id: node.stats.mode_by_round
                for node in self.honest_nodes()
                if node.cluster_id == cluster}
        return unanimity_by_round(logs)
