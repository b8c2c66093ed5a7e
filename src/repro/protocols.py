"""The built-in :class:`~repro.core.protocol.SyncProtocol` adapters.

Every algorithm in the library — the paper's FTGCS construction, the
standalone Lynch–Welch clique, and the three baselines — implements
the unified protocol interface here, so one
:class:`~repro.core.protocol.SystemBuilder` composes any of them with
topologies, topology schedules, adversaries, and clock/delay
models, and every run returns one
:class:`~repro.core.protocol.ProtocolRunResult` shape.

The adapters deliberately delegate to the existing engine classes
(``FtgcsSystem``, ``LynchWelchSystem``, ``MasterSlaveSystem``,
``GcsSingleSystem``, ``SrikanthTouegSystem``) rather than re-wiring
nodes themselves: RNG stream consumption, event ordering, and
measurement cadence therefore stay *bit-identical* to the historical
per-algorithm paths — the property the experiment tables rely on.
Each system measures through one
:class:`~repro.analysis.sampling.SkewSampler`, and each adapter reads
its skew fields from ``system.sampler``: the FTGCS family and
master–slave drive it with its repeating kernel event, ``gcs_single``
and ``srikanth_toueg`` with its stop points, which add no kernel event.

Capability summary (which builder feature each engine realizes under
these flags is the composition table,
:data:`repro.core.protocol.FEATURES`):

============== ========= ============= ====== ========== ========== ======= =========
protocol       dynamic   first-contact churn  vectorized vec faults graph   params in
============== ========= ============= ====== ========== ========== ======= =========
ftgcs          yes       yes           yes    yes        yes        yes     ``.params``
lynch_welch    no        no            no     yes        no         no      ``.params``
master_slave   no        no            links  no         no         yes     ``.params``
gcs_single     yes       no            yes    yes        yes        yes     ``payload["params"]``
srikanth_toueg no        no            no     yes        yes        no      ``payload["params"]``
============== ========= ============= ====== ========== ========== ======= =========

Faults come from the adversary layer (:mod:`repro.faults.adversary`,
``SystemBuilder.adversary(...)``): on the event kernel it realizes
through each model's own driver (FTGCS family) or the native payload
knobs (``gcs_single`` equivocate → ``liars``,
``srikanth_toueg`` silent → ``silent_faults``), and on the vectorized
engine through per-round fault-vector injection for the protocols
declaring ``supports_vectorized_faults`` (``ftgcs``, ``gcs_single``,
``srikanth_toueg``).  Every adversarial run reports the uniform
``ProtocolRunResult.adversary`` counters block.

``churn = links`` — master–slave applies node churn as link silencing
only (a crashed slave stops hearing its master and coasts; its
estimator state survives the outage).  The full crash-with-amnesia
model needs a protocol bring-up path, which only ``ftgcs`` (the PR 4
first-contact machinery) and ``gcs_single`` (estimate amnesia plus
cadence re-anchor) implement.

``vectorized = yes`` — the protocol has a struct-of-arrays round model
in :mod:`repro.engine_vec.protocols`, selectable via
``SystemBuilder.engine("vectorized")`` (static topologies only; the
engines' equivalence contract is documented and enforced by
:mod:`repro.engine_vec.equivalence`).  Master–slave stays event-only:
its tree-slaved chase logic is estimator-cascade-ordered, not
round-structured.  ``vec faults = yes`` — the round model also injects
an adversary's per-round fault vectors; the Lynch–Welch round model
injects none, so a vectorized Lynch–Welch run rejects adversaries.

Every adapter also reports the fault-injection counters —
``messages_lost`` (random loss), ``dropped_link_down``,
``node_crashes``/``node_rejoins`` — via :func:`_fault_counters`, and
the sampler's ``stabilization_time`` where a local-skew series exists.

No adapter ignores a knob.  Each declares the keys it reads once, as a
:class:`~repro.core.protocol.Reads` beside its capability flags: the
FTGCS family reads the :class:`~repro.core.system.SystemConfig` field
names as ``config`` and no ``payload``; the three baselines read the
``payload`` keys their ``reads`` names (``required``: those a cell
must give) and no ``config``.
:func:`~repro.core.protocol.check_composition` compares a cell's keys
with that declaration (on the vectorized engine, with its round
model's) before anything is built, on every path a cell takes, so
``build_nodes`` reads its keys without checking them.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.baselines.gcs_single import GcsSingleSystem
from repro.baselines.lynch_welch import LynchWelchSystem
from repro.baselines.master_slave import MasterSlaveSystem
from repro.baselines.srikanth_toueg import SrikanthTouegSystem
from repro.core.protocol import (
    BuildContext,
    ProtocolRunResult,
    Reads,
    SyncProtocol,
    register_protocol,
)
from repro.core.system import FtgcsSystem, SystemConfig
from repro.errors import ConfigError
from repro.faults.adversary import (
    get_adversary,
    stride_placement,
    validate_event_support,
)
from repro.faults.placement import place_everywhere


def _fault_counters(protocol: SyncProtocol) -> dict:
    """The fault-injection fields shared by every adapter's result."""
    network = protocol.network
    return {
        "messages_lost": network.dropped_loss,
        "dropped_link_down": network.dropped_link_down,
        "node_crashes": protocol.node_crashes,
        "node_rejoins": protocol.node_rejoins,
        "adversary": protocol.adversary_counters,
    }


def _event_adversary(protocol: SyncProtocol, ctx: BuildContext):
    """Resolve ``ctx.adversary`` for an event-engine build.

    Returns the constructed model (or ``None``), records the uniform
    counters block on the protocol, and re-checks realizability — the
    builder validates eagerly, but direct ``BuildContext`` users get
    the same error here.
    """
    if ctx.adversary is None:
        return None
    model = get_adversary(**ctx.adversary)
    mechanism = validate_event_support(model, protocol.name)
    protocol.adversary_counters = {
        **model.spec(),
        "mechanism": mechanism,
        "engine": "event",
    }
    return model


def prepare_ftgcs_config(graph, params, config=None,
                         strategy_factory=None,
                         faults_per_cluster=None) -> SystemConfig:
    """Measurement defaults + fault placement for an FTGCS-family run.

    The single source of truth shared by the ``ftgcs``/``lynch_welch``
    protocols and the direct :func:`repro.harness.runner.run_scenario`
    path: sample interval defaults to a quarter round, the series and
    per-edge maxima are always recorded, and a factory of
    :class:`~repro.faults.adversary.AdversaryModel` instances places
    ``faults_per_cluster`` (default ``params.f``) faults in every
    cluster.  The passed ``config`` is never modified — defaults are
    applied to a private copy.
    """
    config = replace(config) if config is not None else SystemConfig()
    if config.sample_interval is None:
        config.sample_interval = params.round_length / 4.0
    config.record_series = True
    config.track_edges = True
    if strategy_factory is not None:
        per_cluster = (faults_per_cluster if faults_per_cluster
                       is not None else params.f)
        aug = graph.augment(params.cluster_size)
        config.byzantine = place_everywhere(aug, per_cluster,
                                            strategy_factory)
    return config


@register_protocol
class FtgcsProtocol(SyncProtocol):
    """The paper's fault-tolerant gradient construction.

    ``ctx.config`` carries :class:`~repro.core.system.SystemConfig`
    kwargs; a payload is rejected.  Measurement defaults match the
    historical ``run_scenario`` path: the sample interval defaults to
    a quarter round and the series/edge maxima are always recorded.
    """

    name = "ftgcs"
    supports_dynamic_topology = True
    supports_first_contact = True
    supports_node_churn = True
    supports_vectorized = True
    supports_vectorized_faults = True
    reads = Reads(config=tuple(f.name for f in fields(SystemConfig)))

    system_class = FtgcsSystem

    def _make_system(self, graph, params, seed,
                     config: SystemConfig) -> FtgcsSystem:
        return self.system_class.build(graph, params, seed=seed,
                                       config=config)

    def build_nodes(self, ctx: BuildContext) -> None:
        params = ctx.params
        factory = faults_per_cluster = None
        model = _event_adversary(self, ctx)
        if model is not None:
            # One fresh model per faulty node; its driver is the act
            # phase on this engine.
            factory = lambda _node: get_adversary(**ctx.adversary)
            faults_per_cluster = model.count
            self.adversary_counters.update(
                count=params.f if model.count is None else model.count)
        config = prepare_ftgcs_config(
            ctx.graph, params,
            config=SystemConfig(**ctx.config) if ctx.config else None,
            strategy_factory=factory,
            faults_per_cluster=faults_per_cluster)
        if ctx.first_contact:
            config.dynamic_estimators = True
        self.system = self._make_system(ctx.graph, params, ctx.seed,
                                        config)
        self.sim = self.system.sim
        self.network = self.system.network

    def start(self) -> None:
        self.system.start()

    def horizon(self) -> float:
        rounds = self.ctx.rounds
        if rounds < 1:
            raise ConfigError(f"rounds must be >= 1: {rounds!r}")
        width = self.system.config.init_jitter
        if width is None:
            width = self.system.params.cap_e / 4.0
        return (self.sim.now + self.system.schedule.round_start(rounds + 1)
                + width + 1.0)

    def collect(self) -> ProtocolRunResult:
        result = self.system.result()
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=result.max_global_skew,
            max_local_skew=result.max_local_cluster_skew,
            series=result.series, edge_maxima=result.edge_maxima,
            messages_sent=result.messages_sent,
            messages_dropped=self.network.messages_dropped,
            events_processed=result.events_processed,
            reannounce_cap_hits=result.reannounce_cap_hits,
            stabilization_time=result.stabilization_time,
            **_fault_counters(self),
            detail=result)

    def edge_links(self, a: int, b: int) -> tuple:
        graph = self.system.graph
        return tuple((na, nb) for na in graph.members(a)
                     for nb in graph.members(b))

    def cluster_nodes(self, cluster: int) -> tuple:
        return self.system.graph.members(cluster)

    def apply_edge_event(self, edge, active) -> None:
        # Links first, then the first-contact notification, so nodes
        # reacting to the event (max-pulse re-announcement) see the
        # link in its new state.
        super().apply_edge_event(edge, active)
        self.system.notify_cluster_edge(edge, active)

    def apply_node_event(self, cluster, alive,
                         drop_in_flight: bool = False) -> None:
        # Crash: links down first so the dying cluster's final pulses
        # cannot leak out, then the engine-level crash (state loss).
        # Rejoin: links up first so the bring-up path can immediately
        # hear live neighbors, then the amnesiac restart.
        if alive:
            self._apply_node_links(cluster, True)
            self.system.rejoin_cluster(cluster)
        else:
            self._apply_node_links(cluster, False,
                                   drop_in_flight=drop_in_flight)
            self.system.crash_cluster(cluster)

    def analysis_system(self) -> FtgcsSystem:
        return self.system


@register_protocol
class LynchWelchProtocol(FtgcsProtocol):
    """The amortized Lynch–Welch clique algorithm, standalone.

    Graph-free: the topology defaults to a single cluster
    (``ClusterGraph.line(1)``); passing a multi-cluster graph is an
    error.  Everything else — faults, config, measurement — matches
    the FTGCS protocol on that single cluster exactly.
    """

    name = "lynch_welch"
    needs_graph = False
    supports_dynamic_topology = False
    supports_first_contact = False  # single cluster: no estimators
    supports_node_churn = False  # crashing the only cluster ends the run
    supports_vectorized = True  # classic trimmed approximate agreement
    supports_vectorized_faults = False  # VecLynchWelch injects nothing

    system_class = LynchWelchSystem

    def _make_system(self, graph, params, seed,
                     config: SystemConfig) -> LynchWelchSystem:
        return LynchWelchSystem(params, config=config, seed=seed,
                                cluster_graph=graph)

    def build_nodes(self, ctx: BuildContext) -> None:
        if ctx.graph is None:
            from repro.topology.cluster_graph import ClusterGraph

            ctx = replace(ctx, graph=ClusterGraph.line(1))
            self.ctx = ctx
        super().build_nodes(ctx)


@register_protocol
class MasterSlaveProtocol(SyncProtocol):
    """Tree-slaved master–slave synchronization (fault-free baseline).

    ``payload`` knobs (all :class:`MasterSlaveSystem` constructor
    kwargs): ``rounds`` (default ``ctx.rounds``), ``root``,
    ``chase_threshold``, ``rate_model``, ``flip_period_rounds``,
    ``cluster_offsets``, ``jump``, ``record_series``, ``track_edges``.

    Node churn is applied as *link silencing only*: a "crashed" slave
    keeps its clock and estimator state and simply stops hearing (and
    being heard); on rejoin it resumes chasing from wherever its coasted
    clock drifted to.  This is the weaker churn model — master–slave has
    no bring-up path to lose state through — and is documented as such
    in the capability table.
    """

    name = "master_slave"
    supports_dynamic_topology = False
    supports_node_churn = True
    supports_first_contact = False
    supports_vectorized = False  # event-only; chasing is not a round
    supports_vectorized_faults = False
    reads = Reads(payload=("rounds", "root", "chase_threshold",
                           "rate_model", "flip_period_rounds",
                           "cluster_offsets", "jump", "record_series",
                           "track_edges"))

    def build_nodes(self, ctx: BuildContext) -> None:
        payload = dict(ctx.payload)
        self.rounds = payload.pop("rounds", ctx.rounds)
        self.system = MasterSlaveSystem(ctx.graph, ctx.params,
                                        seed=ctx.seed, **payload)
        self.sim = self.system.sim
        self.network = self.system.network

    def start(self) -> None:
        self.system.start()

    def horizon(self) -> float:
        return self.system.run_horizon(self.rounds)

    def advance(self, until: float) -> None:
        self.sim.run(until)
        self.system.sampler.sample_now()

    def collect(self) -> ProtocolRunResult:
        sampler = self.system.sampler
        maxima = sampler.maxima
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=maxima.global_skew,
            max_local_skew=maxima.local_cluster,
            series=sampler.series,
            edge_maxima=dict(maxima.edge_maxima),
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            events_processed=self.sim.events_processed,
            stabilization_time=sampler.stabilization_time(),
            **_fault_counters(self),
            # A snapshot: a later run keeps updating the live maxima.
            detail=replace(maxima, edge_maxima=dict(maxima.edge_maxima)))

    def edge_links(self, a: int, b: int) -> tuple:
        aug = self.system.aug
        return tuple((na, nb) for na in aug.members(a)
                     for nb in aug.members(b))

    def cluster_nodes(self, cluster: int) -> tuple:
        return self.system.aug.members(cluster)

    def apply_node_event(self, cluster, alive,
                         drop_in_flight: bool = False) -> None:
        self._apply_node_links(cluster, alive,
                               drop_in_flight=drop_in_flight)


@register_protocol
class GcsSingleProtocol(SyncProtocol):
    """The fault-INtolerant GCS baseline, one node per cluster vertex.

    ``payload``: ``params`` (a :class:`GcsParams`, required), ``until``
    (run horizon, required), ``liars`` (``{node: {neighbor: +-1}}``),
    ``liar_bias``, ``liar_ramp``, ``rate_spread``, ``sample_interval``.
    ``series``/``detail`` are
    the ``(t, local_skew, global_skew)`` sample list, with local skew
    measured over currently *active* correct edges: the sampler is
    given the edge set again after every edge event, crash and rejoin.
    """

    name = "gcs_single"
    supports_dynamic_topology = True
    supports_node_churn = True
    supports_first_contact = False  # single-node clusters: no estimators
    supports_vectorized = True
    supports_vectorized_faults = True
    needs_params = False
    reads = Reads(payload=("params", "until", "sample_interval", "liars",
                           "rate_spread", "liar_bias", "liar_ramp"),
                  required=("params", "until"))

    def build_nodes(self, ctx: BuildContext) -> None:
        payload = dict(ctx.payload)
        gcs_params = payload.pop("params")
        self.until = payload.pop("until")
        model = _event_adversary(self, ctx)
        if model is not None:
            # Equivocation realized through the protocol's native
            # liars mechanism: the same strided placement the
            # vectorized runtime uses, each liar showing even-id
            # neighbors +amplitude and odd-id ones -amplitude
            # (bias=amplitude, no ramp).
            if payload.get("liars"):
                raise ConfigError(
                    "compose either payload liars or .adversary(...), "
                    "not both")
            n = ctx.graph.num_clusters
            amplitude = (model.amplitude if model.amplitude is not None
                         else 4.0 * gcs_params.kappa)
            count = (model.count if model.count is not None
                     else max(1, min(n - 1, n // 20)))
            liars = {}
            graph = ctx.graph
            for node in stride_placement(n, count).tolist():
                directions = {nb: (1 if nb % 2 == 0 else -1)
                              for nb in graph.neighbors(node)}
                liars[node] = directions
            payload["liars"] = liars
            payload["liar_bias"] = amplitude
            payload["liar_ramp"] = 0.0
            self.adversary_counters.update(count=len(liars),
                                           amplitude=amplitude)
        self.system = GcsSingleSystem(ctx.graph, gcs_params,
                                      seed=ctx.seed, **payload)
        self.sim = self.system.sim
        self.network = self.system.network

    def start(self) -> None:
        self.system.start()

    def horizon(self) -> float:
        return self.until

    def advance(self, until: float) -> None:
        self.samples = self.system.run(until)

    def collect(self) -> ProtocolRunResult:
        sampler = self.system.sampler
        samples = self.samples
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=sampler.maxima.global_skew,
            max_local_skew=sampler.maxima.local_node,
            series=samples,
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            events_processed=self.sim.events_processed,
            stabilization_time=sampler.stabilization_time(),
            **_fault_counters(self),
            detail=samples)

    def apply_edge_event(self, edge, active) -> None:
        # Links first, so the sampler is given the new edge set.
        super().apply_edge_event(edge, active)
        self.system.measure()

    def apply_node_event(self, cluster, alive,
                         drop_in_flight: bool = False) -> None:
        # One node per vertex: the default cluster_nodes mapping holds.
        if alive:
            self._apply_node_links(cluster, True)
            self.system.rejoin_node(cluster)
        else:
            self._apply_node_links(cluster, False,
                                   drop_in_flight=drop_in_flight)
            self.system.crash_node(cluster)


@register_protocol
class SrikanthTouegProtocol(SyncProtocol):
    """Srikanth–Toueg propose-and-pull on a clique (topology-free).

    ``payload``: ``params`` (an :class:`StParams`, required; carries
    ``n`` so no graph is involved), ``rounds`` (default
    ``ctx.rounds``), ``silent_faults``, ``rate_spread``,
    ``sample_interval``.  The uniform skews both report the max
    observed clique skew (``detail`` holds the same float).
    """

    name = "srikanth_toueg"
    needs_graph = False
    needs_params = False
    supports_dynamic_topology = False  # clique broadcast has no topology
    supports_node_churn = False
    supports_first_contact = False
    supports_vectorized = True
    supports_vectorized_faults = True
    reads = Reads(payload=("params", "rounds", "sample_interval",
                           "silent_faults", "rate_spread"),
                  required=("params",))

    def build_nodes(self, ctx: BuildContext) -> None:
        payload = dict(ctx.payload)
        st_params = payload.pop("params")
        model = _event_adversary(self, ctx)
        if model is not None:
            # Silence realized through the protocol's native
            # silent_faults mechanism (first ``count <= f`` members).
            if payload.get("silent_faults"):
                raise ConfigError(
                    "compose either payload silent_faults or "
                    ".adversary(...), not both")
            count = (model.count if model.count is not None
                     else max(st_params.f, 1))
            if count > st_params.f:
                raise ConfigError(
                    f"adversary count {count} exceeds the clique "
                    f"fault budget f={st_params.f}")
            payload["silent_faults"] = count
            self.adversary_counters.update(count=count)
        self.rounds = payload.pop("rounds", ctx.rounds)
        self.system = SrikanthTouegSystem(st_params, seed=ctx.seed,
                                          **payload)
        self.sim = self.system.sim
        self.network = self.system.network

    def start(self) -> None:
        self.system.start()

    def horizon(self) -> float:
        return (self.rounds + 1) * self.system.params.period

    def advance(self, until: float) -> None:
        self.system.run_until(until)

    def collect(self) -> ProtocolRunResult:
        skew = self.system.sampler.maxima.global_skew
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=skew, max_local_skew=skew,
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            events_processed=self.sim.events_processed,
            **_fault_counters(self),
            detail=skew)


__all__ = [
    "FtgcsProtocol",
    "GcsSingleProtocol",
    "LynchWelchProtocol",
    "MasterSlaveProtocol",
    "SrikanthTouegProtocol",
]
