"""The unified protocol API: one surface for every algorithm.

Historically each algorithm in this library shipped its own bespoke
system class (``FtgcsSystem``, ``MasterSlaveSystem``,
``GcsSingleSystem``, ``SrikanthTouegSystem``, plus function-only
Lynch–Welch) with incompatible constructors, run loops, and result
types.  This module defines the common surface they all now implement:

``SyncProtocol``
    The algorithm adapter interface: :meth:`~SyncProtocol.build_nodes`
    wires nodes/drivers onto a simulation substrate,
    :meth:`~SyncProtocol.start` arms them, :meth:`~SyncProtocol.advance`
    drives the kernel, and :meth:`~SyncProtocol.collect` returns one
    uniform :class:`ProtocolRunResult`.  Class-level capability flags
    (``supports_dynamic_topology``, ``needs_graph``, ``needs_params``,
    ...) declare what a protocol can compose with.

``FEATURES`` / :func:`check_composition`
    The composition policy as one table: per builder feature, what
    each engine needs to realize it.  ``SystemBuilder.build`` and the
    spec check of :mod:`repro.harness.scenario` both evaluate it, so a
    composition is rejected eagerly the same way on every path.

``SystemBuilder``
    Composes protocol x topology x faults x clock/delay models into a
    generic :class:`System`:

    >>> from repro.core.protocol import SystemBuilder
    >>> from repro import ClusterGraph, Parameters
    >>> params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
    >>> system = (SystemBuilder("ftgcs")
    ...           .topology(ClusterGraph.line(3)).params(params)
    ...           .rounds(5).adversary("equivocate").seed(7).build())
    >>> result = system.run()
    >>> result.protocol
    'ftgcs'

``System``
    The generic runtime: applies the
    :class:`~repro.topology.schedule.TopologySchedule` edge events
    through the kernel (so edges appear/disappear mid-run for
    protocols that support it), starts the protocol, drives it to its
    horizon, and collects the result.

``PROTOCOLS`` / :func:`register_protocol`
    Name-addressable registry, the analogue of the sweep engine's cell
    kinds.  The five built-in protocols live in :mod:`repro.protocols`
    and load lazily on first lookup; custom protocols registered
    outside the library are visible to pool workers only under the
    ``fork`` start method (same caveat as custom cell kinds).

The sweep engine's generic ``"protocol"`` cell kind is a thin picklable
frontend over this module: a
:class:`~repro.harness.sweep.ScenarioSpec` names the protocol, the
topology (and optional schedule), parameters, faults, and payload, and
the worker rebuilds the system here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.errors import ConfigError
from repro.topology.cluster_graph import ClusterGraph
from repro.topology.schedule import TopologySchedule

#: Execution backends a system can compile to: ``"event"``, the
#: discrete-event kernel (full per-message fidelity), and
#: ``"vectorized"``, the numpy struct-of-arrays round engine
#: (:mod:`repro.engine_vec`, million-node scale).  What each realizes
#: is :data:`FEATURES`.
ENGINES = ("event", "vectorized")


@dataclass(frozen=True)
class BuildContext:
    """Everything a protocol needs to build its nodes, by value.

    The builder assembles this; protocols read from it in
    :meth:`SyncProtocol.build_nodes`.  ``config`` carries
    protocol-family configuration (for the FTGCS family these are
    :class:`~repro.core.system.SystemConfig` kwargs), ``payload``
    carries protocol-specific knobs (e.g. the master–slave ``jump``
    flag, the GCS baseline's ``GcsParams``).
    """

    graph: ClusterGraph | None = None
    schedule: TopologySchedule | None = None
    params: Any = None
    rounds: int = 1
    seed: int = 0
    #: First-contact estimator bring-up (requires the protocol's
    #: ``supports_first_contact`` capability).
    first_contact: bool = False
    #: Message-loss spec (``{"kind": ..., **kwargs}``; see
    #: :mod:`repro.net.loss`) or ``None`` for the reliable wire.
    loss: dict | None = None
    config: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    #: Engine-agnostic adversary spec (``{"name": ..., **kwargs}``, see
    #: :data:`repro.faults.adversary.ADVERSARIES`) or ``None``; its
    #: ``count`` knob sets how many nodes it controls.
    adversary: dict | None = None


@dataclass
class ProtocolRunResult:
    """The one result shape every protocol run produces.

    ``max_global_skew`` / ``max_local_skew`` are the uniform headline
    measurements (local = worst skew across an adjacent cluster-level
    pair); every event adapter fills them, ``series`` and
    ``stabilization_time`` from its system's one
    :class:`~repro.analysis.sampling.SkewSampler`.  ``series`` holds
    the protocol's sample series — its element
    shape is protocol-specific (``SkewSnapshot`` objects for the FTGCS
    family, ``(t, local, global)`` tuples for the GCS baseline) but is
    always picklable and time-ordered.  ``detail`` preserves the
    protocol-native result object (a
    :class:`~repro.core.system.RunResult` for FTGCS/Lynch–Welch, a copy
    of the sampler's ``SkewMaxima`` for master–slave, the sample list
    for GCS, the max-skew float for Srikanth–Toueg) for analyses that
    need more than the uniform fields.  A result is a snapshot: a
    later ``System.run(until=...)`` leaves it unchanged.
    """

    protocol: str
    seed: int
    max_global_skew: float = 0.0
    max_local_skew: float = 0.0
    series: list = field(default_factory=list)
    edge_maxima: dict[tuple[int, int], float] = field(default_factory=dict)
    messages_sent: int = 0
    #: Total messages dropped, all causes (deactivated links, loss
    #: model, in-flight quarantine); every adapter's
    #: :meth:`SyncProtocol.collect` fills it from its network, so
    #: dynamic-run message accounting is uniform.
    messages_dropped: int = 0
    #: Drops by a deactivated link specifically (0 on static
    #: topologies).
    dropped_link_down: int = 0
    #: Messages eaten by the attached loss model (0 on a reliable
    #: wire).
    messages_lost: int = 0
    #: Node churn accounting: crash / rejoin-with-amnesia events
    #: applied during the run (0 without a node-churn schedule).
    node_crashes: int = 0
    node_rejoins: int = 0
    #: Time after which the *local* skew series stays inside its
    #: steady band (see ``repro.analysis.metrics.stabilization_time``);
    #: ``inf`` when the run never settles, ``None`` when the protocol
    #: produced no local-skew series to measure.
    stabilization_time: float | None = None
    events_processed: int = 0
    #: Max-estimate re-announcements truncated by the configured level
    #: cap (``SystemConfig.max_reannounce_levels``); only the FTGCS
    #: family can produce them, every other adapter reports 0.  A
    #: nonzero count means the global-skew estimate decode ran as an
    #: underestimate after some link bring-up (sound but lossy).
    reannounce_cap_hits: int = 0
    #: Uniform adversary counters block (``None`` on adversary-free
    #: runs): the resolved model spec plus ``count``, ``amplitude``,
    #: ``mechanism``, and — on the vectorized engine — the injection
    #: totals (``rounds_acted``, ``injected_abs_max``/``_sum``,
    #: ``silenced_slots``).
    adversary: dict | None = None
    detail: Any = None


class SyncProtocol:
    """Base class and interface contract for synchronization protocols.

    Lifecycle (driven by :class:`System`):

    1. :meth:`build_nodes` — construct the substrate (simulator,
       network, clocks, nodes) from a :class:`BuildContext`; must set
       ``self.sim`` and ``self.network``.
    2. :meth:`start` — arm all nodes/drivers/samplers.
    3. :meth:`advance` — drive the kernel to an absolute horizon
       (protocols that sample between kernel runs override this).
    4. :meth:`collect` — snapshot measurements into a
       :class:`ProtocolRunResult`.

    Capability flags are *declarations* checked by the builder before
    any construction happens, so incompatible compositions fail fast
    with a message naming the protocol.
    """

    #: Registry name (must be unique; set by subclasses).
    name: str = ""
    #: Tolerates mid-run edge activation changes (TopologySchedule).
    supports_dynamic_topology: bool = False
    #: Tolerates whole-node crash/rejoin events
    #: (:class:`~repro.topology.schedule.NodeChurnSchedule`): the
    #: protocol implements :meth:`apply_node_event` so a crashed node
    #: goes dark and a rejoining node re-initializes with amnesia.
    supports_node_churn: bool = False
    #: Supports first-contact estimator bring-up
    #: (``SystemBuilder.first_contact()``): per-neighbor estimator
    #: state follows the live edge set instead of being frozen at
    #: build time from the union graph.
    supports_first_contact: bool = False
    #: Has a vectorized round model registered in
    #: :data:`repro.engine_vec.protocols.VEC_PROTOCOLS`, so
    #: ``SystemBuilder.engine("vectorized")`` can compile it to the
    #: struct-of-arrays engine.
    supports_vectorized: bool = False
    #: The vectorized round model additionally accepts per-round
    #: fault-vector injection from an
    #: :class:`~repro.faults.adversary.AdversaryModel`
    #: (``SystemBuilder.adversary(...)`` on ``engine("vectorized")``).
    supports_vectorized_faults: bool = False
    #: Requires a cluster graph (clique-only protocols set False).
    needs_graph: bool = True
    #: Requires ``BuildContext.params`` (protocols whose parameters
    #: travel in ``payload`` set False).
    needs_params: bool = True

    def __init__(self) -> None:
        self.sim = None
        self.network = None
        self.ctx: BuildContext | None = None
        #: Node-churn accounting, incremented by the generic system as
        #: it applies schedule node events; adapters copy them into
        #: :class:`ProtocolRunResult` in :meth:`collect`.
        self.node_crashes = 0
        self.node_rejoins = 0
        #: Uniform adversary counters (adapters fill it in
        #: ``build_nodes`` when ``ctx.adversary`` is set and copy it
        #: into :class:`ProtocolRunResult` in ``collect``).
        self.adversary_counters: dict | None = None
        #: Network node ids currently down due to node churn; rejoin
        #: link restoration skips links whose far end is still here.
        self._crashed_net_nodes: set[int] = set()

    # -- lifecycle ------------------------------------------------------

    def build_nodes(self, ctx: BuildContext) -> None:
        """Construct the full substrate; must set ``sim``/``network``."""
        raise NotImplementedError

    def start(self) -> None:
        """Arm every node, driver, and sampler."""
        raise NotImplementedError

    def horizon(self) -> float:
        """Absolute kernel time this protocol's run should reach."""
        raise NotImplementedError

    def advance(self, until: float) -> None:
        """Drive the kernel to ``until`` (override to interleave
        sampling)."""
        self.sim.run(until)

    def collect(self) -> ProtocolRunResult:
        """Snapshot measurements into the uniform result shape."""
        raise NotImplementedError

    # -- topology plumbing ----------------------------------------------

    def edge_links(self, a: int, b: int) -> tuple:
        """Network links realizing cluster edge ``(a, b)``.

        The generic system maps topology-schedule events through this:
        protocols on the augmented node graph return the full ``k x k``
        bipartite link set; cluster-level protocols return the edge
        itself (the default).
        """
        return ((a, b),)

    def apply_edge_event(self, edge: tuple[int, int],
                         active: bool) -> None:
        """Apply one topology-schedule edge event to the live system.

        The default toggles every network link realizing the cluster
        edge.  Protocols with per-neighbor state that must track the
        live edge set (first-contact estimator bring-up) override this
        to additionally notify their nodes — after calling ``super()``
        so links are already in their new state when nodes react.
        """
        for a, b in self.edge_links(*edge):
            self.network.set_link_active(a, b, active)

    def apply_node_event(self, cluster: int, alive: bool,
                         drop_in_flight: bool = False) -> None:
        """Apply one node churn event to the live system.

        ``alive=False`` crashes the whole cluster node: every incident
        link goes down (optionally quarantining in-flight traffic) and
        the node's volatile state is lost.  ``alive=True`` rejoins it
        *with amnesia*: links come back and the node re-initializes
        through its bring-up path.  Protocols declaring
        ``supports_node_churn`` must override this; the base raises so
        a capability-flag mismatch can never half-apply churn.
        """
        raise ConfigError(
            f"protocol {self.name!r} does not implement node churn")

    def cluster_nodes(self, cluster: int) -> tuple:
        """Network node ids realizing topology vertex ``cluster``.

        Cluster-level protocols are one node per vertex (the default);
        protocols on the augmented node graph override this with the
        cluster's member set.
        """
        return (cluster,)

    def _apply_node_links(self, cluster: int, alive: bool,
                          drop_in_flight: bool = False) -> None:
        """Toggle every link incident to a crashing/rejoining vertex.

        Crash downs all incident links (optionally quarantining
        in-flight messages); rejoin brings them back *except* links
        whose far end belongs to a vertex that is itself still crashed
        — those stay dark until that vertex rejoins too.
        """
        members = self.cluster_nodes(cluster)
        if alive:
            self._crashed_net_nodes.difference_update(members)
            for node in members:
                for neighbor in self.network.neighbors(node):
                    if neighbor in self._crashed_net_nodes:
                        continue
                    self.network.set_link_active(node, neighbor, True)
        else:
            self._crashed_net_nodes.update(members)
            for node in members:
                for neighbor in self.network.neighbors(node):
                    self.network.set_link_active(
                        node, neighbor, False,
                        drop_in_flight=drop_in_flight)

    def analysis_system(self):
        """The live object in-worker collectors operate on.  Collector
        support is this override (the collectors row of
        :data:`FEATURES`), so an override returns that object; the
        base returns ``None``."""
        return None


# ----------------------------------------------------------------------
# Composition policy
# ----------------------------------------------------------------------

class Feature(NamedTuple):
    """One :data:`FEATURES` row: the :func:`check_composition` keyword
    carrying a builder feature, the :class:`BuildContext` field it
    reaches the protocol through (``None``: the sweep worker realizes
    it), what rejections call it, and what each engine needs."""

    name: str
    field: str | None
    what: str
    event: Any
    vectorized: Any


def _event_adversary(protocol: type[SyncProtocol], model) -> None:
    from repro.faults.adversary import validate_event_support

    validate_event_support(model, protocol.name)


def _vectorized_adversary(protocol: type[SyncProtocol], model) -> None:
    if not protocol.supports_vectorized_faults:
        raise ConfigError(
            f"protocol {protocol.name!r} does not support vectorized "
            f"fault injection (supports_vectorized_faults is False)")
    if not model.supports_vectorized:
        raise ConfigError(
            f"adversary {model.name!r} has no vectorized realization; "
            f"use the event engine")


def _collectors(protocol: type[SyncProtocol], _collect) -> None:
    # Collectors walk analysis_system(): a derived capability.
    if protocol.analysis_system is SyncProtocol.analysis_system:
        raise ConfigError(
            f"protocol {protocol.name!r} does not support in-worker "
            f"collectors")


#: The composition policy: per builder feature, what the event kernel
#: and the vectorized engine need to realize it -- a capability flag
#: the protocol must set, ``True`` (every protocol), ``False`` (no
#: protocol) or a check ``(protocol class, value)`` that raises.
FEATURES = (
    Feature("adversary", "adversary", "adversaries",
            _event_adversary, _vectorized_adversary),
    Feature("edge_events", "schedule", "dynamic topologies",
            "supports_dynamic_topology", False),
    Feature("node_events", "schedule", "node churn",
            "supports_node_churn", False),
    Feature("first_contact", "first_contact",
            "first-contact estimator bring-up",
            "supports_first_contact", False),
    Feature("loss", "loss", "loss models", True, False),
    Feature("collectors", None, "in-worker collectors",
            _collectors, False),
)


def check_composition(protocol: type[SyncProtocol] | None, engine: str,
                      **features) -> None:
    """Evaluate :data:`FEATURES`: raise :class:`~repro.errors.ConfigError`
    unless ``engine`` realizes every feature under ``protocol``.

    ``features`` is keyed by row name, falsy meaning absent:
    ``adversary`` and ``loss`` are their specs, the rest flags.  The
    feature values are checked first, for any ``protocol``: the
    adversary model is constructed (on either engine) and the loss
    spec validated, so bad knobs fail here too.  ``protocol`` ``None``
    (a cell that runs no registered protocol) stops there.  Nothing is
    built.
    """
    if features.get("adversary"):
        from repro.faults.adversary import get_adversary

        spec = features["adversary"]
        try:
            features["adversary"] = get_adversary(**spec)
        except TypeError:
            raise ConfigError(
                f"adversary spec must be a dict with a string 'name': "
                f"{spec!r}") from None
    if features.get("loss"):
        from repro.net.loss import validate_loss_spec

        validate_loss_spec(features["loss"])
    if protocol is None:
        return
    if engine == "vectorized" and not protocol.supports_vectorized:
        raise ConfigError(
            f"protocol {protocol.name!r} has no vectorized port "
            f"(supports_vectorized is False)")
    for row in FEATURES:
        need = row.vectorized if engine == "vectorized" else row.event
        value = features.get(row.name)
        if not value or need is True:
            continue
        if need is False:
            raise ConfigError(
                f"the {engine} engine does not support {row.what}: it "
                f"runs static topologies with per-round fault "
                f"injection only; use the event engine")
        if callable(need):
            need(protocol, value)
        elif not getattr(protocol, need):
            raise ConfigError(
                f"protocol {protocol.name!r} does not support "
                f"{row.what} ({need} is False)")


def reject_unknown(mapping: dict, allowed: tuple, what: str,
                   protocol: str, engine: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` naming every key of
    ``mapping`` (a ``config`` or ``payload`` dict, per ``what``) that
    ``protocol`` on ``engine`` does not read, so no knob is silently
    ignored."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{protocol} on the {engine} engine does not accept {what} "
            f"key(s) {unknown}; supported: {sorted(allowed)}")


class System:
    """A generic, protocol-agnostic synchronization system.

    Construction builds the protocol's nodes immediately (so analysis
    code can inspect the substrate before running); :meth:`run` applies
    the topology schedule, starts the protocol, drives it, and
    collects.
    """

    def __init__(self, protocol: SyncProtocol, ctx: BuildContext) -> None:
        self.protocol = protocol
        self.ctx = ctx
        protocol.ctx = ctx
        protocol.build_nodes(ctx)
        if protocol.sim is None:
            raise ConfigError(
                f"protocol {protocol.name!r} did not set .sim in "
                f"build_nodes")
        if ctx.loss:
            # Uniform loss attachment: every adapter exposes .network,
            # and the model owns its own derived stream so delay/fault
            # streams are untouched (opt-out-by-construction).
            import random as _random

            from repro.net.loss import build_loss_model
            from repro.sim.rng import derive_seed
            protocol.network.set_loss_model(build_loss_model(
                ctx.loss,
                _random.Random(derive_seed(ctx.seed, "net/loss"))))
        self._started = False
        self._schedule_horizon: float | None = None
        self._schedule_events_applied = 0
        self._node_events_applied = 0

    def _set_edge(self, edge: tuple[int, int], active: bool) -> None:
        self.protocol.apply_edge_event(edge, active)

    def _set_node(self, cluster: int, alive: bool,
                  drop_in_flight: bool) -> None:
        self.protocol.apply_node_event(cluster, alive,
                                       drop_in_flight=drop_in_flight)
        if alive:
            self.protocol.node_rejoins += 1
        else:
            self.protocol.node_crashes += 1

    def _apply_schedule(self, horizon: float) -> None:
        """Schedule edge events up to ``horizon`` (incremental).

        Schedule event streams are deterministic prefixes — a longer
        horizon re-derives the same leading events — so extending a
        run past the previously applied horizon only enqueues the new
        suffix.  The already-applied prefix is skipped *by index*, not
        by timestamp: a horizon-boundary tick's timestamp is clamped
        to the horizon it was derived for, so re-deriving it under a
        longer horizon yields the same event at a (few ulps) different
        time — an index cursor cannot be fooled into enqueueing that
        event twice.  Safe to call repeatedly.
        """
        schedule = self.ctx.schedule
        if schedule is None or schedule.is_static:
            return
        applied = self._schedule_horizon
        if applied is not None and horizon <= applied:
            return
        seed = self.ctx.seed
        drop = bool(getattr(schedule, "drop_in_flight", False))
        if applied is None:
            for edge in schedule.initial_down(seed):
                self._set_edge(edge, False)
            for cluster in schedule.initial_crashed(seed):
                self._set_node(cluster, False, drop)
        sim = self.protocol.sim
        events = schedule.events(horizon, seed)
        for time, edge, active in events[self._schedule_events_applied:]:
            sim.call_at(time, self._set_edge, edge, active)
        self._schedule_events_applied = len(events)
        node_events = schedule.node_events(horizon, seed)
        for time, cluster, alive in node_events[
                self._node_events_applied:]:
            sim.call_at(time, self._set_node, cluster, alive, drop)
        self._node_events_applied = len(node_events)
        self._schedule_horizon = horizon

    def start(self, horizon: float | None = None) -> None:
        """Apply schedule events up to ``horizon`` and arm the
        protocol."""
        if self._started:
            raise ConfigError("system already started")
        self._started = True
        self._apply_schedule(self.protocol.horizon()
                             if horizon is None else horizon)
        self.protocol.start()

    def run(self, until: float | None = None) -> ProtocolRunResult:
        """Start (if needed), drive to ``until`` (default: the
        protocol's own horizon), and collect the uniform result."""
        if until is None:
            until = self.protocol.horizon()
        if not self._started:
            self.start(until)
        else:
            # A run extending past the horizon applied at start time
            # needs the schedule's event suffix enqueued first.
            self._apply_schedule(until)
        self.protocol.advance(until)
        return self.protocol.collect()


class SystemBuilder:
    """Fluent composition of protocol x topology x faults x models.

    Methods mutate and return the builder (it is consumed once by
    :meth:`build`); see the module docstring for a worked example.
    Validation is eager where possible: unknown protocol names fail in
    the constructor, capability violations fail in :meth:`build`
    before any node is constructed.
    """

    def __init__(self, protocol: str | SyncProtocol | type) -> None:
        if isinstance(protocol, str):
            protocol = get_protocol(protocol)()
        elif isinstance(protocol, type) and issubclass(protocol,
                                                       SyncProtocol):
            protocol = protocol()
        elif not isinstance(protocol, SyncProtocol):
            raise ConfigError(
                f"protocol must be a name, SyncProtocol subclass, or "
                f"instance: {protocol!r}")
        self._protocol = protocol
        self._engine = "event"
        self._graph: ClusterGraph | None = None
        self._schedule: TopologySchedule | None = None
        self._params = None
        self._rounds = 1
        self._seed = 0
        self._adversary: dict | None = None
        self._first_contact = False
        self._loss: dict | None = None
        self._config: dict = {}
        self._payload: dict = {}

    # -- composition ----------------------------------------------------

    def topology(self, graph: ClusterGraph | TopologySchedule
                 ) -> "SystemBuilder":
        """Attach the cluster graph, or a topology schedule (whose
        base graph is used and whose events drive link activation)."""
        if isinstance(graph, TopologySchedule):
            self._schedule = graph
            self._graph = graph.graph
        elif isinstance(graph, ClusterGraph):
            self._graph = graph
        else:
            raise ConfigError(
                f"topology must be a ClusterGraph or TopologySchedule: "
                f"{graph!r}")
        return self

    def engine(self, name: str) -> "SystemBuilder":
        """Select the execution backend (one of :data:`ENGINES`).

        ``"event"`` (the default) builds the discrete-event
        :class:`System`; ``"vectorized"`` compiles the composition to
        the numpy round engine (:mod:`repro.engine_vec`); which
        features each engine realizes is :data:`FEATURES`.
        """
        if name not in ENGINES:
            raise ConfigError(
                f"unknown engine {name!r}; known: {list(ENGINES)}")
        self._engine = name
        return self

    def params(self, params) -> "SystemBuilder":
        self._params = params
        return self

    def rounds(self, rounds: int) -> "SystemBuilder":
        self._rounds = rounds
        return self

    def seed(self, seed: int) -> "SystemBuilder":
        self._seed = seed
        return self

    def adversary(self, name: str, **kwargs) -> "SystemBuilder":
        """Attach an engine-agnostic adversary model (resolved via
        :data:`repro.faults.adversary.ADVERSARIES`).

        An adversary composes with *both* engines: per-round
        fault-vector injection on ``engine("vectorized")`` (protocols
        declaring ``supports_vectorized_faults``), the model's own
        driver on each faulty node (FTGCS family) or the protocol's
        native fault mechanism on the event kernel.  ``kwargs`` are
        the budget knobs (``amplitude``, ``count``) plus model
        specifics such as ``crash_time``, checked at :meth:`build`;
        ``.adversary(None)`` clears.
        """
        if name is None:
            self._adversary = None
            return self
        self._adversary = {"name": name, **kwargs}
        return self

    def first_contact(self, enabled: bool = True) -> "SystemBuilder":
        """Enable first-contact estimator bring-up: per-neighbor
        estimator state follows the live edge set (dormant while a
        link is down at start, brought up on first contact, warm-up
        rule before entering the trigger aggregation).  Checked
        against the protocol's ``supports_first_contact`` flag."""
        self._first_contact = bool(enabled)
        return self

    def lossy(self, kind: str = "bernoulli", **kwargs) -> "SystemBuilder":
        """Attach a message-loss model (fault injection).

        ``kind`` and kwargs follow :func:`repro.net.loss.
        build_loss_model` — e.g. ``.lossy(rate=0.05)`` for 5%
        Bernoulli loss, or ``.lossy("burst", p_g2b=0.05, p_b2g=0.3,
        p_bad=0.8)`` for Gilbert–Elliott bursts.  Checked at
        :meth:`build`, so a bad rate fails before any node is built.
        ``.lossy(None)`` clears.
        """
        self._loss = None if kind is None else {"kind": kind, **kwargs}
        return self

    def configure(self, **config) -> "SystemBuilder":
        """Merge protocol-family configuration (FTGCS family:
        :class:`~repro.core.system.SystemConfig` kwargs, including
        ``rate_model``/``delay_model`` specs)."""
        self._config.update(config)
        return self

    def payload(self, **payload) -> "SystemBuilder":
        """Merge protocol-specific knobs."""
        self._payload.update(payload)
        return self

    # -- compilation ----------------------------------------------------

    def build(self) -> "System":
        """Validate capabilities and construct the system.

        Returns the event-engine :class:`System`, or (after
        ``.engine("vectorized")``) the duck-compatible
        :class:`~repro.engine_vec.engine.VecSystem`.
        """
        protocol = self._protocol
        schedule = self._schedule
        check_composition(
            type(protocol), self._engine,
            adversary=self._adversary,
            edge_events=schedule is not None and schedule.has_edge_events,
            node_events=schedule is not None and schedule.has_node_events,
            first_contact=self._first_contact, loss=self._loss)
        if protocol.needs_graph and self._graph is None:
            raise ConfigError(
                f"protocol {protocol.name!r} needs a topology; call "
                f".topology(...)")
        ctx = BuildContext(
            graph=self._graph, schedule=self._schedule,
            params=self._params, rounds=self._rounds, seed=self._seed,
            first_contact=self._first_contact,
            loss=dict(self._loss) if self._loss else None,
            config=dict(self._config), payload=dict(self._payload),
            adversary=(dict(self._adversary)
                       if self._adversary else None))
        if protocol.needs_params and ctx.params is None:
            raise ConfigError(
                f"protocol {protocol.name!r} needs params; call "
                f".params(...)")
        if self._engine == "vectorized":
            from repro.engine_vec.engine import build_vec_system
            return build_vec_system(protocol.name, ctx)
        return System(protocol, ctx)


# ----------------------------------------------------------------------
# Protocol registry
# ----------------------------------------------------------------------

#: ``name -> SyncProtocol subclass``; populated by the built-in
#: :mod:`repro.protocols` module (lazily) and :func:`register_protocol`.
PROTOCOLS: dict[str, type[SyncProtocol]] = {}

_builtin_loaded = False


def _load_builtin_protocols() -> None:
    """Populate :data:`PROTOCOLS` with the five built-ins on first use.

    Deferred so :mod:`repro.core.protocol` stays importable from the
    algorithm modules themselves without a cycle; a partial import
    failure re-raises on the next lookup rather than leaving a
    silently truncated registry.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    import repro.protocols  # noqa: F401  (registers the built-ins)

    _builtin_loaded = True


def register_protocol(cls: type[SyncProtocol]) -> type[SyncProtocol]:
    """Register a :class:`SyncProtocol` subclass under ``cls.name``.

    Usable as a class decorator.  Custom protocols registered outside
    the library are visible to pool workers only under the ``fork``
    start method (the default where available).
    """
    if not isinstance(cls, type) or not issubclass(cls, SyncProtocol):
        raise ConfigError(
            f"register_protocol needs a SyncProtocol subclass: {cls!r}")
    if not cls.name:
        raise ConfigError(f"protocol class {cls.__name__} has no name")
    if cls.name in PROTOCOLS:
        raise ConfigError(f"protocol {cls.name!r} already registered")
    PROTOCOLS[cls.name] = cls
    return cls


def get_protocol(name: str) -> type[SyncProtocol]:
    """Look up a registered protocol class by name."""
    _load_builtin_protocols()
    cls = PROTOCOLS.get(name)
    if cls is None:
        raise ConfigError(f"unknown protocol {name!r}; known: "
                          f"{sorted(PROTOCOLS)}")
    return cls


def protocol_names() -> list[str]:
    """Sorted names of every registered protocol."""
    _load_builtin_protocols()
    return sorted(PROTOCOLS)


__all__ = [
    "ENGINES",
    "FEATURES",
    "PROTOCOLS",
    "BuildContext",
    "ProtocolRunResult",
    "SyncProtocol",
    "System",
    "SystemBuilder",
    "check_composition",
    "get_protocol",
    "protocol_names",
    "register_protocol",
    "reject_unknown",
]
