"""Baseline: the fault-INtolerant GCS algorithm, one node per vertex.

This is the Lenzen–Locher–Wattenhofer gradient algorithm the paper
builds on, run directly on ``G`` without clusters: nodes periodically
broadcast their logical clock *value*, keep per-neighbor estimates, and
set their mode from the same FT/ST triggers (re-using
:mod:`repro.core.triggers`).  In fault-free networks it achieves the
``O(kappa log D)`` local skew; its purpose here is the motivating
negative result of the paper's introduction:

    "The GCS algorithm utterly fails in face of non-benign faults."

:class:`GcsLiarNode` implements the attack: a Byzantine node feeds each
neighbor a *fabricated* clock value anchored to that neighbor's own
clock — one neighbor sees a phantom that is always ``bias + ramp * t``
ahead, the other a phantom equally far behind.  The ahead-phantom drags
its victim (and, transitively, the victim's side of the network) fast
through ever-higher trigger levels, while the behind-phantom pins the
other side slow; the skew across the *correct* edges in between grows
linearly with time, unboundedly.  Experiment T3 contrasts this with the
full FTGCS construction under equivalent attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sampling import SkewSampler
from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import LogicalClock
from repro.clocks.rate_models import ConstantRate
from repro.core import triggers
from repro.errors import ConfigError
from repro.net.delays import UniformDelay
from repro.net.message import ValueMessage
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.cluster_graph import ClusterGraph


@dataclass
class GcsParams:
    """Parameters of the single-node GCS baseline.

    ``kappa`` must dominate the estimation error ``U + (mu + 2 rho) *
    period``; the :meth:`default` constructor picks it that way.
    """

    rho: float
    d: float
    u: float
    mu: float
    period: float
    kappa: float
    slack: float

    @classmethod
    def default(cls, rho: float = 1e-4, d: float = 1.0, u: float = 0.1,
                mu: float | None = None,
                period: float | None = None) -> "GcsParams":
        if mu is None:
            mu = 100.0 * rho
        if period is None:
            period = 10.0 * d
        error = u + (mu + 2.0 * rho) * period + rho * d
        kappa = 8.0 * error
        return cls(rho=rho, d=d, u=u, mu=mu, period=period,
                   kappa=kappa, slack=kappa / 3.0)


@dataclass
class GcsNodeStats:
    fast_periods: int = 0
    slow_periods: int = 0


class GcsSingleNode:
    """One correct node of the plain GCS algorithm."""

    def __init__(self, node_id: int, sim: Simulator, network: Network,
                 params: GcsParams, hardware: HardwareClock) -> None:
        self.node_id = node_id
        self._sim = sim
        self._network = network
        self._params = params
        self._hardware = hardware
        self.logical = LogicalClock(
            sim, hardware, phi=0.0, mu=params.mu, delta=0.0, gamma=0,
            name=f"gcs-L[{node_id}]")
        #: neighbor -> (anchor_value, hardware_at_receipt)
        self._estimates: dict[int, tuple[float, float]] = {}
        self._period_index = 1
        self._crashed = False
        #: Whether the periodic alarm chain is live (it dies when an
        #: alarm fires on a crashed node, and rejoin re-arms it).
        self._armed = False
        self.stats = GcsNodeStats()

    def start(self) -> None:
        self._arm()

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Go dark: drop incoming messages and let the period alarm
        chain die at its next firing."""
        self._crashed = True

    def rejoin(self) -> None:
        """Come back *with amnesia*: neighbor estimates and mode are
        gone; the period cadence re-anchors to the (coasted) logical
        clock and the next broadcast re-seeds the neighbors."""
        if not self._crashed:
            return
        self._crashed = False
        self._estimates.clear()
        self.logical.set_gamma(0)
        if not self._armed:
            # Re-enter the cadence at the next period boundary the
            # coasted clock has not yet crossed.
            self._period_index = int(
                self.logical.value() / self._params.period) + 1
            self._arm()

    def _arm(self) -> None:
        self._armed = True
        target = self._period_index * self._params.period
        self.logical.at_value(target, self._on_period, self._period_index)

    def estimate(self, neighbor: int) -> float | None:
        """Current estimate of a neighbor's clock (midpoint-delay
        compensated, extrapolated at own hardware rate)."""
        anchored = self._estimates.get(neighbor)
        if anchored is None:
            return None
        value, hw_at_receipt = anchored
        return value + (self._hardware.value() - hw_at_receipt)

    def on_message(self, message, _receive_time: float) -> None:
        if self._crashed:
            return
        if isinstance(message, ValueMessage):
            compensated = message.value + self._params.d - self._params.u / 2
            self._estimates[message.sender] = (compensated,
                                               self._hardware.value())

    def _on_period(self, index: int) -> None:
        if self._crashed:
            self._armed = False
            return
        self._network.broadcast(self.node_id, ValueMessage(
            sender=self.node_id, value=self.logical.value()))
        estimates = {}
        for neighbor in self._network.neighbors(self.node_id):
            est = self.estimate(neighbor)
            if est is not None:
                estimates[neighbor] = est
        decision = triggers.evaluate(
            self.logical.value(), estimates,
            self._params.kappa, self._params.slack)
        gamma = 1 if decision.fast else 0
        self.logical.set_gamma(gamma)
        if gamma:
            self.stats.fast_periods += 1
        else:
            self.stats.slow_periods += 1
        self._period_index = index + 1
        self._arm()


class GcsLiarNode:
    """The Byzantine value-fabricator (see module docstring).

    ``directions`` maps each neighbor to ``+1`` (feed it a phantom
    *ahead*: drag it fast) or ``-1`` (phantom *behind*: pin it slow).
    The phantom is anchored to the victim's own last reported value, so
    it remains maximally credible forever.
    """

    def __init__(self, node_id: int, sim: Simulator, network: Network,
                 params: GcsParams, directions: dict[int, int],
                 bias: float | None = None,
                 ramp: float | None = None) -> None:
        self.node_id = node_id
        self._sim = sim
        self._network = network
        self._params = params
        self._directions = dict(directions)
        self._bias = bias if bias is not None else 4.0 * params.kappa
        # Default ramp: half the speed advantage fast mode grants, so
        # victims can physically follow the phantom forever.
        self._ramp = ramp if ramp is not None else params.mu / 2.0
        self._last_values: dict[int, float] = {}

    def start(self) -> None:
        self._arm()

    def _arm(self) -> None:
        self._sim.call_in(self._params.period, self._tick)

    def on_message(self, message, _receive_time: float) -> None:
        if isinstance(message, ValueMessage):
            self._last_values[message.sender] = message.value

    def _tick(self) -> None:
        now = self._sim.now
        for neighbor, direction in self._directions.items():
            anchor = self._last_values.get(neighbor, now)
            phantom = anchor + direction * (self._bias + self._ramp * now)
            self._network.send(self.node_id, neighbor, ValueMessage(
                sender=self.node_id, value=phantom))
        self._arm()


class GcsSingleSystem:
    """Plain GCS on a cluster graph (one node per vertex)."""

    def __init__(self, graph: ClusterGraph, params: GcsParams,
                 seed: int = 0,
                 liars: dict[int, dict[int, int]] | None = None,
                 rate_spread: bool = True,
                 liar_bias: float | None = None,
                 liar_ramp: float | None = None,
                 sample_interval: float | None = None) -> None:
        """``liars`` maps a node id to its per-neighbor phantom
        directions (see :class:`GcsLiarNode`); ``liar_bias``/
        ``liar_ramp`` override every liar's phantom shape (``None``
        keeps the :class:`GcsLiarNode` defaults).  Skew is sampled
        every ``sample_interval`` (default: one period)."""
        self.graph = graph
        self.params = params
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.network = Network(
            self.sim, d=params.d, u=params.u,
            default_delay_model=UniformDelay(
                params.d, params.u, self.rng.stream("delays")))
        n = graph.num_clusters
        for node_id in range(n):
            self.network.add_node(node_id)
        for a, b in graph.edges:
            self.network.add_link(a, b)

        liars = liars or {}
        self.faulty_ids = frozenset(liars)
        self.nodes: dict[int, GcsSingleNode] = {}
        self.liars: dict[int, GcsLiarNode] = {}
        self._started = False
        for node_id in range(n):
            if node_id in liars:
                directions = liars[node_id]
                for neighbor in directions:
                    if not self.network.has_link(node_id, neighbor):
                        raise ConfigError(
                            f"liar {node_id} given non-neighbor "
                            f"{neighbor}")
                liar = GcsLiarNode(node_id, self.sim, self.network,
                                   params, directions,
                                   bias=liar_bias, ramp=liar_ramp)
                self.liars[node_id] = liar
                self.network.set_handler(node_id, liar.on_message)
                continue
            if rate_spread:
                rate = 1.0 + params.rho * (node_id % 2)
            else:
                rate = 1.0
            hardware = HardwareClock(self.sim, ConstantRate(rate),
                                     rho=params.rho)
            node = GcsSingleNode(node_id, self.sim, self.network,
                                 params, hardware)
            self.nodes[node_id] = node
            self.network.set_handler(node_id, node.on_message)
        if sample_interval is None:
            sample_interval = params.period
        self.sampler = SkewSampler(self.sim, sample_interval, (),
                                   record_series=True)
        self.measure()

    def start(self) -> None:
        """Arm every node and liar (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()
        for liar in self.liars.values():
            liar.start()

    def correct_edges(self) -> list[tuple[int, int]]:
        """Edges between correct nodes that currently carry messages.

        On static topologies every link is active, so this is exactly
        the historical correct-edge set; under a topology schedule,
        down edges are excluded from the local-skew measurement (the
        dynamic-networks convention: gradients are only promised
        across present edges).
        """
        return [(a, b) for a, b in self.graph.edges
                if a not in self.faulty_ids and b not in self.faulty_ids
                and self.network.link_active(a, b)]

    def measure(self) -> None:
        """Give the sampler the clocks of the correct nodes that are up
        and the :meth:`correct_edges`; call after every link or node
        change (crash and rejoin call it themselves)."""
        self.sampler.measure(
            [(node_id, [node.logical.value])
             for node_id, node in self.nodes.items() if not node.crashed],
            self.correct_edges())

    def crash_node(self, node_id: int) -> None:
        """Crash one correct node (drops messages, kills its cadence).

        Link deactivation is the caller's job — the protocol adapter
        owns link state so node and link views cannot disagree.  Liar
        ids are rejected: the fault model here is churn of *correct*
        nodes.
        """
        if node_id in self.faulty_ids:
            raise ConfigError(f"cannot crash Byzantine node {node_id}")
        self.nodes[node_id].crash()
        self.measure()

    def rejoin_node(self, node_id: int) -> None:
        """Rejoin a crashed node with protocol-state amnesia."""
        if node_id in self.faulty_ids:
            raise ConfigError(f"cannot rejoin Byzantine node {node_id}")
        self.nodes[node_id].rejoin()
        self.measure()

    def run(self, until: float) -> list[tuple[float, float, float]]:
        """Run to ``until``; returns the ``(t, local_skew, global_skew)``
        samples taken every ``sample_interval``.

        Resumable: a second call with a later ``until`` continues the
        sampling cadence from where the first stopped and returns a
        new list of all samples so far.
        """
        self.start()
        self.sampler.advance(until)
        buffer = self.sampler.buffer
        return list(zip(buffer.column("time"),
                        buffer.column("max_local_node"),
                        buffer.column("global_skew")))
