"""Baseline: Srikanth–Toueg propose-and-pull clock synchronization.

Appendix A describes the classic alternative to Lynch–Welch on a
clique: nodes *propose* to resynchronize when a local timeout expires;
``f + 1`` propose messages force even "late proposers" to join (at
least one must be correct); ``n - f`` propose messages let a node
*accept* and resynchronize its clock to the round boundary.  The
achieved skew is ``O(d)`` — asymptotically optimal *without* a lower
bound on message delay, but worse than Lynch–Welch's ``O(U +
(theta-1)d)`` when delays are known to be at least ``d - U``.

The comparison between the two clique algorithms is experiment T11.

Implementation notes
--------------------
* Logical clocks here are ``L_v(t) = H_v(t) + offset_v`` with an offset
  adjusted (both directions) at each accept — the classic formulation
  with clock jumps.  Timeouts are alarms on the hardware clock at
  ``H = target - offset``.
* PROPOSE pulses are contentless; receivers attribute the i-th pulse
  from a sender to round i, as everywhere else in this library.
* On accept for round ``r`` the clock is set to ``r * period + d``:
  the proposers sent at logical ``r * period`` and at least ``d - U``
  (at most ``d``) has passed, so the skew between acceptors is
  ``O(d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sampling import SkewSampler
from repro.clocks.hardware import HardwareClock
from repro.clocks.rate_models import ConstantRate
from repro.errors import ConfigError
from repro.net.message import Pulse, PulseKind
from repro.net.network import Network
from repro.net.delays import UniformDelay
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class StParams:
    """Parameters of the Srikanth–Toueg baseline."""

    n: int
    f: int
    rho: float
    d: float
    u: float
    period: float

    def __post_init__(self) -> None:
        if self.n < 3 * self.f + 1:
            raise ConfigError(
                f"Srikanth–Toueg needs n >= 3f+1: n={self.n}, f={self.f}")
        if self.period <= 2 * self.d:
            raise ConfigError(
                f"period {self.period!r} too short for d={self.d!r}")


@dataclass
class StStats:
    proposals_sent: int = 0
    accepts: int = 0
    relay_proposals: int = 0
    history: list[tuple[int, float]] = field(default_factory=list)


class SrikanthTouegNode:
    """One correct node of the propose-and-pull protocol."""

    def __init__(self, node_id: int, sim: Simulator, network: Network,
                 params: StParams, hardware: HardwareClock) -> None:
        self.node_id = node_id
        self._sim = sim
        self._network = network
        self._params = params
        self._hardware = hardware
        self._offset = 0.0
        self._round = 1
        self._proposed: set[int] = set()
        self._accepted: set[int] = set()
        self._propose_counts: dict[int, int] = {}
        self._proposers: dict[int, set[int]] = {}
        self._alarm = None
        self.stats = StStats()

    # -- logical clock --------------------------------------------------

    def logical_value(self, t: float | None = None) -> float:
        return self._hardware.value(t) + self._offset

    def _set_logical(self, value: float) -> None:
        self._offset = value - self._hardware.value()
        self._arm_timeout()

    # -- protocol ---------------------------------------------------------

    def start(self) -> None:
        self._arm_timeout()

    def _arm_timeout(self) -> None:
        if self._alarm is not None:
            self._hardware.cancel_alarm(self._alarm)
            self._alarm = None
        target_logical = self._round * self._params.period
        target_hw = target_logical - self._offset
        if target_hw <= self._hardware.value():
            # Already past the boundary (can happen right after an
            # accept): propose immediately.
            self._on_timeout(self._round)
            return
        self._alarm = self._hardware.at_value(
            target_hw, self._on_timeout, self._round)

    def _on_timeout(self, round_index: int) -> None:
        if round_index != self._round:
            return  # stale alarm after a resync
        self._propose(round_index)

    def _propose(self, round_index: int) -> None:
        if round_index in self._proposed:
            return
        self._proposed.add(round_index)
        self.stats.proposals_sent += 1
        self._network.broadcast(self.node_id, Pulse(
            sender=self.node_id, kind=PulseKind.PROPOSE,
            debug_round=round_index))
        # A node's own proposal counts toward its quorums (it does not
        # receive its own broadcast over the network).
        self._proposers.setdefault(round_index, set()).add(self.node_id)
        self._maybe_advance(round_index)

    def on_message(self, message, _receive_time: float) -> None:
        if not isinstance(message, Pulse):
            return
        if message.kind is not PulseKind.PROPOSE:
            return
        sender = message.sender
        count = self._propose_counts.get(sender, 0) + 1
        self._propose_counts[sender] = count
        proposers = self._proposers.setdefault(count, set())
        proposers.add(sender)
        self._maybe_advance(count)

    def _maybe_advance(self, round_index: int) -> None:
        if round_index < self._round or round_index in self._accepted:
            return
        proposers = self._proposers.get(round_index, ())
        p = self._params
        # Pull rule: f+1 proposals force a (relayed) proposal.
        if (len(proposers) >= p.f + 1
                and round_index not in self._proposed):
            self.stats.relay_proposals += 1
            self._propose(round_index)
        # Accept rule: n-f proposals resynchronize the clock.
        if len(proposers) >= p.n - p.f:
            self._accept(round_index)

    def _accept(self, round_index: int) -> None:
        self._accepted.add(round_index)
        self.stats.accepts += 1
        self.stats.history.append((round_index, self._sim.now))
        self._round = round_index + 1
        self._set_logical(round_index * self._params.period
                          + self._params.d)


class SrikanthTouegSystem:
    """A clique running Srikanth–Toueg, with optional silent faults.

    Skew is sampled every ``sample_interval`` (default ``period/8``).
    """

    def __init__(self, params: StParams, seed: int = 0,
                 silent_faults: int = 0,
                 rate_spread: bool = True,
                 sample_interval: float | None = None) -> None:
        if silent_faults > params.f:
            raise ConfigError(
                f"{silent_faults} silent faults exceed f={params.f}")
        self.params = params
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.network = Network(
            self.sim, d=params.d, u=params.u,
            default_delay_model=UniformDelay(
                params.d, params.u, self.rng.stream("delays")))
        self.nodes: dict[int, SrikanthTouegNode] = {}
        self.faulty_ids = frozenset(range(silent_faults))
        self._started = False
        for node_id in range(params.n):
            self.network.add_node(node_id)
        for a in range(params.n):
            for b in range(a + 1, params.n):
                self.network.add_link(a, b)
        for node_id in range(params.n):
            if node_id in self.faulty_ids:
                self.network.set_handler(node_id, lambda m, t: None)
                continue
            if rate_spread:
                # Deterministic worst-ish spread across [1, 1+rho].
                frac = (node_id / max(params.n - 1, 1))
                rate = 1.0 + params.rho * frac
            else:
                rate = 1.0
            hardware = HardwareClock(
                self.sim, ConstantRate(rate), rho=params.rho,
                name=f"H[{node_id}]")
            node = SrikanthTouegNode(node_id, self.sim, self.network,
                                     params, hardware)
            self.nodes[node_id] = node
            self.network.set_handler(node_id, node.on_message)
        if sample_interval is None:
            sample_interval = params.period / 8.0
        self.sampler = SkewSampler(self.sim, sample_interval, ())
        self.sampler.measure(
            [(0, [node.logical_value for node in self.correct_nodes()])])

    def correct_nodes(self) -> list[SrikanthTouegNode]:
        return [n for i, n in self.nodes.items()
                if i not in self.faulty_ids]

    def start(self) -> None:
        """Arm every node's first timeout (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()

    def run_until(self, horizon: float) -> float:
        """Run to absolute time ``horizon``; return the max observed
        skew.

        Resumable: a later call continues the sampling cadence and
        returns the running maximum over both runs.
        """
        self.start()
        self.sampler.advance(horizon)
        return self.sampler.maxima.global_skew

    def run(self, rounds: int) -> float:
        """Run ``rounds`` resync periods; return the max observed skew."""
        return self.run_until((rounds + 1) * self.params.period)
