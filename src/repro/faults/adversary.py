"""The adversary layer: one class per attack, on both engines.

The paper's faulty nodes are "fully Byzantine: we make no assumptions
whatsoever about their behavior; in particular, they are not required
to communicate by broadcast."  An :class:`AdversaryModel` is one such
behaviour, with up to ``f`` corrupted members per cluster, written
once and realized on both engines:

event kernel
    The model builds each faulty node's *driver* (:meth:`build`, any
    object with ``start()``) from an :class:`EventContext`.  Attacks
    that are "honest protocol plus a twist" set ``wants_honest_node``
    and corrupt a fully built :class:`~repro.core.node.FtgcsNode`;
    :meth:`hardware_spec` may swap the node's oscillator.  This is the
    realization on the FTGCS family; ``gcs_single`` and
    ``srikanth_toueg`` use their native ``liars``/``silent_faults``
    payload knobs instead (:func:`validate_event_support`).

vectorized engine: observe / act phases
    Each round the adversary first *observes* a read-only view of
    public state and then *acts* within its budget: it returns
    per-slot clock-estimate offsets and a keep/silence mask, applied as
    masked numpy writes into the struct-of-arrays round state.

budget contract
    An adversary controls at most its fault budget (``count`` nodes —
    per-cluster ``f`` on the clique protocols) and may displace any
    clock estimate it emits by at most ``amplitude`` time units.  The
    runtimes *enforce* the contract: an act that touches a non-faulty
    slot, silences an honest sender, or exceeds the amplitude is
    rejected at runtime with a :class:`~repro.errors.ConfigError`
    naming the violation — a model cannot quietly cheat its way to an
    impressive skew.

adaptive models
    ``greedy`` picks, every round, the budget-feasible action
    maximizing a one-step lookahead of the honest local skew;
    ``random_restart`` evaluates a seeded batch of random
    budget-feasible actions and keeps the best.  Both need the
    lookahead closure the vectorized round models provide, so they are
    vectorized-only.  Randomness comes from ``vec/<protocol>/adv/*``
    seed streams — bit-reproducible across processes and pool sizes.

The registry :data:`ADVERSARIES` is the one name space:
``Scenario.adversarial("equivocate", ...)``,
``SystemBuilder.adversary(...)``, and ``ScenarioSpec.adversary`` all
resolve here, eagerly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.clocks.logical import LogicalClock
from repro.clocks.rate_models import ConstantRate, RateModel
from repro.errors import ConfigError
from repro.net.message import Pulse, PulseKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.clocks.hardware import HardwareClock
    from repro.core.node import FtgcsNode
    from repro.core.params import Parameters
    from repro.core.rounds import RoundSchedule
    from repro.net.network import Network
    from repro.sim.kernel import Simulator

@dataclass(frozen=True)
class AdversaryBudget:
    """The enforced contract: how many nodes, how large a lie.

    ``amplitude`` caps the absolute clock-estimate displacement (time
    units) any controlled sender may apply; ``count`` is the number of
    controlled nodes (clique protocols additionally cap it at the
    parameter set's ``f``).
    """

    amplitude: float
    count: int


@dataclass
class EventContext:
    """Everything an adversary may use to build a node's driver."""

    node_id: int
    cluster_id: int
    sim: "Simulator"
    network: "Network"
    params: "Parameters"
    schedule: "RoundSchedule"
    hardware: "HardwareClock"
    base: float
    cluster_members: tuple[int, ...]
    adjacent_members: dict[int, tuple[int, ...]]
    rng: random.Random
    honest_node: "FtgcsNode | None" = None

    def all_neighbors(self) -> tuple[int, ...]:
        peers = [m for m in self.cluster_members if m != self.node_id]
        for members in self.adjacent_members.values():
            peers.extend(members)
        return tuple(peers)


class AdversaryModel:
    """Base class: one adversary, realizable on one or both engines.

    Subclasses override the event-side :meth:`build` (plus
    ``wants_honest_node`` / :meth:`hardware_spec` where the attack
    needs them) and/or the vectorized :meth:`act` / :meth:`act_pairs`
    hooks (graph and clique shapes respectively).  ``observe``
    defaults to a no-op; models that adapt to public state override
    it.
    """

    name = ""
    #: Realizable on the event kernel (:meth:`build` on the FTGCS
    #: family, a native payload mechanism on the baselines).
    supports_event = False
    #: Has a vectorized act implementation (masked numpy writes).
    supports_vectorized = False
    #: When True the event system builds a normal honest node first
    #: and hands it to :meth:`build` via ``ctx.honest_node``.
    wants_honest_node = False

    def __init__(self, *, amplitude: float | None = None,
                 count: int | None = None) -> None:
        if amplitude is not None and amplitude < 0:
            raise ConfigError(
                f"adversary amplitude must be >= 0: {amplitude!r}")
        if count is not None and count < 1:
            raise ConfigError(
                f"adversary count must be >= 1: {count!r}")
        self.amplitude = amplitude
        self.count = count

    # -- vectorized observe/act -----------------------------------------

    def observe(self, view: "ObserveView") -> None:
        """Read-only phase before each act; default no-op."""

    def act(self, view: "ActView") -> tuple[Any, Any]:
        """Graph-shaped act: return ``(offsets, keep)`` over slots.

        ``offsets`` is a float array over the CSR slots (additive
        displacement of the estimate seen at that slot; must be zero
        outside the faulty-sender slots and within ``±amplitude``),
        ``keep`` a bool array (``False`` silences the slot; honest
        slots must stay ``True``).
        """
        raise ConfigError(
            f"adversary {self.name!r} has no vectorized act() for "
            f"graph protocols; use the event engine")

    def act_pairs(self, view: "PairActView") -> tuple[Any, Any]:
        """Clique-shaped act: ``(offsets, keep)`` with ``offsets`` of
        shape ``(faulty, receivers)`` (per faulty-sender,
        per-correct-receiver arrival displacement) and ``keep`` of
        shape ``(faulty,)`` (``False``: that sender says nothing)."""
        raise ConfigError(
            f"adversary {self.name!r} has no vectorized act() for "
            f"clique protocols; use the event engine")

    # -- event-side realization -----------------------------------------

    def hardware_spec(self, params: "Parameters", rng: random.Random
                      ) -> tuple[RateModel, bool] | None:
        """Override the node's hardware clock.

        Returns ``(rate_model, enforce_bounds)`` or ``None`` to accept
        the system default.  Returning ``enforce_bounds=False`` lets
        the clock violate the ``[1, 1+rho]`` envelope — the faulty-
        oscillator attack.
        """
        return None

    def build(self, ctx: EventContext):
        """Create and return the node's event driver (any object with
        ``start()``)."""
        raise ConfigError(
            f"adversary {self.name!r} has no event-engine driver; use "
            f".engine('vectorized')")

    def spec(self) -> dict:
        """The model's resolved knobs, for counters and describe()."""
        out: dict[str, Any] = {"name": self.name}
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        if self.count is not None:
            out["count"] = self.count
        return out

    def describe(self) -> str:
        knobs = ", ".join(f"{k}={v!r}" for k, v in self.spec().items()
                          if k != "name")
        return f"{type(self).__name__}({knobs})"


@dataclass
class ObserveView:
    """Public state an adversary may read before acting."""

    round_index: int
    #: Honest-only local (edge) skew after the previous round, or 0.0
    #: on the first round.
    honest_local_skew: float = 0.0


@dataclass
class ActView:
    """Inputs to a graph-shaped act (CSR slot space)."""

    round_index: int
    amplitude: float
    num_slots: int
    #: Bool over slots: the slot's *sender* is adversary-controlled.
    faulty_slots: Any
    #: Receiver node id per slot (``csr.row``).
    receivers: Any
    #: Sender node id per slot (``csr.indices``).
    senders: Any
    #: Seeded generator (``vec/<protocol>/adv/<model>`` stream).
    rng: Any
    #: One-step lookahead: ``evaluate(offsets, keep) -> honest local
    #: skew`` after this round under that action, or ``None`` when the
    #: round model provides no lookahead (static models never need it).
    evaluate: Callable[[Any, Any], float] | None = None


@dataclass
class PairActView:
    """Inputs to a clique-shaped act (faulty x receiver space)."""

    round_index: int
    amplitude: float
    #: Controlled node ids (the first ``count`` clique members).
    faulty_ids: Any
    #: Correct node ids (arrival columns, in order).
    receiver_ids: Any
    rng: Any
    evaluate: Callable[[Any, Any], float] | None = None


# ----------------------------------------------------------------------
# Event drivers
# ----------------------------------------------------------------------

class _NullDriver:
    """Driver for nodes that take no actions of their own."""

    def start(self) -> None:
        return None


class _CrashDriver:
    def __init__(self, sim: "Simulator", node: "FtgcsNode",
                 crash_time: float) -> None:
        self._sim = sim
        self._node = node
        self._crash_time = crash_time

    def start(self) -> None:
        self._sim.call_at(self._crash_time, self._node.crash)


class _RandomPulseDriver:
    def __init__(self, ctx: EventContext, mean_gap: float) -> None:
        self._ctx = ctx
        self._mean_gap = mean_gap

    def start(self) -> None:
        self._arm()

    def _arm(self) -> None:
        gap = self._ctx.rng.expovariate(1.0 / self._mean_gap)
        self._ctx.sim.call_in(gap, self._fire)

    def _fire(self) -> None:
        self._ctx.network.broadcast(
            self._ctx.node_id,
            Pulse(sender=self._ctx.node_id, kind=PulseKind.SYNC))
        self._arm()


class _EquivocatorDriver:
    """Round-driven two-faced pulse sender."""

    def __init__(self, ctx: EventContext, spread: float,
                 early: tuple[int, ...], late: tuple[int, ...],
                 alternate: bool) -> None:
        self._ctx = ctx
        self._spread = spread
        self._early = early
        self._late = late
        self._alternate = alternate
        # Free-running logical clock at nominal honest rate; the
        # attacker stays plausibly in-schedule without correcting.
        self._clock = LogicalClock(
            ctx.sim, ctx.hardware, phi=ctx.params.phi, mu=ctx.params.mu,
            delta=1.0, gamma=0, initial_value=ctx.base,
            name=f"byz[{ctx.node_id}]")
        self._round = 1

    def start(self) -> None:
        self._arm_round(self._round)

    def _arm_round(self, r: int) -> None:
        sched = self._ctx.schedule
        pulse = self._ctx.base + sched.pulse_offset(r)
        early_at = max(pulse - self._spread,
                       self._ctx.base + sched.round_start(r))
        self._clock.at_value(early_at, self._send, r, True)
        self._clock.at_value(pulse + self._spread, self._send, r, False)
        self._clock.at_value(self._ctx.base + sched.round_start(r + 1),
                             self._next_round, r + 1)

    def _groups_for_round(self, r: int) -> tuple[tuple[int, ...],
                                                 tuple[int, ...]]:
        if self._alternate and r % 2 == 0:
            return self._late, self._early
        return self._early, self._late

    def _send(self, r: int, is_early: bool) -> None:
        early, late = self._groups_for_round(r)
        targets = early if is_early else late
        pulse = Pulse(sender=self._ctx.node_id, kind=PulseKind.SYNC,
                      debug_round=r)
        for target in targets:
            self._ctx.network.send(self._ctx.node_id, target, pulse)

    def _next_round(self, r: int) -> None:
        self._round = r
        self._arm_round(r)


# ----------------------------------------------------------------------
# Static adversaries
# ----------------------------------------------------------------------
#
# Each constructor's first parameter is the attack's event knob
# (``crash_time``, ``pulses_per_round``, ``speed_factor`` or
# ``amplitude``), set by keyword: ``.adversarial("crash",
# crash_time=30.0)``.

class SilentAdversary(AdversaryModel):
    """Controlled nodes say nothing at all (receivers must cope with
    missing samples every round).

    Event side: a deaf, mute driver on the FTGCS family; the
    ``silent_faults`` payload mechanism on Srikanth–Toueg (where
    silencing the first ``count`` members is the protocol's native
    fault knob).
    """

    name = "silent"
    supports_event = True
    supports_vectorized = True

    def build(self, ctx: EventContext) -> _NullDriver:
        ctx.network.set_handler(ctx.node_id, lambda msg, t: None)
        return _NullDriver()

    def act(self, view: ActView):
        import numpy as np

        return (np.zeros(view.num_slots), ~view.faulty_slots)

    def act_pairs(self, view: PairActView):
        import numpy as np

        fc = len(view.faulty_ids)
        return (np.zeros((fc, len(view.receiver_ids))),
                np.zeros(fc, dtype=bool))


class CrashAdversary(AdversaryModel):
    """Run the honest protocol, then fail-stop at ``crash_time``
    (event-only: the mid-run transition is inherently per-delivery
    state)."""

    name = "crash"
    supports_event = True
    wants_honest_node = True

    def __init__(self, crash_time: float = 0.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if crash_time < 0:
            raise ConfigError(f"crash_time must be >= 0: {crash_time!r}")
        self.crash_time = crash_time

    def spec(self) -> dict:
        out = super().spec()
        out["crash_time"] = self.crash_time
        return out

    def build(self, ctx: EventContext) -> _CrashDriver:
        if ctx.honest_node is None:
            raise ConfigError("CrashAdversary requires an honest node")
        return _CrashDriver(ctx.sim, ctx.honest_node, self.crash_time)


class RandomPulseAdversary(AdversaryModel):
    """Pulse spam at random times, stressing round attribution and
    buffer bounds.

    Event side: SYNC broadcasts at exponential random intervals,
    ``pulses_per_round`` per round on average, so the attack matches
    any parameter set.  Vectorized act: amplitude-capped noise — each
    controlled estimate is displaced by an independent uniform draw in
    ``[-amplitude, +amplitude]``."""

    name = "random_pulse"
    supports_event = True
    supports_vectorized = True

    def __init__(self, pulses_per_round: float = 3.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if pulses_per_round <= 0:
            raise ConfigError(
                f"pulses_per_round must be positive: {pulses_per_round!r}")
        self.pulses_per_round = pulses_per_round

    def build(self, ctx: EventContext) -> _RandomPulseDriver:
        ctx.network.set_handler(ctx.node_id, lambda msg, t: None)
        mean_gap = ctx.schedule.round_length(1) / self.pulses_per_round
        return _RandomPulseDriver(ctx, mean_gap)

    def act(self, view: ActView):
        import numpy as np

        offsets = np.zeros(view.num_slots)
        hits = int(view.faulty_slots.sum())
        if hits:
            offsets[view.faulty_slots] = view.rng.uniform(
                -view.amplitude, view.amplitude, hits)
        return offsets, np.ones(view.num_slots, dtype=bool)

    def act_pairs(self, view: PairActView):
        import numpy as np

        fc = len(view.faulty_ids)
        rc = len(view.receiver_ids)
        offsets = view.rng.uniform(-view.amplitude, view.amplitude,
                                   (fc, rc))
        return offsets, np.ones(fc, dtype=bool)


class FastClockAdversary(AdversaryModel):
    """The honest protocol on an out-of-spec oscillator: the classic
    "sub/super-nominal clock that cannot be proven faulty" from the
    introduction's impossibility discussion.

    Event side: ``speed_factor > 1`` runs faster than ``1 + rho``
    allows, ``speed_factor < 1`` slower than ``1`` allows; the node
    obeys the algorithm to the letter — only its physics lies.
    Vectorized act: the controlled clock appears progressively ahead —
    a ramp of ``amplitude * r / ramp_rounds`` capped at ``amplitude``
    (the displacement a faster-than-``1+rho`` clock accumulates before
    the lie saturates the plausible window)."""

    name = "fast_clock"
    supports_event = True
    supports_vectorized = True
    wants_honest_node = True

    def __init__(self, speed_factor: float = 2.0, *,
                 ramp_rounds: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        if speed_factor <= 0:
            raise ConfigError(
                f"speed_factor must be positive: {speed_factor!r}")
        if ramp_rounds < 1:
            raise ConfigError(
                f"ramp_rounds must be >= 1: {ramp_rounds!r}")
        self.speed_factor = speed_factor
        self.ramp_rounds = ramp_rounds

    def spec(self) -> dict:
        out = super().spec()
        out["speed_factor"] = self.speed_factor
        return out

    def hardware_spec(self, params: "Parameters", rng: random.Random
                      ) -> tuple[RateModel, bool]:
        if self.speed_factor >= 1.0:
            rate = (1.0 + params.rho) * self.speed_factor
        else:
            rate = self.speed_factor
        return ConstantRate(rate), False

    def build(self, ctx: EventContext) -> _NullDriver:
        # The honest node does all the work; its clock is the attack.
        return _NullDriver()

    def _ramp(self, r: int, amplitude: float) -> float:
        return min(amplitude, amplitude * r / self.ramp_rounds)

    def act(self, view: ActView):
        import numpy as np

        offsets = np.where(view.faulty_slots,
                           self._ramp(view.round_index, view.amplitude),
                           0.0)
        return offsets, np.ones(view.num_slots, dtype=bool)

    def act_pairs(self, view: PairActView):
        import numpy as np

        fc = len(view.faulty_ids)
        rc = len(view.receiver_ids)
        # Arrival-time displacement: a fast clock proposes *early*.
        offsets = np.full((fc, rc),
                          -self._ramp(view.round_index, view.amplitude))
        return offsets, np.ones(fc, dtype=bool)


def _equivocate_signs(receivers, amplitude):
    """The two-faced split: even-id receivers see ``+amplitude``, odd
    see ``-amplitude`` (mirrors the event driver's parity split)."""
    import numpy as np

    return np.where(receivers % 2 == 0, amplitude, -amplitude)


class EquivocateAdversary(AdversaryModel):
    """The two-faced attack: each controlled sender shows one group of
    receivers a clock ``amplitude`` ahead and the other ``amplitude``
    behind, maximizing disagreement; the trim-f midpoint is exactly
    the defense this probes.

    Event side: the node follows the honest round schedule on its own
    logical clock (without corrections — it has no interest in
    agreeing), but at each round's pulse time it unicasts to every
    neighbor individually: *early* targets get the pulse ``amplitude``
    logical time units before the honest pulse point, *late* targets
    the same amount after.  ``amplitude`` defaults to the steady-state
    error ``E`` — large enough to matter, small enough to stay inside
    the plausible window (a grosser lie would land outside phase 2 and
    be trimmed or substituted anyway, weakening the attack).

    Group assignment: same-cluster peers split by id parity; entire
    adjacent clusters get early when their id is below the attacker's
    cluster id, late otherwise — sustained directional pressure that
    tries to stretch the intercluster gradient.  With ``alternate``
    the groups swap every even round, on both engines.
    """

    name = "equivocate"
    supports_event = True
    supports_vectorized = True
    #: Swap the early/late groups every even round.
    alternate = False

    def __init__(self, amplitude: float | None = None, **kwargs) -> None:
        super().__init__(amplitude=amplitude, **kwargs)

    def build(self, ctx: EventContext) -> _EquivocatorDriver:
        ctx.network.set_handler(ctx.node_id, lambda msg, t: None)
        spread = self.amplitude
        if spread is None:
            spread = ctx.params.cap_e
        early, late = self._split_targets(ctx)
        return _EquivocatorDriver(ctx, spread, early, late,
                                  alternate=self.alternate)

    @staticmethod
    def _split_targets(ctx: EventContext
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        early: list[int] = []
        late: list[int] = []
        for m in ctx.cluster_members:
            if m == ctx.node_id:
                continue
            (early if m % 2 == 0 else late).append(m)
        for b_cluster, members in ctx.adjacent_members.items():
            bucket = early if b_cluster < ctx.cluster_id else late
            bucket.extend(members)
        return tuple(early), tuple(late)

    def _swap(self, offsets, round_index: int):
        if self.alternate and round_index % 2 == 0:
            return -offsets
        return offsets

    def act(self, view: ActView):
        import numpy as np

        offsets = np.where(
            view.faulty_slots,
            _equivocate_signs(view.receivers, view.amplitude), 0.0)
        return (self._swap(offsets, view.round_index),
                np.ones(view.num_slots, dtype=bool))

    def act_pairs(self, view: PairActView):
        import numpy as np

        fc = len(view.faulty_ids)
        signs = _equivocate_signs(view.receiver_ids, view.amplitude)
        offsets = np.broadcast_to(signs, (fc, len(view.receiver_ids))
                                  ).copy()
        return (self._swap(offsets, view.round_index),
                np.ones(fc, dtype=bool))


class PullApartAdversary(EquivocateAdversary):
    """Equivocation whose group assignment flips every round,
    attempting to resonate with the per-round correction loop."""

    name = "pull_apart"
    alternate = True


class CollusionAdversary(EquivocateAdversary):
    """Equivocators coordinating a single global push direction.

    Independent equivocators partially cancel (each picks groups from
    its own vantage point); colluders share one convention — *every*
    faulty node sends early to lower-indexed clusters and late to
    higher-indexed ones, and splits its own cluster the same way by
    node id.  This is the strongest coalition the model allows short of
    exceeding the per-cluster budget, and the hardest test for the
    trimmed-midpoint defense.  Event-only: the coalition's split is
    defined over the cluster structure the vectorized skeletons
    abstract away.
    """

    name = "collusion"
    supports_vectorized = False

    @staticmethod
    def _split_targets(ctx: EventContext
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        early: list[int] = []
        late: list[int] = []
        cutoff = ctx.cluster_members[len(ctx.cluster_members) // 2]
        for m in ctx.cluster_members:
            if m == ctx.node_id:
                continue
            (early if m < cutoff else late).append(m)
        for b_cluster, members in ctx.adjacent_members.items():
            bucket = early if b_cluster < ctx.cluster_id else late
            bucket.extend(members)
        return tuple(early), tuple(late)


# ----------------------------------------------------------------------
# Adaptive adversaries (vectorized-only: they need the lookahead)
# ----------------------------------------------------------------------

def _static_candidates(view, faulty_shape_offsets):
    """The budget-feasible static patterns a searcher starts from:
    both equivocation orientations, both constant pushes, and full
    silence.  ``faulty_shape_offsets(pattern)`` embeds a per-target
    pattern into the full (masked) offset arrays."""
    import numpy as np  # noqa: F401  (callers are numpy-bound)

    equiv, keep_all = faulty_shape_offsets("equivocate")
    candidates = [
        (equiv, keep_all),
        (-equiv, keep_all),
    ]
    plus, _ = faulty_shape_offsets("plus")
    candidates.append((plus, keep_all))
    candidates.append((-plus, keep_all))
    candidates.append(faulty_shape_offsets("silent"))
    return candidates


class _AdaptiveBase(AdversaryModel):
    """Shared candidate plumbing for the searching adversaries."""

    supports_vectorized = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.last_observed_skew = 0.0

    def observe(self, view: ObserveView) -> None:
        self.last_observed_skew = view.honest_local_skew

    @staticmethod
    def _graph_patterns(view: ActView):
        import numpy as np

        keep_all = np.ones(view.num_slots, dtype=bool)

        def embed(pattern):
            if pattern == "silent":
                return np.zeros(view.num_slots), ~view.faulty_slots
            if pattern == "plus":
                offsets = np.where(view.faulty_slots, view.amplitude,
                                   0.0)
            else:  # equivocate
                offsets = np.where(
                    view.faulty_slots,
                    _equivocate_signs(view.receivers, view.amplitude),
                    0.0)
            return offsets, keep_all

        return embed, keep_all

    @staticmethod
    def _pair_patterns(view: PairActView):
        import numpy as np

        fc = len(view.faulty_ids)
        rc = len(view.receiver_ids)
        keep_all = np.ones(fc, dtype=bool)

        def embed(pattern):
            if pattern == "silent":
                return np.zeros((fc, rc)), np.zeros(fc, dtype=bool)
            if pattern == "plus":
                return np.full((fc, rc), view.amplitude), keep_all
            signs = _equivocate_signs(view.receiver_ids, view.amplitude)
            return (np.broadcast_to(signs, (fc, rc)).copy(), keep_all)

        return embed, keep_all

    @staticmethod
    def _pick(candidates, evaluate):
        """Deterministic argmax: ties go to the earliest candidate."""
        best = None
        best_skew = -1.0
        for offsets, keep in candidates:
            skew = evaluate(offsets, keep)
            if skew > best_skew:
                best_skew = skew
                best = (offsets, keep)
        return best

    def _require_evaluate(self, view):
        if view.evaluate is None:
            raise ConfigError(
                f"adaptive adversary {self.name!r} needs a lookahead-"
                f"capable round model (no evaluate closure provided)")


class GreedyAdversary(_AdaptiveBase):
    """Per-round greedy pick from the budget set: evaluate every
    static pattern's one-step lookahead and act with the argmax.
    Deterministic (no random draws; ties break to the first
    candidate)."""

    name = "greedy"

    def act(self, view: ActView):
        self._require_evaluate(view)
        embed, _ = self._graph_patterns(view)
        return self._pick(_static_candidates(view, embed), view.evaluate)

    def act_pairs(self, view: PairActView):
        self._require_evaluate(view)
        embed, _ = self._pair_patterns(view)
        return self._pick(_static_candidates(view, embed), view.evaluate)


class RandomRestartAdversary(_AdaptiveBase):
    """Seeded random-restart search: each round draws ``restarts``
    random budget-feasible sign patterns (scaled to the full
    amplitude), evaluates each plus the static candidates, and acts
    with the best.  Draws come from the model's ``vec/adv`` stream in
    a fixed order, so serial and pooled runs are bit-identical."""

    name = "random_restart"

    def __init__(self, *, restarts: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        if restarts < 1:
            raise ConfigError(f"restarts must be >= 1: {restarts!r}")
        self.restarts = restarts

    def spec(self) -> dict:
        out = super().spec()
        out["restarts"] = self.restarts
        return out

    def act(self, view: ActView):
        import numpy as np

        self._require_evaluate(view)
        embed, keep_all = self._graph_patterns(view)
        candidates = _static_candidates(view, embed)
        hits = int(view.faulty_slots.sum())
        for _ in range(self.restarts):
            offsets = np.zeros(view.num_slots)
            if hits:
                signs = view.rng.choice((-1.0, 1.0), hits)
                offsets[view.faulty_slots] = signs * view.amplitude
            candidates.append((offsets, keep_all))
        return self._pick(candidates, view.evaluate)

    def act_pairs(self, view: PairActView):
        import numpy as np

        self._require_evaluate(view)
        embed, keep_all = self._pair_patterns(view)
        candidates = _static_candidates(view, embed)
        fc = len(view.faulty_ids)
        rc = len(view.receiver_ids)
        for _ in range(self.restarts):
            signs = view.rng.choice((-1.0, 1.0), (fc, rc))
            candidates.append((signs * view.amplitude, keep_all))
        return self._pick(candidates, view.evaluate)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Adversary models addressable by name from picklable specs.  The
#: first seven are the static attacks; ``greedy``/``random_restart``
#: are the adaptive searchers.
ADVERSARIES: dict[str, type[AdversaryModel]] = {
    "silent": SilentAdversary,
    "crash": CrashAdversary,
    "random_pulse": RandomPulseAdversary,
    "fast_clock": FastClockAdversary,
    "equivocate": EquivocateAdversary,
    "pull_apart": PullApartAdversary,
    "collusion": CollusionAdversary,
    "greedy": GreedyAdversary,
    "random_restart": RandomRestartAdversary,
}


def get_adversary(name: str, **kwargs) -> AdversaryModel:
    """Construct the named adversary; unknown names and bad kwargs
    fail here (the eager half of build-time validation)."""
    cls = ADVERSARIES.get(name)
    if cls is None:
        raise ConfigError(f"unknown adversary {name!r}; known: "
                          f"{sorted(ADVERSARIES)}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(
            f"bad adversary kwargs for {name!r}: {exc}") from None


def stride_placement(num_nodes: int, count: int):
    """Evenly strided controlled-node ids over ``range(num_nodes)``.

    The one placement both engines use for graph protocols, so the
    event-side ``liars`` realization and the vectorized fault vectors
    corrupt the *same* nodes.
    """
    import numpy as np

    if count < 1:
        raise ConfigError(f"adversary count must be >= 1: {count!r}")
    if count >= num_nodes:
        raise ConfigError(
            f"adversary count {count} must leave honest nodes "
            f"(n={num_nodes})")
    return np.unique(
        np.round(np.linspace(0, num_nodes - 1, count)).astype(np.int64))


def default_count(num_nodes: int) -> int:
    """Default controlled-node count for graph protocols: 5% of the
    grid, at least one, never the whole graph."""
    return max(1, min(num_nodes - 1, num_nodes // 20))


# ----------------------------------------------------------------------
# Vectorized runtimes (budget enforcement + counters)
# ----------------------------------------------------------------------

class _CounterMixin:
    def _init_counters(self, model: AdversaryModel, count: int,
                       amplitude: float, mechanism: str) -> None:
        self.model = model
        self.amplitude = amplitude
        self.budget = AdversaryBudget(amplitude=amplitude, count=count)
        self._counters = {
            **model.spec(),
            "count": count,
            "amplitude": amplitude,
            "mechanism": mechanism,
            "rounds_acted": 0,
            "injected_abs_max": 0.0,
            "injected_abs_sum": 0.0,
            "silenced_slots": 0,
        }

    def counters(self) -> dict:
        """The uniform ``ProtocolRunResult.adversary`` block."""
        return dict(self._counters)

    def _record(self, injected_abs, silenced: int) -> None:
        c = self._counters
        c["rounds_acted"] += 1
        if injected_abs.size:
            c["injected_abs_max"] = max(c["injected_abs_max"],
                                        float(injected_abs.max()))
            c["injected_abs_sum"] += float(injected_abs.sum())
        c["silenced_slots"] += silenced

    def _check_amplitude(self, offsets) -> None:
        import numpy as np

        worst = float(np.max(np.abs(offsets))) if offsets.size else 0.0
        if worst > self.amplitude * (1.0 + 1e-9) + 1e-15:
            raise ConfigError(
                f"adversary {self.model.name!r} act() exceeded its "
                f"amplitude budget: |offset| {worst:g} > "
                f"{self.amplitude:g}")


class VecAdversaryRuntime(_CounterMixin):
    """Per-round fault-vector injection for CSR graph protocols.

    Owns the placement (``stride_placement``), the ``vec/adv/*`` seed
    stream, the budget enforcement, the counters, and the honest-only
    skew measurements the round models report (matching the event
    engine's correct-edges convention).
    """

    def __init__(self, model: AdversaryModel, csr, streams,
                 default_amplitude: float) -> None:
        import numpy as np

        if not model.supports_vectorized:
            raise ConfigError(
                f"adversary {model.name!r} has no vectorized "
                f"realization; use the event engine")
        n = csr.num_nodes
        count = model.count if model.count is not None \
            else default_count(n)
        amplitude = model.amplitude if model.amplitude is not None \
            else default_amplitude
        self.faulty_nodes = stride_placement(n, count)
        faulty_mask = np.zeros(n, dtype=bool)
        faulty_mask[self.faulty_nodes] = True
        self.faulty_mask = faulty_mask
        self.honest_mask = ~faulty_mask
        self.honest_ids = np.nonzero(self.honest_mask)[0]
        #: Slots whose *sender* is controlled.
        self.faulty_slots = faulty_mask[csr.indices]
        self.csr = csr
        honest_edges = (self.honest_mask[csr.edge_a]
                        & self.honest_mask[csr.edge_b])
        self._edge_a = csr.edge_a[honest_edges]
        self._edge_b = csr.edge_b[honest_edges]
        self.rng = streams.stream(f"adv/{model.name}")
        self._init_counters(model, int(self.faulty_nodes.size),
                            amplitude, "vectorized")

    def round_vectors(self, round_index: int, *,
                      honest_local_skew: float = 0.0,
                      evaluate=None):
        """Observe, act, enforce the budget; returns
        ``(offsets, keep)`` ready for the masked estimate writes."""
        import numpy as np

        csr = self.csr
        self.model.observe(ObserveView(
            round_index=round_index,
            honest_local_skew=honest_local_skew))
        offsets, keep = self.model.act(ActView(
            round_index=round_index, amplitude=self.amplitude,
            num_slots=csr.num_slots, faulty_slots=self.faulty_slots,
            receivers=csr.row, senders=csr.indices, rng=self.rng,
            evaluate=evaluate))
        offsets = np.asarray(offsets, dtype=np.float64)
        keep = np.asarray(keep, dtype=bool)
        if offsets.shape != (csr.num_slots,) \
                or keep.shape != (csr.num_slots,):
            raise ConfigError(
                f"adversary {self.model.name!r} act() returned wrong "
                f"shapes: {offsets.shape}, {keep.shape} for "
                f"{csr.num_slots} slots")
        honest = ~self.faulty_slots
        if np.any(offsets[honest] != 0.0):
            raise ConfigError(
                f"adversary {self.model.name!r} act() wrote offsets "
                f"outside its fault set (budget: "
                f"{self.budget.count} node(s))")
        if np.any(~keep[honest]):
            raise ConfigError(
                f"adversary {self.model.name!r} act() silenced honest "
                f"slots (budget: {self.budget.count} node(s))")
        self._check_amplitude(offsets)
        self._record(np.abs(offsets[self.faulty_slots]),
                     int((~keep).sum()))
        return offsets, keep

    def local_skew(self, clocks) -> float:
        """Max skew over honest–honest edges (the event engine's
        correct-edges convention)."""
        import numpy as np

        if self._edge_a.size == 0:
            return 0.0
        return float(np.max(np.abs(clocks[self._edge_a]
                                   - clocks[self._edge_b])))

    def global_skew(self, clocks) -> float:
        import numpy as np

        honest = clocks[self.honest_ids]
        if honest.size == 0:
            return 0.0
        return float(honest.max() - honest.min())


class CliqueAdversaryRuntime(_CounterMixin):
    """Per-round arrival-vector injection for clique protocols
    (Srikanth–Toueg): the first ``count ≤ f`` members are controlled,
    mirroring the ``silent_faults`` convention, and each act displaces
    per-receiver arrival times within ``±amplitude``."""

    def __init__(self, model: AdversaryModel, n: int, f: int, streams,
                 default_amplitude: float) -> None:
        import numpy as np

        if not model.supports_vectorized:
            raise ConfigError(
                f"adversary {model.name!r} has no vectorized "
                f"realization; use the event engine")
        count = model.count if model.count is not None else max(f, 1)
        if count > f:
            raise ConfigError(
                f"adversary count {count} exceeds the clique fault "
                f"budget f={f}")
        if count >= n:
            raise ConfigError(
                f"adversary count {count} must leave honest nodes "
                f"(n={n})")
        amplitude = model.amplitude if model.amplitude is not None \
            else default_amplitude
        self.faulty_ids = np.arange(count)
        self.correct_ids = np.arange(count, n)
        self.rng = streams.stream(f"adv/{model.name}")
        self._init_counters(model, count, amplitude, "vectorized")

    def round_pairs(self, round_index: int, *,
                    honest_local_skew: float = 0.0, evaluate=None):
        """Observe, act, enforce the budget; returns
        ``(offsets, keep)`` with shapes ``(count, correct)`` /
        ``(count,)``."""
        import numpy as np

        self.model.observe(ObserveView(
            round_index=round_index,
            honest_local_skew=honest_local_skew))
        offsets, keep = self.model.act_pairs(PairActView(
            round_index=round_index, amplitude=self.amplitude,
            faulty_ids=self.faulty_ids, receiver_ids=self.correct_ids,
            rng=self.rng, evaluate=evaluate))
        offsets = np.asarray(offsets, dtype=np.float64)
        keep = np.asarray(keep, dtype=bool)
        expect = (self.faulty_ids.size, self.correct_ids.size)
        if offsets.shape != expect or keep.shape != (expect[0],):
            raise ConfigError(
                f"adversary {self.model.name!r} act_pairs() returned "
                f"wrong shapes: {offsets.shape}, {keep.shape} for "
                f"{expect}")
        self._check_amplitude(offsets)
        self._record(np.abs(offsets[keep]) if keep.any()
                     else np.abs(offsets[:0]), int((~keep).sum()))
        return offsets, keep


# ----------------------------------------------------------------------
# Event-side validation helpers
# ----------------------------------------------------------------------

#: Per-protocol event-engine realizations: the model's own driver on
#: the FTGCS family, native payload mechanisms for the baselines.  The
#: driver's name "strategy" predates the adversary layer; it stays
#: because every stored adversarial event cell (and every benchmark
#: fingerprint of one) carries it in its counters block.
_EVENT_MECHANISMS = {
    "ftgcs": "strategy",
    "lynch_welch": "strategy",
    "gcs_single": "liars",
    "srikanth_toueg": "silent_faults",
}


def validate_event_support(model: AdversaryModel,
                           protocol: str) -> str:
    """Check (eagerly) that ``model`` is realizable on the event
    engine under ``protocol``; returns the mechanism name."""
    mechanism = _EVENT_MECHANISMS.get(protocol)
    if mechanism is None:
        raise ConfigError(
            f"protocol {protocol!r} has no event-engine adversary "
            f"realization; supported: {sorted(_EVENT_MECHANISMS)}")
    if not model.supports_event:
        raise ConfigError(
            f"adversary {model.name!r} is search-based "
            f"(vectorized-only); use .engine('vectorized')")
    if mechanism == "silent_faults":
        if model.name != "silent":
            raise ConfigError(
                f"srikanth_toueg on the event engine realizes only "
                f"the 'silent' adversary (its native silent_faults "
                f"mechanism); got {model.name!r} — use the "
                f"vectorized engine")
    elif mechanism == "liars":
        if model.name != "equivocate":
            raise ConfigError(
                f"gcs_single on the event engine realizes only the "
                f"'equivocate' adversary (its native liars "
                f"mechanism); got {model.name!r} — use the "
                f"vectorized engine")
    return mechanism


__all__ = [
    "ADVERSARIES",
    "ActView",
    "AdversaryBudget",
    "AdversaryModel",
    "CliqueAdversaryRuntime",
    "CollusionAdversary",
    "CrashAdversary",
    "EquivocateAdversary",
    "EventContext",
    "FastClockAdversary",
    "GreedyAdversary",
    "ObserveView",
    "PairActView",
    "PullApartAdversary",
    "RandomPulseAdversary",
    "RandomRestartAdversary",
    "SilentAdversary",
    "VecAdversaryRuntime",
    "default_count",
    "get_adversary",
    "stride_placement",
    "validate_event_support",
]
