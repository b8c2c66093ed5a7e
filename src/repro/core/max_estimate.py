"""The global-skew estimate ``M_v`` (Lemma C.2).

Every node maintains a conservative estimate of the maximum logical
clock in the system:

* ``M_v`` increases at rate ``h_v / (1 + rho) <= 1``, so it can never
  overtake the true maximum (which increases at rate ``>= 1``);
* whenever ``M_v`` crosses a multiple of the *level unit*, the node
  broadcasts a MAX pulse (a channel distinguishable from sync pulses);
* a node that has registered level-``k`` pulses from ``f + 1`` distinct
  members of any single cluster knows at least one *correct* node had
  ``M >= k * unit`` at send time; messages travel ``>= d - U``, so it
  may raise its own estimate to ``(k + 1) * unit`` — Lemma C.2's rule —
  and then emits its own pulses for all levels it has now reached,
  producing a fault-tolerant flood.

The paper uses ``unit = d - U`` and notes it makes "no attempt to keep
the message complexity low"; with round lengths of order ``c1 * E``
that is millions of pulses per round in simulation.  The unit is
therefore configurable (default ``delta_trigger``): a coarser unit
only adds ``O(unit)`` to the estimate lag, leaving the ``O(delta * D)``
global bound intact while keeping message counts sane.  Setting
``unit = d - U`` reproduces the letter of the paper.

The decode is incremental.  Per cluster ``c`` it keeps two integers:
``confirmed[c]``, the ``(f + 1)``-th largest pulse count among ``c``'s
members (0 while fewer than ``f + 1`` of them have counted), and
``above[c]``, how many members count strictly more than that.  By
definition ``above[c] <= f``.  A pulse raises one count by exactly one,
so it can only matter when it lifts a count from ``confirmed[c]`` to
``confirmed[c] + 1``: ``above[c]`` grows, and once it reaches ``f + 1``
that many members count at least ``confirmed[c] + 1`` while at most
``f`` count more, so ``confirmed[c]`` steps up by exactly one and
``above[c]`` is recounted over the cluster.  Only then can the jump
target change; at any other pulse it equals a target already tried,
which the never-decreasing estimate has reached.  Counts only grow
between :meth:`MaxEstimate.reset_sender` calls, the one path that
lowers a count, so a reset rebuilds its cluster's pair from scratch.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import ScaledClock
from repro.errors import ConfigError
from repro.sim.kernel import Simulator


class MaxEstimate:
    """One node's ``M_v`` state machine.

    Parameters
    ----------
    sim, hardware:
        Kernel and the owner's hardware clock.
    rho:
        Drift bound; the estimate advances at ``h_v / (1 + rho)``.
    unit:
        Level granularity (see module docstring).
    f:
        Per-cluster fault bound; ``f + 1`` same-cluster witnesses are
        needed to accept a level.
    cluster_of:
        Maps a sender node id to its cluster id.
    initial_value:
        ``M_v(0)``; a node's own initial logical clock is always a
        safe choice.
    send_pulse:
        Callback broadcasting one MAX pulse to all neighbors.
    """

    def __init__(self, sim: Simulator, hardware: HardwareClock,
                 rho: float, unit: float, f: int,
                 cluster_of: dict[int, int], initial_value: float,
                 send_pulse: Callable[[], None],
                 transit_bonus: float = 0.0,
                 name: str = "") -> None:
        if unit <= 0:
            raise ConfigError(f"max-estimate unit must be positive: {unit!r}")
        if transit_bonus < 0:
            raise ConfigError(
                f"transit_bonus must be non-negative: {transit_bonus!r}")
        self._sim = sim
        self._unit = unit
        self._transit_bonus = transit_bonus
        self._f = f
        self._cluster_of = dict(cluster_of)
        #: per-cluster member ids, for the decode's recounts.
        self._members: dict[int, list[int]] = {}
        for sender, cluster in self._cluster_of.items():
            self._members.setdefault(cluster, []).append(sender)
        #: per-cluster decode state (see the module docstring): the
        #: (f+1)-th largest member count, and how many members exceed it.
        self._confirmed = dict.fromkeys(self._members, 0)
        self._above = dict.fromkeys(self._members, 0)
        self._send_pulse = send_pulse
        self.name = name
        self._clock = ScaledClock(sim, hardware, scale=1.0 / (1.0 + rho),
                                  initial_value=initial_value,
                                  name=name or "max-estimate")
        # Levels already announced by us; we announce every level we
        # reach, whether by local progress or by a flood-induced jump.
        # Receivers decode "k-th pulse from sender" as "sender reached
        # level k", so announcements must start at level 1 even when a
        # node's clock starts negative (a lagging initial offset) —
        # otherwise receivers would overestimate M and break its
        # "never exceeds the true maximum" invariant.
        self._announced_level = max(0, self._level_of(initial_value))
        #: per-sender highest pulse count == highest announced level.
        self._sender_levels: dict[int, int] = {}
        #: per-sender quarantine deadline after a decode reset: pulses
        #: *arriving* before it may have been in flight from before
        #: the link outage and are dropped (see :meth:`reset_sender`).
        self._quarantine: dict[int, float] = {}
        self.pulses_sent = 0
        self.pulses_received = 0
        self.jumps = 0
        self.sender_resets = 0
        self.quarantined_pulses = 0
        self._running = False
        #: The pending level alarm (``at_value`` handle), or ``None``.
        self._level_alarm = None

    # ------------------------------------------------------------------

    def _level_of(self, value: float) -> int:
        return int(math.floor(value / self._unit + 1e-12))

    def value(self, t: float | None = None) -> float:
        """Current estimate ``M_v(t)``."""
        return self._clock.value(t)

    def observe_own(self, logical_value: float) -> None:
        """Fold the owner's logical clock into the estimate.

        ``L_v <= L_max`` always, so the own clock is sound evidence;
        Lemma C.2's proof uses ``M_w >= L_w`` implicitly.  Without this
        the estimate falls behind by ``(phi + mu) * t`` because logical
        clocks advance at ``(1+phi)``-ish rates while the conservative
        internal clock advances at ``h/(1+rho) <= 1``.
        """
        if self._clock.jump_to(logical_value):
            self._announce_up_to(self._level_of(self.value()))

    @property
    def announced_level(self) -> int:
        """Highest level this node has announced so far (the number of
        MAX pulses a fully-connected receiver has seen from it)."""
        return self._announced_level

    def reset_sender(self, sender: int,
                     quarantine_until: float | None = None) -> None:
        """First-contact (re)initialization of one sender's decode.

        The count-based decode ("k-th pulse from ``sender`` means
        ``sender`` reached level k") only holds if every pulse since
        the sender's level 1 was received.  When a link (re)appears
        under a dynamic topology, that premise is re-established by a
        *paired* protocol: the receiver resets the sender's count here,
        and the sender re-announces its current level over the fresh
        link (see :class:`~repro.core.node.FtgcsNode`); the decode then
        reads exactly the re-announced level.  If the re-announcement
        is capped (or lost), the decode *under*-estimates — which keeps
        the ``M <= true maximum`` invariant intact.

        ``quarantine_until`` closes the one over-count hole: a pulse
        still in flight from *before* the outage would add to the
        fresh count on top of the re-announcement.  Pulses from
        ``sender`` **arriving** before the deadline are dropped
        (counted in ``quarantined_pulses``); the caller sets the
        deadline to ``now + d`` — every pre-outage pulse left the
        sender before the link came back up, so it delivers strictly
        before ``now + d``, while the re-announcement is delayed by
        ``U`` so its copies arrive at or after it.  Dropping can only
        under-count, the sound direction.
        """
        self._sender_levels.pop(sender, None)
        cluster = self._cluster_of.get(sender)
        if cluster is not None:
            counts = sorted((self._sender_levels.get(m, 0)
                             for m in self._members[cluster]),
                            reverse=True)
            confirmed = counts[self._f] if len(counts) > self._f else 0
            self._confirmed[cluster] = confirmed
            self._above[cluster] = self._count_above(cluster, confirmed)
        if quarantine_until is not None:
            self._quarantine[sender] = quarantine_until
        self.sender_resets += 1

    def start(self) -> None:
        if self._running:
            raise ConfigError(f"{self.name}: already started")
        self._running = True
        self._arm_next_level()

    def stop(self) -> None:
        """Stop announcing and decoding until :meth:`start`.

        Cancels the pending level alarm, so a later :meth:`start`
        (a rejoin after a crash) re-arms exactly one alarm chain.  The
        announced level, the per-sender counts and the estimate clock
        are kept (see :meth:`FtgcsNode.rejoin
        <repro.core.node.FtgcsNode.rejoin>`).
        """
        self._running = False
        if self._level_alarm is not None:
            self._clock.cancel_alarm(self._level_alarm)
            self._level_alarm = None

    def _arm_next_level(self) -> None:
        next_level = self._announced_level + 1
        self._level_alarm = self._clock.at_value(
            next_level * self._unit, self._on_level_reached, next_level)

    def _on_level_reached(self, level: int) -> None:
        if not self._running:
            return
        # A jump may have carried us past several levels; announce all.
        self._announce_up_to(max(level, self._level_of(self.value())))
        self._arm_next_level()

    def _announce_up_to(self, level: int) -> None:
        while self._announced_level < level:
            self._announced_level += 1
            self.pulses_sent += 1
            self._send_pulse()

    # ------------------------------------------------------------------

    def on_pulse(self, sender: int, receive_time: float) -> None:
        """Process one received MAX pulse."""
        if not self._running:
            return
        self.pulses_received += 1
        if self._quarantine:
            until = self._quarantine.get(sender)
            if until is not None:
                if receive_time < until:
                    # Possibly in flight from before the outage; the
                    # decode must not count it (see reset_sender).
                    self.quarantined_pulses += 1
                    return
                del self._quarantine[sender]
        cluster = self._cluster_of.get(sender)
        if cluster is None:
            return
        levels = self._sender_levels
        level = levels.get(sender, 0) + 1
        levels[sender] = level
        confirmed = self._confirmed[cluster]
        if level != confirmed + 1:
            return
        above = self._above[cluster] + 1
        if above <= self._f:
            self._above[cluster] = above
            return
        confirmed += 1
        self._confirmed[cluster] = confirmed
        self._above[cluster] = self._count_above(cluster, confirmed)
        # A correct witness had M >= confirmed * unit at send time, and
        # the message spent at least d - U in flight (the paper's "+1"
        # with unit = d - U is exactly this transit bonus).
        target = confirmed * self._unit + self._transit_bonus
        if self._clock.jump_to(target):
            self.jumps += 1
            self._announce_up_to(self._level_of(self._clock.value()))

    def _count_above(self, cluster: int, confirmed: int) -> int:
        """How many members of ``cluster`` count more than ``confirmed``."""
        levels = self._sender_levels
        above = 0
        for member in self._members[cluster]:
            if levels.get(member, 0) > confirmed:
                above += 1
        return above
