"""Shared machinery for piecewise-constant-rate clocks.

Every clock in the library — hardware, logical, and scaled estimate
clocks — is an :class:`IntegratingClock`: it stores a state triple
``(t0, v0, rate)`` meaning "at Newtonian time ``t0`` the clock read
``v0`` and currently advances at ``rate``".  Reads and alarm-time
inversions are exact; there is no numeric integration anywhere.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.clocks.alarms import Alarm, AlarmManager
from repro.errors import ClockError
from repro.sim.kernel import Simulator


class IntegratingClock:
    """A clock with piecewise-constant rate and exact alarms.

    Subclasses determine the rate; they must call
    :meth:`_change_rate` (never mutate ``_rate`` directly) so pending
    alarms stay consistent.
    """

    def __init__(self, sim: Simulator, initial_value: float = 0.0,
                 initial_rate: float = 1.0, name: str = "") -> None:
        if initial_rate <= 0:
            raise ClockError(f"clock rate must be positive: {initial_rate!r}")
        self._sim = sim
        self._t0 = sim.now
        self._v0 = initial_value
        self._rate = initial_rate
        self.name = name
        self._alarms = AlarmManager(sim, self)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def rate(self) -> float:
        """Current instantaneous rate dV/dt."""
        return self._rate

    def value(self, t: float | None = None) -> float:
        """Clock reading at time ``t`` (default: current kernel time).

        Only the current rate segment is stored, so ``t`` must not
        precede the segment start (i.e. the last rate change).
        """
        if t is None:
            t = self._sim._now
        if t < self._t0 - 1e-9:
            raise ClockError(
                f"cannot read clock {self.name!r} at t={t!r}: current "
                f"rate segment starts at t={self._t0!r}")
        return self._v0 + self._rate * (t - self._t0)

    def time_of_value(self, target: float) -> float:
        """Newtonian time at which the clock reaches ``target``.

        Assumes the current rate persists; the alarm manager re-invokes
        this whenever the rate changes.  Targets already reached map to
        the current time.
        """
        t = self._t0 + (target - self._v0) / self._rate
        now = self._sim._now
        return t if t > now else now

    # ------------------------------------------------------------------
    # Mutation (subclass API)
    # ------------------------------------------------------------------

    def _advance_to_now(self) -> None:
        """Fold elapsed time into ``(t0, v0)`` before a state change."""
        now = self._sim._now
        if now != self._t0:
            self._v0 += self._rate * (now - self._t0)
            self._t0 = now

    def _change_rate(self, new_rate: float) -> None:
        """Switch to ``new_rate`` as of the current kernel time."""
        if new_rate <= 0:
            raise ClockError(
                f"clock {self.name!r}: rate must be positive, "
                f"got {new_rate!r}")
        self._advance_to_now()
        if new_rate != self._rate:
            self._rate = new_rate
            self._alarms.reschedule()

    def _jump_to_value(self, new_value: float) -> None:
        """Discontinuously set the reading (must not move backwards)."""
        self._advance_to_now()
        if new_value < self._v0:
            raise ClockError(
                f"clock {self.name!r}: cannot jump backwards from "
                f"{self._v0!r} to {new_value!r}")
        if new_value != self._v0:
            self._v0 = new_value
            self._alarms.reschedule()

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------

    def at_value(self, target: float, callback: Callable[..., None],
                 *args: Any) -> Alarm:
        """Invoke ``callback(*args)`` when the clock reaches ``target``."""
        return self._alarms.add(target, callback, args)

    def cancel_alarm(self, alarm: Alarm) -> None:
        """Cancel an alarm returned by :meth:`at_value`."""
        self._alarms.cancel(alarm)

    def pending_alarms(self) -> int:
        """Number of pending alarms (introspection for tests)."""
        return len(self._alarms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"value={self.value():.6g}, rate={self._rate:.6g})")
