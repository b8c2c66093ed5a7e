"""Alarms that fire when a clock reaches a target value.

The algorithms in this library are driven by statements of the form
"at logical time ``X`` do ...".  Because every clock in the simulation
has a piecewise-constant rate, the Newtonian firing time of such an
alarm is obtained by *exact inversion*::

    t_fire = t_now + (target - value_now) / rate

Whenever the clock's rate changes (hardware drift step, ``delta``/
``gamma`` update), pending alarms are rescheduled with the new rate.
The :class:`AlarmManager` keeps at most one kernel event outstanding —
the one for the earliest pending target — so rate changes cost
O(log n) regardless of how many alarms are registered.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.clocks.base import IntegratingClock
    from repro.sim.kernel import Simulator

#: Absolute tolerance when deciding that a clock has reached a target.
#: Inversion arithmetic on float64 with the magnitudes used in this
#: library (times up to ~1e7) is accurate to ~1e-9, so 1e-7 is safely
#: above numeric noise yet far below any algorithmically relevant gap.
ALARM_TOLERANCE = 1e-7


class Alarm:
    """A pending "call me when the clock reads ``target``" request."""

    __slots__ = ("target", "seq", "_callback", "_args", "cancelled")

    def __init__(self, target: float, seq: int,
                 callback: Callable[..., None], args: tuple[Any, ...]):
        self.target = target
        self.seq = seq
        self._callback = callback
        self._args = args
        self.cancelled = False

    def __lt__(self, other: "Alarm") -> bool:
        if self.target != other.target:
            return self.target < other.target
        return self.seq < other.seq


class AlarmManager:
    """Maintains the alarm heap for one clock.

    The owning clock must call :meth:`reschedule` after *every* rate or
    value change; the manager then re-inverts the earliest target.
    """

    def __init__(self, sim: "Simulator", clock: "IntegratingClock") -> None:
        self._sim = sim
        self._clock = clock
        self._heap: list[Alarm] = []
        self._seq = 0
        self._kernel_event = None

    def __len__(self) -> int:
        return sum(1 for a in self._heap if not a.cancelled)

    def add(self, target: float, callback: Callable[..., None],
            args: tuple[Any, ...]) -> Alarm:
        """Register an alarm at clock value ``target``.

        Targets at or before the current clock reading fire on the next
        kernel dispatch at the current time ("when the clock reaches X"
        is immediately true).  This matters for clocks that can jump
        forward (max-estimates, jump-based baselines), which may pass
        several pending targets at once.
        """
        alarm = Alarm(target, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, alarm)
        self.reschedule()
        return alarm

    def cancel(self, alarm: Alarm) -> None:
        """Cancel a pending alarm (lazy removal from the heap)."""
        alarm.cancelled = True

    def reschedule(self) -> None:
        """Re-invert the earliest pending target after a clock change."""
        if self._kernel_event is not None:
            self._sim.cancel(self._kernel_event)
            self._kernel_event = None
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return
        target = heap[0].target
        t_fire = self._clock.time_of_value(target)
        self._kernel_event = self._sim.call_at(t_fire, self._on_fire)

    def _on_fire(self) -> None:
        """Fire every alarm whose target the clock has now reached."""
        self._kernel_event = None
        value = self._clock.value()
        heap = self._heap
        due: list[Alarm] = []
        while heap and (heap[0].cancelled
                        or heap[0].target <= value + ALARM_TOLERANCE):
            alarm = heapq.heappop(heap)
            if not alarm.cancelled:
                due.append(alarm)
        # Reschedule *before* firing: callbacks may register new alarms
        # or change the clock rate, both of which call reschedule()
        # themselves; doing ours first keeps the invariant simple.
        self.reschedule()
        for alarm in due:
            alarm._callback(*alarm._args)
