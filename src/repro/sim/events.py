"""Event primitives for the discrete-event kernel.

An :class:`Event` is a scheduled callback with a firing time.  The heap
holds lightweight ``(time, seq, event)`` tuples where ``seq`` is a
monotonically increasing sequence number assigned at scheduling time;
this makes executions fully deterministic (FIFO among simultaneous
events) while keeping heap comparisons in C (tuple comparison) instead
of calling a Python ``__lt__`` per sift step.  :meth:`Event.__lt__`
still exists for the one case where two entries share a key: the
network arms its delivery wake-ups at explicit ``(time, seq)`` keys
(:meth:`~repro.sim.kernel.Simulator.call_at_key`), and two wake-ups
for the same delivery compare their events.

The kernel's dispatch loop pops the heap itself; this module only
builds, counts and cancels entries.

Cancellation is *lazy*: cancelling marks the event and the kernel skips
it when popped.  To keep long runs bounded, the queue *compacts* itself
whenever cancelled entries outnumber live ones (heavy alarm
rescheduling — e.g. ``LogicalClock.set_delta`` storms — would otherwise
grow the heap without bound).  Compaction rewrites the heap list *in
place* so kernel loops holding a local alias stay valid.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Heaps smaller than this are never compacted — the bookkeeping would
#: cost more than the garbage it reclaims.
COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute (Newtonian) simulation time at which the event fires.
    seq:
        Tie-breaking sequence number; earlier-scheduled events fire
        first among events with equal ``time``.
    interval:
        ``None`` for one-shot events.  Repeating events (see
        :meth:`~repro.sim.kernel.Simulator.call_repeating`) carry their
        period here and are re-armed by the kernel after each firing,
        reusing this object instead of allocating a new one per tick.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "interval")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.interval: float | None = None

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True
        # Drop references eagerly so cancelled events do not pin large
        # object graphs while they sit in the heap awaiting removal.
        self.callback = _noop
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.fired else "pending")
        return f"Event(t={self.time:.6g}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples; ``_live`` counts
    entries whose event is neither cancelled nor popped.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap length including lazily-cancelled entries."""
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., None],
             args: tuple[Any, ...] = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        seq = self._seq
        event = Event(time, seq, callback, args)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (lazy removal).

        Safe to call twice and safe to call with a *stale* reference to
        an event that already fired: fired events are no longer in the
        heap, so only the cancelled flag is set (which also stops a
        repeating event from re-arming) and the live count is untouched.
        """
        if event.cancelled:
            return
        if event.fired:
            event.cancelled = True
            return
        event.cancel()
        self._live -= 1
        heap = self._heap
        if len(heap) >= COMPACT_MIN_SIZE and len(heap) > 2 * self._live:
            # In-place rewrite: aliases of the heap list stay valid.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
