"""The discrete-event simulation kernel.

:class:`Simulator` owns the global event queue and the current
Newtonian time.  Components schedule callbacks either after a delay
(:meth:`Simulator.call_in`), at an absolute time
(:meth:`Simulator.call_at`), or on a fixed period
(:meth:`Simulator.call_repeating`).  The kernel processes events in
deterministic ``(time, seq)`` order.

Time never flows backwards: scheduling strictly in the past raises
:class:`~repro.errors.SimulationError`.  Scheduling "now" is allowed and
fires after all currently queued events with the same timestamp.

One dispatch loop serves both :meth:`Simulator.run` and
:meth:`Simulator.run_until_idle`.  It is the hottest code in the
library: it works directly on the queue's tuple heap with every name
bound to a local, which roughly halves per-event dispatch cost versus
attribute lookups on each iteration.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue

#: ``Event.__new__`` bound once: the hot schedulers below build events
#: with inline attribute stores instead of paying a Python-level
#: ``__init__`` call per event (~30% of scheduling cost).
_new_event = Event.__new__

#: Tolerance for "effectively now" scheduling.  Logical-clock inversion
#: can produce firing times a few ulps before the current time; those
#: are clamped to the current time rather than rejected.
PAST_TOLERANCE = 1e-9


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_in(1.5, fired.append, "a")
    >>> _ = sim.call_at(1.0, fired.append, "b")
    >>> sim.run(until=2.0)
    >>> fired
    ['b', 'a']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Time bound of the active :meth:`run` call (``inf`` under
        #: :meth:`run_until_idle`; meaningless between runs).  Batch
        #: consumers (the network's delivery heap) read it so a single
        #: kernel wake-up never executes work past the caller's
        #: horizon.
        self._horizon = math.inf

    @property
    def now(self) -> float:
        """Current Newtonian simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (for profiling).

        Accounting is deferred inside :meth:`run` and
        :meth:`run_until_idle`: their one dispatch loop counts into a
        local and flushes once on exit, so a callback reading this
        *during* a run sees the pre-run value.  Reads between runs
        (the supported profiling use) are always exact.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies more than :data:`PAST_TOLERANCE` in the
            past.
        """
        if time < self._now:
            if self._now - time > PAST_TOLERANCE:
                raise SimulationError(
                    f"cannot schedule at t={time!r}: current time is "
                    f"t={self._now!r}")
            time = self._now
        # Inlined EventQueue.push: scheduling is as hot as dispatch.
        # Keep the stores in sync with Event.__slots__ and the
        # twin site in call_at/call_in.
        queue = self._queue
        seq = queue._seq
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event.interval = None
        queue._seq = seq + 1
        queue._live += 1
        heapq.heappush(queue._heap, (time, seq, event))
        return event

    def call_in(self, delay: float, callback: Callable[..., None],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            if delay < -PAST_TOLERANCE:
                raise SimulationError(f"negative delay: {delay!r}")
            delay = 0.0
        # Inlined EventQueue.push: scheduling is as hot as dispatch.
        # Keep the stores in sync with Event.__slots__ and the
        # twin site in call_at/call_in.
        queue = self._queue
        time = self._now + delay
        seq = queue._seq
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event.interval = None
        queue._seq = seq + 1
        queue._live += 1
        heapq.heappush(queue._heap, (time, seq, event))
        return event

    def call_repeating(self, interval: float,
                       callback: Callable[..., None], *args: Any,
                       first_in: float | None = None) -> Event:
        """Schedule ``callback(*args)`` every ``interval`` time units.

        The first firing happens after ``first_in`` (default:
        ``interval``); subsequent firings re-arm the *same*
        :class:`Event` object, so periodic samplers cost zero
        allocations per tick.  Cancel with :meth:`cancel` — also valid
        from inside the callback, which stops the re-arming.
        """
        if interval <= 0:
            raise SimulationError(
                f"repeating interval must be positive: {interval!r}")
        delay = interval if first_in is None else first_in
        if delay < 0:
            if delay < -PAST_TOLERANCE:
                raise SimulationError(f"negative delay: {delay!r}")
            delay = 0.0
        event = self._queue.push(self._now + delay, callback, args)
        event.interval = interval
        return event

    # ------------------------------------------------------------------
    # Batch-consumer API (internal; used by the network's delivery heap)
    # ------------------------------------------------------------------

    def call_at_key(self, time: float, seq: int,
                    callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` at an explicit ``(time, seq)`` key.

        Internal plumbing for batch consumers.  A consumer numbers each
        side-queue entry by consuming one sequence number from the
        queue's counter without queueing an event (``seq =
        queue._seq; queue._seq = seq + 1``), which is the number one
        kernel event per entry would have carried, so tie-breaking
        among simultaneous events is the same as in that per-entry
        stream.  A wake-up event co-keyed with such an entry fires at
        exactly the heap position a per-entry kernel event would have,
        so interleaving with every other kernel event is preserved.
        The number is burned either way: the consumer uses it in its
        own side queue or accepts the gap.  ``seq`` must be consumed
        that way (reusing a live event's key is undefined).
        """
        queue = self._queue
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event.interval = None
        queue._live += 1
        heapq.heappush(queue._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call twice or after it
        fired; cancelling a repeating event stops future firings)."""
        self._queue.cancel(event)

    def run(self, until: float) -> None:
        """Process all events with ``time <= until``, then set ``now``.

        The kernel time is advanced to exactly ``until`` afterwards even
        when no event fires at that instant, so samplers observing
        ``sim.now`` after :meth:`run` see the requested horizon.
        """
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards: until={until!r} < now={self._now!r}")
        self._dispatch(until)
        self._now = until

    def run_until_idle(self) -> int:
        """Process events until the queue is empty.

        The loop of :meth:`run` with an infinite horizon; ``now`` stays
        at the last fired event's time.

        Returns
        -------
        int
            Number of kernel events processed by this call.
        """
        before = self._events_processed
        self._dispatch(math.inf)
        return self._events_processed - before

    def _dispatch(self, until: float) -> None:
        """Fire every queued event with ``time <= until`` (hot path).

        The one dispatch loop behind :meth:`run` and
        :meth:`run_until_idle`; raises
        :class:`~repro.errors.SimulationError` when called from inside
        a running kernel.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._horizon = until
        # Hot loop: operate on the queue internals with local bindings.
        # Compaction rewrites the heap list in place, so `heap` stays a
        # valid alias across callbacks that cancel events.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                time = entry[0]
                if time > until:
                    # Put the entry back (same seq, so order is
                    # preserved); cheaper than peeking every iteration.
                    heappush(heap, entry)
                    break
                event = entry[2]
                if event.cancelled:
                    continue
                event.fired = True
                queue._live -= 1
                self._now = time
                processed += 1
                event.callback(*event.args)
                interval = event.interval
                if interval is not None and not event.cancelled:
                    time += interval
                    seq = queue._seq
                    queue._seq = seq + 1
                    event.time = time
                    event.seq = seq
                    event.fired = False
                    queue._live += 1
                    heappush(heap, (time, seq, event))
        finally:
            self._events_processed += processed
            self._running = False
