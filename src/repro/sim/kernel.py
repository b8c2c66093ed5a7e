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

The :meth:`Simulator.run` loop is the hottest code in the library; it
works directly on the queue's tuple heap with every name bound to a
local, which roughly halves per-event dispatch cost versus attribute
lookups on each iteration.
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
        #: Time bound of the active :meth:`run` call (``inf`` outside
        #: one).  Batch consumers (the network's delivery heap) read
        #: it so a single kernel wake-up never executes work past
        #: the caller's horizon.
        self._horizon = math.inf
        #: Work-unit budget of the active
        #: :meth:`run_until_idle(max_events=...)` call (``inf``
        #: otherwise).  Batch consumers decrement it per delivered
        #: unit and stop draining at zero, so the runaway-loop guard
        #: still fires when a send-on-delivery cascade never returns
        #: to the kernel loop.
        self._batch_budget = math.inf

    @property
    def now(self) -> float:
        """Current Newtonian simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (for profiling).

        Accounting is deferred inside :meth:`run` and
        :meth:`run_until_idle`: their hot loops count into a local and
        flush once on exit, so a callback reading this *during* a run
        sees the pre-run value.  Reads between runs (the supported
        profiling use) are always exact; drive the kernel via
        :meth:`step` if per-event accuracy mid-run matters.
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

    def alloc_seq(self) -> int:
        """Consume one scheduling sequence number without queueing.

        The network's batched delivery assigns every message the
        sequence number one kernel event per message would have given
        its delivery, so tie-breaking among simultaneous events is the
        same as in that per-message stream.  The number is burned
        either way — callers must use it (in their own side queue) or
        accept the gap.  (The network's per-message hot path inlines
        this body; this method is the documented contract and the
        entry point for other batch consumers.)
        """
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        return seq

    def call_at_key(self, time: float, seq: int,
                    callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` at an explicit ``(time, seq)`` key.

        Internal plumbing for batch consumers: a wake-up event co-keyed
        with an :meth:`alloc_seq`-numbered side-queue entry fires at
        exactly the heap position a per-entry kernel event would
        have, so interleaving with every other kernel event is
        preserved.  ``seq`` must come from :meth:`alloc_seq` (reusing a
        live event's key is undefined).
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

    def step(self) -> bool:
        """Fire the single next event.

        A network flush event fired through here delivers at most one
        message (the batch budget is pinned to one work unit for the
        duration), so step-driven loops keep their per-event
        granularity under batched delivery too.

        Returns
        -------
        bool
            ``True`` if an event fired, ``False`` if the queue is empty.
        """
        queue = self._queue
        event = queue.pop()
        if event is None:
            return False
        prev_budget = self._batch_budget
        self._batch_budget = 1.0
        try:
            self._now = event.time
            self._events_processed += 1
            event.callback(*event.args)
        finally:
            self._batch_budget = prev_budget
        interval = event.interval
        if interval is not None and not event.cancelled:
            queue.requeue(event, event.time + interval)
        return True

    def run(self, until: float) -> None:
        """Process all events with ``time <= until``, then set ``now``.

        The kernel time is advanced to exactly ``until`` afterwards even
        when no event fires at that instant, so samplers observing
        ``sim.now`` after :meth:`run` see the requested horizon.
        """
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards: until={until!r} < now={self._now!r}")
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        # Save/restore the batch-consumer state: a `run` nested inside
        # a bounded `run_until_idle` (legal — only run-in-run is
        # blocked) must neither inherit the outer budget (work inside
        # a nested run never counted toward an outer bound, and an
        # exhausted budget would make zero-progress flush wake-ups
        # spin) nor clobber the outer horizon on exit.
        prev_horizon = self._horizon
        prev_budget = self._batch_budget
        self._horizon = until
        self._batch_budget = math.inf
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
            self._now = until
        finally:
            self._events_processed += processed
            self._running = False
            self._horizon = prev_horizon
            self._batch_budget = prev_budget

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Process events until the queue is empty.

        Parameters
        ----------
        max_events:
            Optional safety bound on *work units* — kernel events plus
            batched network deliveries (which execute inside a single
            flush event).  Once the budget is spent with work still
            queued, raises :class:`~repro.errors.SimulationError` so
            runaway self-scheduling loops surface as errors rather
            than hangs, whether they schedule events or send messages.
            A run needing exactly ``max_events`` units completes.

        Returns
        -------
        int
            Number of kernel events processed by this call.
        """
        # Same locals-bound hot loop as :meth:`run` (see comment there);
        # `step()` per event would double the dispatch cost.  The
        # budget lives in ``self._batch_budget`` (re-read per
        # iteration) only when a bound was requested, so the common
        # unbounded path pays nothing for it.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        fired = 0
        bounded = max_events is not None
        # Own budget and horizon for the duration (saved/restored so
        # nesting works like per-call counters: an inner call never
        # consumes — or disables — an outer bound,
        # and "until idle" means every pending delivery is due).
        prev_horizon = self._horizon
        prev_budget = self._batch_budget
        self._horizon = math.inf
        self._batch_budget = max_events if bounded else math.inf
        try:
            while heap:
                entry = heappop(heap)
                event = entry[2]
                if event.cancelled:
                    continue
                if bounded:
                    if self._batch_budget <= 0:
                        # A live event remains but the budget is spent.
                        # Push the entry back (same seq, order
                        # preserved) so the queue state stays
                        # consistent.
                        heappush(heap, entry)
                        raise SimulationError(
                            f"run_until_idle exceeded "
                            f"max_events={max_events}")
                    self._batch_budget -= 1
                event.fired = True
                queue._live -= 1
                self._now = entry[0]
                fired += 1
                event.callback(*event.args)
                interval = event.interval
                if interval is not None and not event.cancelled:
                    time = event.time + interval
                    seq = queue._seq
                    queue._seq = seq + 1
                    event.time = time
                    event.seq = seq
                    event.fired = False
                    queue._live += 1
                    heappush(heap, (time, seq, event))
        finally:
            self._events_processed += fired
            self._horizon = prev_horizon
            self._batch_budget = prev_budget
        return fired
