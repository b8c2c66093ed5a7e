"""Unit tests for the event queue primitives, driven through the
kernel's scheduling and dispatch API."""

from repro.sim import Simulator
from repro.sim.events import Event


class TestEventOrdering:
    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, fired.append, "b")
        sim.call_at(1.0, fired.append, "a")
        sim.call_at(3.0, fired.append, "c")
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.call_at(5.0, fired.append, tag)
        sim.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_len_counts_live_events(self):
        sim = Simulator()
        e1 = sim.call_at(1.0, lambda: None)
        sim.call_in(2.0, lambda: None)
        assert sim.pending_events == len(sim._queue) == 2
        sim.cancel(e1)
        assert sim.pending_events == 1

    def test_event_repr_and_lt(self):
        a = Event(1.0, 0, lambda: None, ())
        b = Event(1.0, 1, lambda: None, ())
        c = Event(0.5, 2, lambda: None, ())
        assert a < b
        assert c < a


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.call_at(1.0, fired.append, "x")
        sim.cancel(event)
        assert sim.run_until_idle() == 0
        assert fired == []

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 0

    def test_cancel_releases_references(self):
        sim = Simulator()
        payload = object()
        event = sim.call_at(1.0, lambda x: None, payload)
        sim.cancel(event)
        assert event.args == ()

    def test_cancel_after_fire_does_not_corrupt_live_count(self):
        # Regression: cancelling a stale reference to an event that
        # already fired used to decrement the live count a second time.
        sim = Simulator()
        fired = []
        stale = sim.call_at(1.0, fired.append, "x")
        sim.call_at(2.0, fired.append, "y")
        sim.run(until=1.0)
        assert fired == ["x"]
        sim.cancel(stale)  # stale handle; the event already fired
        assert sim.pending_events == 1
        assert sim.run_until_idle() == 1
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_flagged_but_harmless(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.run_until_idle()
        sim.cancel(event)
        assert event.cancelled
        assert sim.pending_events == 0

    def test_compaction_keeps_heap_within_twice_live(self):
        from repro.sim.events import COMPACT_MIN_SIZE

        sim = Simulator()
        queue = sim._queue
        live = [sim.call_at(float(i), lambda: None) for i in range(200)]
        for i in range(5_000):
            slot = i % 200
            sim.cancel(live[slot])
            live[slot] = sim.call_at(1000.0 + i, lambda: None)
            assert queue.heap_size <= max(COMPACT_MIN_SIZE,
                                          2 * len(queue))
        assert sim.pending_events == 200
        assert sim.run_until_idle() == 200
