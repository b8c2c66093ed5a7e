"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_call_at_and_call_in(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "at")
        sim.call_in(0.5, fired.append, "in")
        sim.run(until=2.0)
        assert fired == ["in", "at"]

    def test_run_advances_time_to_until(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_after_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.call_at(5.0, fired.append, "late")
        sim.run(until=1.0)
        assert fired == []
        sim.run(until=6.0)
        assert fired == ["late"]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_tiny_past_tolerance_clamps(self):
        sim = Simulator()
        sim.run(until=5.0)
        event = sim.call_at(5.0 - 1e-12, lambda: None)
        assert event.time == 5.0

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)

    def test_run_backwards_raises(self):
        sim = Simulator()
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestExecution:
    def test_callback_sees_current_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.5, lambda: seen.append(sim.now))
        sim.run(until=3.0)
        assert seen == [2.5]

    def test_self_scheduling_chain(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                sim.call_in(1.0, tick)

        sim.call_at(0.0, tick)
        sim.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_cancel_pending_event(self):
        sim = Simulator()
        fired = []
        event = sim.call_at(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run(until=2.0)
        assert fired == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.call_at(float(i), lambda: None)
        sim.run(until=10.0)
        assert sim.events_processed == 4

    def test_run_until_idle_counts(self):
        sim = Simulator()
        for i in range(3):
            sim.call_at(float(i), lambda: None)
        assert sim.run_until_idle() == 3
        # Unlike run(until=...), now stays at the last event's time.
        assert sim.now == 2.0
        assert sim.run_until_idle() == 0

    def test_kernel_is_not_reentrant(self):
        # Neither run nor run_until_idle may start inside a callback;
        # the one dispatch loop owns the queue while it runs.
        sim = Simulator()
        errors = []

        def nested(start):
            try:
                start()
            except SimulationError as error:
                errors.append(str(error))

        sim.call_at(1.0, nested, sim.run_until_idle)
        sim.call_at(2.0, nested, lambda: sim.run(until=3.0))
        sim.run(until=5.0)
        assert len(errors) == 2
        assert all("not reentrant" in error for error in errors)
        # The kernel is usable again once the outer run returned.
        sim.call_at(6.0, lambda: None)
        assert sim.run_until_idle() == 1

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.call_at(1.0, fired.append, tag)
        sim.run(until=1.0)
        assert fired == ["a", "b", "c"]


class TestRepeatingEvents:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.call_repeating(2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_first_in_overrides_initial_delay(self):
        sim = Simulator()
        times = []
        sim.call_repeating(2.0, lambda: times.append(sim.now),
                           first_in=0.0)
        sim.run(until=5.0)
        assert times == [0.0, 2.0, 4.0]

    def test_reuses_one_event_object(self):
        sim = Simulator()
        count = [0]
        event = sim.call_repeating(1.0, lambda: count.__setitem__(
            0, count[0] + 1))
        sim.run(until=100.0)
        assert count[0] == 100
        # The same Event object is re-armed; no per-tick allocations.
        assert sim.pending_events == 1
        assert event.time == 101.0

    def test_cancel_stops_future_firings(self):
        sim = Simulator()
        count = [0]
        event = sim.call_repeating(1.0, lambda: count.__setitem__(
            0, count[0] + 1))
        sim.run(until=3.0)
        sim.cancel(event)
        sim.run(until=10.0)
        assert count[0] == 3
        assert sim.pending_events == 0

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] == 4:
                sim.cancel(event)

        event = sim.call_repeating(1.0, tick)
        sim.run(until=20.0)
        assert count[0] == 4
        assert sim.pending_events == 0

    def test_invalid_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_repeating(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_repeating(-1.0, lambda: None)


class TestHeapCompaction:
    def test_long_run_with_heavy_rescheduling_keeps_heap_bounded(self):
        # The acceptance shape of the alarm-reschedule storm: a long
        # run where almost every scheduled event is cancelled and
        # replaced (LogicalClock.set_delta re-inverts its one pending
        # kernel event on every rate change).  Without compaction the
        # heap grows with every reschedule; with it, the physical heap
        # length stays within 2x the live count (above the compaction
        # floor).
        from repro.sim.events import COMPACT_MIN_SIZE

        sim = Simulator()
        queue = sim._queue
        live = [sim.call_at(1e12, lambda: None) for _ in range(100)]
        total = 1_000_000
        worst_ratio = 0.0
        for i in range(total):
            slot = i % 100
            sim.cancel(live[slot])
            live[slot] = sim.call_at(1e12 + i, lambda: None)
            if i % 10_000 == 0:
                worst_ratio = max(worst_ratio,
                                  queue.heap_size / len(queue))
        assert len(queue) == 100
        assert queue.heap_size <= max(COMPACT_MIN_SIZE, 2 * len(queue))
        assert worst_ratio <= 2.0
        # And the queue still works: all survivors fire.
        assert sim.run_until_idle() == 100

    def test_compaction_during_run_with_set_delta_storm(self):
        # End-to-end shape: alarms rescheduled by logical-clock rate
        # changes during Simulator.run must not accumulate cancelled
        # heap entries.
        from repro.clocks import ConstantRate, HardwareClock, LogicalClock
        from repro.sim.events import COMPACT_MIN_SIZE

        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.01)
        clock = LogicalClock(sim, hw, phi=0.01, mu=0.001)
        fired = []
        for i in range(50):
            clock.at_value(200_000.0 + i, fired.append, i)
        for i in range(20_000):
            sim.call_at(float(i), clock.set_delta, 1.0 + (i % 2) * 0.5)
        sim.run(until=250_000.0)
        assert len(fired) == 50
        queue = sim._queue
        assert queue.heap_size <= max(COMPACT_MIN_SIZE,
                                      2 * max(len(queue), 1))


class TestBatchConsumerApi:
    """The internal surface the batched network delivery path rides on."""

    def test_call_at_key_orders_by_explicit_seq(self):
        # An event co-keyed with an earlier-allocated seq fires before
        # a same-time event scheduled later — the property that keeps
        # batched deliveries in legacy order among simultaneous events.
        sim = Simulator()
        fired = []
        # Consume a seq without queueing, as the network numbers its
        # deliveries (Simulator.call_at_key).
        queue = sim._queue
        early_seq = queue._seq
        queue._seq = early_seq + 1
        sim.call_at(1.0, fired.append, "normal")
        sim.call_at_key(1.0, early_seq, fired.append, "co-keyed")
        sim.run(until=2.0)
        assert fired == ["co-keyed", "normal"]

    def test_horizon_exposed_during_run(self):
        import math

        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim._horizon))
        sim.run(until=4.0)
        sim.call_at(5.0, lambda: seen.append(sim._horizon))
        sim.run_until_idle()
        assert seen == [4.0, math.inf]
