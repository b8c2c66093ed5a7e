"""Unit tests for hardware clocks and rate models."""

import pytest

from repro.clocks import ConstantRate, FlipRate, HardwareClock
from repro.errors import ClockError
from repro.sim import Simulator


class TestConstantRate:
    def test_value_advances_linearly(self):
        sim = Simulator()
        clock = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        sim.run(until=4.0)
        assert clock.value() == pytest.approx(4.0)

    def test_max_drift_rate(self):
        sim = Simulator()
        clock = HardwareClock(sim, ConstantRate(1.001), rho=0.001)
        sim.run(until=1000.0)
        assert clock.value() == pytest.approx(1001.0)

    def test_rate_outside_envelope_rejected(self):
        sim = Simulator()
        with pytest.raises(ClockError):
            HardwareClock(sim, ConstantRate(1.5), rho=0.1)
        with pytest.raises(ClockError):
            HardwareClock(sim, ConstantRate(0.9), rho=0.1)

    def test_unenforced_clock_allows_any_positive_rate(self):
        sim = Simulator()
        clock = HardwareClock(sim, ConstantRate(3.0), rho=0.1,
                              enforce_bounds=False)
        sim.run(until=2.0)
        assert clock.value() == pytest.approx(6.0)

    def test_nonpositive_rate_always_rejected(self):
        with pytest.raises(ClockError):
            ConstantRate(0.0)


class TestFlipRate:
    def test_alternation(self):
        sim = Simulator()
        model = FlipRate(low=1.0, high=1.1, period=10.0)
        clock = HardwareClock(sim, model, rho=0.1)
        sim.run(until=25.0)
        # 10 slow + 10 fast + 5 slow
        expected = 10 * 1.0 + 10 * 1.1 + 5 * 1.0
        assert clock.value() == pytest.approx(expected, rel=1e-12)

    def test_start_high(self):
        model = FlipRate(low=1.0, high=1.1, period=5.0, start_high=True)
        assert model.initial_rate() == pytest.approx(1.1)
        t, rate = model.next_change(0.0)
        assert t == pytest.approx(5.0)
        assert rate == pytest.approx(1.0)

    def test_phase_shift_first_flip_at_phase(self):
        model = FlipRate(low=1.0, high=1.1, period=10.0, phase=3.0)
        t, rate = model.next_change(0.0)
        assert t == pytest.approx(3.0)
        assert rate == pytest.approx(1.1)
        t2, rate2 = model.next_change(3.0)
        assert t2 == pytest.approx(13.0)
        assert rate2 == pytest.approx(1.0)

    def test_invalid_args(self):
        with pytest.raises(ClockError):
            FlipRate(low=1.2, high=1.1, period=1.0)
        with pytest.raises(ClockError):
            FlipRate(low=1.0, high=1.1, period=0.0)

    def test_listener_called_on_change(self):
        # A period longer than the run gives exactly one change, at
        # the phase.
        sim = Simulator()
        model = FlipRate(low=1.0, high=1.1, period=100.0, phase=1.0)
        clock = HardwareClock(sim, model, rho=0.2)
        seen = []
        clock.add_listener(lambda: seen.append(clock.rate))
        sim.run(until=2.0)
        assert seen == [pytest.approx(1.1)]


class TestHardwareClockReads:
    def test_value_at_explicit_time(self):
        sim = Simulator()
        clock = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        sim.run(until=5.0)
        assert clock.value(5.0) == pytest.approx(5.0)

    def test_read_before_segment_raises(self):
        sim = Simulator()
        model = FlipRate(low=1.0, high=1.1, period=100.0, phase=5.0)
        clock = HardwareClock(sim, model, rho=0.2)
        sim.run(until=6.0)
        with pytest.raises(ClockError):
            clock.value(4.0)

    def test_rho_negative_rejected(self):
        sim = Simulator()
        with pytest.raises(ClockError):
            HardwareClock(sim, ConstantRate(1.0), rho=-0.1)
