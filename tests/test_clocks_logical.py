"""Unit tests for logical clocks (Eq. (2)) and scaled clocks."""

import pytest

from repro.clocks import (
    ConstantRate,
    FlipRate,
    HardwareClock,
    LogicalClock,
    ScaledClock,
)
from repro.errors import ClockError
from repro.sim import Simulator


def make_clock(sim, hw_rate=1.0, rho=0.1, phi=0.1, mu=0.01,
               delta=1.0, gamma=0):
    hw = HardwareClock(sim, ConstantRate(hw_rate), rho=rho)
    return LogicalClock(sim, hw, phi=phi, mu=mu, delta=delta, gamma=gamma)


class TestLogicalRate:
    def test_rate_composition(self):
        sim = Simulator()
        clock = make_clock(sim, hw_rate=1.05, phi=0.1, mu=0.02,
                           delta=1.0, gamma=1)
        expected = (1 + 0.1 * 1.0) * (1 + 0.02) * 1.05
        assert clock.rate == pytest.approx(expected, rel=1e-12)

    def test_integration_matches_eq2(self):
        sim = Simulator()
        clock = make_clock(sim, hw_rate=1.0, phi=0.5, mu=0.0, delta=1.0)
        sim.run(until=10.0)
        assert clock.value() == pytest.approx(15.0)

    def test_delta_change_integrates_piecewise(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.5, mu=0.0, delta=1.0)
        sim.run(until=10.0)  # slope 1.5 -> 15
        clock.set_delta(0.0)
        sim.run(until=20.0)  # slope 1.0 -> +10
        assert clock.value() == pytest.approx(25.0)

    def test_gamma_change(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.0, mu=0.1, delta=0.0, gamma=0)
        sim.run(until=10.0)  # slope 1
        clock.set_gamma(1)
        sim.run(until=20.0)  # slope 1.1
        assert clock.value() == pytest.approx(10.0 + 11.0)

    def test_hardware_rate_change_propagates(self):
        sim = Simulator()
        # One change, at t = 5 (the period outlasts the run).
        hw = HardwareClock(sim, FlipRate(1.0, 1.1, period=100.0, phase=5.0),
                           rho=0.2)
        clock = LogicalClock(sim, hw, phi=0.0, mu=0.0, delta=0.0)
        sim.run(until=10.0)
        assert clock.value() == pytest.approx(5 * 1.0 + 5 * 1.1)
        assert clock.rate == pytest.approx(1.1)

    def test_validation(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.1)
        with pytest.raises(ClockError):
            LogicalClock(sim, hw, phi=1.0, mu=0.0)
        with pytest.raises(ClockError):
            LogicalClock(sim, hw, phi=0.1, mu=-0.1)
        with pytest.raises(ClockError):
            LogicalClock(sim, hw, phi=0.1, mu=0.1, delta=-1.0)
        with pytest.raises(ClockError):
            LogicalClock(sim, hw, phi=0.1, mu=0.1, gamma=2)
        clock = LogicalClock(sim, hw, phi=0.1, mu=0.1)
        with pytest.raises(ClockError):
            clock.set_delta(-0.5)
        with pytest.raises(ClockError):
            clock.set_gamma(3)


class TestAlarms:
    def test_alarm_fires_at_exact_logical_time(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.5, mu=0.0, delta=1.0)  # slope 1.5
        fired = []
        clock.at_value(15.0, lambda: fired.append(sim.now))
        sim.run(until=20.0)
        assert fired == [pytest.approx(10.0)]

    def test_alarm_reschedules_on_rate_change(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.5, mu=0.0, delta=1.0)  # slope 1.5
        fired = []
        clock.at_value(30.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)  # L = 15
        clock.set_delta(0.0)  # slope 1.0; 15 more logical units -> t=25
        sim.run(until=30.0)
        assert fired == [pytest.approx(25.0)]

    def test_multiple_alarms_fire_in_order(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.0, mu=0.0, delta=0.0)
        order = []
        clock.at_value(3.0, order.append, "c")
        clock.at_value(1.0, order.append, "a")
        clock.at_value(2.0, order.append, "b")
        sim.run(until=5.0)
        assert order == ["a", "b", "c"]

    def test_cancel_alarm(self):
        sim = Simulator()
        clock = make_clock(sim)
        fired = []
        alarm = clock.at_value(5.0, fired.append, "x")
        clock.cancel_alarm(alarm)
        sim.run(until=20.0)
        assert fired == []

    def test_past_target_fires_immediately(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.0, mu=0.0, delta=0.0)
        sim.run(until=10.0)
        fired = []
        clock.at_value(5.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [pytest.approx(10.0)]

    def test_target_now_fires_immediately(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.0, mu=0.0, delta=0.0)
        sim.run(until=10.0)
        fired = []
        clock.at_value(10.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [pytest.approx(10.0)]

    def test_alarm_callback_can_register_next_alarm(self):
        sim = Simulator()
        clock = make_clock(sim, phi=0.0, mu=0.0, delta=0.0)
        times = []

        def tick(target):
            times.append(sim.now)
            if target < 3.0:
                clock.at_value(target + 1.0, tick, target + 1.0)

        clock.at_value(1.0, tick, 1.0)
        sim.run(until=10.0)
        assert times == [pytest.approx(1.0), pytest.approx(2.0),
                         pytest.approx(3.0)]

    def test_hardware_change_reschedules_alarm(self):
        sim = Simulator()
        hw = HardwareClock(sim, FlipRate(1.0, 1.25, period=100.0, phase=5.0),
                           rho=0.25)
        clock = LogicalClock(sim, hw, phi=0.0, mu=0.0, delta=0.0)
        fired = []
        clock.at_value(10.0, lambda: fired.append(sim.now))
        # 5 units at rate 1 -> L=5; remaining 5 at rate 1.25 -> 4 units.
        sim.run(until=20.0)
        assert fired == [pytest.approx(9.0)]


class TestScaledClock:
    def test_scale(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.1), rho=0.1)
        m = ScaledClock(sim, hw, scale=1 / 1.1)
        sim.run(until=11.0)
        assert m.value() == pytest.approx(11.0)

    def test_jump_forward(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        m = ScaledClock(sim, hw, scale=1.0)
        sim.run(until=2.0)
        assert m.jump_to(10.0) is True
        assert m.value() == pytest.approx(10.0)
        sim.run(until=3.0)
        assert m.value() == pytest.approx(11.0)

    def test_jump_backward_ignored(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        m = ScaledClock(sim, hw, scale=1.0)
        sim.run(until=5.0)
        assert m.jump_to(1.0) is False
        assert m.value() == pytest.approx(5.0)

    def test_jump_triggers_alarm_reschedule(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        m = ScaledClock(sim, hw, scale=1.0)
        fired = []
        m.at_value(10.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        m.jump_to(10.0)
        sim.run(until=2.0)
        assert fired == [pytest.approx(2.0)]

    def test_invalid_scale(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        with pytest.raises(ClockError):
            ScaledClock(sim, hw, scale=0.0)
