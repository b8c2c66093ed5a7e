"""Property-based tests (Hypothesis) on core invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    cluster_failure_bound_3ep,
    cluster_failure_bound_binomial,
    cluster_failure_probability,
)
from repro.analysis.metrics import accumulate_grouped
from repro.clocks import ConstantRate, HardwareClock, LogicalClock
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.sim import Simulator

PARAMS = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


class TestLogicalClockProperties:
    @given(
        hw_rate=st.floats(1.0, 1.0001),
        steps=st.lists(
            st.tuples(st.floats(0.01, 50.0),      # dwell time
                      st.floats(0.0, 2.0),        # delta
                      st.integers(0, 1)),         # gamma
            min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_rate_bounded(self, hw_rate, steps):
        """Under arbitrary control sequences the clock never runs
        backwards and its average rate stays within the model envelope
        [1, theta_max']."""
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(hw_rate), rho=1e-4)
        clock = LogicalClock(sim, hw, phi=0.01, mu=0.005)
        previous_value = 0.0
        previous_time = 0.0
        max_mult = (1 + 0.01 * 2.0) * (1 + 0.005) * hw_rate
        for dwell, delta, gamma in steps:
            clock.set_delta(delta)
            clock.set_gamma(gamma)
            sim.run(until=previous_time + dwell)
            value = clock.value()
            elapsed = sim.now - previous_time
            gained = value - previous_value
            assert gained >= elapsed * 1.0 - 1e-9  # rate >= 1*1*1
            assert gained <= elapsed * max_mult + 1e-9
            previous_value = value
            previous_time = sim.now

    @given(targets=st.lists(st.floats(0.1, 1000.0), min_size=1,
                            max_size=10, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_alarms_fire_in_target_order(self, targets):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.0)
        clock = LogicalClock(sim, hw, phi=0.1, mu=0.0)
        fired = []
        for target in targets:
            clock.at_value(target, fired.append, target)
        sim.run(until=2000.0)
        assert fired == sorted(targets)


class TestTrimmedMidpointProperties:
    """Validity of the approximate-agreement step: with at most f
    arbitrary samples among n >= 3f+1, the trimmed midpoint stays
    within the range of the honest samples."""

    @given(
        honest=st.lists(st.floats(-100.0, 100.0), min_size=3,
                        max_size=9),
        byzantine=st.lists(st.floats(-1e6, 1e6), min_size=0,
                           max_size=3),
    )
    @settings(max_examples=300)
    def test_midpoint_within_honest_range(self, honest, byzantine):
        f = len(byzantine)
        if len(honest) + f < 3 * f + 1:
            honest = honest + [0.0] * (3 * f + 1 - len(honest) - f)
        samples = sorted(honest + byzantine)
        n = len(samples)
        midpoint = 0.5 * (samples[f] + samples[n - 1 - f])
        assert min(honest) - 1e-9 <= midpoint <= max(honest) + 1e-9


class TestSnapshotProperties:
    @given(
        data=st.dictionaries(
            keys=st.integers(0, 5),
            values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=5),
            min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_metric_ordering(self, data):
        clusters = sorted(data)
        edges = [(a, b) for i, a in enumerate(clusters)
                 for b in clusters[i + 1:]]
        edge_skews = {}
        global_skew, intra, local_cluster, local_node = (
            accumulate_grouped(list(data.items()), edges,
                               edge_out=edge_skews))
        # Global dominates everything measured between correct nodes.
        assert global_skew >= intra - 1e-9
        assert global_skew >= local_node - 1e-9
        # Node-level local skew dominates cluster-clock skew per edge.
        assert local_node >= local_cluster - 1e-9
        # Edge map is consistent with the maximum.
        if edge_skews:
            assert max(edge_skews.values()) == pytest.approx(
                local_cluster)


class TestScheduleProperties:
    @given(factor=st.floats(1.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_error_envelope_monotone(self, factor):
        schedule = RoundSchedule(PARAMS, e1=factor * PARAMS.cap_e)
        previous = schedule.e(1)
        for r in range(2, 30):
            current = schedule.e(r)
            assert PARAMS.cap_e - 1e-12 <= current <= previous + 1e-12
            previous = current

    @given(factor=st.floats(1.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_round_starts_strictly_increase(self, factor):
        schedule = RoundSchedule(PARAMS, e1=factor * PARAMS.cap_e)
        previous = schedule.round_start(1)
        for r in range(2, 20):
            current = schedule.round_start(r)
            assert current > previous
            previous = current


class TestFailureBoundProperties:
    @given(f=st.integers(0, 5), p=st.floats(0.0, 0.2))
    @settings(max_examples=200)
    def test_inequality_1_chain(self, f, p):
        exact = cluster_failure_probability(f, p)
        binom = cluster_failure_bound_binomial(f, p)
        top = cluster_failure_bound_3ep(f, p)
        assert 0.0 <= exact <= 1.0
        assert exact <= binom + 1e-12
        assert binom <= top + 1e-12

    @given(f=st.integers(0, 4),
           p1=st.floats(0.0, 0.5), p2=st.floats(0.0, 0.5))
    @settings(max_examples=100)
    def test_monotone_in_p(self, f, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        assert (cluster_failure_probability(f, lo)
                <= cluster_failure_probability(f, hi) + 1e-12)
