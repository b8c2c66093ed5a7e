"""Unit tests for the passive cluster-clock estimator."""

import pytest

from repro.clocks import ConstantRate, HardwareClock
from repro.core.estimates import ClusterEstimator
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.core.system import FtgcsSystem
from repro.sim import Simulator
from repro.topology import ClusterGraph

MEMBERS = (10, 11, 12, 13)


@pytest.fixture
def params():
    return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


def make_estimator(params, sim=None, base=0.0, initial=0.0):
    sim = sim or Simulator()
    hw = HardwareClock(sim, ConstantRate(1.0), rho=params.rho)
    schedule = RoundSchedule(params)
    estimator = ClusterEstimator(
        sim, hw, params, schedule, cluster_id=1, member_ids=MEMBERS,
        base=base, initial_value=initial, self_delay=lambda: params.d)
    return sim, estimator


class TestEstimatorUnit:
    def test_value_advances(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        sim.run(until=10.0)
        assert estimator.value() > 0.0

    def test_gamma_mirrors_owner_mode(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        rate_slow = estimator.clock.rate
        estimator.set_gamma(1)
        assert estimator.clock.rate == pytest.approx(
            rate_slow * (1 + params.mu))

    def test_no_pulses_counts_missing(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        sim.run(until=1.2 * params.round_length)
        assert estimator.stats.missing_pulses >= len(MEMBERS)

    def test_monotone_despite_corrections(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        previous = estimator.value()
        for _ in range(20):
            sim.run(until=sim.now + params.round_length / 7)
            current = estimator.value()
            assert current >= previous
            previous = current

    def test_stop_halts_rounds(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        estimator.stop()
        sim.run(until=2 * params.round_length)
        assert estimator.stats.rounds_completed == 0

    def test_tracks_synthetic_cluster(self, params):
        """Members pulsing exactly on the nominal schedule keep the
        estimator's corrections near zero."""
        sim, estimator = make_estimator(params)
        estimator.start()
        # Nominal pulse times of a drift-free, delta=1 cluster whose
        # pulses we hear after exactly d (matching our self-delay d,
        # so relative samples are ~0).
        for r in (1, 2, 3):
            t_pulse = ((r - 1) * params.round_length + params.tau1) \
                / (1 + params.phi)
            for member in MEMBERS:
                sim.call_at(t_pulse + params.d, estimator.on_pulse,
                            member, t_pulse + params.d)
        sim.run(until=3.2 * params.round_length)
        corrections = estimator.stats.corrections
        assert corrections
        assert abs(corrections[0]) < 0.05


class TestEstimatorIntegration:
    def test_corollary_3_5_bound_under_faults(self, params):
        """|L~_vB - L_C| <= E/ ... measured across a real system with
        Byzantine members in the observed cluster."""
        from repro.faults import EquivocateAdversary, place_everywhere

        graph = ClusterGraph.line(2)
        aug = graph.augment(params.cluster_size)
        byz = place_everywhere(aug, 1, lambda n: EquivocateAdversary())
        from repro.core.system import SystemConfig

        system = FtgcsSystem.build(graph, params, seed=5,
                                   config=SystemConfig(byzantine=byz))
        result = system.run_rounds(10)
        assert result.max_estimate_error <= params.estimate_error_bound()


class TestFirstContactBringUp:
    def test_dormant_estimator_not_running(self, params):
        _, estimator = make_estimator(params)
        assert not estimator.running
        estimator.start()
        assert estimator.running

    def test_bring_up_jumps_clock_and_aligns_round(self, params):
        sim, estimator = make_estimator(params)
        # Mid-run first contact: three rounds in, owner's clock leads.
        sim.run(until=3.0 * params.round_length)
        own_value = 3.2 * params.round_length
        schedule = RoundSchedule(params)
        at_round = schedule.rounds_until(own_value) + 1
        estimator.bring_up(own_value, at_round)
        assert estimator.running
        assert estimator.bring_ups == 1
        assert estimator.value() >= own_value
        assert estimator.current_round == at_round
        # Pulses attribute to the bring-up round, not round 1.
        estimator.on_pulse(MEMBERS[0], sim.now)
        assert estimator.stats.stale_pulses == 0

    def test_bring_up_on_running_estimator_rejected(self, params):
        _, estimator = make_estimator(params)
        estimator.start()
        with pytest.raises(Exception):
            estimator.bring_up(0.0, 1)

    def test_warm_up_rule(self, params):
        """An estimate is not ready until one exchange completed after
        (re)initialization."""
        sim, estimator = make_estimator(params)
        sim.run(until=1.0)
        estimator.bring_up(1.0, 1)
        assert not estimator.ready
        # Feed all members' round-1 pulses, then cross the round
        # boundary: the completed exchange makes the estimate ready.
        for member in MEMBERS:
            sim.call_at(sim.now + params.d, estimator.on_pulse, member,
                        sim.now + params.d)
        sim.run(until=sim.now + 1.5 * params.round_length)
        assert estimator.stats.exchanges_completed >= 1
        assert estimator.ready

    def test_resync_resets_readiness_only_when_lagging(self, params):
        sim, estimator = make_estimator(params)
        estimator.start()
        # Nothing missed yet: resync is a no-op and readiness state is
        # untouched.
        assert estimator.resync() == 0
        assert estimator.resyncs == 0
        # Let rounds pass with no pulses (outage), then resync.
        sim.run(until=3.5 * params.round_length)
        assert estimator.resync() == len(MEMBERS)
        assert estimator.resyncs == 1
        assert not estimator.ready
