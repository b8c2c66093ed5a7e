"""Unit tests for FtgcsNode message routing and lifecycle."""

import pytest

from repro.core.max_estimate import MaxEstimate
from repro.core.params import Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.net.message import Pulse, PulseKind, ValueMessage
from repro.topology import ClusterGraph


@pytest.fixture
def system():
    params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
    return FtgcsSystem.build(ClusterGraph.line(2), params, seed=1)


def first_node(system, cluster):
    return next(n for n in system.honest_nodes()
                if n.cluster_id == cluster)


class TestRouting:
    def test_own_cluster_pulse_feeds_core(self, system):
        system.start()
        node = first_node(system, 0)
        peer = node.core._peer_ids[0]
        before = node.core.stats.pulses_received
        node.on_message(Pulse(sender=peer), system.sim.now)
        assert node.core.stats.pulses_received == before + 1

    def test_adjacent_cluster_pulse_feeds_estimator(self, system):
        system.start()
        node = first_node(system, 0)
        neighbor_member = system.graph.members(1)[0]
        estimator = node.estimators[1]
        before = estimator.stats.pulses_received
        node.on_message(Pulse(sender=neighbor_member), system.sim.now)
        assert estimator.stats.pulses_received == before + 1

    def test_unknown_sender_counted(self, system):
        system.start()
        node = first_node(system, 0)
        node.on_message(Pulse(sender=9999), system.sim.now)
        assert node.stats.unknown_sender_pulses == 1

    def test_non_pulse_message_counted(self, system):
        system.start()
        node = first_node(system, 0)
        node.on_message(ValueMessage(sender=1, value=0.0),
                        system.sim.now)
        assert node.stats.unknown_sender_pulses == 1

    def test_max_pulse_dropped_without_max_estimate(self, system):
        system.start()
        node = first_node(system, 0)
        # Max estimate disabled by default: the pulse is ignored, not
        # an error.
        node.on_message(Pulse(sender=node.core._peer_ids[0],
                              kind=PulseKind.MAX), system.sim.now)
        assert node.max_estimate is None

    def test_propose_pulse_ignored(self, system):
        system.start()
        node = first_node(system, 0)
        before = node.core.stats.pulses_received
        node.on_message(Pulse(sender=node.core._peer_ids[0],
                              kind=PulseKind.PROPOSE), system.sim.now)
        assert node.core.stats.pulses_received == before


class TestLifecycle:
    def test_crash_drops_messages(self, system):
        system.start()
        node = first_node(system, 0)
        peer = node.core._peer_ids[0]
        node.crash()
        node.on_message(Pulse(sender=peer), system.sim.now)
        assert node.stats.dropped_after_crash == 1
        assert node.crashed

    def test_crash_stops_round_progress(self, system):
        system.start()
        node = first_node(system, 0)
        node.crash()
        params = system.params
        system.sim.run(until=2 * params.round_length)
        assert node.core.stats.rounds_completed == 0

    def test_mode_history_recorded(self, system):
        system.start()
        system.sim.run(until=2.2 * system.params.round_length)
        node = first_node(system, 0)
        rounds = [r for r, _gamma in node.stats.mode_by_round]
        assert rounds[:3] == [1, 2, 3]


class TestMaxEstimateWiring:
    def test_max_pulses_flow_between_clusters(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        config = SystemConfig(policy="max_rule",
                              enable_max_estimate=True,
                              max_estimate_unit=params.cap_e)
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=2,
                                   config=config)
        system.start()
        system.sim.run(until=3 * params.round_length)
        node = first_node(system, 0)
        assert node.max_estimate is not None
        assert node.max_estimate.pulses_sent > 0
        assert node.max_estimate.pulses_received > 0

    @staticmethod
    def churned_cluster(cycles):
        """line(3) with the MAX channel; cluster 1 crashes and rejoins
        ``cycles`` times, each outage 0.2 of a level."""
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        unit = params.cap_e
        config = SystemConfig(policy="max_rule", enable_max_estimate=True,
                              max_estimate_unit=unit)
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=3,
                                   config=config)
        members = [n for n in system.honest_nodes() if n.cluster_id == 1]
        system.start()
        t = 0.0
        for _ in range(cycles):
            t += 2.5 * unit
            system.sim.run(until=t)
            for node in members:
                node.crash()
            system.sim.run(until=t + 0.2 * unit)
            for node in members:
                node.rejoin()
        system.sim.run(until=t + 3 * unit)
        return system, members

    def test_rejoin_keeps_one_level_alarm(self, monkeypatch):
        # stop() cancels the level alarm, so start() after a rejoin
        # arms the one chain; the pulses are those of the old stop(),
        # which left one more chain per cycle on the same targets.
        system, members = self.churned_cluster(4)
        assert [n.max_estimate._clock.pending_alarms()
                for n in members] == [1] * len(members)

        def leaky_stop(estimate):
            estimate._running = False

        monkeypatch.setattr(MaxEstimate, "stop", leaky_stop)
        leaky, leaky_members = self.churned_cluster(4)
        assert [n.max_estimate._clock.pending_alarms()
                for n in leaky_members] == [5] * len(members)
        assert ([n.max_estimate.pulses_sent for n in system.honest_nodes()]
                == [n.max_estimate.pulses_sent
                    for n in leaky.honest_nodes()])
        assert system.sim.events_processed == leaky.sim.events_processed
