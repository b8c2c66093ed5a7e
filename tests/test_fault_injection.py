"""Fault-injection tests: loss models, heavy-tailed delays, in-flight
quarantine, node churn, and the t16 robustness sweep.

The overarching invariants:

* **Opt-out by construction** — no loss model / no churn schedule (or
  rate 0.0) leaves every measurement byte-identical to the historical
  path: loss draws come from their own seed stream, and a zero rate
  never draws at all.
* **Determinism** — identical seeds give identical drop sequences,
  crash schedules, and tables, at any pool size.
* **Recovery** — a crashed-and-rejoined system re-enters a steady band
  comparable to the undisturbed run (rejoin-with-amnesia actually
  converges).
"""

import random

import pytest

from delay_models import FixedDelay, LateDelay
from repro.baselines.gcs_single import GcsParams
from repro.core.protocol import SystemBuilder
from repro.errors import ConfigError, NetworkError, TopologyError
from repro.harness import Scenario, SweepRunner, run_experiment
from repro.harness.experiments import fast_dynamics_params
from repro.net.loss import (
    BernoulliLoss,
    BurstLoss,
    NoLoss,
    build_loss_model,
    validate_loss_spec,
)
from repro.net.message import ValueMessage
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.topology.cluster_graph import ClusterGraph
from repro.topology.schedule import NodeChurnSchedule, build_schedule


def make_net(d=1.0, u=0.2, network_class=Network):
    sim = Simulator()
    net = network_class(sim, d=d, u=u, default_delay_model=FixedDelay(d))
    for node in (0, 1, 2):
        net.add_node(node)
    net.add_link(0, 1)
    net.add_link(1, 2)
    return sim, net


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        assert not any(model.drop(0, 1, float(t)) for t in range(50))

    def test_bernoulli_zero_rate_never_draws(self):
        class Exploding(random.Random):
            def random(self):
                raise AssertionError("rate=0.0 must not draw")

        model = BernoulliLoss(0.0, Exploding())
        assert not model.drop(0, 1, 0.0)

    def test_bernoulli_rate_bounds(self):
        with pytest.raises(NetworkError):
            BernoulliLoss(1.0, random.Random(0))
        with pytest.raises(NetworkError):
            BernoulliLoss(-0.1, random.Random(0))

    def test_bernoulli_deterministic_per_seed(self):
        a = BernoulliLoss(0.3, random.Random(7))
        b = BernoulliLoss(0.3, random.Random(7))
        seq_a = [a.drop(0, 1, float(t)) for t in range(200)]
        seq_b = [b.drop(0, 1, float(t)) for t in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_burst_loss_is_bursty_and_per_link(self):
        model = BurstLoss(p_g2b=0.05, p_b2g=0.2, p_bad=1.0,
                          rng=random.Random(3))
        drops = [model.drop(0, 1, float(t)) for t in range(2000)]
        # p_bad=1.0: drops come in runs whose mean length is the
        # expected bad-state dwell time 1/p_b2g = 5, far above the
        # i.i.d. value of 1.
        runs, current = [], 0
        for dropped in drops:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs and sum(runs) / len(runs) > 2.0
        # Directed links carry independent channel state.
        state_01 = model._bad.get((0, 1))
        model.drop(1, 0, 0.0)
        assert (1, 0) in model._bad
        assert model._bad[(0, 1)] == state_01

    def test_validate_loss_spec(self):
        validate_loss_spec({"kind": "bernoulli", "rate": 0.1})
        validate_loss_spec({"kind": "burst", "p_g2b": 0.1,
                            "p_b2g": 0.5, "p_bad": 0.9})
        with pytest.raises(ConfigError):
            validate_loss_spec({"kind": "nope"})
        with pytest.raises(ConfigError):
            validate_loss_spec({"kind": "bernoulli", "rate": 2.0})
        with pytest.raises(ConfigError):
            validate_loss_spec({"kind": "bernoulli", "typo": 0.1})

    def test_build_loss_model(self):
        model = build_loss_model({"kind": "bernoulli", "rate": 0.2},
                                 random.Random(0))
        assert isinstance(model, BernoulliLoss)


class TestNetworkLoss:
    def test_loss_counted_separately_from_link_down(self):
        sim, net = make_net()
        net.set_loss_model(BernoulliLoss(0.5, random.Random(1)))
        received = []
        net.set_handler(1, lambda m, t: received.append(m))
        for index in range(100):
            net.send(0, 1, ValueMessage(sender=0, value=float(index)))
        net.set_link_active(0, 1, False)
        for index in range(10):
            net.send(0, 1, ValueMessage(sender=0, value=float(index)))
        sim.run(until=10.0)
        assert net.dropped_loss > 10
        assert net.dropped_link_down == 10
        assert net.messages_dropped == (net.dropped_loss
                                        + net.dropped_link_down
                                        + net.dropped_in_flight)
        assert len(received) == 100 - net.dropped_loss

    def test_loss_identical_on_both_delivery_paths(self,
                                                   per_message_network):
        def run(network_class):
            sim, net = make_net(network_class=network_class)
            net.set_loss_model(BernoulliLoss(0.3, random.Random(5)))
            received = []
            net.set_handler(1, lambda m, t: received.append(m.value))
            for index in range(50):
                net.send(0, 1, ValueMessage(sender=0,
                                            value=float(index)))
            sim.run(until=5.0)
            return received, net.dropped_loss

        assert run(Network) == run(per_message_network)

    def test_set_loss_model_type_checked(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.set_loss_model(object())


class TestInFlightQuarantine:
    def test_drop_in_flight_true_quarantines(self):
        sim, net = make_net()
        received = []
        net.set_handler(1, lambda m, t: received.append(m.value))
        net.send(0, 1, ValueMessage(sender=0, value=1.0))
        net.send(1, 2, ValueMessage(sender=1, value=2.0))  # unrelated
        net.set_link_active(0, 1, False, drop_in_flight=True)
        sim.run(until=5.0)
        assert received == []
        assert net.dropped_in_flight == 1
        assert net.messages_dropped == 1

    def test_drop_in_flight_false_delivers(self):
        sim, net = make_net()
        received = []
        net.set_handler(1, lambda m, t: received.append(m.value))
        net.send(0, 1, ValueMessage(sender=0, value=1.0))
        net.set_link_active(0, 1, False)  # default: in-flight survives
        sim.run(until=5.0)
        assert received == [1.0]
        assert net.dropped_in_flight == 0

    def test_quarantine_is_directional_pairwise(self):
        sim, net = make_net()
        received = []
        net.set_handler(2, lambda m, t: received.append(m.value))
        net.send(1, 2, ValueMessage(sender=1, value=3.0))
        net.set_link_active(0, 1, False, drop_in_flight=True)
        sim.run(until=5.0)
        assert received == [3.0]  # (1, 2) traffic untouched


class TestHeavyTailedDelays:
    def test_out_of_model_delay_accepted_by_network(self):
        sim = Simulator()
        net = Network(sim, d=1.0, u=0.3,
                      default_delay_model=LateDelay(
                          1.0, 0.3, alpha=1.1, rng=random.Random(4)))
        net.add_node(0)
        net.add_node(1)
        net.add_link(0, 1)
        received = []
        net.set_handler(1, lambda m, t: received.append(t))
        for _ in range(200):
            net.send(0, 1, ValueMessage(sender=0, value=0.0))
        sim.run(until=100.0)
        assert len(received) == 200
        assert max(received) > 1.0  # delivered past d, as drawn


class TestNodeChurnSchedule:
    def test_validation(self):
        graph = ClusterGraph.line(3)
        with pytest.raises(ConfigError):
            NodeChurnSchedule(graph, interval=0.0, crash=0.1)
        with pytest.raises(ConfigError):
            NodeChurnSchedule(graph, interval=1.0, crash=1.5)
        with pytest.raises(ConfigError):
            NodeChurnSchedule(graph, interval=1.0, crash=0.1,
                              rejoin=0.0)
        with pytest.raises(TopologyError):
            NodeChurnSchedule(graph, interval=1.0, crash=0.1,
                              protect=(7,))

    def test_events_deterministic_and_seed_sensitive(self):
        sched = build_schedule("node_churn", ClusterGraph.line(4),
                               interval=5.0, crash=0.4, rejoin=0.6)
        events_a = sched.node_events(100.0, seed=3)
        events_b = sched.node_events(100.0, seed=3)
        events_c = sched.node_events(100.0, seed=4)
        assert events_a == events_b
        assert events_a != events_c
        assert events_a  # something actually happens at these rates

    def test_protect_and_state_machine(self):
        sched = NodeChurnSchedule(ClusterGraph.line(4), interval=5.0,
                                  crash=0.5, rejoin=0.5, protect=(0,))
        events = sched.node_events(500.0, seed=1)
        assert all(cluster != 0 for _, cluster, _ in events)
        # Per cluster: strictly alternating crash/rejoin, crash first.
        state = {}
        for _, cluster, alive in events:
            assert state.get(cluster, True) != alive
            state[cluster] = alive

    def test_crash_zero_emits_nothing(self):
        sched = NodeChurnSchedule(ClusterGraph.line(3), interval=5.0,
                                  crash=0.0)
        assert sched.node_events(1000.0, seed=5) == []

    def test_schedule_flags(self):
        sched = NodeChurnSchedule(ClusterGraph.line(3), interval=5.0,
                                  crash=0.2)
        assert sched.has_node_events
        assert not sched.has_edge_events
        assert not sched.is_static


class TestChurnRuns:
    def test_ftgcs_crash_rejoin_converges_within_kappa(self):
        """After a crash wave and rejoin-with-amnesia, the steady band
        re-enters within kappa of the undisturbed run's band."""
        params = fast_dynamics_params(f=1)
        graph = ClusterGraph.line(3)

        def steady(schedule):
            builder = (SystemBuilder("ftgcs").topology(schedule)
                       .params(params).rounds(24).seed(2))
            result = builder.build().run()
            series = result.detail.series
            tail = series[int(len(series) * 0.7):]
            return max(s.max_local_cluster for s in tail), result

        baseline, _ = steady(graph)
        churned, result = steady(build_schedule(
            "node_churn", graph, interval=6.0 * params.round_length,
            crash=0.3, rejoin=1.0))
        assert result.node_crashes > 0
        assert result.node_rejoins > 0
        assert churned <= baseline + params.kappa

    def test_gcs_single_rejoin_with_amnesia(self):
        gcs_params = GcsParams.default()
        result = (SystemBuilder("gcs_single")
                  .topology(build_schedule(
                      "node_churn", ClusterGraph.line(4),
                      interval=30.0, crash=0.4, rejoin=0.9))
                  .payload(params=gcs_params, until=400.0)
                  .seed(6).build().run())
        assert result.node_crashes > 0
        assert result.node_rejoins > 0
        # The run survives churn and still measures finite skew.
        assert result.max_local_skew < 100.0

    def test_master_slave_churn_is_link_silencing(self):
        params = fast_dynamics_params(f=1)
        result = (SystemBuilder("master_slave")
                  .topology(build_schedule(
                      "node_churn", ClusterGraph.line(4),
                      interval=20.0, crash=0.4, rejoin=0.9,
                      protect=(0,)))
                  .params(params).rounds(10).seed(3).build().run())
        assert result.node_crashes > 0
        assert result.dropped_link_down > 0

    def test_lynch_welch_rejects_churn(self):
        params = fast_dynamics_params(f=1)
        with pytest.raises(ConfigError):
            (SystemBuilder("lynch_welch")
             .topology(build_schedule("node_churn",
                                      ClusterGraph.line(1),
                                      interval=5.0, crash=0.2))
             .params(params).rounds(5).seed(0).build())


class TestOptOutByteIdentity:
    def test_zero_rate_loss_is_byte_identical(self):
        params = fast_dynamics_params(f=1)

        def run(lossy):
            builder = (SystemBuilder("ftgcs")
                       .topology(ClusterGraph.line(3))
                       .params(params).rounds(8).seed(11))
            if lossy:
                builder.lossy(kind="bernoulli", rate=0.0)
            return builder.build().run()

        plain = run(False)
        zero = run(True)
        assert zero.messages_lost == 0
        assert plain.max_local_skew == zero.max_local_skew
        assert plain.max_global_skew == zero.max_global_skew
        assert ([s.max_local_cluster for s in plain.detail.series]
                == [s.max_local_cluster for s in zero.detail.series])

    def test_loss_stream_does_not_shift_delays(self):
        """Attaching a *non-zero* loss model must not perturb delay
        draws: surviving messages see the exact same latencies."""
        params = fast_dynamics_params(f=1)

        def run(rate):
            builder = (SystemBuilder("ftgcs")
                       .topology(ClusterGraph.line(2))
                       .params(params).rounds(6).seed(13))
            if rate:
                builder.lossy(kind="bernoulli", rate=rate)
            return builder.build().run()

        plain = run(0.0)
        lossy = run(0.01)
        assert lossy.messages_lost >= 0
        # Identical until the first drop diverges the executions; the
        # sampling cadence (pure kernel time) always matches.
        assert len(plain.detail.series) == len(lossy.detail.series)

    def test_seeded_lossy_run_is_deterministic(self):
        spec = (Scenario.line(3).params(fast_dynamics_params(f=1))
                .rounds(10).lossy(rate=0.1)
                .churn_nodes(interval=50.0, crash=0.3, rejoin=0.8)
                .seed(21).build())
        a = SweepRunner().run([spec])[0].result
        b = SweepRunner().run([spec])[0].result
        assert a.messages_lost == b.messages_lost
        assert a.node_crashes == b.node_crashes
        assert a.max_local_skew == b.max_local_skew


class TestT16Robustness:
    def test_quick_grid_serial_equals_pooled(self, quick_tables):
        pooled = run_experiment("t16", quick=True, seed=16,
                                processes=4)
        assert quick_tables["t16"].rows == pooled.rows

    def test_quick_grid_shape_and_counters(self, quick_tables):
        table = quick_tables["t16"]
        # 3 loss rates x 2 churn rates x 3 protocols.
        assert len(table.rows) == 18
        assert set(table.column("protocol")) == {
            "ftgcs", "gcs_single", "master_slave"}
        by_cell = {(row[0], row[1], row[2]): row for row in table.rows}
        # The fault-free corner is clean for every protocol.
        for protocol in ("ftgcs", "gcs_single", "master_slave"):
            row = by_cell[(protocol, 0.0, 0.0)]
            assert row[5] == 0 and row[6] == 0  # lost, link-down
            assert row[7] == 0 and row[8] == 0  # crashes, rejoins
        # Lossy cells actually lose messages, for every protocol;
        # churny cells crash.
        lossy = [row for row in table.rows if row[1] > 0.0]
        assert lossy and all(row[5] > 0 for row in lossy)
        assert by_cell[("ftgcs", 0.0, 0.1)][7] > 0
        assert by_cell[("ftgcs", 0.0, 0.1)][8] > 0
        # Loss accounting: heavier loss loses more (totals over seeds).
        assert (by_cell[("ftgcs", 0.2, 0.0)][5]
                > by_cell[("ftgcs", 0.05, 0.0)][5])
        # Degradation: every faulted ftgcs cell sits above the
        # fault-free corner.
        corner = by_cell[("ftgcs", 0.0, 0.0)][3]
        for (protocol, loss, churn), row in by_cell.items():
            if protocol == "ftgcs" and (loss or churn):
                assert row[3] > corner
        # Degradation is graceful, not divergent.
        assert all(0.0 <= value < 50.0
                   for value in table.column("steady local skew"))
