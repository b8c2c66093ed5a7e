"""Unit tests for delay models and the network."""

import random

import pytest

from delay_models import FixedDelay, LateDelay
from repro.errors import NetworkError
from repro.net import (
    DelayModel,
    ExtremalDelay,
    Network,
    Pulse,
    PulseKind,
    UniformDelay,
)
from repro.net.loss import BernoulliLoss
from repro.sim import Simulator


def make_net(d=1.0, u=0.2, model=None, network_class=Network):
    sim = Simulator()
    net = network_class(sim, d=d, u=u,
                        default_delay_model=model or FixedDelay(d))
    return sim, net


class TestDelayModels:
    def test_fixed(self):
        assert FixedDelay(0.7).draw(0, 1, 0.0) == pytest.approx(0.7)

    def test_uniform_within_envelope(self):
        rng = random.Random(0)
        model = UniformDelay(1.0, 0.3, rng)
        draws = [model.draw(0, 1, 0.0) for _ in range(200)]
        assert all(0.7 <= x <= 1.0 for x in draws)
        assert max(draws) - min(draws) > 0.1  # actually random

    def test_extremal(self):
        assert ExtremalDelay(1.0, 0.3, "max").draw(0, 1, 0.0) == 1.0
        assert ExtremalDelay(1.0, 0.3, "min").draw(0, 1, 0.0) == 0.7
        with pytest.raises(NetworkError):
            ExtremalDelay(1.0, 0.3, "mid")

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(NetworkError):
            UniformDelay(0.0, 0.0, rng)
        with pytest.raises(NetworkError):
            UniformDelay(1.0, 1.5, rng)
        with pytest.raises(NetworkError):
            FixedDelay(-1.0)


class TestTopologyConstruction:
    def test_add_nodes_and_links(self):
        _, net = make_net()
        for i in range(3):
            net.add_node(i)
        net.add_link(0, 1)
        net.add_link(1, 2)
        assert net.neighbors(1) == (0, 2)
        assert net.has_link(0, 1)
        assert not net.has_link(0, 2)

    def test_duplicate_node_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_node(0)

    def test_self_link_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_link(0, 0)

    def test_duplicate_link_rejected(self):
        _, net = make_net()
        net.add_node(0)
        net.add_node(1)
        net.add_link(0, 1)
        with pytest.raises(NetworkError):
            net.add_link(1, 0)

    def test_unknown_node_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_link(0, 99)
        with pytest.raises(NetworkError):
            net.neighbors(99)


class TestMessaging:
    def test_unicast_delivery(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda msg, t: received.append((msg, t)))
        net.add_link(0, 1)
        net.send(0, 1, "hello")
        sim.run(until=2.0)
        assert received == [("hello", pytest.approx(1.0))]

    def test_broadcast_reaches_all_neighbors(self):
        sim, net = make_net(d=0.5, u=0.0, model=FixedDelay(0.5))
        inboxes = {i: [] for i in range(4)}
        for i in range(4):
            net.add_node(i, lambda msg, t, i=i: inboxes[i].append(msg))
        net.add_link(0, 1)
        net.add_link(0, 2)
        net.add_link(0, 3)
        count = net.broadcast(0, Pulse(sender=0))
        sim.run(until=1.0)
        assert count == 3
        for i in (1, 2, 3):
            assert len(inboxes[i]) == 1
            assert inboxes[i][0].sender == 0
            assert inboxes[i][0].kind is PulseKind.SYNC
        assert inboxes[0] == []

    def test_send_to_non_neighbor_rejected(self):
        _, net = make_net()
        net.add_node(0)
        net.add_node(1)
        with pytest.raises(NetworkError):
            net.send(0, 1, "x")

    def test_send_with_delay_envelope_enforced(self):
        sim, net = make_net(d=1.0, u=0.2)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.send_with_delay(0, 1, "ok", 0.8)
        with pytest.raises(NetworkError):
            net.send_with_delay(0, 1, "early", 0.5)
        with pytest.raises(NetworkError):
            net.send_with_delay(0, 1, "late", 1.5)

    def test_delay_model_violating_envelope_rejected(self):
        sim, net = make_net(d=1.0, u=0.1, model=FixedDelay(0.2))
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        with pytest.raises(NetworkError):
            net.send(0, 1, "x")

    def test_per_link_model_override(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        times = []
        net.add_node(0)
        net.add_node(1, lambda m, t: times.append(t))
        net.add_link(0, 1)
        net.set_link_delay_model(0, 1, FixedDelay(0.5), direction="ab")
        net.send(0, 1, "fast")
        sim.run(until=2.0)
        assert times == [pytest.approx(0.5)]

    def test_directional_override_leaves_reverse(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        times = []
        net.add_node(0, lambda m, t: times.append(("to0", t)))
        net.add_node(1, lambda m, t: times.append(("to1", t)))
        net.add_link(0, 1)
        net.set_link_delay_model(0, 1, FixedDelay(0.5), direction="ab")
        net.send(1, 0, "slow")
        sim.run(until=2.0)
        assert times == [("to0", pytest.approx(1.0))]

    def test_message_counters(self):
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.send(0, 1, "x")
        assert net.messages_sent == 1
        sim.run(until=2.0)
        assert net.messages_delivered == 1

    def test_missing_handler_is_dropped_silently(self):
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0)
        net.add_node(1)  # no handler: models a crashed receiver
        net.add_link(0, 1)
        net.send(0, 1, "x")
        sim.run(until=2.0)
        assert net.messages_delivered == 1


class TestBatchedDelivery:
    """Batched delivery must be observationally identical to one kernel
    event per message (the ``per_message_network`` oracle)."""

    def build_flood(self, network_class, n=8, seed=3):
        sim = Simulator()
        rng = random.Random(seed)
        net = network_class(sim, d=1.0, u=0.5,
                            default_delay_model=UniformDelay(1.0, 0.5,
                                                             rng))
        log = []
        for i in range(n):
            def handler(msg, t, i=i):
                log.append(("recv", i, msg[0], t))
                if msg[1] > 0:
                    net.broadcast(i, (i, msg[1] - 1))
            net.add_node(i, handler)
        for i in range(n - 1):
            net.add_link(i, i + 1)
        return sim, net, log

    def run_flood(self, network_class, n, seed, ttl, alarms):
        sim, net, log = self.build_flood(network_class, n, seed)
        for t in alarms:
            sim.call_at(t, log.append, ("alarm", t))
        for i in range(n):
            net.broadcast(i, (i, ttl))
        sim.run_until_idle()
        return log, sim.events_processed

    def test_flood_matches_legacy_stream(self, per_message_network):
        # Identical seeds + identical alarm interleavings: the full
        # (receiver, sender, time) delivery log must match the
        # oracle's exactly.  The second case is a delivery-bound D=64
        # line flood.
        for n, seed, ttl, alarms in ((8, 3, 4, (0.5, 1.25, 2.0, 3.75)),
                                     (65, 7, 6, ())):
            log, events = self.run_flood(Network, n, seed, ttl, alarms)
            oracle, oracle_events = self.run_flood(
                per_message_network, n, seed, ttl, alarms)
            assert log == oracle
            assert log  # non-trivial
        # D=64: every message drains in one wake-up; the oracle takes
        # one kernel event per message.
        assert len(log) == oracle_events == 15_732
        assert events == 1

    def test_same_time_ties_keep_send_order(self, per_message_network):
        # FixedDelay makes every delivery time coincide exactly; the
        # batched path must deliver in send (seq) order, interleaved
        # correctly with kernel events at the same timestamp.  Node 3
        # broadcasts to neighbours 2 then 0, not in id order.
        logs = []
        for network_class in (Network, per_message_network):
            sim, net = make_net(d=1.0, u=0.0, model=FixedDelay(1.0),
                                network_class=network_class)
            log = []
            for i in range(4):
                net.add_node(i, lambda m, t, i=i: log.append((i, m, t)))
            for i in range(3):
                net.add_link(i, i + 1)
            net.add_link(0, 3)
            net.send(0, 1, "a")
            sim.call_at(1.0, log.append, "tied alarm")
            net.send(1, 2, "b")
            net.send(2, 3, "c")
            net.broadcast(3, "d")
            sim.run(until=2.0)
            logs.append(log)
        assert logs[0] == logs[1]
        # The alarm was scheduled between the sends and lands between
        # their deliveries at the shared timestamp.
        assert logs[0][1] == "tied alarm"

    def test_run_horizon_defers_pending(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append((m, t)))
        net.add_link(0, 1)
        net.send(0, 1, "later")
        assert net.pending_deliveries == 1
        sim.run(until=0.5)
        assert received == []
        assert net.pending_deliveries == 1
        sim.run(until=2.0)
        assert received == [("later", pytest.approx(1.0))]
        assert net.pending_deliveries == 0

    def test_inflight_survives_link_down(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append(m))
        net.add_link(0, 1)
        net.send(0, 1, "in flight")
        net.set_link_active(0, 1, False)
        sim.run(until=2.0)
        assert received == ["in flight"]
        net.send(0, 1, "dropped")
        assert net.messages_dropped == 1
        sim.run(until=4.0)
        assert received == ["in flight"]

    def test_fewer_kernel_events_per_message(self):
        sim, net, _log = self.build_flood(Network)
        for i in range(8):
            net.broadcast(i, (i, 4))
        sim.run_until_idle()
        assert net.messages_delivered > 0
        assert sim.events_processed < net.messages_delivered

    def test_counter_visible_to_handlers_mid_batch(self,
                                                   per_message_network):
        # Handlers reading messages_delivered mid-run must see the
        # oracle's values.
        seen = []
        for network_class in (Network, per_message_network):
            sim, net = make_net(d=1.0, u=0.0,
                                network_class=network_class)
            observed = []
            net.add_node(0)
            net.add_node(1, lambda m, t: observed.append(
                net.messages_delivered))
            net.add_link(0, 1)
            net.send(0, 1, "x")
            net.send(0, 1, "y")
            sim.run_until_idle()
            seen.append(observed)
        assert seen[0] == seen[1] == [1, 2]


class TestBroadcastFanOut:
    """``broadcast`` runs an inlined loop over a cached per-sender plan;
    it must stay observationally identical to one ``send`` per
    neighbour, and the plan must follow the topology."""

    LINKS = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5),
             (5, 0), (1, 4))

    def run_fan_outs(self, use_broadcast):
        sim = Simulator()
        delay_rng, loss_rng = random.Random(11), random.Random(12)
        tail_rng = random.Random(13)
        net = Network(sim, d=1.0, u=0.3,
                      default_delay_model=UniformDelay(1.0, 0.3,
                                                       delay_rng))
        log = []

        def fan_out(sender, message):
            if use_broadcast:
                net.broadcast(sender, message)
            else:
                for receiver in net.neighbors(sender):
                    net.send(sender, receiver, message)

        for i in range(6):
            def handler(message, t, i=i):
                log.append((i, message, t))
                if message[2] > 0:
                    # Fan out again from inside the delivery drain.
                    fan_out(i, (i, message[1], message[2] - 1))
            net.add_node(i, handler)
        for a, b in self.LINKS:
            net.add_link(a, b)
        # Out of model one way (heavy tail), uniform the other.
        net.set_link_delay_model(1, 4, LateDelay(1.0, 0.3, 1.5, tail_rng),
                                 direction="ab")
        net.set_link_active(2, 3, False)
        net.set_loss_model(BernoulliLoss(0.25, loss_rng))
        for k, t in enumerate((0.0, 0.35, 0.35, 1.2, 2.05)):
            for sender in (0, 2, 4, 1):
                sim.call_at(t, fan_out, sender, (sender, k, 1))
        # Foreign kernel events between the deliveries: a wake-up armed
        # late moves a delivery past one of them in the log.
        for step in range(80):
            sim.call_at(step * 0.05, log.append, ("tick", step))
        sim.run_until_idle()
        return (log, net.messages_sent, net.dropped_link_down,
                net.dropped_loss, sim.events_processed,
                [rng.random() for rng in (delay_rng, loss_rng, tail_rng)])

    def test_broadcast_equals_per_neighbour_sends(self):
        broadcast = self.run_fan_outs(use_broadcast=True)
        sends = self.run_fan_outs(use_broadcast=False)
        assert broadcast == sends
        log, sent, link_down, lost, _, _ = broadcast
        assert len(log) - 80 == sent > 100
        assert link_down > 0 and lost > 0

    def test_plan_follows_delay_models_and_links(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        received = []
        for i in range(3):
            net.add_node(i, lambda m, t, i=i: received.append((i, m, t)))
        net.add_link(0, 1)
        assert net.broadcast(0, "a") == 1
        sim.run(until=2.0)
        net.set_link_delay_model(0, 1, FixedDelay(0.5))
        net.add_link(0, 2)
        assert net.broadcast(0, "b") == 2
        sim.run(until=4.0)
        # Messages 0 -> 1 are the "ba" direction of the pair (1, 0).
        net.set_link_delay_model(1, 0, FixedDelay(0.6), direction="ba")
        net.broadcast(0, "c")
        sim.run(until=6.0)
        assert received == [(1, "a", 1.0), (1, "b", 2.5), (2, "b", 3.0),
                            (1, "c", pytest.approx(4.6)),
                            (2, "c", 5.0)]

    def test_in_model_draw_outside_envelope_rejected(self):
        _, net = make_net(d=1.0, u=0.1, model=FixedDelay(1.0))
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.broadcast(0, "ok")
        net.set_link_delay_model(0, 1, FixedDelay(0.2))
        with pytest.raises(NetworkError, match="outside envelope"):
            net.broadcast(0, "early")
        net.set_link_delay_model(0, 1, FixedDelay(1.5))
        with pytest.raises(NetworkError, match="outside envelope"):
            net.broadcast(0, "late")

    def test_negative_out_of_model_draw_rejected(self):
        class Negative(DelayModel):
            in_model = False

            def draw(self, sender, receiver, now):
                return -0.1

        _, net = make_net(d=1.0, u=0.1)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1, Negative())
        with pytest.raises(NetworkError, match="non-negative"):
            net.broadcast(0, "x")

    def test_unknown_sender_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError, match="unknown node"):
            net.broadcast(99, "x")

    def test_missing_model_raises_only_for_a_drawn_copy(self):
        # Like send: a down link drops the copy before any model
        # lookup, a live link without a model raises.
        sim = Simulator()
        net = Network(sim, d=1.0, u=0.1)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        with pytest.raises(NetworkError, match="no delay model"):
            net.broadcast(0, "x")
        net.set_link_active(0, 1, False)
        assert net.broadcast(0, "x") == 0
        assert net.dropped_link_down == 1
