"""Unit tests for delay models and the network."""

import random

import pytest

from repro.errors import NetworkError, SimulationError
from repro.net import (
    BiasedDelay,
    DelayModel,
    ExtremalDelay,
    FixedDelay,
    Network,
    PolicyDelay,
    Pulse,
    PulseKind,
    UniformDelay,
)
from repro.net.delays import AsymmetricDelay, ParetoDelay
from repro.net.loss import BernoulliLoss
from repro.sim import Simulator


def make_net(d=1.0, u=0.2, model=None):
    sim = Simulator()
    net = Network(sim, d=d, u=u, default_delay_model=model or FixedDelay(d))
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

    def test_biased_by_direction(self):
        model = BiasedDelay(forward=1.0, backward=0.7)
        assert model.draw(0, 1, 0.0) == 1.0
        assert model.draw(1, 0, 0.0) == 0.7

    def test_policy(self):
        model = PolicyDelay(lambda s, r, now: 0.8 if s == 0 else 0.9)
        assert model.draw(0, 5, 0.0) == 0.8
        assert model.draw(5, 0, 0.0) == 0.9

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
    """The batched fast path must be observationally identical to the
    legacy one-kernel-event-per-message stream."""

    def build_flood(self, batched, n=8, seed=3):
        sim = Simulator()
        rng = random.Random(seed)
        net = Network(sim, d=1.0, u=0.5,
                      default_delay_model=UniformDelay(1.0, 0.5, rng),
                      batched=batched)
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

    def test_flood_matches_legacy_stream(self):
        # Identical seeds + identical alarm interleavings: the full
        # (receiver, sender, time) delivery log must match exactly.
        logs = {}
        for batched in (True, False):
            sim, net, log = self.build_flood(batched)
            for t in (0.5, 1.25, 2.0, 3.75):
                sim.call_at(t, log.append, ("alarm", t))
            for i in range(8):
                net.broadcast(i, (i, 4))
            sim.run_until_idle()
            logs[batched] = log
        assert logs[True] == logs[False]
        assert logs[True]  # non-trivial

    def test_same_time_ties_keep_send_order(self):
        # FixedDelay makes every delivery time coincide exactly; the
        # batched path must deliver in send (seq) order, interleaved
        # correctly with kernel events at the same timestamp.
        logs = {}
        for batched in (True, False):
            sim, net = make_net(d=1.0, u=0.0, model=FixedDelay(1.0))
            net.batched = batched
            log = []
            for i in range(4):
                net.add_node(i, lambda m, t, i=i: log.append((i, m, t)))
            for i in range(3):
                net.add_link(i, i + 1)
            net.send(0, 1, "a")
            sim.call_at(1.0, log.append, "tied alarm")
            net.send(1, 2, "b")
            net.send(2, 3, "c")
            sim.run(until=2.0)
            logs[batched] = log
        assert logs[True] == logs[False]
        # The alarm was scheduled between the sends and lands between
        # their deliveries at the shared timestamp.
        assert logs[True][1] == "tied alarm"

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

    def test_legacy_mode_never_queues(self):
        sim, net = make_net(d=1.0, u=0.0)
        net.batched = False
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.send(0, 1, "x")
        assert net.pending_deliveries == 0
        assert sim.pending_events == 1

    def test_fewer_kernel_events_per_message(self):
        sim, net, _log = self.build_flood(True)
        for i in range(8):
            net.broadcast(i, (i, 4))
        sim.run_until_idle()
        assert net.messages_delivered > 0
        assert sim.events_processed < net.messages_delivered

    def test_runaway_send_loop_hits_max_events(self):
        # A send-on-delivery cascade must trip run_until_idle's
        # runaway guard in batched mode too (deliveries count as work
        # units), not spin forever inside one flush drain.
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0, lambda m, t: net.send(0, 1, m))
        net.add_node(1, lambda m, t: net.send(1, 0, m))
        net.add_link(0, 1)
        net.send(0, 1, "ping")
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=500)
        assert net.messages_delivered <= 500

    def test_nested_run_until_idle_drains_past_outer_horizon(self):
        # A callback inside run(until=1.0) sends a message due later
        # and then calls run_until_idle(): the nested call must drain
        # it (legacy semantics) instead of spinning on a wake-up that
        # can never deliver under the outer horizon.
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append((m, t)))
        net.add_link(0, 1)

        def send_then_drain():
            net.send(0, 1, "late")
            sim.run_until_idle(max_events=100)

        sim.call_at(0.5, send_then_drain)
        sim.run(until=1.0)
        assert received == [("late", pytest.approx(1.5))]

    def test_step_delivers_one_message_per_call(self):
        # step()'s single-event contract survives batching: each call
        # hands over exactly one pending delivery.
        logs = {}
        for batched in (True, False):
            sim, net = make_net(d=1.0, u=0.5, model=None)
            net.batched = batched
            log = []
            for i in range(4):
                net.add_node(i, lambda m, t, i=i: log.append((i, m, t)))
            for i in range(3):
                net.add_link(i, i + 1)
            net.set_link_delay_model(0, 1, FixedDelay(0.6))
            net.set_link_delay_model(1, 2, FixedDelay(0.8))
            net.set_link_delay_model(2, 3, FixedDelay(1.0))
            net.send(0, 1, "a")
            net.send(1, 2, "b")
            net.send(2, 3, "c")
            assert sim.step() is True
            logs[batched] = (list(log), sim.now)
            sim.run_until_idle()
            assert len(log) == 3
        assert logs[True] == logs[False]
        assert logs[True][1] == pytest.approx(0.6)  # one delivery only

    def test_counter_visible_to_handlers_mid_batch(self):
        # Handlers reading messages_delivered mid-run must see the
        # same values under both delivery paths.
        seen = {}
        for batched in (True, False):
            sim, net = make_net(d=1.0, u=0.0)
            net.batched = batched
            observed = []
            net.add_node(0)
            net.add_node(1, lambda m, t: observed.append(
                net.messages_delivered))
            net.add_link(0, 1)
            net.send(0, 1, "x")
            net.send(0, 1, "y")
            sim.run_until_idle()
            seen[batched] = observed
        assert seen[True] == seen[False] == [1, 2]


class TestBroadcastFanOut:
    """``broadcast`` runs an inlined loop over a cached per-sender plan;
    it must stay observationally identical to one ``send`` per
    neighbour, and the plan must follow the topology."""

    LINKS = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5),
             (5, 0), (1, 4))

    def run_fan_outs(self, use_broadcast):
        sim = Simulator()
        delay_rng, loss_rng = random.Random(11), random.Random(12)
        tail_rng, back_rng = random.Random(13), random.Random(14)
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
        net.set_link_delay_model(1, 4, AsymmetricDelay(
            ParetoDelay(1.0, 0.3, 1.5, tail_rng),
            UniformDelay(1.0, 0.3, back_rng)))
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
                [rng.random() for rng in (delay_rng, loss_rng, tail_rng,
                                          back_rng)])

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
