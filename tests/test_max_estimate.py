"""Unit tests for the global-skew estimate M_v (Lemma C.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import ConstantRate, HardwareClock
from repro.core.max_estimate import MaxEstimate
from repro.errors import ConfigError
from repro.sim import Simulator

#: Two clusters: 0 owns nodes 1..4, 1 owns nodes 5..8; node 0 is us.
CLUSTER_OF = {n: 0 for n in range(1, 5)}
CLUSTER_OF.update({n: 1 for n in range(5, 9)})


def make_max(rho=0.1, unit=1.0, f=1, initial=0.0, hw_rate=None,
             transit_bonus=1.0):
    """Paper configuration: unit == transit_bonus == d - U."""
    sim = Simulator()
    rate = hw_rate if hw_rate is not None else 1.0 + rho
    hw = HardwareClock(sim, ConstantRate(rate), rho=rho)
    sent = []
    est = MaxEstimate(sim, hw, rho, unit, f, CLUSTER_OF, initial,
                      send_pulse=lambda: sent.append(sim.now),
                      transit_bonus=transit_bonus)
    return sim, est, sent


class TestLocalProgress:
    def test_rate_is_scaled_down(self):
        sim, est, _ = make_max(rho=0.1, hw_rate=1.1)
        est.start()
        sim.run(until=11.0)
        # h/(1+rho) = 1.1/1.1 = 1.0
        assert est.value() == pytest.approx(11.0)

    def test_never_exceeds_true_time_budget(self):
        # With h <= 1+rho, M advances at <= 1: can never overtake a
        # correct clock that advances at >= 1.
        sim, est, _ = make_max(rho=0.1, hw_rate=1.05)
        est.start()
        sim.run(until=100.0)
        assert est.value() <= 100.0 + 1e-9

    def test_pulses_sent_at_unit_multiples(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, hw_rate=1.0)
        est.start()
        sim.run(until=7.0)
        # Crossings at M = 2, 4, 6 -> times 2, 4, 6.
        assert [pytest.approx(t) for t in (2.0, 4.0, 6.0)] == sent

    def test_initial_value_counts_toward_levels(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, initial=5.0,
                                  hw_rate=1.0)
        est.start()
        sim.run(until=2.0)
        # M starts at 5 (level 2 announced implicitly); next crossing
        # is M=6 at t=1.
        assert len(sent) == 1
        assert sent[0] == pytest.approx(1.0)


class TestFloodRule:
    def test_f_plus_one_witnesses_trigger_jump(self):
        sim, est, sent = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        # Two members (f+1 = 2) of cluster 0 each announce 3 levels.
        for _ in range(3):
            est.on_pulse(1, sim.now)
            est.on_pulse(2, sim.now)
        # Confirmed level 3 -> jump to (3+1)*unit = 4.
        assert est.value() == pytest.approx(4.0)
        assert est.jumps >= 1
        # Our own announcements must cover the jumped levels 1..4.
        assert est.pulses_sent >= 4

    def test_single_witness_is_ignored(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        for _ in range(5):
            est.on_pulse(1, sim.now)  # one Byzantine flooder
        assert est.value() == pytest.approx(0.0)

    def test_witnesses_split_across_clusters_ignored(self):
        """One sender per cluster is not f+1 in any *single* cluster."""
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        for _ in range(4):
            est.on_pulse(1, sim.now)  # cluster 0
            est.on_pulse(5, sim.now)  # cluster 1
        assert est.value() == pytest.approx(0.0)

    def test_unknown_sender_ignored(self):
        sim, est, _ = make_max()
        est.start()
        est.on_pulse(999, 0.0)
        assert est.value() == pytest.approx(0.0)

    def test_jump_is_monotone(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, initial=10.0,
                               hw_rate=1.0)
        est.start()
        est.on_pulse(1, sim.now)
        est.on_pulse(2, sim.now)
        # Confirmed level 1 -> target 2 < current 10: no jump.
        assert est.value() == pytest.approx(10.0)
        assert est.jumps == 0


class TestValidation:
    def test_bad_unit(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.1)
        with pytest.raises(ConfigError):
            MaxEstimate(sim, hw, 0.1, 0.0, 1, {}, 0.0, lambda: None)

    def test_double_start_rejected(self):
        sim, est, _ = make_max()
        est.start()
        with pytest.raises(ConfigError):
            est.start()

    def test_stopped_estimate_ignores_pulses(self):
        sim, est, _ = make_max(f=0)
        est.start()
        est.stop()
        est.on_pulse(1, 0.0)
        assert est.value() == pytest.approx(0.0)


class TestFirstContactReset:
    def test_announced_level_exposed(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, hw_rate=1.0)
        est.start()
        sim.run(until=6.5)
        assert est.announced_level == 3
        assert len(sent) == 3

    def test_reset_sender_restarts_decode_from_zero(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        # Two witnesses from cluster 0 at level 2 -> jump.
        for sender in (1, 2):
            for _ in range(2):
                est.on_pulse(sender, sim.now)
        assert est.jumps >= 1  # levels 1 and 2 both confirm
        value_after_jump = est.value()
        est.reset_sender(1)
        est.reset_sender(2)
        assert est.sender_resets == 2
        # The estimate itself is untouched (M never moves backwards)...
        assert est.value() >= value_after_jump
        # ...and a re-announced stream decodes from level 1 again:
        # one pulse each re-attests only level 1, which cannot raise
        # the already-higher estimate (undercount = sound direction).
        jumps_before = est.jumps
        for sender in (1, 2):
            est.on_pulse(sender, sim.now)
        assert est.jumps == jumps_before

    def test_reset_then_full_reannounce_restores_decode(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        for sender in (1, 2):
            for _ in range(3):
                est.on_pulse(sender, sim.now)
        level_settled = est.value()
        est.reset_sender(1)
        est.reset_sender(2)
        # The paired protocol: senders re-announce their full level
        # over the fresh link; the decode then reads it exactly.
        for sender in (1, 2):
            for _ in range(5):
                est.on_pulse(sender, sim.now)
        assert est.value() >= level_settled

    def test_quarantine_drops_pre_outage_in_flight_pulses(self):
        """The over-count hole: a pulse in flight from before the
        outage must not stack on top of the re-announced stream."""
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        est.reset_sender(1, quarantine_until=sim.now + 1.0)  # d = 1
        # Arrivals inside the window (possibly pre-outage) are dropped.
        est.on_pulse(1, sim.now + 0.5)
        assert est.quarantined_pulses == 1
        assert est._sender_levels.get(1) is None
        # Arrivals at or after the deadline (the delayed
        # re-announcement's earliest possible arrival) count normally.
        est.on_pulse(1, sim.now + 1.0)
        assert est._sender_levels[1] == 1
        # The quarantine clears after the first post-deadline pulse.
        est.on_pulse(1, sim.now + 1.1)
        assert est._sender_levels[1] == 2


class SortDecodeMax(MaxEstimate):
    """The filter-and-sort decode, kept as the oracle for the
    incremental one: every pulse re-sorts its sender's cluster and
    retries the jump."""

    def reset_sender(self, sender, quarantine_until=None):
        self._sender_levels.pop(sender, None)
        if quarantine_until is not None:
            self._quarantine[sender] = quarantine_until
        self.sender_resets += 1

    def on_pulse(self, sender, receive_time):
        if not self._running:
            return
        self.pulses_received += 1
        until = self._quarantine.get(sender)
        if until is not None:
            if receive_time < until:
                self.quarantined_pulses += 1
                return
            del self._quarantine[sender]
        self._sender_levels[sender] = self._sender_levels.get(sender, 0) + 1
        confirmed = self._confirmed_level(self._cluster_of.get(sender))
        if confirmed <= 0:
            return
        target = confirmed * self._unit + self._transit_bonus
        if self._clock.jump_to(target):
            self.jumps += 1
            self._announce_up_to(self._level_of(self.value()))

    def _confirmed_level(self, cluster):
        if cluster is None:
            return 0
        levels = sorted(
            (lvl for sender, lvl in self._sender_levels.items()
             if self._cluster_of.get(sender) == cluster),
            reverse=True)
        if len(levels) <= self._f:
            return 0
        return levels[self._f]


#: Sender ids no cluster owns.
UNKNOWN_SENDERS = (90, 91)


@st.composite
def decode_runs(draw):
    """Clusters (some smaller than f + 1), a start value, and a random
    interleaving of pulses, resets and time advances."""
    f = draw(st.sampled_from([0, 1, 2]))
    sizes = draw(st.lists(st.integers(1, 3 * f + 2), min_size=1,
                          max_size=3))
    cluster_of = {}
    for cluster, size in enumerate(sizes):
        for _ in range(size):
            cluster_of[len(cluster_of) + 1] = cluster
    senders = st.sampled_from(sorted(cluster_of) + list(UNKNOWN_SENDERS))
    # Pulses come in bursts and outnumber the other steps, so the
    # decode, not the local clock, drives the estimate for most runs.
    pulses = st.tuples(st.just("pulse"), senders, st.integers(1, 4))
    ops = draw(st.lists(st.one_of(
        pulses, pulses, pulses, pulses,
        st.tuples(st.just("reset"), senders,
                  st.none() | st.floats(0.0, 2.0)),
        st.tuples(st.just("advance"), st.floats(0.0, 1.0))),
        min_size=10, max_size=80))
    initial = draw(st.sampled_from([-2.5, 0.0, 3.5, 12.0]))
    transit_bonus = draw(st.sampled_from([0.0, 1.0]))
    return f, cluster_of, initial, transit_bonus, ops


def observed(est):
    return (est.value(), est.jumps, est.pulses_sent, est.announced_level,
            est.quarantined_pulses)


class TestIncrementalDecodeOracle:
    @settings(max_examples=150, deadline=None)
    @given(decode_runs())
    def test_matches_sort_based_decode(self, run):
        f, cluster_of, initial, transit_bonus, ops = run
        pair = []
        for cls in (MaxEstimate, SortDecodeMax):
            sim = Simulator()
            hw = HardwareClock(sim, ConstantRate(1.0), rho=0.1)
            est = cls(sim, hw, 0.1, 1.0, f, cluster_of, initial,
                      send_pulse=lambda: None, transit_bonus=transit_bonus)
            est.start()
            pair.append((sim, est))
        for op in ops:
            for sim, est in pair:
                if op[0] == "pulse":
                    for _ in range(op[2]):
                        est.on_pulse(op[1], sim.now)
                elif op[0] == "reset":
                    until = None if op[2] is None else sim.now + op[2]
                    est.reset_sender(op[1], quarantine_until=until)
                else:
                    sim.run(until=sim.now + op[1])
            (_, fast), (_, reference) = pair
            assert observed(fast) == observed(reference)
            for cluster in set(cluster_of.values()):
                assert (fast._confirmed[cluster]
                        == reference._confirmed_level(cluster))
