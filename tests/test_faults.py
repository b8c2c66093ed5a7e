"""Unit tests for the adversaries' event side and placement policies."""

import random

import pytest

from repro.core.params import Parameters
from repro.errors import ConfigError
from repro.faults import (
    CrashAdversary,
    EquivocateAdversary,
    FastClockAdversary,
    RandomPulseAdversary,
    SilentAdversary,
    place_everywhere,
    place_in_clusters,
)
from repro.topology import ClusterGraph


@pytest.fixture
def augmented():
    return ClusterGraph.line(4).augment(4)


class TestPlacement:
    def test_place_in_clusters_first(self, augmented):
        faults = place_in_clusters(augmented, [1, 3], 2,
                                   lambda n: SilentAdversary())
        assert set(faults) == {4, 5, 12, 13}

    def test_place_in_clusters_random(self, augmented):
        rng = random.Random(0)
        faults = place_in_clusters(augmented, [0], 2,
                                   lambda n: SilentAdversary(),
                                   rng=rng, pick="random")
        assert len(faults) == 2
        assert all(augmented.cluster_of(n) == 0 for n in faults)

    def test_place_everywhere(self, augmented):
        faults = place_everywhere(augmented, 1,
                                  lambda n: SilentAdversary())
        clusters = sorted(augmented.cluster_of(n) for n in faults)
        assert clusters == [0, 1, 2, 3]

    def test_validation(self, augmented):
        with pytest.raises(ConfigError):
            place_in_clusters(augmented, [0], 5,
                              lambda n: SilentAdversary())
        with pytest.raises(ConfigError):
            place_in_clusters(augmented, [0], 1,
                              lambda n: SilentAdversary(),
                              pick="random")  # rng missing

    def test_factory_receives_node_id(self, augmented):
        seen = []

        def factory(node_id):
            seen.append(node_id)
            return SilentAdversary()

        place_in_clusters(augmented, [2], 2, factory)
        assert seen == [8, 9]


class TestStrategyValidation:
    def test_crash_time_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            CrashAdversary(-1.0)

    def test_random_pulse_rate_positive(self):
        with pytest.raises(ConfigError):
            RandomPulseAdversary(pulses_per_round=0.0)

    def test_fast_clock_factor_positive(self):
        with pytest.raises(ConfigError):
            FastClockAdversary(0.0)

    def test_describe(self):
        assert "Crash" in CrashAdversary(1.0).describe()
        assert "1.5" in FastClockAdversary(1.5).describe()
        assert "Silent" in SilentAdversary().describe()

    def test_fast_clock_hardware_spec(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        fast = FastClockAdversary(2.0)
        model, enforce = fast.hardware_spec(params, random.Random(0))
        assert not enforce
        assert model.initial_rate() == pytest.approx(
            (1 + params.rho) * 2.0)
        slow = FastClockAdversary(0.5)
        model, _ = slow.hardware_spec(params, random.Random(0))
        assert model.initial_rate() == pytest.approx(0.5)

    def test_silent_hardware_spec_default(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        assert SilentAdversary().hardware_spec(
            params, random.Random(0)) is None


class TestEquivocatorGrouping:
    def test_split_targets_partitions_neighbors(self):
        from repro.faults import EventContext

        graph = ClusterGraph.line(3)
        aug = graph.augment(4)
        node_id = 4  # in middle cluster 1
        ctx = EventContext(
            node_id=node_id, cluster_id=1, sim=None, network=None,
            params=None, schedule=None, hardware=None, base=0.0,
            cluster_members=aug.members(1),
            adjacent_members=aug.inter_neighbors(node_id),
            rng=random.Random(0))
        early, late = EquivocateAdversary._split_targets(ctx)
        # Every neighbor is in exactly one group.
        all_targets = set(early) | set(late)
        assert set(ctx.all_neighbors()) == all_targets
        assert not set(early) & set(late)
        # Whole adjacent clusters land on one side.
        assert set(aug.members(0)) <= set(early)
        assert set(aug.members(2)) <= set(late)
