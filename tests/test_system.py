"""Integration tests: the full FTGCS system on small topologies."""

import random

import pytest

from repro.core.params import Parameters
from repro.core.system import FtgcsSystem, SystemConfig
from repro.errors import ConfigError
from repro.faults import (
    CollusionAdversary,
    CrashAdversary,
    EquivocateAdversary,
    FastClockAdversary,
    PullApartAdversary,
    RandomPulseAdversary,
    SilentAdversary,
    place_everywhere,
    place_in_clusters,
)
from repro.net.network import Network
from repro.topology import ClusterGraph


@pytest.fixture(scope="module")
def params():
    return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


@pytest.fixture(scope="module")
def params_f0():
    return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=0)


@pytest.fixture(scope="module")
def params_fast():
    """Short-round parameters for the dynamic-topology tests."""
    return Parameters.practical(rho=1e-4, d=1.0, u=0.05, f=1,
                                eps=0.2, k_stab=1)


class TestFaultFree:
    def test_line_converges_within_bounds(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=1)
        result = system.run_rounds(12)
        assert result.rounds_completed >= 12
        assert result.within_intra_bound
        assert result.within_local_cluster_bound
        assert result.within_global_bound
        assert result.missing_pulses == 0
        assert result.clamped_corrections == 0
        assert result.both_triggers_rounds == 0

    def test_estimate_error_within_corollary_3_5(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=2)
        result = system.run_rounds(10)
        assert result.max_estimate_error <= params.estimate_error_bound()

    def test_intra_skew_below_paper_bound(self, params):
        system = FtgcsSystem.build(ClusterGraph.ring(3), params, seed=3)
        result = system.run_rounds(10)
        assert (result.max_intra_cluster_skew
                <= params.intra_skew_bound_paper())

    def test_single_cluster_is_plain_lynch_welch(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(1), params, seed=4)
        result = system.run_rounds(10)
        assert result.max_local_cluster_skew == 0.0
        assert result.within_intra_bound

    def test_f0_minimal_system(self, params_f0):
        system = FtgcsSystem.build(ClusterGraph.line(3), params_f0,
                                   seed=5)
        result = system.run_rounds(8)
        assert result.within_intra_bound
        assert result.rounds_completed >= 8

    def test_determinism(self, params):
        results = []
        for _ in range(2):
            system = FtgcsSystem.build(ClusterGraph.line(3), params,
                                       seed=42)
            results.append(system.run_rounds(6))
        a, b = results
        assert a.max_global_skew == b.max_global_skew
        assert a.max_intra_cluster_skew == b.max_intra_cluster_skew
        assert a.messages_sent == b.messages_sent
        assert a.events_processed == b.events_processed

    def test_seed_changes_execution(self, params):
        a = FtgcsSystem.build(ClusterGraph.line(3), params,
                              seed=1).run_rounds(6)
        b = FtgcsSystem.build(ClusterGraph.line(3), params,
                              seed=2).run_rounds(6)
        assert a.max_global_skew != b.max_global_skew

    def test_pulse_diameters_within_e(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=6)
        system.run_rounds(10)
        table = system.pulse_diameter_table()
        assert table  # pulses were logged
        for (cluster, round_index), diameter in table.items():
            assert diameter <= params.cap_e + 1e-9


class TestInitialOffsets:
    def test_gradient_triggers_fast_mode(self, params):
        """A cluster lagging its neighbor by > 2*kappa must go fast
        (FT) while the leader goes slow (ST)."""
        offset = 2.5 * params.kappa
        config = SystemConfig(cluster_offsets=[0.0, offset])
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=7,
                                   config=config)
        result = system.run_rounds(6)
        assert result.fast_rounds > 0
        # The laggards are cluster 0's members.
        for node in system.honest_nodes():
            modes = dict(node.stats.mode_by_round)
            if node.cluster_id == 0:
                assert modes[1] == 1  # fast from the first round
            else:
                assert modes[1] == 0

    def test_fast_mode_reduces_gap(self, params):
        offset = 2.5 * params.kappa
        config = SystemConfig(cluster_offsets=[0.0, offset],
                              record_series=True)
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=8,
                                   config=config)
        result = system.run_rounds(12)
        first = result.series[0].max_local_cluster
        last = result.series[-1].max_local_cluster
        # Fast mode gains ~ mu per unit time over slow mode.
        assert last < first

    def test_offsets_validation(self, params):
        config = SystemConfig(cluster_offsets=[0.0])
        with pytest.raises(ConfigError):
            FtgcsSystem.build(ClusterGraph.line(2), params, seed=0,
                              config=config)


class TestByzantine:
    def run_with(self, params, graph, factory, seed, rounds=10,
                 per_cluster=1):
        aug = graph.augment(params.cluster_size)
        byz = place_everywhere(aug, per_cluster, factory)
        config = SystemConfig(byzantine=byz)
        system = FtgcsSystem.build(graph, params, seed=seed,
                                   config=config)
        return system.run_rounds(rounds)

    def test_silent_faults_bounds_hold(self, params):
        result = self.run_with(params, ClusterGraph.line(3),
                               lambda n: SilentAdversary(), seed=10)
        assert result.within_intra_bound
        assert result.within_local_cluster_bound
        assert result.missing_pulses > 0

    def test_equivocator_bounds_hold(self, params):
        result = self.run_with(params, ClusterGraph.line(3),
                               lambda n: EquivocateAdversary(), seed=11)
        assert result.within_intra_bound
        assert result.within_local_cluster_bound

    def test_pull_apart_bounds_hold(self, params):
        result = self.run_with(params, ClusterGraph.ring(3),
                               lambda n: PullApartAdversary(), seed=12)
        assert result.within_intra_bound

    def test_colluding_equivocators_bounds_hold(self, params):
        result = self.run_with(
            params, ClusterGraph.line(3),
            lambda n: CollusionAdversary(), seed=16)
        assert result.within_intra_bound
        assert result.within_local_cluster_bound

    def test_random_pulses_bounds_hold(self, params):
        result = self.run_with(
            params, ClusterGraph.line(2),
            lambda n: RandomPulseAdversary(pulses_per_round=5.0), seed=13)
        assert result.within_intra_bound
        assert result.stale_pulses + result.flooded_pulses > 0

    def test_fast_clock_bounds_hold(self, params):
        result = self.run_with(params, ClusterGraph.line(2),
                               lambda n: FastClockAdversary(1.5), seed=14)
        assert result.within_intra_bound

    def test_crash_mid_run(self, params):
        crash_time = 3 * params.round_length
        result = self.run_with(params, ClusterGraph.line(2),
                               lambda n: CrashAdversary(crash_time),
                               seed=15)
        assert result.within_intra_bound
        assert result.rounds_completed >= 10

    def test_fault_budget_enforced(self, params):
        graph = ClusterGraph.line(2)
        aug = graph.augment(params.cluster_size)
        byz = place_in_clusters(aug, [0], per_cluster=2,
                                factory=lambda n: SilentAdversary())
        with pytest.raises(ConfigError):
            FtgcsSystem.build(graph, params, seed=0,
                              config=SystemConfig(byzantine=byz))

    def test_fault_overflow_opt_in(self, params):
        graph = ClusterGraph.line(2)
        aug = graph.augment(params.cluster_size)
        byz = place_in_clusters(aug, [0], per_cluster=2,
                                factory=lambda n: SilentAdversary())
        config = SystemConfig(byzantine=byz, allow_fault_overflow=True)
        system = FtgcsSystem.build(graph, params, seed=0, config=config)
        result = system.run_rounds(5)  # runs; bounds may legitimately fail
        assert result.rounds_completed >= 5


class TestMaxEstimate:
    def test_max_rule_system_runs(self, params):
        config = SystemConfig(policy="max_rule", enable_max_estimate=True)
        system = FtgcsSystem.build(ClusterGraph.line(3), params, seed=20,
                                   config=config)
        result = system.run_rounds(8)
        assert result.within_intra_bound
        assert result.rounds_completed >= 8

    def test_lagging_cluster_rescued_by_max_rule(self, params):
        """A cluster behind by far more than any trigger level still
        catches up via the M_v rule (Theorem C.3)."""
        lag = params.c_global * params.delta_trigger + 5 * params.kappa
        config = SystemConfig(
            policy="max_rule", enable_max_estimate=True,
            cluster_offsets=[0.0, lag], record_series=True)
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=21,
                                   config=config)
        result = system.run_rounds(10)
        activations = sum(n.intercluster.stats.max_rule_activations
                          for n in system.honest_nodes())
        # The laggard sees its neighbor 5*kappa ahead -> FT fires, so
        # max-rule activations may be zero here; what matters is that
        # the gap shrinks.
        first = result.series[0].global_skew
        last = result.series[-1].global_skew
        assert last < first

    @pytest.mark.parametrize("graph", [ClusterGraph.line(9),
                                       ClusterGraph.ring(8)],
                             ids=["line-D8", "ring-D4"])
    def test_estimate_never_exceeds_max_clock(self, params_fast, graph):
        """Lemma C.2 on a full run: ``M_v <= max_w L_w`` over honest
        nodes at every half-d step, with one equivocator per cluster
        and the MAX rule driving the global skew."""
        rng = random.Random(7)
        offsets = [rng.uniform(-params_fast.kappa, params_fast.kappa)
                   for _ in range(graph.num_clusters)]
        byzantine = place_everywhere(
            graph.augment(params_fast.cluster_size), 1,
            lambda node: EquivocateAdversary())
        config = SystemConfig(policy="max_rule", enable_max_estimate=True,
                              cluster_offsets=offsets, byzantine=byzantine)
        system = FtgcsSystem.build(graph, params_fast, seed=5,
                                   config=config)
        honest = system.honest_nodes()
        horizon = system.schedule.round_start(7)
        t = 0.0
        while t < horizon:
            t += params_fast.d / 2.0
            system.run(t)
            l_max = max(node.logical.value() for node in honest)
            for node in honest:
                assert node.max_estimate.value() <= l_max, (t, node.node_id)
        # The flood rule must actually have fired, or the bound is
        # only the local clock's rate argument.
        assert sum(node.max_estimate.jumps for node in honest) > 0


class TestConfigSurface:
    def test_rate_model_specs(self, params):
        for spec in ("uniform", "extremes", "min", "max", "flip"):
            system = FtgcsSystem.build(
                ClusterGraph.line(2), params, seed=30,
                config=SystemConfig(rate_model=spec))
            result = system.run_rounds(3)
            assert result.rounds_completed >= 3

    def test_delay_model_specs(self, params):
        for spec in ("uniform", "min", "max"):
            system = FtgcsSystem.build(
                ClusterGraph.line(2), params, seed=31,
                config=SystemConfig(delay_model=spec))
            result = system.run_rounds(3)
            assert result.rounds_completed >= 3

    def test_unknown_specs_rejected(self, params):
        with pytest.raises(ConfigError):
            FtgcsSystem.build(ClusterGraph.line(2), params, seed=0,
                              config=SystemConfig(rate_model="warp"))
        with pytest.raises(ConfigError):
            FtgcsSystem.build(ClusterGraph.line(2), params, seed=0,
                              config=SystemConfig(delay_model="warp"))

    def test_custom_factories(self, params):
        from delay_models import FixedDelay
        from repro.clocks import ConstantRate

        config = SystemConfig(
            rate_model=lambda n, rng, p: ConstantRate(1.0),
            delay_model=lambda a, b, rng, p: FixedDelay(p.d))
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=32,
                                   config=config)
        result = system.run_rounds(3)
        assert result.rounds_completed >= 3

    def test_run_rounds_validation(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=33)
        with pytest.raises(ConfigError):
            system.run_rounds(0)

    def test_adaptive_schedule_loose_init(self, params):
        config = SystemConfig(e1=4 * params.cap_e,
                              init_jitter=2 * params.cap_e)
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=34,
                                   config=config)
        result = system.run_rounds(8)
        assert result.rounds_completed >= 8
        # With jitter within e(1), rounds stay proper.
        assert result.clamped_corrections == 0

    def test_unanimity_tracking(self, params):
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=35)
        system.run_rounds(6)
        unanimity = system.cluster_unanimity(0)
        assert unanimity
        # Fault-free quiescent system: all-slow everywhere.
        for round_index, (unanimous, gamma) in unanimity.items():
            assert unanimous
            assert gamma == 0


class TestBatchedDeliveryEquivalence:
    def test_batched_flag_changes_nothing_but_event_count(
            self, params, per_message_network, monkeypatch):
        # The system's own network against the per-message oracle.
        results = []
        for network_class in (Network, per_message_network):
            monkeypatch.setattr("repro.core.system.Network",
                                network_class)
            config = SystemConfig(record_series=True, track_edges=True)
            system = FtgcsSystem.build(ClusterGraph.line(3), params,
                                       seed=11, config=config)
            results.append(system.run_rounds(6))
        a, b = results
        assert a.series == b.series
        assert a.max_global_skew == b.max_global_skew
        assert a.max_local_cluster_skew == b.max_local_cluster_skew
        assert a.max_local_node_skew == b.max_local_node_skew
        assert a.edge_maxima == b.edge_maxima
        assert a.messages_sent == b.messages_sent
        # The batched path is the whole point: far fewer kernel events.
        assert a.events_processed < b.events_processed


class TestReannounceCap:
    def toggle_edge(self, system, active):
        for na in system.graph.members(0):
            for nb in system.graph.members(1):
                system.network.set_link_active(na, nb, active)
        system.notify_cluster_edge((0, 1), active)

    def test_capped_run_reports_hits(self, params_fast):
        config = SystemConfig(
            enable_max_estimate=True,
            max_estimate_unit=params_fast.kappa / 4.0,
            dynamic_estimators=True, max_reannounce_levels=2)
        system = FtgcsSystem.build(ClusterGraph.line(2), params_fast,
                                   seed=5, config=config)
        system.start()
        # Long enough that every node's announced level far exceeds
        # the cap of 2 before the outage ends.
        system.sim.run(20 * params_fast.round_length)
        self.toggle_edge(system, False)
        system.sim.run(system.sim.now + 2 * params_fast.round_length)
        self.toggle_edge(system, True)
        system.sim.run(system.sim.now + 2 * params_fast.round_length)
        result = system.result()
        assert result.reannounce_cap_hits > 0
        assert result.reannounce_cap_hits == sum(
            node.stats.reannounce_cap_hits
            for node in system.honest_nodes())

    def test_uncapped_run_reports_none(self, params_fast):
        config = SystemConfig(
            enable_max_estimate=True,
            max_estimate_unit=params_fast.kappa / 4.0,
            dynamic_estimators=True, max_reannounce_levels=100_000)
        system = FtgcsSystem.build(ClusterGraph.line(2), params_fast,
                                   seed=5, config=config)
        system.start()
        system.sim.run(20 * params_fast.round_length)
        self.toggle_edge(system, False)
        system.sim.run(system.sim.now + 2 * params_fast.round_length)
        self.toggle_edge(system, True)
        system.sim.run(system.sim.now + 2 * params_fast.round_length)
        result = system.result()
        assert result.reannounce_cap_hits == 0
        # The re-announcement itself did happen.
        assert sum(node.stats.max_reannounce_pulses
                   for node in system.honest_nodes()) > 0

    def test_cap_must_be_positive(self, params_fast):
        config = SystemConfig(dynamic_estimators=True,
                              max_reannounce_levels=0)
        with pytest.raises(ConfigError):
            FtgcsSystem.build(ClusterGraph.line(2), params_fast,
                              seed=5, config=config)
