"""Tests for the four baseline algorithms."""

import pytest

from repro.baselines.gcs_single import GcsParams, GcsSingleSystem
from repro.baselines.lynch_welch import LynchWelchSystem
from repro.baselines.master_slave import MasterSlaveSystem, bfs_tree
from repro.baselines.srikanth_toueg import SrikanthTouegSystem, StParams
from repro.core.params import Parameters
from repro.errors import ConfigError
from repro.topology import ClusterGraph


@pytest.fixture(scope="module")
def params():
    return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


@pytest.fixture(scope="module")
def params_f0():
    return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=0)


class TestLynchWelch:
    def test_clique_within_bounds(self, params):
        result = LynchWelchSystem(params, seed=1).run_rounds(8)
        assert result.within_intra_bound
        assert result.max_local_cluster_skew == 0.0

    def test_with_silent_fault(self, params):
        from repro.core.system import SystemConfig
        from repro.faults import SilentAdversary

        config = SystemConfig(byzantine={0: SilentAdversary()})
        result = LynchWelchSystem(params, config=config,
                                  seed=2).run_rounds(8)
        assert result.within_intra_bound
        assert result.missing_pulses > 0


class TestSrikanthToueg:
    def test_accepts_happen_every_round(self):
        st_params = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1,
                             period=50.0)
        system = SrikanthTouegSystem(st_params, seed=1)
        system.run(rounds=6)
        for node in system.correct_nodes():
            assert node.stats.accepts >= 5

    def test_skew_stays_order_d(self):
        st_params = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1,
                             period=50.0)
        system = SrikanthTouegSystem(st_params, seed=2)
        skew = system.run(rounds=8)
        assert skew <= 2.0 * st_params.d

    def test_tolerates_silent_fault(self):
        st_params = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1,
                             period=50.0)
        system = SrikanthTouegSystem(st_params, seed=3, silent_faults=1)
        skew = system.run(rounds=8)
        assert skew <= 2.0 * st_params.d
        for node in system.correct_nodes():
            assert node.stats.accepts >= 7

    def test_relay_rule_pulls_laggards(self):
        # With a wide rate spread the slowest node should sometimes be
        # pulled by f+1 earlier proposals before its own timeout.
        st_params = StParams(n=4, f=1, rho=1e-2, d=1.0, u=0.1,
                             period=400.0)
        system = SrikanthTouegSystem(st_params, seed=4)
        system.run(rounds=10)
        relays = sum(n.stats.relay_proposals
                     for n in system.correct_nodes())
        assert relays > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            StParams(n=3, f=1, rho=1e-4, d=1.0, u=0.1, period=50.0)
        with pytest.raises(ConfigError):
            StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1, period=1.5)
        st_params = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1,
                             period=50.0)
        with pytest.raises(ConfigError):
            SrikanthTouegSystem(st_params, silent_faults=2)


class TestGcsSingle:
    def test_fault_free_local_skew_small(self):
        gcs = GcsParams.default()
        system = GcsSingleSystem(ClusterGraph.line(4), gcs, seed=1)
        samples = system.run(until=600.0)
        assert samples
        final_local = samples[-1][1]
        assert final_local <= gcs.kappa

    def test_liar_breaks_local_skew(self):
        gcs = GcsParams.default()
        system = GcsSingleSystem(ClusterGraph.ring(6), gcs, seed=2,
                                 liars={0: {1: +1, 5: -1}})
        samples = system.run(until=4000.0)
        half = len(samples) // 2
        first = max(s[1] for s in samples[:half])
        second = max(s[1] for s in samples[half:])
        assert second > first  # growing, not stabilizing

    def test_liar_must_target_neighbors(self):
        gcs = GcsParams.default()
        with pytest.raises(ConfigError):
            GcsSingleSystem(ClusterGraph.line(4), gcs,
                            liars={0: {3: +1}})

    def test_correct_edges_exclude_liar(self):
        gcs = GcsParams.default()
        system = GcsSingleSystem(ClusterGraph.ring(4), gcs,
                                 liars={0: {1: +1, 3: -1}})
        edges = system.correct_edges()
        assert all(0 not in edge for edge in edges)


class TestMasterSlave:
    def test_bfs_tree_on_line(self):
        parents = bfs_tree(ClusterGraph.line(4))
        assert parents == {0: 0, 1: 0, 2: 1, 3: 2}

    def test_bfs_tree_disconnected_raises(self):
        graph = ClusterGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigError):
            bfs_tree(graph)

    def test_slew_mode_runs_and_tracks(self, params):
        system = MasterSlaveSystem(ClusterGraph.line(3), params, seed=1)
        maxima = system.run_rounds(8)
        assert maxima.samples > 0
        assert maxima.global_skew < params.kappa

    def test_jump_mode_requires_k1(self, params):
        with pytest.raises(ConfigError):
            MasterSlaveSystem(ClusterGraph.line(3), params, jump=True)

    def test_jump_mode_compresses_wave(self, params_f0):
        injected = 6 * params_f0.kappa
        offsets = [injected, 0.0, 0.0, 0.0]
        system = MasterSlaveSystem(
            ClusterGraph.line(4), params_f0, seed=2, jump=True,
            cluster_offsets=offsets, track_edges=True)
        maxima = system.run_rounds(15)
        interior = [skew for edge, skew in maxima.edge_maxima.items()
                    if 0 not in edge]
        # The wave pushes (nearly) the full injected skew through the
        # interior edges.
        assert max(interior) > 0.5 * injected

    def test_offsets_validation(self, params):
        with pytest.raises(ConfigError):
            MasterSlaveSystem(ClusterGraph.line(3), params,
                              cluster_offsets=[0.0])

    def test_unknown_rate_model(self, params):
        with pytest.raises(ConfigError):
            MasterSlaveSystem(ClusterGraph.line(2), params,
                              rate_model="warp").run_rounds(2)

    def test_flip_rate_model_runs(self, params):
        system = MasterSlaveSystem(ClusterGraph.line(3), params, seed=3,
                                   rate_model="flip")
        maxima = system.run_rounds(6)
        assert maxima.samples > 0
