"""Tests for the harness: tables, runners, and experiment smoke runs.

Experiment functions run here in further-scaled-down form where the
quick mode is already small, asserting structural properties of the
returned tables (the benchmarks exercise the full quick mode).
"""

import pytest

from repro.analysis.bounds import (
    cluster_failure_bound_3ep,
    cluster_failure_bound_binomial,
    cluster_failure_probability,
    system_failure_probability,
)
from repro.errors import ConfigError, ParameterError
from repro.harness.runner import (
    default_params,
    gradient_offsets,
    run_scenario,
    step_offsets,
)
from repro.harness.tables import Table
from repro.topology import ClusterGraph


class TestTable:
    def test_format_alignment(self):
        table = Table("Demo", ["a", "long-column"], [])
        table.add_row(1, 2.5)
        table.add_row(100, True)
        text = table.format()
        assert "Demo" in text
        assert "long-column" in text
        assert "yes" in text

    def test_row_length_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ConfigError):
            table.add_row(1)

    def test_column_accessor(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(ConfigError):
            table.column("zzz")

    def test_float_formatting(self):
        table = Table("Demo", ["v"])
        table.add_row(0.000123456)
        table.add_row(123456.789)
        table.add_row(0.0)
        text = table.format()
        assert "1.235e-04" in text
        assert "1.235e+05" in text

    def test_notes_rendered(self):
        table = Table("Demo", ["a"])
        table.add_note("hello note")
        assert "note: hello note" in table.format()


class TestRunnerHelpers:
    def test_gradient_offsets(self):
        assert gradient_offsets(4, 2.0) == [0.0, 2.0, 4.0, 6.0]

    def test_step_offsets(self):
        assert step_offsets(4, 2, 5.0) == [0.0, 0.0, 5.0, 5.0]

    def test_run_scenario_records_series(self):
        params = default_params()
        scenario = run_scenario(ClusterGraph.line(2), params, rounds=4,
                                seed=1)
        assert scenario.result.series
        steady = scenario.steady_state_skews()
        assert set(steady) == {"global", "intra", "local_cluster",
                               "local_node"}

    def test_run_scenario_with_faults(self):
        from repro.faults import SilentAdversary

        params = default_params()
        scenario = run_scenario(
            ClusterGraph.line(2), params, rounds=4, seed=1,
            strategy_factory=lambda n: SilentAdversary())
        assert scenario.result.missing_pulses > 0

    def test_run_scenario_leaves_caller_config_unchanged(self):
        # Regression: run_scenario used to set measurement defaults and
        # fault placement on the caller's object, so a reused config
        # silently accumulated state.
        from repro.core.system import SystemConfig
        from repro.faults import SilentAdversary

        params = default_params()
        config = SystemConfig(cluster_offsets=[0.0, 1.0])
        run_scenario(ClusterGraph.line(2), params, rounds=3, seed=1,
                     strategy_factory=lambda n: SilentAdversary(),
                     config=config)
        assert config.sample_interval is None
        assert config.record_series is False
        assert config.track_edges is False
        assert config.byzantine == {}
        assert config.cluster_offsets == [0.0, 1.0]

    def test_run_scenario_config_reusable_across_runs(self):
        from repro.core.system import SystemConfig

        params = default_params()
        config = SystemConfig(init_jitter=0.05)
        first = run_scenario(ClusterGraph.line(2), params, rounds=3,
                             seed=1, config=config)
        second = run_scenario(ClusterGraph.line(2), params, rounds=3,
                              seed=1, config=config)
        assert first.result.series == second.result.series


class TestBoundsFunctions:
    def test_exact_tail_matches_direct_sum(self):
        # f=1, k=4, p=0.5: P[X>1] = 1 - P[0] - P[1]
        # = 1 - 0.0625 - 4*0.0625 = 0.6875.
        assert cluster_failure_probability(1, 0.5) == pytest.approx(0.6875)

    def test_bound_ordering(self):
        for f in (1, 2, 3):
            for p in (0.001, 0.01, 0.05):
                exact = cluster_failure_probability(f, p)
                mid = cluster_failure_bound_binomial(f, p)
                top = cluster_failure_bound_3ep(f, p)
                assert exact <= mid * (1 + 1e-9) or exact < 1e-12
                assert mid <= top * (1 + 1e-9)

    def test_edge_cases(self):
        assert cluster_failure_probability(1, 0.0) == 0.0
        assert cluster_failure_probability(1, 1.0) == pytest.approx(1.0)
        assert cluster_failure_probability(0, 0.3,
                                           cluster_size=1) == \
            pytest.approx(0.3)

    def test_system_probability_union(self):
        single = cluster_failure_probability(1, 0.05)
        combined = system_failure_probability(10, 1, 0.05)
        assert single < combined < 10 * single

    def test_validation(self):
        with pytest.raises(ParameterError):
            cluster_failure_probability(-1, 0.1)
        with pytest.raises(ParameterError):
            cluster_failure_probability(1, 1.5)


class TestExperimentsSmoke:
    """Cheap structural checks; heavy lifting lives in benchmarks/."""

    def test_t05_rows_and_ordering(self, quick_tables):
        table = quick_tables["t05"]
        assert len(table.rows) == 9
        assert all(table.column("ordered"))

    def test_t08_overheads_factors(self, quick_tables):
        table = quick_tables["t08"]
        # Node factor is exactly k = 3f+1.
        for row in table.rows:
            f, k, factor = row[1], row[2], row[4]
            assert k == 3 * f + 1
            assert factor == pytest.approx(k)

    def test_t10_no_violations(self, quick_tables):
        table = quick_tables["t10"]
        assert all(v == 0 for v in table.column("violations"))

    def test_t12_convergence_within_envelope(self, quick_tables):
        table = quick_tables["t12"]
        assert all(table.column("within"))
