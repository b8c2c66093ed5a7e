"""Tests for the experiment registry and its uniform run path."""

import math

import pytest

from repro.errors import ConfigError
from repro.harness.registry import (
    REGISTRY,
    Experiment,
    ExperimentPlan,
    ExperimentRegistry,
    run_experiment,
)
from repro.harness.tables import Table


class TestRegistryContents:
    def test_all_eighteen_registered(self):
        assert REGISTRY.ids() == [f"t{i:02d}" for i in range(1, 19)]
        assert len(REGISTRY) == 18

    def test_metadata_complete(self):
        for experiment in REGISTRY:
            assert experiment.id
            assert experiment.title
            assert experiment.claim
            assert len(experiment.columns) >= 3
            assert isinstance(experiment.default_seed, int)

    def test_titles_carry_t_identifiers(self):
        for experiment in REGISTRY:
            number = int(experiment.id[1:])
            assert experiment.title.startswith(f"T{number} ")

    def test_contains_and_get(self):
        assert "t05" in REGISTRY
        assert "t99" not in REGISTRY
        assert REGISTRY.get("t05").id == "t05"

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            REGISTRY.get("t99")
        with pytest.raises(ConfigError):
            run_experiment("nope")

    def test_plans_compile_without_running(self):
        # Both grid sizes build for every experiment; quick never
        # exceeds full.
        for experiment in REGISTRY:
            quick = experiment.plan(quick=True,
                                    seed=experiment.default_seed)
            full = experiment.plan(quick=False,
                                   seed=experiment.default_seed)
            assert quick.specs
            assert len(quick.specs) <= len(full.specs)
            # Cells either pin an explicit seed or leave seed=None for
            # the runner's deterministic per-cell derivation from the
            # experiment's base seed (t13 uses the derived path).
            for spec in quick.specs:
                assert spec.seed is None or isinstance(spec.seed, int)


class TestRegistryValidation:
    def _plan(self, quick, seed):
        return ExperimentPlan(specs=[], finish=lambda cells, table: table)

    def test_duplicate_id_rejected(self):
        registry = ExperimentRegistry()
        registry.add(Experiment(id="x", title="X", claim="c",
                                columns=("a",), plan=self._plan))
        with pytest.raises(ConfigError):
            registry.add(Experiment(id="x", title="X2", claim="c",
                                    columns=("a",), plan=self._plan))

    def test_incomplete_metadata_rejected(self):
        registry = ExperimentRegistry()
        with pytest.raises(ConfigError):
            registry.add(Experiment(id="y", title="", claim="c",
                                    columns=("a",), plan=self._plan))
        with pytest.raises(ConfigError):
            registry.add(Experiment(id="y", title="t", claim="c",
                                    columns=(), plan=self._plan))

    def test_decorator_registers(self):
        registry = ExperimentRegistry()

        @registry.experiment("z", title="Z", claim="c", columns=("a",))
        def plan(quick, seed):
            return ExperimentPlan(
                specs=[], finish=lambda cells, table: table)

        assert registry._experiments["z"].plan is plan


class TestRunExperiment:
    @pytest.mark.parametrize("experiment_id",
                             [f"t{i:02d}" for i in range(1, 19)])
    def test_every_experiment_runs_quick(self, quick_tables,
                                         experiment_id):
        experiment = REGISTRY.get(experiment_id)
        table = quick_tables[experiment_id]
        assert isinstance(table, Table)
        assert table.title == experiment.title
        assert tuple(table.columns) == experiment.columns
        assert table.rows

    def test_serial_vs_parallel_bit_identical(self, quick_tables):
        # T5 shares one Monte Carlo RNG stream across its grid — the
        # hardest case for the parallel split.
        serial = quick_tables["t05"]
        parallel = run_experiment("t05", quick=True, processes=3)
        assert serial.rows == parallel.rows
        assert serial.format() == parallel.format()

    def test_dynamic_experiments_serial_vs_parallel(self, quick_tables):
        # The dynamic-topology experiments (adversarial schedules +
        # first-contact bring-up) must also be pool-size invariant.
        for experiment_id in ("t13", "t15"):
            serial = quick_tables[experiment_id]
            parallel = run_experiment(experiment_id, quick=True,
                                      processes=2)
            assert serial.rows == parallel.rows
            assert serial.notes == parallel.notes

    def test_seed_override_changes_monte_carlo(self, quick_tables):
        default = quick_tables["t05"]
        reseeded = run_experiment("t05", quick=True, seed=99)
        assert default.column("monte carlo") != \
            reseeded.column("monte carlo")
        # The analytic columns do not depend on the seed.
        assert default.column("exact tail") == \
            reseeded.column("exact tail")

    def test_default_seed_used(self, quick_tables):
        assert quick_tables["t05"].rows == \
            run_experiment("t05", quick=True, seed=5).rows


class TestT14ProtocolGrid:
    """The full-mode Gradient-TRIX grid: D=32/64 rows, the FTGCS
    comparison block, and the kappa regression column."""

    @pytest.fixture(scope="class")
    def table(self, quick_tables):
        return quick_tables["t14"]

    def test_grid_covers_large_diameters(self, table):
        diameters = {d for d, p in zip(table.column("D"),
                                       table.column("protocol"))
                     if p == "gcs"}
        assert {4, 8, 32, 64} <= diameters

    def test_ftgcs_block_present_on_same_mu_grid(self, table):
        gcs_mus = {mu for mu, p in zip(table.column("mu"),
                                       table.column("protocol"))
                   if p == "gcs"}
        ftgcs_mus = {mu for mu, p in zip(table.column("mu"),
                                         table.column("protocol"))
                     if p == "ftgcs"}
        assert ftgcs_mus == gcs_mus

    def test_feasible_ftgcs_rows_carry_exact_mu(self, table):
        from repro.harness.experiments import ftgcs_params_for_mu

        rows = [row for row in table.rows if row[0] == "ftgcs"]
        assert rows
        feasible = [row for row in rows if row[3] is not None]
        infeasible = [row for row in rows if row[3] is None]
        assert len(feasible) >= 2  # enough points for the fit
        for row in feasible:
            params = ftgcs_params_for_mu(row[2])
            assert params is not None
            assert params.mu == row[2]  # power-of-two rho keeps mu exact
            assert params.kappa == row[3]
        for row in infeasible:
            assert ftgcs_params_for_mu(row[2]) is None

    def test_regression_column_matches_hand_computed_fit(self, table):
        from repro.analysis.metrics import log_log_fit

        for group_protocol, group_d in (("gcs", 4), ("gcs", 64),
                                        ("ftgcs", 4)):
            rows = [row for row in table.rows
                    if row[0] == group_protocol and row[1] == group_d]
            points = [(row[3], row[4]) for row in rows
                      if row[3] is not None and row[3] > 0
                      and row[4] > 0]
            slope, _intercept, residual = log_log_fit(
                [p[0] for p in points], [p[1] for p in points])
            for row in rows:
                if row[3] is None:
                    # Infeasible rows carry no fit at all.
                    assert row[7] is None and row[8] is None
                    continue
                assert row[7] == slope
                assert row[8] == residual

    def test_skew_tracks_kappa(self, table):
        # The headline regression: slope near 1, small residual, for
        # every diameter group.
        for row in table.rows:
            if row[0] != "gcs":
                continue
            assert 0.7 <= row[7] <= 1.3
            assert row[8] < 0.25
        # Feasible ftgcs rows carry the block's own fit, near slope 1.
        ftgcs_slopes = {row[7] for row in table.rows
                        if row[0] == "ftgcs" and row[7] is not None}
        assert ftgcs_slopes
        for slope in ftgcs_slopes:
            assert 0.7 <= slope <= 1.3
        # On every feasible row (kappa not None) the kappa-normalized
        # skew stays bounded across the grid, the Gradient-TRIX
        # design-space property.
        feasible = [row for row in table.rows if row[3] is not None]
        assert feasible
        assert all(row[3] > 0 and row[4] > 0 and row[6] < 4.0
                   for row in feasible)

    def test_deterministic_and_pool_invariant(self, table):
        again = run_experiment("t14", quick=True)
        assert again.rows == table.rows
        pooled = run_experiment("t14", quick=True, processes=2)
        assert pooled.rows == table.rows
        assert pooled.notes == table.notes


class TestT17VectorizedScale:
    """t17: cross-engine skew agreement plus the 1e5-node D=256 cell."""

    @pytest.fixture(scope="class")
    def table(self, quick_tables):
        return quick_tables["t17"]

    def test_quick_shape(self, table):
        # Three small diameters x two engines, plus two big cells.
        assert len(table.rows) == 8
        assert table.columns[:4] == ["topology", "D", "nodes", "engine"]
        assert set(table.column("engine")) == {"event", "vectorized"}

    def test_small_d_rows_agree_across_engines(self, table):
        vec_line_rows = [row for row in table.rows
                        if row[0] == "line" and row[3] == "vectorized"]
        assert len(vec_line_rows) == 3
        for row in vec_line_rows:
            assert row[8] is True  # agrees within one level width

    def test_d256_cell_has_1e5_nodes_and_throughput(self, table):
        big = [row for row in table.rows if row[1] == 256]
        assert len(big) == 1
        row = big[0]
        assert row[0] == "caterpillar"
        assert row[2] >= 100_000
        assert row[3] == "vectorized"
        assert row[7] > 0  # measured rounds/s

    def test_skew_columns_deterministic(self, table):
        # rounds/s is wall clock; every other column is reproducible.
        again = run_experiment("t17", quick=True)
        stable = [row[:7] + row[8:] for row in table.rows]
        assert stable == [row[:7] + row[8:] for row in again.rows]


class TestTableContentSmoke:
    """The claims of each quick table that has no test class of its
    own (t05, t08, t10 and t12 are in ``tests/test_harness.py``, t16
    in ``tests/test_fault_injection.py``).  The lint registry-coverage
    rule requires every id to be referenced by at least one test."""

    def test_t01_local_skew_holds_and_bound_grows_with_d(self,
                                                         quick_tables):
        table = quick_tables["t01"]
        holds = table.column("holds")
        assert holds and all(holds)
        # The bound grows with D (logarithmically, via the level count).
        bounds = table.column("cluster bound")
        assert bounds == sorted(bounds)

    def test_t02_intra_cluster_skew_holds(self, quick_tables):
        table = quick_tables["t02"]
        holds = table.column("holds")
        assert holds and all(holds)
        # Pulse diameters stay below the steady-state error E.
        for pulse, cap_e in zip(table.column("max ||p(r)||"),
                                table.column("E")):
            assert pulse <= cap_e

    def test_t03_ftgcs_bounded_gcs_grows(self, quick_tables):
        table = quick_tables["t03"]
        ftgcs = [row for row in table.rows if row[0] == "FTGCS"]
        gcs = [row for row in table.rows if row[0] != "FTGCS"]
        assert ftgcs and gcs
        assert all(row[4] and row[5] == "bounded" for row in ftgcs)
        assert all(row[5] == "GROWS" for row in gcs)

    def test_t04_master_slave_leaks_skew_ftgcs_caps_it(self,
                                                       quick_tables):
        table = quick_tables["t04"]
        assert table.columns[0] == "D"
        assert len(table.rows) == 2  # D = 3, 5 quick
        for row in table.rows:
            injected, ms_max, ft_max, cap, ratio = row[1:6]
            # Master-slave carries most of the injected skew across
            # interior edges; FTGCS stays under its 2*kappa cap.
            assert ratio > 0.5
            assert ms_max > 2 * ft_max
            assert ft_max <= cap

    def test_t06_unanimous_rates_hold(self, quick_tables):
        table = quick_tables["t06"]
        holds = table.column("holds")
        assert holds and all(holds)
        assert set(table.column("mode")) == {"fast", "slow"}

    def test_t07_small_c1_loses_the_fast_slow_gap(self, quick_tables):
        outcomes = quick_tables["t07"].column("fast outruns slow")
        # A naive (small) c1 destroys the fast/slow gap; the paper's
        # c1 = Theta(1/rho) restores it.
        assert outcomes[0] is False
        assert outcomes[-1] is True

    def test_t09_random_init_holds_max_rule_recovers(self,
                                                     quick_tables):
        table = quick_tables["t09"]
        random_init = [row for row in table.rows
                       if row[0] == "random init"]
        assert random_init
        for row in random_init:
            value, bound, holds = row[3:6]
            assert holds and value <= bound
        # The max-rule recovers; slow-default freezes below the trigger
        # thresholds and never does.
        recovery = {row[2]: row[3] for row in table.rows
                    if row[0] != "random init"}
        assert math.isfinite(recovery["max_rule"])
        assert recovery["max_rule"] < recovery["slow_default"]

    def test_t11_lw_tracks_bound_st_carries_od(self, quick_tables):
        table = quick_tables["t11"]
        assert len(table.rows) == 2  # U/d = 0.2, 0.05 quick
        for row in table.rows:
            lw_skew, lw_bound, st_skew, st_bound = row[1:5]
            assert lw_skew <= lw_bound
            assert st_skew <= st_bound
            # Lynch-Welch, the paper's choice, wins at every U.
            assert lw_skew <= st_skew
        # Lynch-Welch's skew shrinks with U; Srikanth-Toueg's O(d)
        # worst case does not improve with it.
        lw = table.column("LW steady skew")
        assert lw[1] <= lw[0]

    def test_t13_churn_grid_and_sweep_row(self, quick_tables):
        table = quick_tables["t13"]
        churn = table.column("churn")
        rates = [value for value in churn if isinstance(value, float)]
        assert 0.0 in rates and max(rates) > 0.0
        # The adversarial cut-sweep row rides along.
        assert "sweep" in churn
        for column in ("ftgcs local", "ftgcs global", "gcs local",
                       "gcs global"):
            assert all(value >= 0.0 for value in table.column(column))

    def test_t15_skew_bounded_and_every_row_brings_up(self,
                                                      quick_tables):
        table = quick_tables["t15"]
        t_values = table.column("T")
        assert 1 in t_values and max(t_values) > 1
        # Skews stay bounded against the worst-case rotating backbone.
        assert all(0.0 <= value < 10.0
                   for value in table.column("local skew"))
        # First contact engaged on every row: the initial spanning tree
        # leaves some cluster edges down at time zero.
        assert all(count > 0 for count in table.column("bring-ups"))

    def test_t18_resilience_rows_within_envelope(self, quick_tables):
        table = quick_tables["t18"]
        assert set(table.column("protocol")) == {
            "ftgcs", "gcs_single", "srikanth_toueg"}
        # One fault-free reference row per protocol, with zero extra
        # skew by construction.
        baselines = [row for row in table.rows if row[1] == "none"]
        assert len(baselines) == 3
        assert all(row[6] == 0.0 for row in baselines)
        protected = [row for row in table.rows
                     if row[1] != "none" and row[0] != "gcs_single"]
        assert protected
        assert all(row[8] is True for row in protected)
        assert set(table.column("engine")) == {"event", "vectorized"}
        # Adaptive search dominates every static pattern at equal
        # budget on the ftgcs vectorized challenge cells.
        ft_amp = max(row[2] for row in table.rows if row[0] == "ftgcs")
        ft = {row[1]: row[6] for row in table.rows
              if row[0] == "ftgcs" and row[3] == "vectorized"
              and row[2] == ft_amp}
        assert max(ft["greedy"], ft["random_restart"]) >= max(
            ft[name] for name in ("silent", "equivocate", "fast_clock"))
        # The scale cell reports a measured, positive rounds/s.
        timed = [row for row in table.rows if row[9] != "-"]
        assert len(timed) == 1
        assert timed[0][4] >= 10_000 and timed[0][9] > 0.0
