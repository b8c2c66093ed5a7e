"""Tests for the parallel scenario sweep engine."""

import random

import pytest

from repro.errors import ConfigError
from repro.harness.runner import default_params, steady_state_skews
from repro.harness.sweep import (
    CELL_KINDS,
    COLLECTORS,
    ScenarioSpec,
    SweepRunner,
    default_processes,
    register_cell_kind,
    run_cell,
)


def small_grid(params=None, cells=3, rounds=3, **overrides):
    params = params or default_params()
    return [
        ScenarioSpec(graph="line", graph_args=(2,), params=params,
                     rounds=rounds, key=("cell", i), **overrides)
        for i in range(cells)]


class TestRunCell:
    def test_runs_one_scenario(self):
        params = default_params()
        spec = ScenarioSpec(graph="line", graph_args=(2,), params=params,
                            rounds=3, seed=5, key=("only",))
        cell = run_cell(spec)
        assert cell.key == ("only",)
        assert cell.seed == 5
        assert cell.result.protocol == "ftgcs"
        assert cell.result.detail.rounds_completed >= 3
        assert cell.result.series  # the ftgcs protocol records the series
        steady = cell.steady_state_skews()
        assert set(steady) == {"global", "intra", "local_cluster",
                               "local_node"}

    def test_strategy_by_name(self):
        params = default_params()
        spec = ScenarioSpec(graph="line", graph_args=(2,), params=params,
                            rounds=3, seed=5,
                            adversary={"name": "silent"})
        cell = run_cell(spec)
        assert cell.result.detail.missing_pulses > 0

    def test_pulse_diameters_on_request(self):
        params = default_params()
        spec = ScenarioSpec(graph="line", graph_args=(1,), params=params,
                            rounds=3, seed=5,
                            collect=("pulse_diameters",))
        cell = run_cell(spec)
        assert cell.pulse_diameters
        assert all(isinstance(k, tuple) for k in cell.pulse_diameters)

    def test_unresolved_seed_rejected(self):
        spec = ScenarioSpec(graph="line", graph_args=(2,),
                            params=default_params(), rounds=1)
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_unknown_graph_rejected(self):
        spec = ScenarioSpec(graph="moebius", params=default_params(),
                            rounds=1, seed=0)
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_registry_covers_attack_gallery(self):
        from repro.faults.adversary import ADVERSARIES

        for name in ("silent", "crash", "random_pulse", "fast_clock",
                     "equivocate", "pull_apart", "collusion"):
            assert ADVERSARIES[name].supports_event


class TestCellKinds:
    def test_builtin_kinds_registered(self):
        assert set(CELL_KINDS) >= {"protocol", "failure_mc",
                                   "trigger_fuzz", "augment_counts"}
        # A protocol runs as a "protocol" cell, never as a kind of its
        # own.
        assert not set(CELL_KINDS) & {"ftgcs", "lynch_welch",
                                      "master_slave", "gcs_single",
                                      "srikanth_toueg"}

    def test_unknown_kind_rejected(self):
        spec = ScenarioSpec(kind="teleport", seed=0)
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_duplicate_kind_registration_rejected(self):
        with pytest.raises(ConfigError):
            register_cell_kind("protocol", lambda spec: None)

    def test_failure_mc_matches_shared_stream(self):
        # Two cells fast-forwarding one serial stream reproduce a
        # single-generator reference bit-for-bit.
        trials, f, p = 500, 1, 0.1
        k = 3 * f + 1
        specs = [
            ScenarioSpec(kind="failure_mc", seed=5,
                         payload={"f": f, "p": p, "trials": trials,
                                  "skip": i * trials * k})
            for i in range(2)]
        cells = [run_cell(spec) for spec in specs]

        rng = random.Random(5)
        expected = []
        for _ in range(2):
            failures = 0
            for _ in range(trials):
                faulty = sum(1 for _ in range(k) if rng.random() < p)
                if faulty > f:
                    failures += 1
            expected.append(failures / trials)
        assert [cell.result for cell in cells] == expected

        # The mid-stream cell is bit-identical whether it continues a
        # warm stream state or fast-forwards from scratch (the path a
        # pool worker landing mid-grid takes).
        from repro.harness.sweep import _MC_STREAM_STATES

        _MC_STREAM_STATES.clear()
        assert run_cell(specs[1]).result == expected[1]

    def test_trigger_fuzz_reports_zero_violations(self):
        params = default_params(f=1)
        spec = ScenarioSpec(
            kind="trigger_fuzz", seed=3,
            payload={"trials": 200, "kappa": params.kappa,
                     "slack": params.delta_trigger,
                     "err": 2.0 * params.cap_e})
        assert run_cell(spec).result == 0

    def test_augment_counts(self):
        spec = ScenarioSpec(kind="augment_counts", graph="line",
                            graph_args=(3,), seed=0,
                            payload={"fault_counts": (0, 1)})
        counts = run_cell(spec).result
        assert counts["clusters"] == 3
        assert [f for f, _, _, _ in counts["rows"]] == [0, 1]
        # k = 3f+1 nodes per cluster.
        assert counts["rows"][1][2] == 3 * 4

    def test_graphless_kind_needs_no_graph(self):
        spec = ScenarioSpec(kind="failure_mc", seed=1,
                            payload={"f": 1, "p": 0.5, "trials": 10})
        assert 0.0 <= run_cell(spec).result <= 1.0

    def test_ftgcs_kind_requires_graph(self):
        spec = ScenarioSpec(params=default_params(), rounds=1, seed=0)
        with pytest.raises(ConfigError):
            run_cell(spec)


class TestProtocolCells:
    def test_unknown_protocol_rejected(self):
        spec = ScenarioSpec(kind="protocol", protocol="paxos", seed=0)
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_schedule_without_graph_rejected(self):
        spec = ScenarioSpec(kind="protocol", protocol="srikanth_toueg",
                            schedule="churn", seed=0)
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_collectors_rejected_for_non_ftgcs_protocols(self):
        from repro.baselines.srikanth_toueg import StParams

        spec = ScenarioSpec(
            kind="protocol", protocol="srikanth_toueg", seed=0,
            payload={"params": StParams(n=4, f=1, rho=1e-4, d=1.0,
                                        u=0.1, period=10.0),
                     "rounds": 2},
            collect=("pulse_diameters",))
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_dynamic_protocol_cell_runs(self):
        params = default_params(f=1)
        spec = ScenarioSpec(
            kind="protocol", graph="line", graph_args=(3,),
            params=params, rounds=4, seed=2, schedule="churn",
            schedule_args={"interval": params.round_length,
                           "churn": 0.5})
        static = ScenarioSpec(kind="protocol", graph="line",
                              graph_args=(3,), params=params, rounds=4,
                              seed=2)
        assert run_cell(spec).result.series != \
            run_cell(static).result.series


class TestCustomCellKind:
    def test_custom_kind_runs_serially(self):
        # Custom kinds run in-process with processes=1; pool visibility
        # needs the fork start method (module-docstring caveat).
        from repro.harness.sweep import CELL_KINDS

        def doubled(spec):
            from repro.harness.sweep import SweepCellResult

            return SweepCellResult(key=spec.key, seed=spec.seed,
                                   result=2 * spec.payload["x"])

        register_cell_kind("test_doubler", doubled)
        try:
            specs = [ScenarioSpec(kind="test_doubler", seed=0,
                                  payload={"x": x}, key=("x", x))
                     for x in (1, 2, 3)]
            cells = SweepRunner(processes=1).run(specs)
            assert [c.result for c in cells] == [2, 4, 6]
        finally:
            del CELL_KINDS["test_doubler"]

    def test_duplicate_custom_kind_rejected(self):
        from repro.harness.sweep import CELL_KINDS

        register_cell_kind("test_once", lambda spec: None)
        try:
            with pytest.raises(ConfigError):
                register_cell_kind("test_once", lambda spec: None)
        finally:
            del CELL_KINDS["test_once"]


class TestCollectors:
    def test_builtin_collectors_registered(self):
        for name in ("pulse_diameters", "unanimity", "amortized_rates"):
            assert name in COLLECTORS

    def test_collect_fills_extras(self):
        spec = ScenarioSpec(
            graph="line", graph_args=(2,), params=default_params(),
            rounds=4, seed=5,
            collect=("unanimity", "amortized_rates", "pulse_diameters"))
        cell = run_cell(spec)
        assert set(cell.extras) == {"unanimity", "amortized_rates",
                                    "pulse_diameters"}
        # Collected pulse diameters also fill the dedicated field.
        assert cell.pulse_diameters == cell.extras["pulse_diameters"]
        assert set(cell.extras["unanimity"]) == {0, 1}
        for cluster, round_index, rate in cell.extras["amortized_rates"]:
            assert cluster in (0, 1)
            assert rate == rate  # never NaN; unfinished rounds dropped

    def test_unknown_collector_rejected(self):
        spec = ScenarioSpec(graph="line", graph_args=(2,),
                            params=default_params(), rounds=1, seed=0,
                            collect=("entropy",))
        with pytest.raises(ConfigError):
            run_cell(spec)

    def test_non_ftgcs_cell_rejects_steady_state(self):
        spec = ScenarioSpec(kind="failure_mc", seed=1,
                            payload={"f": 1, "p": 0.5, "trials": 10})
        cell = run_cell(spec)
        with pytest.raises(ConfigError):
            cell.steady_state_skews()


class TestSweepRunner:
    def test_serial_ordered_collection(self):
        cells = SweepRunner(processes=1).run(small_grid(cells=4))
        assert [c.key for c in cells] == [("cell", i) for i in range(4)]

    def test_derived_seeds_are_deterministic(self):
        runner = SweepRunner(processes=1)
        first = runner.run(small_grid(), base_seed=7)
        second = runner.run(small_grid(), base_seed=7)
        assert [c.seed for c in first] == [c.seed for c in second]
        # Distinct cells get distinct seeds.
        assert len({c.seed for c in first}) == len(first)
        # A different base seed moves every cell.
        other = runner.run(small_grid(), base_seed=8)
        assert all(a.seed != b.seed for a, b in zip(first, other))

    def test_explicit_seeds_respected(self):
        specs = small_grid(seed=123)
        cells = SweepRunner(processes=1).run(specs, base_seed=7)
        assert all(c.seed == 123 for c in cells)

    def test_parallel_matches_serial_bit_for_bit(self):
        specs = small_grid(cells=4, adversary={"name": "equivocate"})
        serial = SweepRunner(processes=1).run(specs, base_seed=3)
        parallel = SweepRunner(processes=2).run(specs, base_seed=3)
        assert [c.key for c in parallel] == [c.key for c in serial]
        assert [c.seed for c in parallel] == [c.seed for c in serial]
        for a, b in zip(serial, parallel):
            assert a.result.max_global_skew == b.result.max_global_skew
            assert a.result.detail.max_intra_cluster_skew == \
                b.result.detail.max_intra_cluster_skew
            assert a.result.messages_sent == b.result.messages_sent
            assert a.result.events_processed == b.result.events_processed
            assert a.result.series == b.result.series
            assert a.result.edge_maxima == b.result.edge_maxima

    def test_worker_error_propagates_serial(self):
        specs = small_grid(cells=2) + [
            ScenarioSpec(graph="moebius", params=default_params(),
                         rounds=1)]
        with pytest.raises(ConfigError):
            SweepRunner(processes=1).run(specs)

    def test_worker_error_propagates_from_pool(self):
        specs = small_grid(cells=2) + [
            ScenarioSpec(graph="moebius", params=default_params(),
                         rounds=1)]
        with pytest.raises(ConfigError):
            SweepRunner(processes=2).run(specs)

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(processes=1, chunksize=0)


class TestDefaultProcesses:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "8")
        assert default_processes(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "6")
        assert default_processes() == 6

    def test_serial_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_PROCESSES", raising=False)
        assert default_processes() == 1

    def test_floor_of_one(self):
        assert default_processes(0) == 1

    def test_fallback_used_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_PROCESSES", raising=False)
        assert default_processes(fallback=4) == 4

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "many")
        with pytest.raises(ConfigError):
            default_processes()

    def test_garbage_explicit_rejected(self):
        with pytest.raises(ConfigError):
            default_processes("many")

    def test_string_values_coerced(self):
        assert default_processes("3") == 3


class TestSteadyStateSkews:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            steady_state_skews([])
