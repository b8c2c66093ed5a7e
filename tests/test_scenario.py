"""Tests for the fluent Scenario builder."""

import pytest

from repro.errors import ConfigError
from repro.harness.runner import default_params
from repro.harness.scenario import Scenario
from repro.harness.sweep import ScenarioSpec, run_cell


class TestBuilding:
    def test_compiles_to_spec(self):
        params = default_params()
        spec = (Scenario.line(3).params(params).rounds(7).seed(42)
                .attack("equivocate", )
                .configure(init_jitter=0.1)
                .measure("pulse_diameters")
                .tag("D", 2).build())
        assert isinstance(spec, ScenarioSpec)
        assert spec.graph == "line"
        assert spec.graph_args == (3,)
        assert spec.params is params
        assert spec.rounds == 7
        assert spec.seed == 42
        assert spec.strategy == "equivocate"
        assert spec.config == {"init_jitter": 0.1}
        assert spec.collect == ("pulse_diameters",)
        assert spec.key == ("D", 2)
        assert spec.kind == "protocol"
        assert spec.protocol is None  # worker defaults to "ftgcs"

    def test_graph_entry_points(self):
        assert Scenario.ring(4).build().graph == "ring"
        assert Scenario.grid_graph(2, 3).build().graph_args == (2, 3)
        assert Scenario.on("hypercube", 4).build().graph == "hypercube"

    def test_kind_and_payload(self):
        spec = (Scenario.of_kind("failure_mc").seed(1)
                .payload(f=1, p=0.05, trials=10).build())
        assert spec.kind == "failure_mc"
        assert spec.graph == ""
        assert spec.payload == {"f": 1, "p": 0.05, "trials": 10}

    def test_offsets_sugar(self):
        spec = Scenario.line(2).offsets([0.0, 1.0]).build()
        assert spec.config == {"cluster_offsets": [0.0, 1.0]}

    def test_configure_and_payload_merge(self):
        spec = (Scenario.line(2).configure(init_jitter=0.1)
                .configure(policy="max_rule").build())
        assert spec.config == {"init_jitter": 0.1, "policy": "max_rule"}
        spec = (Scenario.of_kind("trigger_fuzz").payload(trials=5)
                .payload(kappa=1.0).build())
        assert spec.payload == {"trials": 5, "kappa": 1.0}

    def test_measure_deduplicates(self):
        spec = (Scenario.line(1).measure("unanimity")
                .measure("unanimity", "amortized_rates").build())
        assert spec.collect == ("unanimity", "amortized_rates")


class TestImmutability:
    def test_methods_return_new_builders(self):
        base = Scenario.line(2).params(default_params()).rounds(3)
        fast = base.attack("equivocate")
        assert base.build().strategy is None
        assert fast.build().strategy == "equivocate"

    def test_shared_base_fans_out(self):
        base = Scenario.line(2).params(default_params()).rounds(2)
        specs = [base.tag("jitter", j).configure(init_jitter=j).build()
                 for j in (0.01, 0.02)]
        assert specs[0].config != specs[1].config
        assert specs[0].key == ("jitter", 0.01)

    def test_setattr_blocked(self):
        with pytest.raises(AttributeError):
            Scenario.line(2).rounds = 5


class TestValidation:
    def test_unknown_protocol_rejected_at_build(self):
        with pytest.raises(ConfigError) as err:
            Scenario.line(2).protocol("paxos").build()
        assert "ftgcs" in str(err.value)

    def test_unknown_schedule_rejected_at_build(self):
        with pytest.raises(ConfigError) as err:
            Scenario.line(2).dynamic("teleport").build()
        assert "churn" in str(err.value)

    def test_known_protocol_and_schedule_build(self):
        spec = (Scenario.line(2).protocol("gcs_single")
                .dynamic("churn", interval=5.0, churn=0.1).build())
        assert spec.kind == "protocol"
        assert spec.protocol == "gcs_single"
        assert spec.schedule == "churn"
        assert spec.schedule_args == {"interval": 5.0, "churn": 0.1}

    def test_of_protocol_entry_point(self):
        spec = Scenario.of_protocol("srikanth_toueg").build()
        assert spec.kind == "protocol"
        assert spec.protocol == "srikanth_toueg"
        assert spec.graph == ""

    def test_dynamic_on_incapable_protocol_rejected_at_build(self):
        with pytest.raises(ConfigError) as err:
            (Scenario.line(3).protocol("master_slave")
             .dynamic("churn", interval=1.0, churn=0.5).build())
        assert "dynamic" in str(err.value)
        # Legacy alias kinds get the same eager check.
        with pytest.raises(ConfigError):
            (Scenario.line(3).kind("srikanth_toueg")
             .dynamic("churn", interval=1.0, churn=0.5).build())
        # Capable protocols build fine.
        spec = (Scenario.line(3)
                .dynamic("churn", interval=1.0, churn=0.5).build())
        assert spec.schedule == "churn"

    def test_schedule_on_schedule_blind_kind_rejected(self):
        with pytest.raises(ConfigError):
            (Scenario.of_kind("failure_mc").payload(f=1, p=0.05,
                                                    trials=10)
             .dynamic("churn", interval=1.0, churn=0.5).build())

    def test_unknown_strategy_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Scenario.line(2).attack("quantum").build()

    def test_unknown_kind_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Scenario.line(2).kind("teleport").build()

    def test_unknown_collector_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Scenario.line(2).measure("entropy").build()


class TestFaultKnobsFailEagerly:
    """Strategy and adversary knobs are checked by constructing the
    adversary model at build time, not first in the worker."""

    @pytest.mark.parametrize("edit", [
        lambda s: s.attack("crash", -1.0),
        lambda s: s.attack("fast_clock", 0.0),
        lambda s: s.adversarial("crash", crash_time=-1.0),
        lambda s: s.adversarial("random_pulse", pulses_per_round=0.0),
    ], ids=["attack-crash", "attack-fast_clock", "adversarial-crash",
            "adversarial-random_pulse"])
    def test_bad_knob_rejected_at_build(self, edit):
        scenario = edit(Scenario.line(2).params(default_params())
                        .rounds(2).seed(1))
        with pytest.raises(ConfigError):
            scenario.build()
        # The worker agrees: the unchecked spec fails its build too.
        with pytest.raises(ConfigError):
            run_cell(ScenarioSpec.from_dict(scenario.to_dict()))

    def test_negative_spread_fails_the_amplitude_check(self):
        # The spread is the equivocators' amplitude, checked once.
        for edit in (lambda s: s.attack("equivocate", -1.0),
                     lambda s: s.adversarial("equivocate",
                                             amplitude=-1.0)):
            with pytest.raises(ConfigError, match="amplitude"):
                edit(Scenario.line(2)).build()

    @pytest.mark.parametrize("name, knob, default", [
        ("crash", "crash_time", 0.0),
        ("fast_clock", "speed_factor", 2.0),
    ])
    def test_attack_without_knob_uses_model_default(self, name, knob,
                                                     default):
        from repro.faults.adversary import get_adversary, strategy_model

        spec = (Scenario.line(2).params(default_params()).rounds(2)
                .seed(1).attack(name).build())
        model = strategy_model(spec.strategy, spec.strategy_args)
        assert getattr(model, knob) == default
        assert getattr(get_adversary(name), knob) == default
        assert run_cell(spec).result.max_local_skew >= 0.0


class TestCellsOutsideTheTable:
    """Cells the capability table does not decide still get their
    feature values, protocol field and schedule checked."""

    @pytest.fixture
    def custom(self):
        from repro.harness.sweep import CELL_KINDS, register_cell_kind

        register_cell_kind("test_scenario_custom", lambda spec: spec)
        yield Scenario.of_kind("test_scenario_custom").seed(1)
        del CELL_KINDS["test_scenario_custom"]

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.attack("typo"), "unknown strategy"),
        (lambda s: s.lossy(rate=2.0), "loss rate"),
        (lambda s: s.adversarial("typo"), "unknown adversary"),
        (lambda s: s.adversarial("crash", crash_time=-1.0), "crash"),
    ], ids=["strategy", "loss", "adversary", "adversary-knob"])
    def test_custom_kind_feature_values_checked(self, custom, edit,
                                                message):
        with pytest.raises(ConfigError, match=message):
            edit(custom).build()
        with pytest.raises(ConfigError, match=message):
            run_cell(ScenarioSpec.from_dict(edit(custom).to_dict()))

    def test_custom_kind_gets_its_features(self, custom):
        # What a custom runner does with a feature is its own affair.
        spec = (custom.attack("silent").lossy(rate=0.1)
                .engine("vectorized").build())
        assert run_cell(spec) is spec

    @pytest.mark.parametrize("kind, protocol, message", [
        ("ftgcs", "paxos", "unknown protocol"),
        ("ftgcs", "gcs_single", "runs protocol 'ftgcs'"),
        ("failure_mc", "ftgcs", r"ignore \['protocol'\]"),
    ], ids=["legacy-unknown", "legacy-override", "protocol-free"])
    def test_protocol_field_the_kind_overrides_or_ignores(
            self, kind, protocol, message):
        data = {"kind": kind, "protocol": protocol, "seed": 1}
        with pytest.raises(ConfigError, match=message):
            Scenario.from_dict(data).build()
        with pytest.raises(ConfigError, match=message):
            run_cell(ScenarioSpec.from_dict(data))

    def test_legacy_kind_naming_its_own_protocol_builds(self):
        spec = Scenario.from_dict({"kind": "ftgcs",
                                   "protocol": "ftgcs"}).build()
        assert spec.kind == "ftgcs"

    def test_factory_function_schedule_left_to_the_worker(self):
        from repro.topology.schedule import (
            SCHEDULES,
            EdgeChurnSchedule,
            register_schedule,
        )

        register_schedule("test_factory_churn",
                          lambda graph, **kw: EdgeChurnSchedule(graph, **kw))
        try:
            base = (Scenario.line(3).params(default_params()).rounds(2)
                    .seed(1).dynamic("test_factory_churn", interval=5.0,
                                     churn=0.5))
            assert run_cell(base.build()).result.protocol == "ftgcs"
            # Its events are known only once built: the worker's
            # SystemBuilder.build rejects what the class test cannot.
            spec = base.protocol("master_slave").build()
            with pytest.raises(ConfigError, match="dynamic topologies"):
                run_cell(spec)
        finally:
            del SCHEDULES["test_factory_churn"]


class TestEndToEnd:
    def test_built_spec_runs(self):
        spec = (Scenario.line(2).params(default_params()).rounds(3)
                .seed(5).attack("silent").build())
        cell = run_cell(spec)
        assert cell.result.protocol == "ftgcs"
        assert cell.result.detail.missing_pulses > 0


class TestFirstContactValidation:
    def test_first_contact_builds_for_ftgcs(self):
        spec = (Scenario.line(2).params(default_params(f=1)).rounds(2)
                .dynamic("adversarial_sweep", interval=10.0)
                .first_contact().build())
        assert spec.first_contact

    def test_first_contact_on_incapable_protocol_rejected(self):
        with pytest.raises(ConfigError) as err:
            Scenario.ring(4).protocol("gcs_single").first_contact().build()
        assert "first-contact" in str(err.value)

    def test_first_contact_on_schedule_blind_kind_rejected(self):
        with pytest.raises(ConfigError):
            Scenario.of_kind("failure_mc").first_contact().build()

    def test_first_contact_spec_runs_end_to_end(self):
        params = default_params(f=1)
        spec = (Scenario.line(3).params(params).rounds(4).seed(5)
                .dynamic("adversarial_sweep",
                         interval=params.round_length)
                .first_contact().build())
        cell = run_cell(spec)
        # The walking cut leaves edge (0,1) down at start, so its
        # estimators come up from dormant once the cut moves on, and
        # the cut returning forces resyncs.
        assert cell.result.detail.estimator_bring_ups > 0
        assert cell.result.detail.estimator_resyncs > 0
        assert cell.result.messages_dropped > 0
