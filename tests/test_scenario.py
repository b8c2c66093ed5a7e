"""Tests for the fluent Scenario builder."""

import pytest

from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.errors import ConfigError
from repro.harness.runner import default_params
from repro.harness.scenario import Scenario
from repro.harness.sweep import ScenarioSpec, check_spec, run_cell

PARAMS = default_params()


class TestBuilding:
    def test_compiles_to_spec(self):
        params = default_params()
        spec = (Scenario.line(3).params(params).rounds(7).seed(42)
                .adversarial("equivocate")
                .configure(init_jitter=0.1)
                .measure("pulse_diameters")
                .tag("D", 2).build())
        assert isinstance(spec, ScenarioSpec)
        assert spec.graph == "line"
        assert spec.graph_args == (3,)
        assert spec.params is params
        assert spec.rounds == 7
        assert spec.seed == 42
        assert spec.adversary == {"name": "equivocate"}
        assert spec.config == {"init_jitter": 0.1}
        assert spec.collect == ("pulse_diameters",)
        assert spec.key == ("D", 2)
        assert spec.kind == "protocol"
        assert spec.protocol is None  # worker defaults to "ftgcs"

    def test_graph_entry_points(self):
        assert Scenario.ring(4).params(PARAMS).build().graph == "ring"
        assert Scenario.grid_graph(2, 3).params(PARAMS).build() \
            .graph_args == (2, 3)
        assert Scenario.on("hypercube", 4).params(PARAMS).build() \
            .graph == "hypercube"

    def test_kind_and_payload(self):
        spec = (Scenario.of_kind("failure_mc").seed(1)
                .payload(f=1, p=0.05, trials=10).build())
        assert spec.kind == "failure_mc"
        assert spec.graph == ""
        assert spec.payload == {"f": 1, "p": 0.05, "trials": 10}

    def test_offsets_sugar(self):
        spec = Scenario.line(2).params(PARAMS).offsets([0.0, 1.0]).build()
        assert spec.config == {"cluster_offsets": [0.0, 1.0]}

    def test_configure_and_payload_merge(self):
        spec = (Scenario.line(2).params(PARAMS).configure(init_jitter=0.1)
                .configure(policy="max_rule").build())
        assert spec.config == {"init_jitter": 0.1, "policy": "max_rule"}
        spec = (Scenario.of_kind("trigger_fuzz").payload(trials=5)
                .payload(kappa=1.0).build())
        assert spec.payload == {"trials": 5, "kappa": 1.0}

    def test_measure_deduplicates(self):
        spec = (Scenario.line(1).params(PARAMS).measure("unanimity")
                .measure("unanimity", "amortized_rates").build())
        assert spec.collect == ("unanimity", "amortized_rates")


class TestImmutability:
    def test_methods_return_new_builders(self):
        base = Scenario.line(2).params(default_params()).rounds(3)
        fast = base.adversarial("equivocate")
        assert base.build().adversary == {}
        assert fast.build().adversary == {"name": "equivocate"}

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
                .payload(params=GcsParams.default(), until=20.0)
                .dynamic("churn", interval=5.0, churn=0.1).build())
        assert spec.kind == "protocol"
        assert spec.protocol == "gcs_single"
        assert spec.schedule == "churn"
        assert spec.schedule_args == {"interval": 5.0, "churn": 0.1}

    def test_of_protocol_entry_point(self):
        spec = (Scenario.of_protocol("srikanth_toueg")
                .payload(params=StParams(n=4, f=1, rho=1e-4, d=1.0,
                                          u=0.1, period=10.0))
                .build())
        assert spec.kind == "protocol"
        assert spec.protocol == "srikanth_toueg"
        assert spec.graph == ""

    def test_dynamic_on_incapable_protocol_rejected_at_build(self):
        with pytest.raises(ConfigError) as err:
            (Scenario.line(3).protocol("master_slave")
             .dynamic("churn", interval=1.0, churn=0.5).build())
        assert "dynamic" in str(err.value)
        # Capable protocols build fine.
        spec = (Scenario.line(3).params(PARAMS)
                .dynamic("churn", interval=1.0, churn=0.5).build())
        assert spec.schedule == "churn"

    def test_schedule_on_schedule_blind_kind_rejected(self):
        with pytest.raises(ConfigError):
            (Scenario.of_kind("failure_mc").payload(f=1, p=0.05,
                                                    trials=10)
             .dynamic("churn", interval=1.0, churn=0.5).build())

    def test_unknown_kind_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Scenario.line(2).kind("teleport").build()

    def test_unknown_collector_rejected_at_build(self):
        with pytest.raises(ConfigError):
            Scenario.line(2).measure("entropy").build()


class TestFaultKnobsFailEagerly:
    """Adversary knobs are checked by constructing the adversary model
    at build time, not first in the worker."""

    @pytest.mark.parametrize("edit", [
        lambda s: s.adversarial("crash", count=0),
        lambda s: s.adversarial("fast_clock", speed_factor=0.0),
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
        with pytest.raises(ConfigError, match="amplitude"):
            Scenario.line(2).adversarial("equivocate",
                                         amplitude=-1.0).build()


class TestRetiredSpellings:
    """A retired spec field set to anything but its retired value, or a
    protocol name used as a cell kind, fails naming the spelling that
    replaces it: on the builder path and in the worker."""

    @pytest.mark.parametrize("edit, replacement", [
        ({"strategy": "equivocate"}, "adversary=.*crash_time"),
        ({"faults_per_cluster": 0}, "count="),
        ({"faults_per_cluster": 0, "engine": "vectorized",
          "adversary": {"name": "silent"}}, "count="),
        ({"collect_pulse_diameters": True},
         r"collect=\['pulse_diameters'\]"),
        ({"kind": "ftgcs"}, "kind 'protocol' with protocol='ftgcs'"),
    ], ids=["strategy", "faults_per_cluster-event",
            "faults_per_cluster-vectorized", "collect_pulse_diameters",
            "legacy-kind"])
    def test_rejected_naming_the_replacement(self, edit, replacement):
        data = {**Scenario.line(2).params(default_params()).rounds(2)
                .seed(1).to_dict(), **edit}
        with pytest.raises(ConfigError, match=replacement):
            Scenario.from_dict(data).build()
        with pytest.raises(ConfigError, match=replacement):
            run_cell(ScenarioSpec.from_dict(data))

    def test_retired_values_are_dropped(self):
        # A body written before the retirement carries every retired
        # field at its retired value; it builds the same spec.
        scenario = Scenario.line(2).params(default_params()).seed(1)
        data = {**scenario.to_dict(), "strategy": None,
                "strategy_args": [], "faults_per_cluster": None,
                "collect_pulse_diameters": False}
        assert Scenario.from_dict(data).build() == scenario.build()
        assert ScenarioSpec.from_dict(data) == scenario.build()


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
        (lambda s: Scenario.from_dict({**s.to_dict(), "strategy": "typo"}),
         "'strategy' is retired"),
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
        spec = (custom.adversarial("silent").lossy(rate=0.1)
                .engine("vectorized").build())
        assert run_cell(spec) is spec

    @pytest.mark.parametrize("kind, fields, message", [
        ("failure_mc", {"protocol": "ftgcs"}, r"ignore \['protocol'\]"),
        ("failure_mc", {"graph": "line", "graph_args": [3]},
         r"ignore \['graph', 'graph_args'\]"),
        ("failure_mc", {"params": PARAMS}, r"ignore \['params'\]"),
        ("failure_mc", {"rounds": 9}, r"ignore \['rounds'\]"),
        ("failure_mc", {"rounds": 0}, r"ignore \['rounds'\]"),
        ("failure_mc", {"config": {"init_jitter": 0.1}},
         r"ignore \['config'\]"),
        ("trigger_fuzz", {"timing": True}, r"ignore \['timing'\]"),
        ("trigger_fuzz", {"graph": "ring", "graph_args": [4]},
         r"ignore \['graph', 'graph_args'\]"),
        ("trigger_fuzz", {"params": PARAMS, "rounds": 3},
         r"ignore \['params', 'rounds'\]"),
        ("augment_counts", {"graph": "line", "graph_args": [3],
                            "params": PARAMS}, r"ignore \['params'\]"),
        ("augment_counts", {"graph": "line", "graph_args": [3],
                            "rounds": 9}, r"ignore \['rounds'\]"),
        ("augment_counts", {"graph": "line", "graph_args": [3],
                            "schedule_args": {"interval": 2.0}},
         r"ignore \['schedule_args'\]"),
    ], ids=["protocol-free", "failure_mc-graph", "failure_mc-params",
            "failure_mc-rounds", "failure_mc-zero-rounds",
            "failure_mc-config", "trigger_fuzz-timing",
            "trigger_fuzz-graph", "trigger_fuzz-params-rounds",
            "augment_counts-params", "augment_counts-rounds",
            "augment_counts-schedule_args"])
    def test_protocol_field_the_kind_overrides_or_ignores(
            self, kind, fields, message):
        data = {"kind": kind, "seed": 1, **fields}
        with pytest.raises(ConfigError, match=message):
            Scenario.from_dict(data).build()
        with pytest.raises(ConfigError, match=message):
            run_cell(ScenarioSpec.from_dict(data))

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


class TestGraphChecks:
    """A graph the worker cannot build fails as a ConfigError: an
    unknown constructor or ``graph_args`` that do not bind to its
    signature already in ``check_spec``, arguments the constructor
    itself refuses in the worker."""

    @staticmethod
    def spec(graph, args):
        return ScenarioSpec(graph=graph, graph_args=args, params=PARAMS,
                            rounds=1, seed=1)

    @pytest.mark.parametrize("graph, args, message", [
        ("bogus", (3,), "unknown graph constructor 'bogus'; known: "),
        ("line", (), "bad graph_args () for line: missing a required "
         "argument: 'n'"),
        ("line", (3, 3, 3), "bad graph_args (3, 3, 3) for line: too many "
         "positional arguments"),
    ], ids=["unknown-name", "no-args", "too-many-args"])
    def test_refused_by_check_spec_and_run_cell_alike(self, graph, args,
                                                      message):
        spec = self.spec(graph, args)
        with pytest.raises(ConfigError) as eager:
            check_spec(spec)
        assert str(eager.value).startswith(message)
        with pytest.raises(ConfigError) as worker:
            run_cell(spec)
        assert str(worker.value) == str(eager.value)

    @pytest.mark.parametrize("args", [("x",), (3.5,), ([1],)],
                             ids=["str", "float", "list"])
    def test_arguments_the_constructor_refuses(self, args):
        spec = self.spec("line", args)
        assert check_spec(spec) is spec  # binds; values are the worker's
        with pytest.raises(ConfigError) as worker:
            run_cell(spec)
        assert str(worker.value).startswith(f"bad graph line{args!r}: ")


class TestFieldChecks:
    """A field of the wrong type, or ``schedule_args`` that do not bind
    to the schedule's signature, fail in ``check_spec`` as they fail in
    the worker, instead of as a bare Python error (or not at all)."""

    @pytest.mark.parametrize("fields, message", [
        ({"rounds": "x"}, "rounds must be an int: 'x'"),
        ({"rounds": 2.5}, "rounds must be an int: 2.5"),
        ({"rounds": None}, "rounds must be an int: None"),
        ({"rounds": True}, "rounds must be an int: True"),
        ({"seed": "x"}, "seed must be an int or None: 'x'"),
        ({"seed": True}, "seed must be an int or None: True"),
        ({"first_contact": 1}, "first_contact must be a bool: 1"),
        ({"timing": "yes"}, "timing must be a bool: 'yes'"),
        ({"schedule": "churn"}, "bad schedule_args {} for churn: "
         "missing a required argument: 'interval'"),
        ({"schedule_args": {"bogus": 1}}, "bad schedule_args "
         "{'bogus': 1} for static: got an unexpected keyword argument "
         "'bogus'"),
    ], ids=["rounds-str", "rounds-float", "rounds-none", "rounds-bool",
            "seed-str", "seed-bool", "first_contact-int", "timing-str",
            "churn-without-args", "static-with-args"])
    def test_refused_by_check_spec_build_and_run_cell_alike(
            self, fields, message):
        data = {**Scenario.line(3).params(PARAMS).rounds(3).seed(1)
                .to_dict(), **fields}
        spec = ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigError) as eager:
            check_spec(spec)
        assert str(eager.value) == message
        with pytest.raises(ConfigError) as built:
            Scenario.from_dict(data).build()
        with pytest.raises(ConfigError) as worker:
            run_cell(spec)
        assert str(built.value) == str(worker.value) == message

    @pytest.mark.parametrize("args", [
        {"interval": "x", "churn": 0.5},
        {"interval": 10.0, "churn": "y"},
        {"interval": 10.0, "churn": 0.5, "protect": [1]},
    ], ids=["interval-str", "churn-str", "protect-int"])
    def test_arguments_the_schedule_refuses(self, args):
        spec = (Scenario.line(3).params(PARAMS).rounds(2).seed(1)
                .dynamic("churn", **args).build())
        assert check_spec(spec) is spec  # binds; values are the worker's
        with pytest.raises(ConfigError) as worker:
            run_cell(spec)
        assert str(worker.value).startswith("bad churn cell: ")


class TestEndToEnd:
    def test_built_spec_runs(self):
        spec = (Scenario.line(2).params(default_params()).rounds(3)
                .seed(5).adversarial("silent").build())
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
