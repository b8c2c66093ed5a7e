"""Serialization round-trips and canonical hashing.

The simulation service's cache correctness rests on two properties
checked here:

1. Every spec the registry can produce survives ``to_dict →
   json.dumps → json.loads → from_dict`` with its canonical form (and
   hence its BLAKE2b content hash) unchanged — including loss specs,
   schedule args, fault strategies, and baseline parameter payloads.
2. The hash is stable *across processes*: a fresh interpreter hashing
   the same spec produces the same hex digest.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.params import Parameters
from repro.errors import ConfigError
from repro.harness import serialize
from repro.harness.registry import REGISTRY
from repro.harness.scenario import Scenario
from repro.harness.sweep import (
    ScenarioSpec,
    SweepRunner,
    resolve_cell_seeds,
    spec_hash,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
PARAMS = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)


def roundtrip(value):
    return serialize.decode(
        json.loads(json.dumps(serialize.encode(value), allow_nan=False)))


class TestCodec:
    def test_json_natives_pass_through(self):
        value = {"a": 1, "b": [1.5, None, True, "x"]}
        assert roundtrip(value) == value

    def test_tuples_stay_tuples(self):
        value = {"key": (1, "D", 2.5), "nested": [(1, 2), (3, 4)]}
        back = roundtrip(value)
        assert back == value
        assert isinstance(back["key"], tuple)
        assert all(isinstance(item, tuple) for item in back["nested"])

    def test_nonfinite_floats(self):
        back = roundtrip([math.inf, -math.inf, math.nan])
        assert back[0] == math.inf
        assert back[1] == -math.inf
        assert math.isnan(back[2])

    def test_tuple_keyed_dict(self):
        value = {(0, 1): 0.25, (1, 2): 0.5}
        back = roundtrip(value)
        assert back == value
        assert list(back) == list(value)  # insertion order preserved

    def test_tag_colliding_str_keys(self):
        value = {"__tuple__": "not a tuple", "x": 1}
        assert roundtrip(value) == value

    def test_float_bit_exactness(self):
        values = [0.1, 1e-308, 1.7976931348623157e308, -0.0,
                  2.220446049250313e-16]
        back = roundtrip(values)
        assert [v.hex() for v in back] == [v.hex() for v in values]

    def test_registered_dataclass(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        back = roundtrip(params)
        assert isinstance(back, Parameters)
        assert serialize.canonical_json(back) \
            == serialize.canonical_json(params)

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class Unknown:
            x: int = 1

        with pytest.raises(ConfigError, match="unregistered"):
            serialize.encode(Unknown())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError, match="unknown serializable"):
            serialize.decode({"__dc__": "NoSuchClass", "fields": {}})

    def test_bad_float_token_rejected(self):
        with pytest.raises(ConfigError, match="token"):
            serialize.decode({"__float__": "fast"})

    def test_register_name_collision_rejected(self):
        @dataclasses.dataclass
        class Parameters2:
            x: int = 1

        with pytest.raises(ConfigError, match="already taken"):
            serialize.register_serializable(Parameters2, "Parameters")

    def test_register_requires_dataclass(self):
        with pytest.raises(ConfigError, match="dataclass"):
            serialize.register_serializable(int)

    def test_unencodable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot serialize"):
            serialize.encode({1, 2, 3})

    def test_canonical_json_is_key_sorted(self):
        a = serialize.canonical_json({"b": 1, "a": 2})
        b = serialize.canonical_json({"a": 2, "b": 1})
        assert a == b


class TestSpecRoundTrip:
    def test_every_registry_spec_roundtrips_and_hashes_stably(self):
        """The satellite guarantee: all quick (and seed) specs of
        every registered experiment survive the JSON round trip with
        canonical form and hash unchanged."""
        checked = 0
        for experiment in REGISTRY:
            plan = experiment.plan(quick=True,
                                   seed=experiment.default_seed)
            for spec in resolve_cell_seeds(plan.specs,
                                           experiment.default_seed):
                data = json.loads(json.dumps(spec.to_dict(),
                                             allow_nan=False))
                back = ScenarioSpec.from_dict(data)
                assert serialize.canonical_json(back) \
                    == serialize.canonical_json(spec), experiment.id
                assert spec_hash(back) == spec_hash(spec)
                checked += 1
        assert checked > 50  # the registry really was swept

    def test_loss_schedule_strategy_fields_roundtrip(self):
        spec = (Scenario.ring(4)
                .params(Parameters.practical(rho=1e-4, d=1.0, u=0.1,
                                             f=1))
                .rounds(6).seed(3)
                .adversarial("equivocate", amplitude=0.25)
                .lossy(kind="burst", p_g2b=0.02, p_b2g=0.3, p_bad=0.9)
                .dynamic("churn", interval=40.0, churn=0.25)
                .tag("T", 2).build())
        back = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict(), allow_nan=False)))
        assert back.loss == spec.loss
        assert back.schedule_args == spec.schedule_args
        assert back.adversary == spec.adversary
        assert spec_hash(back) == spec_hash(spec)

    def test_hash_stable_across_processes(self):
        experiment = REGISTRY.get("t01")
        plan = experiment.plan(quick=True, seed=experiment.default_seed)
        specs = resolve_cell_seeds(plan.specs, experiment.default_seed)
        payload = json.dumps([spec.to_dict() for spec in specs],
                             allow_nan=False)
        script = (
            "import json, sys\n"
            "from repro.harness.sweep import ScenarioSpec, spec_hash\n"
            "specs = [ScenarioSpec.from_dict(d)"
            " for d in json.loads(sys.stdin.read())]\n"
            "print('\\n'.join(spec_hash(s) for s in specs))\n")
        completed = subprocess.run(
            [sys.executable, "-B", "-c", script], input=payload,
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() \
            == [spec_hash(spec) for spec in specs]

    def test_hash_differs_on_any_field_change(self):
        base = Scenario.line(3).params(PARAMS).rounds(5).seed(1).build()
        variants = [
            Scenario.line(4).params(PARAMS).rounds(5).seed(1).build(),
            Scenario.line(3).params(PARAMS).rounds(6).seed(1).build(),
            Scenario.line(3).params(PARAMS).rounds(5).seed(2).build(),
            Scenario.line(3).params(PARAMS).rounds(5).seed(1)
            .tag("D", 2).build(),
        ]
        hashes = {spec_hash(spec) for spec in [base] + variants}
        assert len(hashes) == len(variants) + 1

    def test_hash_requires_resolved_seed(self):
        with pytest.raises(ConfigError, match="resolved seed"):
            spec_hash(Scenario.line(3).params(PARAMS).build())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown ScenarioSpec"):
            ScenarioSpec.from_dict({"graph": "line", "bogus": 1})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError, match="needs a dict"):
            ScenarioSpec.from_dict([1, 2])

    def test_from_dict_coerces_handwritten_lists(self):
        spec = ScenarioSpec.from_dict(
            {"graph": "line", "graph_args": [3], "key": ["D", 2],
             "collect": ["unanimity"]})
        assert spec.graph_args == (3,)
        assert spec.key == ("D", 2)
        assert spec.collect == ("unanimity",)

    def test_from_dict_rejects_non_parameters_params(self):
        with pytest.raises(ConfigError, match="Parameters"):
            ScenarioSpec.from_dict({"graph": "line",
                                    "params": {"rho": 1e-4}})


class TestScenarioRoundTrip:
    def test_builder_roundtrip_builds_identical_spec(self):
        scenario = (Scenario.line(3).params(PARAMS).rounds(12).seed(9)
                    .adversarial("equivocate")
                    .configure(init_jitter=0.05)
                    .tag("D", 2))
        back = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict())))
        assert back.build() == scenario.build()

    def test_to_dict_only_holds_set_fields(self):
        data = Scenario.line(3).to_dict()
        assert sorted(data) == ["graph", "graph_args"]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown ScenarioSpec"):
            Scenario.from_dict({"rounds": 3, "wat": 1})


class TestResolveCellSeeds:
    def test_matches_sweep_runner_derivation(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        specs = [Scenario.line(3).params(params).rounds(2).build()
                 for _ in range(3)]
        resolved = resolve_cell_seeds(specs, base_seed=11)
        ran = SweepRunner().run(
            [Scenario.line(2).params(params).rounds(1).build()
             for _ in range(3)], base_seed=11)
        assert [spec.seed for spec in resolved] \
            == [cell.seed for cell in ran]

    def test_explicit_seeds_untouched(self):
        spec = Scenario.line(3).params(PARAMS).seed(42).build()
        assert resolve_cell_seeds([spec], 0)[0].seed == 42
