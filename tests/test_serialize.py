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
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import SkewSnapshot
from repro.core.params import Parameters
from repro.core.system import SystemConfig
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


# ----------------------------------------------------------------------
# The oracle: the codec as it was before it walked each value once per
# direction, frozen here (the registry and drop_retired are shared).
# ----------------------------------------------------------------------

def oracle_encode(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {"__float__": "nan"}
        return {"__float__": "inf" if value > 0 else "-inf"}
    if isinstance(value, tuple):
        return {"__tuple__": [oracle_encode(item) for item in value]}
    if isinstance(value, list):
        return [oracle_encode(item) for item in value]
    if isinstance(value, dict):
        plain = all(isinstance(key, str) for key in value)
        if plain and not any(key in serialize._TAGS for key in value):
            return {key: oracle_encode(item) for key, item in value.items()}
        return {"__map__": [[oracle_encode(key), oracle_encode(item)]
                            for key, item in value.items()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        registered = serialize._SERIALIZABLE.get(name)
        if registered is None or not isinstance(value, registered):
            raise ConfigError(
                f"cannot serialize unregistered dataclass "
                f"{type(value).__module__}.{name}; call "
                f"register_serializable first")
        namespace = registered.__dict__
        omit_empty = namespace.get("_SERIALIZE_OMIT_EMPTY", ())
        fields = {f.name: oracle_encode(getattr(value, f.name))
                  for f in dataclasses.fields(value)
                  if f.name not in omit_empty or getattr(value, f.name)}
        for field, (old, _) in namespace.get("_SERIALIZE_RETIRED",
                                             {}).items():
            fields[field] = oracle_encode(old)
        return {"__dc__": name, "fields": fields}
    raise ConfigError(
        f"cannot serialize {type(value).__name__!r} value: {value!r}")


def oracle_decode(value):
    if isinstance(value, list):
        return [oracle_decode(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "__tuple__" in value:
        return tuple(oracle_decode(item) for item in value["__tuple__"])
    if "__float__" in value:
        token = value["__float__"]
        if token == "nan":
            return math.nan
        if token == "inf":
            return math.inf
        if token == "-inf":
            return -math.inf
        raise ConfigError(f"bad __float__ token: {token!r}")
    if "__map__" in value:
        return {oracle_decode(key): oracle_decode(item)
                for key, item in value["__map__"]}
    if "__dc__" in value:
        name = value["__dc__"]
        cls = serialize._SERIALIZABLE.get(name)
        if cls is None:
            raise ConfigError(
                f"unknown serializable dataclass {name!r}; known: "
                f"{serialize.serializable_names()}")
        fields = {key: oracle_decode(item)
                  for key, item in value.get("fields", {}).items()}
        if "_SERIALIZE_RETIRED" in cls.__dict__:
            fields = serialize.drop_retired(cls, fields)
        return cls(**fields)
    return {key: oracle_decode(item) for key, item in value.items()}


def oracle_canonical_json(value):
    return json.dumps(oracle_encode(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def assert_identical(got, want):
    """Equal in type, key order and float bits, all the way down."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    elif isinstance(want, dict):
        assert len(got) == len(want)
        for (gk, gv), (wk, wv) in zip(got.items(), want.items()):
            assert_identical(gk, wk)
            assert_identical(gv, wv)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_identical(getattr(got, field.name),
                             getattr(want, field.name))
    else:
        assert got == want


floats = st.floats() | st.sampled_from([-0.0, math.inf, -math.inf])
scalars = (st.none() | st.booleans() | st.integers() | floats
           | st.text(max_size=4) | floats.map(np.float64))
hashables = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4)
str_keys = st.text(max_size=4) | st.sampled_from(
    ["__tuple__", "__float__", "__map__", "__dc__", "fields"])
edge_maps = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                            floats, max_size=4)
snapshots = st.builds(SkewSnapshot, floats, floats, floats, floats, floats,
                      edge_maps)
parameters = st.builds(
    lambda f, c1: Parameters.custom(rho=1e-4, d=1.0, u=0.1, f=f, c1=c1,
                                    c2=32.0),
    st.integers(0, 2), st.sampled_from([20.0, 90.0]))
specs = st.builds(
    lambda n, seed, adversary, key: ScenarioSpec(
        graph="line", graph_args=(n,), params=PARAMS, seed=seed,
        adversary=adversary, key=key),
    st.integers(1, 5), st.none() | st.integers(0, 2**63),
    st.sampled_from([{}, {"name": "silent", "count": 1}]),
    st.lists(scalars, max_size=3).map(tuple))
leaves = scalars | snapshots | parameters | specs
values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(str_keys, inner, max_size=3)
                   | st.dictionaries(st.integers(), inner, max_size=3)
                   | st.dictionaries(hashables, inner, max_size=3)),
    max_leaves=12)


class TestCodecOracle:
    """The one-pass codec against the frozen one on generated values."""

    @given(value=values)
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_same_decoded_values(self, value):
        text = serialize.canonical_json(value)
        assert text == oracle_canonical_json(value)
        want = oracle_decode(json.loads(text))
        assert_identical(serialize.decode(json.loads(text)), want)
        assert_identical(serialize.loads(text), want)

    @given(value=values, bad=st.sampled_from([
        {"__dc__": "NoSuchClass", "fields": {}},
        {"__float__": "fast"},
        {"__dc__": "SystemConfig", "fields": {}},
    ]), wrap=st.sampled_from(["bare", "list", "dict", "fields"]))
    @settings(max_examples=60, deadline=None)
    def test_same_errors_on_both_decode_paths(self, value, bad, wrap):
        encoded = oracle_encode(value)
        placed = {"bare": bad, "list": [encoded, bad],
                  "dict": {"x": encoded, "y": bad},
                  "fields": {"__dc__": "SkewSnapshot", "fields": {
                      "time": 0.0, "global_skew": bad}}}[wrap]
        text = json.dumps(placed, allow_nan=False)
        with pytest.raises(ConfigError) as want:
            oracle_decode(json.loads(text))
        for decoded in (lambda: serialize.decode(json.loads(text)),
                        lambda: serialize.loads(text)):
            with pytest.raises(ConfigError) as got:
                decoded()
            assert str(got.value) == str(want.value)

    def test_unregistered_dataclass_fails_alike(self):
        value = [1.0, {"config": SystemConfig()}]
        with pytest.raises(ConfigError) as want:
            oracle_canonical_json(value)
        with pytest.raises(ConfigError) as got:
            serialize.canonical_json(value)
        assert str(got.value) == str(want.value)


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
