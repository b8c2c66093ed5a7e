"""The engine x protocol x feature conformance matrix.

Every builder feature and every ``config``/``payload`` key either
takes observable effect on the chosen engine or is rejected when the
system is built; it is never silently ignored.  The matrix pins three
things:

- the eager verdict (:func:`~repro.harness.sweep.check_spec`, what
  ``Scenario.build``, the service and the scenario library run) is the
  worker's verdict (:func:`~repro.harness.sweep.run_cell`, which runs
  the same check and then builds through ``SystemBuilder``), and both
  are the policy in ``ACCEPTED``; for the key cases, ``SystemBuilder``
  alone gives the same verdict, word for word;
- every accepted cell shows its feature's effect against the same cell
  without the feature;
- every :class:`~repro.core.protocol.BuildContext` field is a row of
  :data:`~repro.core.protocol.FEATURES` or an explicit non-feature, so
  a new feature without a row fails here.
"""

import dataclasses
from dataclasses import replace
from typing import Callable

import pytest

from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.core.protocol import FEATURES, BuildContext, SystemBuilder
from repro.errors import ConfigError
from repro.harness import Scenario, default_params
from repro.harness.sweep import (
    CELL_KINDS,
    ScenarioSpec,
    check_spec,
    run_cell,
)

FT = default_params(f=1)
GCS = GcsParams.default()
ST = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1, period=10.0)
ROUNDS = 6

PROTOCOLS = ("ftgcs", "lynch_welch", "master_slave", "gcs_single",
             "srikanth_toueg")
ENGINES = ("event", "vectorized")


def _base(protocol: str) -> tuple[Scenario, float]:
    """The protocol's feature-free cell and its churn interval."""
    if protocol == "ftgcs":
        return Scenario.line(4).params(FT).rounds(ROUNDS), FT.round_length
    if protocol == "lynch_welch":
        return (Scenario.of_protocol("lynch_welch").params(FT)
                .rounds(ROUNDS), FT.round_length)
    if protocol == "master_slave":
        return (Scenario.line(4).protocol("master_slave").params(FT)
                .rounds(ROUNDS), FT.round_length)
    if protocol == "gcs_single":
        return (Scenario.line(4).protocol("gcs_single")
                .payload(params=GCS, until=ROUNDS * GCS.period),
                GCS.period)
    return (Scenario.of_protocol("srikanth_toueg")
            .payload(params=ST, rounds=ROUNDS), ST.period)


def _edge_churn(scenario, interval):
    return scenario.dynamic("churn", interval=interval, churn=0.6)


def _adversary_effect(cell) -> int:
    """Rounds acted on the vectorized engine; 1 for an event-side
    realization (its counters carry no round count)."""
    counters = cell.result.adversary or {}
    return counters.get("rounds_acted", int(bool(counters)))


@dataclasses.dataclass(frozen=True)
class Case:
    """One matrix column: a feature as a spec edit plus its effect."""

    #: The :data:`FEATURES` row the case exercises.
    row: str
    #: ``(scenario, churn interval) -> scenario``.
    apply: Callable
    #: ``executed cell -> number``: 0 without the feature, > 0 with it.
    effect: Callable
    #: Edit giving "the same cell without the feature" (default: none).
    baseline: Callable | None = None


CASES = {
    "adversary_silent": Case(
        "adversary", lambda s, i: s.adversarial("silent"),
        _adversary_effect),
    "adversary_equivocate": Case(
        "adversary", lambda s, i: s.adversarial("equivocate"),
        _adversary_effect),
    "edge_churn": Case(
        "edge_events", _edge_churn,
        lambda c: c.result.dropped_link_down),
    "node_churn": Case(
        "node_events",
        lambda s, i: s.churn_nodes(interval=i, crash=0.5, rejoin=0.5,
                                   protect=(0,)),
        lambda c: c.result.node_crashes),
    "first_contact": Case(
        "first_contact", lambda s, i: _edge_churn(s, i).first_contact(),
        lambda c: c.result.detail.estimator_resyncs,
        baseline=_edge_churn),
    "loss": Case(
        "loss", lambda s, i: s.lossy(rate=0.2),
        lambda c: c.result.messages_lost),
    "collector_pulse_diameters": Case(
        "collectors", lambda s, i: s.measure("pulse_diameters"),
        lambda c: int("pulse_diameters" in c.extras)),
}


def _drop_payload_key(key: str) -> Callable:
    return lambda spec: replace(spec, payload={
        name: value for name, value in spec.payload.items()
        if name != key})


#: Key columns: an edit of the feature-free spec.  Each protocol reads
#: what its ``reads`` declares on the engine (the adapter's on the
#: event engine, its ``VEC_PROTOCOLS`` model's on the vectorized one)
#: and needs a graph and params as its ``needs_*`` flags say.
KEY_CASES = {
    "unknown_config": lambda spec: replace(
        spec, config={**spec.config, "bogus": 1}),
    "unknown_payload": lambda spec: replace(
        spec, payload={**spec.payload, "bogus": 1}),
    "config_init_jitter": lambda spec: replace(
        spec, config={**spec.config, "init_jitter": 0.0}),
    "payload_sample_interval": lambda spec: replace(
        spec, payload={**spec.payload, "sample_interval": 1.0}),
    "missing_payload_params": _drop_payload_key("params"),
    "missing_payload_until": _drop_payload_key("until"),
    "no_params": lambda spec: replace(spec, params=None),
    "no_graph": lambda spec: replace(spec, graph="", graph_args=()),
}

#: Every (protocol, engine) cell that builds its feature-free spec.
BUILDS = {(protocol, engine) for protocol in PROTOCOLS
          for engine in ENGINES} - {("master_slave", "vectorized")}

#: The policy, per case: the (protocol, engine) cells that realize it.
#: Every other cell of the matrix must be rejected.
ACCEPTED = {
    "adversary_silent": {
        ("ftgcs", "event"), ("ftgcs", "vectorized"),
        ("lynch_welch", "event"), ("gcs_single", "vectorized"),
        ("srikanth_toueg", "event"), ("srikanth_toueg", "vectorized")},
    "adversary_equivocate": {
        ("ftgcs", "event"), ("ftgcs", "vectorized"),
        ("lynch_welch", "event"), ("gcs_single", "event"),
        ("gcs_single", "vectorized"), ("srikanth_toueg", "vectorized")},
    "edge_churn": {("ftgcs", "event"), ("gcs_single", "event")},
    "node_churn": {("ftgcs", "event"), ("master_slave", "event"),
                   ("gcs_single", "event")},
    "first_contact": {("ftgcs", "event")},
    "loss": {(protocol, "event") for protocol in PROTOCOLS},
    "collector_pulse_diameters": {("ftgcs", "event"),
                                  ("lynch_welch", "event")},
    # Key columns, read off the declarations.
    "unknown_config": set(),
    "unknown_payload": set(),
    "config_init_jitter": {("ftgcs", "event"), ("lynch_welch", "event"),
                           ("lynch_welch", "vectorized")},
    # The vectorized models probe once per round.
    "payload_sample_interval": {("gcs_single", "event"),
                                ("srikanth_toueg", "event")},
    "missing_payload_params": BUILDS - {
        ("gcs_single", "event"), ("gcs_single", "vectorized"),
        ("srikanth_toueg", "event"), ("srikanth_toueg", "vectorized")},
    "missing_payload_until": BUILDS - {("gcs_single", "event"),
                                       ("gcs_single", "vectorized")},
    "no_params": {("gcs_single", "event"), ("gcs_single", "vectorized"),
                  ("srikanth_toueg", "event"),
                  ("srikanth_toueg", "vectorized")},
    "no_graph": {("lynch_welch", "event"), ("lynch_welch", "vectorized"),
                 ("srikanth_toueg", "event"),
                 ("srikanth_toueg", "vectorized")},
}

#: BuildContext fields that carry no builder feature: what every run
#: needs, and the knobs of a feature or a protocol.
NON_FEATURES = {"graph", "params", "rounds", "seed", "config", "payload"}


def _spec(protocol: str, engine: str, edit=None) -> ScenarioSpec:
    """The cell as written, before any check (``to_dict`` round trip:
    ``Scenario.build`` would already apply ``check_spec``)."""
    scenario, interval = _base(protocol)
    if edit is not None:
        scenario = edit(scenario, interval)
    scenario = scenario.engine(engine).seed(3)
    return ScenarioSpec.from_dict(scenario.to_dict())


def _verdict(check, spec) -> str | None:
    """``None`` when ``check`` accepts ``spec``, else its message."""
    try:
        check(spec)
    except ConfigError as error:
        return str(error)
    return None


MATRIX = [(protocol, engine, case) for case in CASES
          for protocol in PROTOCOLS for engine in ENGINES]
KEY_MATRIX = [(protocol, engine, case) for case in KEY_CASES
              for protocol in PROTOCOLS for engine in ENGINES]
ACCEPTED_CELLS = [(protocol, engine, case)
                  for protocol, engine, case in MATRIX
                  if (protocol, engine) in ACCEPTED[case]]


@pytest.mark.parametrize("protocol, engine, case", MATRIX + KEY_MATRIX)
def test_eager_verdict_is_the_worker_verdict(protocol, engine, case):
    if case in KEY_CASES:
        spec = KEY_CASES[case](_spec(protocol, engine))
    else:
        spec = _spec(protocol, engine, CASES[case].apply)
    expected = (protocol, engine) in ACCEPTED[case]
    verdict = _verdict(check_spec, spec)
    assert (verdict is None) is expected
    assert _verdict(run_cell, spec) == verdict
    if case in KEY_CASES:
        # The worker's builder, without the spec check in front.
        assert _verdict(CELL_KINDS["protocol"], spec) == verdict


@pytest.mark.parametrize("protocol, engine, case", ACCEPTED_CELLS)
def test_accepted_cell_shows_its_effect(protocol, engine, case):
    case = CASES[case]
    without = run_cell(check_spec(_spec(protocol, engine, case.baseline)))
    with_feature = run_cell(check_spec(_spec(protocol, engine,
                                             case.apply)))
    assert case.effect(without) == 0
    assert case.effect(with_feature) > 0


def test_every_feature_row_has_a_matrix_column():
    assert {case.row for case in CASES.values()} == {
        row.name for row in FEATURES}


def test_every_build_context_field_is_a_row_or_a_non_feature():
    fields = {field.name for field in dataclasses.fields(BuildContext)}
    rows = {row.field for row in FEATURES} - {None}
    assert fields - rows - NON_FEATURES == set()
    assert rows <= fields and NON_FEATURES <= fields
    assert not rows & NON_FEATURES


@pytest.mark.parametrize("adversary", [
    "silent", "equivocate", "random_pulse", "fast_clock", "pull_apart",
    "greedy"])
def test_lynch_welch_vectorized_adversary_rejected_by_both_builders(
        adversary):
    # VecLynchWelch injects no fault vector: the run would be
    # fault-free with result.adversary None.
    builder = (SystemBuilder("lynch_welch").params(FT).rounds(2)
               .engine("vectorized").adversary(adversary))
    with pytest.raises(ConfigError, match="supports_vectorized_faults"):
        builder.build()
    with pytest.raises(ConfigError, match="supports_vectorized_faults"):
        (Scenario.of_protocol("lynch_welch").params(FT).rounds(2)
         .adversarial(adversary).engine("vectorized").build())
