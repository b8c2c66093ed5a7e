"""The unified adversary layer: budget contract, engine-agnostic
plumbing, legacy compatibility, and the resilience claims behind T18.
"""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.core.protocol import SystemBuilder
from repro.errors import ConfigError
from repro.faults.adversary import (
    ADVERSARIES,
    AdversaryModel,
    get_adversary,
    stride_placement,
)
from repro.harness.experiments import fast_dynamics_params
from repro.harness.scenario import Scenario
from repro.harness.sweep import ScenarioSpec, SweepRunner, run_cell, spec_hash
from repro.service.store import ResultStore
from repro.topology import ClusterGraph, EdgeChurnSchedule

FT = fast_dynamics_params(f=1)
GCS = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                kappa=0.3, slack=0.1)
ST = StParams(n=7, f=2, rho=1e-3, d=1.0, u=0.01, period=10.0)


def ft_cell(rounds=20, seed=18):
    return Scenario.line(6).params(FT).rounds(rounds).seed(seed)


def st_cell(seed=18, **payload):
    return (Scenario.of_protocol("srikanth_toueg")
            .payload(params=ST, rounds=10, **payload).seed(seed))


class TestLegacyCompat:
    """Re-homing the strategies must not move a single spec hash."""

    def test_legacy_spec_hashes_unchanged(self):
        # Literal pre-refactor hashes: the adversary field is omitted
        # from serialization when empty, and the retired fields are
        # encoded at their retired values, so every spec that existed
        # before the layer landed still hashes (and caches)
        # identically.
        plain = Scenario.line(3).params(FT).rounds(10).seed(11).build()
        assert spec_hash(plain) \
            == "c1a3382e42963a1a71f9762e8141cc4681b2c58f"
        # The same spec as written before the fields were retired:
        # all four at their retired values.
        old = json.loads(json.dumps({
            **plain.to_dict(), "strategy": None,
            "strategy_args": {"__tuple__": []},
            "faults_per_cluster": None, "collect_pulse_diameters": False}))
        assert spec_hash(ScenarioSpec.from_dict(old)) \
            == "c1a3382e42963a1a71f9762e8141cc4681b2c58f"
        st = (Scenario.of_protocol("srikanth_toueg")
              .payload(params=StParams(n=4, f=1, rho=1e-3, d=1.0,
                                       u=0.01, period=10.0),
                       rounds=5, silent_faults=1)
              .seed(5).build())
        assert spec_hash(st) \
            == "f613590771aa97fe45a2e03723dee533a3c27de1"

    def test_every_legacy_strategy_name_resolves(self):
        # Every name the retired strategy field took is an adversary
        # with an event driver.
        event = tuple(name for name, cls in ADVERSARIES.items()
                      if cls.supports_event)
        assert event == ("silent", "crash", "random_pulse",
                         "fast_clock", "equivocate", "pull_apart",
                         "collusion")
        for name in event:
            assert type(get_adversary(name)) is ADVERSARIES[name]
        with pytest.raises(ConfigError, match="bad adversary kwargs"):
            get_adversary("silent", speed_factor=1.0)

    def test_strategy_args_are_the_event_knob(self):
        # The retired positional strategy_args are these keyword knobs,
        # with the same defaults when left out.
        assert get_adversary("crash").crash_time == 0.0
        assert get_adversary("fast_clock").speed_factor == 2.0
        assert get_adversary("crash", crash_time=3.0).crash_time == 3.0
        assert get_adversary("random_pulse", pulses_per_round=4.0) \
            .pulses_per_round == 4.0
        assert get_adversary("fast_clock",
                             speed_factor=1.5).speed_factor == 1.5
        for name in ("equivocate", "pull_apart", "collusion"):
            assert get_adversary(name, amplitude=0.25).amplitude == 0.25

    def test_adversary_field_round_trips_but_hashes_apart(self):
        legacy = ft_cell().build()
        adv = ft_cell().adversarial("equivocate").build()
        assert spec_hash(adv) != spec_hash(legacy)
        clone = ScenarioSpec.from_dict(adv.to_dict())
        assert clone == adv
        assert clone.adversary == {"name": "equivocate"}

    def test_result_store_still_hits_on_legacy_specs(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = ft_cell(rounds=4).build()
        store.put(spec, run_cell(spec))
        # A freshly built, bit-identical legacy spec hits the cache;
        # the adversarial variant of the same cell does not collide.
        assert store.get(ft_cell(rounds=4).build()) is not None
        assert store.get(ft_cell(rounds=4)
                         .adversarial("silent").build()) is None


class TestEagerValidation:
    def test_unknown_name_rejected_at_build(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            ft_cell().adversarial("nope").build()

    def test_attack_and_adversarial_do_not_compose(self):
        # One spelling only: the retired strategy field is rejected
        # next to an adversary, naming it.
        data = {**ft_cell().adversarial("equivocate").to_dict(),
                "strategy": "equivocate"}
        with pytest.raises(ConfigError, match="retired; use adversary="):
            Scenario.from_dict(data).build()

    def test_adaptive_rejected_on_event_engine(self):
        with pytest.raises(ConfigError, match="vectorized"):
            ft_cell().adversarial("greedy").build()

    def test_event_engine_adversary_composes_with_loss(self):
        # Loss is an event-engine feature: an adversary on that engine
        # must not trip the vectorized engine's rejection of it.
        result = (SystemBuilder("ftgcs").topology(ClusterGraph.line(4))
                  .params(FT).rounds(4).seed(18).adversary("equivocate")
                  .lossy(kind="bernoulli", rate=0.3).build().run())
        assert result.messages_lost > 0

    def test_event_engine_adversary_composes_with_churn(self):
        schedule = EdgeChurnSchedule(ClusterGraph.line(4), interval=5.0,
                                     churn=0.5)
        result = (SystemBuilder("ftgcs").topology(schedule)
                  .params(FT).rounds(4).seed(18).adversary("equivocate")
                  .first_contact(True).build().run())
        assert result.dropped_link_down > 0
        assert result.detail.estimator_resyncs > 0

    def test_clique_count_capped_at_f(self):
        spec = (st_cell().adversarial("silent", count=ST.f + 1)
                .engine("vectorized").build())
        with pytest.raises(ConfigError, match="fault budget"):
            run_cell(spec)

    def test_bad_budget_knobs_rejected(self):
        with pytest.raises(ConfigError, match="amplitude"):
            get_adversary("silent", amplitude=-1.0)
        with pytest.raises(ConfigError, match="count"):
            get_adversary("silent", count=0)
        with pytest.raises(ConfigError):
            stride_placement(4, 4)  # no honest nodes left


class _RogueSpray(AdversaryModel):
    """Writes offsets on honest-sender slots (outside its budget)."""

    name = "rogue_spray"
    supports_vectorized = True

    def act(self, view):
        return (np.full(view.num_slots, 0.1),
                np.ones(view.num_slots, dtype=bool))


class _RogueLoud(AdversaryModel):
    """Exceeds the amplitude cap on its own slots."""

    name = "rogue_loud"
    supports_vectorized = True

    def act(self, view):
        offsets = np.where(view.faulty_slots,
                           2.0 * view.amplitude + 1.0, 0.0)
        return offsets, np.ones(view.num_slots, dtype=bool)


class TestBudgetEnforcement:
    """A model cannot cheat the runtime: the budget is enforced on
    every act(), not trusted."""

    def rogue_spec(self, monkeypatch, cls):
        monkeypatch.setitem(ADVERSARIES, cls.name, cls)
        return (Scenario.line(6).protocol("gcs_single")
                .payload(params=GCS, until=30.0).seed(1)
                .adversarial(cls.name).engine("vectorized").build())

    def test_offsets_outside_fault_set_rejected(self, monkeypatch):
        spec = self.rogue_spec(monkeypatch, _RogueSpray)
        with pytest.raises(ConfigError, match="outside its fault set"):
            run_cell(spec)

    def test_amplitude_budget_enforced(self, monkeypatch):
        spec = self.rogue_spec(monkeypatch, _RogueLoud)
        with pytest.raises(ConfigError, match="amplitude budget"):
            run_cell(spec)


class TestEngineAgnostic:
    """One .adversarial(...) spelling, both engines, uniform
    counters."""

    def test_vectorized_counters_surfaced(self):
        spec = (ft_cell().adversarial("equivocate", amplitude=30.0)
                .engine("vectorized").build())
        counters = run_cell(spec).result.adversary
        assert counters["name"] == "equivocate"
        assert counters["mechanism"] == "vectorized"
        assert counters["rounds_acted"] > 0
        assert 0.0 < counters["injected_abs_max"] <= 30.0 * (1 + 1e-9)

    def test_event_realization_runs_and_reports(self):
        spec = ft_cell(rounds=6).adversarial("equivocate").build()
        result = run_cell(spec).result
        assert result.adversary is not None
        assert result.adversary["name"] == "equivocate"

    def test_silent_matches_legacy_silent_faults_bitwise(self):
        legacy = (st_cell(silent_faults=2).engine("vectorized")
                  .build())
        unified = (st_cell().adversarial("silent", count=2)
                   .engine("vectorized").build())
        a = run_cell(legacy).result
        b = run_cell(unified).result
        assert a.max_local_skew == b.max_local_skew
        assert a.max_global_skew == b.max_global_skew

    def test_adaptive_deterministic_serial_equals_pooled(self):
        spec = (ft_cell().adversarial("random_restart", amplitude=30.0)
                .engine("vectorized").build())
        serial = SweepRunner(processes=1).run([spec], base_seed=18)
        pooled = SweepRunner(processes=2).run([spec], base_seed=18)
        assert serial[0].result.max_local_skew \
            == pooled[0].result.max_local_skew
        assert serial[0].result.max_global_skew \
            == pooled[0].result.max_global_skew


class TestResilience:
    """The physics behind T18: deadband absorption and adaptive
    dominance."""

    def run_ft(self, adversary=None, amplitude=0.0):
        cell = ft_cell(rounds=40)
        if adversary is not None:
            cell = cell.adversarial(adversary, amplitude=amplitude)
        return run_cell(cell.engine("vectorized")
                        .build()).result.max_local_skew

    def test_sub_deadband_injection_absorbed_bitwise(self):
        # Lies below 2*kappa - slack cannot flip a trigger: the run is
        # bit-identical to the fault-free one, not merely close.
        assert self.run_ft("equivocate", 0.5 * FT.kappa) \
            == self.run_ft()

    def test_adaptive_dominates_static_at_equal_budget(self):
        amplitude = 2.5 * FT.kappa
        static = max(self.run_ft(name, amplitude)
                     for name in ("silent", "equivocate",
                                  "fast_clock"))
        assert self.run_ft("greedy", amplitude) >= static

    def test_challenge_injection_stays_in_envelope(self):
        from repro.analysis.bounds import resilience_bound

        amplitude = 2.5 * FT.kappa
        baseline = self.run_ft()
        skew = self.run_ft("greedy", amplitude)
        envelope = resilience_bound(
            amplitude, kappa=FT.kappa, slack=FT.delta_trigger,
            correction=FT.mu * FT.round_length)
        assert skew - baseline <= envelope * (1 + 1e-9)
