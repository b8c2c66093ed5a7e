"""Tests for the unified SyncProtocol / SystemBuilder surface."""

import pytest

from repro.baselines.gcs_single import GcsParams
from repro.baselines.lynch_welch import LynchWelchSystem
from repro.baselines.srikanth_toueg import StParams
from repro.core.protocol import (
    PROTOCOLS,
    ProtocolRunResult,
    Reads,
    SyncProtocol,
    SystemBuilder,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.core.system import RunResult
from repro.errors import ConfigError
from repro.harness.runner import default_params, run_scenario
from repro.harness.serialize import content_hash
from repro.harness.sweep import ScenarioSpec, run_cell
from repro.topology.cluster_graph import ClusterGraph
from repro.topology.schedule import EdgeChurnSchedule


class TestRegistry:
    def test_builtins_registered(self):
        # Subset check: examples/tests may register extra protocols
        # in-process.
        assert {"ftgcs", "gcs_single", "lynch_welch", "master_slave",
                "srikanth_toueg"} <= set(protocol_names())

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ConfigError) as err:
            get_protocol("paxos")
        assert "ftgcs" in str(err.value)

    def test_duplicate_registration_rejected(self):
        get_protocol("ftgcs")  # force builtin load

        with pytest.raises(ConfigError):
            register_protocol(PROTOCOLS["ftgcs"])

    def test_non_protocol_rejected(self):
        with pytest.raises(ConfigError):
            register_protocol(int)

    def test_unnamed_protocol_rejected(self):
        class Nameless(SyncProtocol):
            pass

        with pytest.raises(ConfigError):
            register_protocol(Nameless)


class TestBuilderValidation:
    def test_unknown_protocol_name(self):
        with pytest.raises(ConfigError):
            SystemBuilder("quantum")

    def test_garbage_protocol_rejected(self):
        with pytest.raises(ConfigError):
            SystemBuilder(42)

    def test_missing_graph_rejected(self):
        with pytest.raises(ConfigError):
            SystemBuilder("ftgcs").params(default_params()).build()

    def test_missing_params_rejected(self):
        with pytest.raises(ConfigError):
            (SystemBuilder("ftgcs").topology(ClusterGraph.line(2))
             .build())

    def test_faults_need_capability(self):
        params = default_params(f=0)
        with pytest.raises(ConfigError):
            (SystemBuilder("master_slave")
             .topology(ClusterGraph.line(2)).params(params)
             .adversary("equivocate").build())

    def test_dynamic_needs_capability(self):
        params = default_params(f=0)
        schedule = EdgeChurnSchedule(ClusterGraph.line(2),
                                     interval=10.0, churn=0.5)
        with pytest.raises(ConfigError):
            (SystemBuilder("master_slave").topology(schedule)
             .params(params).build())

    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError):
            SystemBuilder("ftgcs").topology("line")


class TestFtgcsEquivalence:
    def test_matches_legacy_run_scenario(self):
        """The unified path reproduces run_scenario bit-for-bit."""
        params = default_params(f=1)
        graph = ClusterGraph.line(3)
        result = (SystemBuilder("ftgcs").topology(graph).params(params)
                  .rounds(3).adversary("equivocate").seed(7).build()
                  .run())

        from repro.faults import EquivocateAdversary

        legacy = run_scenario(
            graph, params, rounds=3, seed=7,
            strategy_factory=lambda _n: EquivocateAdversary())
        assert isinstance(result, ProtocolRunResult)
        assert isinstance(result.detail, RunResult)
        assert result.max_global_skew == legacy.result.max_global_skew
        assert result.messages_sent == legacy.result.messages_sent
        assert result.events_processed == legacy.result.events_processed
        assert result.series == legacy.result.series

    def test_rounds_validated(self):
        system = (SystemBuilder("ftgcs").topology(ClusterGraph.line(1))
                  .params(default_params()).rounds(0).build())
        with pytest.raises(ConfigError):
            system.run()

    def test_system_not_restartable(self):
        system = (SystemBuilder("ftgcs").topology(ClusterGraph.line(1))
                  .params(default_params()).rounds(1).build())
        system.run()
        with pytest.raises(ConfigError):
            system.start()


class TestLynchWelch:
    def test_graph_free_build(self):
        result = (SystemBuilder("lynch_welch")
                  .params(default_params(f=1)).rounds(3).seed(2)
                  .build().run())
        assert result.protocol == "lynch_welch"
        assert result.detail.diameter == 0

    def test_system_class_rejects_multi_cluster(self):
        with pytest.raises(ConfigError):
            LynchWelchSystem(default_params(), cluster_graph=
                             ClusterGraph.line(2))

    def test_matches_single_cluster_ftgcs(self):
        """LW is the single-cluster FTGCS system, event for event."""
        params = default_params(f=1)
        lw = (SystemBuilder("lynch_welch").params(params).rounds(3)
              .seed(5).build().run())
        ft = (SystemBuilder("ftgcs").topology(ClusterGraph.line(1))
              .params(params).rounds(3).seed(5).build().run())
        assert lw.series == ft.series
        assert lw.messages_sent == ft.messages_sent


class TestBaselineProtocols:
    def test_master_slave(self):
        params = default_params(f=0)
        result = (SystemBuilder("master_slave")
                  .topology(ClusterGraph.line(3)).params(params)
                  .rounds(3).seed(4).payload(jump=True).build().run())
        assert result.protocol == "master_slave"
        assert result.max_global_skew >= 0.0
        assert result.detail.samples > 0  # SkewMaxima

    def test_gcs_single(self):
        result = (SystemBuilder("gcs_single")
                  .topology(ClusterGraph.ring(4))
                  .payload(params=GcsParams.default(), until=100.0)
                  .seed(3).build().run())
        assert result.protocol == "gcs_single"
        assert result.series  # (t, local, global) samples
        assert result.detail == result.series

    def test_gcs_single_missing_payload(self):
        builder = (SystemBuilder("gcs_single")
                   .topology(ClusterGraph.ring(4)))
        with pytest.raises(ConfigError):
            builder.build().run()

    def test_srikanth_toueg(self):
        params = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1, period=10.0)
        result = (SystemBuilder("srikanth_toueg")
                  .payload(params=params, rounds=3).seed(6)
                  .build().run())
        assert result.protocol == "srikanth_toueg"
        assert result.max_global_skew == result.detail

    def test_srikanth_toueg_honors_until(self):
        # run(until=X) must bound the measurement window, not the
        # rounds-derived horizon.
        params = StParams(n=4, f=1, rho=1e-2, d=1.0, u=0.1, period=10.0)

        def skew_at(until):
            return (SystemBuilder("srikanth_toueg")
                    .payload(params=params, rounds=50).seed(6)
                    .build().run(until=until).detail)

        assert skew_at(20.0) != skew_at(510.0)

    def test_srikanth_toueg_missing_params(self):
        with pytest.raises(ConfigError):
            SystemBuilder("srikanth_toueg").build().run()


class TestUnreadKnobsRejected:
    """A ``config`` or ``payload`` key an event adapter does not read
    fails the build instead of being dropped, as on the vectorized
    engine: the FTGCS family reads no payload and only
    ``SystemConfig`` fields as config, the baselines read no config."""

    FT = default_params(f=1)
    BOGUS = {"bogus": 1}
    #: protocol -> (line length or None, params, config, payload)
    CASES = {
        "ftgcs": (3, FT, {}, BOGUS),
        "lynch_welch": (None, FT, {}, BOGUS),
        "master_slave": (3, default_params(f=0), BOGUS, {}),
        "gcs_single": (3, None, BOGUS,
                       {"params": GcsParams.default(), "until": 20.0}),
        "srikanth_toueg": (None, None, BOGUS, {"params": StParams(
            n=4, f=1, rho=1e-4, d=1.0, u=0.1, period=10.0)}),
    }

    @pytest.mark.parametrize("protocol", sorted(CASES))
    def test_rejected_by_builder_and_worker(self, protocol):
        self.assert_rejected(protocol, *self.CASES[protocol])

    @pytest.mark.parametrize("protocol", ["ftgcs", "lynch_welch"])
    def test_unknown_config_key_rejected(self, protocol):
        # The FTGCS family reads SystemConfig fields only; an unknown
        # key is a ConfigError, not SystemConfig's TypeError.
        length, params, _, _ = self.CASES[protocol]
        self.assert_rejected(protocol, length, params, self.BOGUS, {})

    @pytest.mark.parametrize("protocol", ["master_slave", "gcs_single",
                                          "srikanth_toueg"])
    def test_unknown_payload_key_rejected(self, protocol):
        # Each baseline declares the payload keys it reads; an unknown
        # one is a ConfigError, not the system constructor's TypeError.
        length, params, _, payload = self.CASES[protocol]
        self.assert_rejected(protocol, length, params, {},
                             {**payload, **self.BOGUS})

    def assert_rejected(self, protocol, length, params, config, payload):
        builder = (SystemBuilder(protocol).params(params).rounds(2)
                   .configure(**config).payload(**payload))
        if length is not None:
            builder.topology(ClusterGraph.line(length))
        with pytest.raises(ConfigError, match="event engine.*bogus"):
            builder.build()
        spec = ScenarioSpec(
            kind="protocol", protocol=protocol,
            graph="line" if length else "",
            graph_args=(length,) if length else (), params=params,
            rounds=2, config=dict(config), payload=dict(payload), seed=1)
        with pytest.raises(ConfigError, match="event engine.*bogus"):
            run_cell(spec)


class TestSampleInterval:
    """The baselines' ``sample_interval`` payload key: read on the
    event engine, where zero is refused as ``ftgcs`` refuses it, and
    refused on the vectorized engine, whose round models probe once
    per round."""

    #: protocol -> (line length or None, payload)
    CASES = {
        "gcs_single": (6, {"params": GcsParams.default(),
                           "until": 200.0}),
        "srikanth_toueg": (None, {"params": StParams(
            n=4, f=1, rho=1e-4, d=1.0, u=0.1, period=10.0)}),
    }

    def builder(self, protocol, sample_interval):
        length, payload = self.CASES[protocol]
        builder = SystemBuilder(protocol).payload(
            **payload, sample_interval=sample_interval).seed(1)
        if length is not None:
            builder.topology(ClusterGraph.line(length))
        return builder

    @pytest.mark.parametrize("protocol", sorted(CASES))
    def test_vectorized_engine_refuses_it(self, protocol):
        builder = self.builder(protocol, 50.0).engine("vectorized")
        with pytest.raises(ConfigError, match=(
                r"vectorized engine does not accept payload key\(s\) "
                r"\['sample_interval'\]")):
            builder.build()

    @pytest.mark.parametrize("protocol", sorted(CASES))
    def test_zero_is_refused_on_the_event_engine(self, protocol):
        with pytest.raises(ConfigError, match="interval must be positive"):
            self.builder(protocol, 0.0).build().run()

    def test_ftgcs_refuses_zero_the_same_way(self):
        builder = (SystemBuilder("ftgcs").topology(ClusterGraph.line(3))
                   .params(default_params(f=1))
                   .configure(sample_interval=0.0))
        with pytest.raises(ConfigError, match="interval must be positive"):
            builder.build().run()


class TestCustomProtocol:
    def test_register_build_run(self):
        class CountdownProtocol(SyncProtocol):
            name = "test_countdown"
            needs_graph = False
            needs_params = False
            reads = Reads(payload=("events",))

            def build_nodes(self, ctx):
                from repro.sim.kernel import Simulator

                self.sim = Simulator()
                self.fired = []
                for i in range(ctx.payload.get("events", 3)):
                    self.sim.call_at(float(i + 1), self.fired.append, i)

            def start(self):
                pass

            def horizon(self):
                return 10.0

            def collect(self):
                return ProtocolRunResult(
                    protocol=self.name, seed=self.ctx.seed,
                    events_processed=self.sim.events_processed,
                    detail=list(self.fired))

        register_protocol(CountdownProtocol)
        try:
            result = (SystemBuilder("test_countdown")
                      .payload(events=4).seed(1).build().run())
            assert result.detail == [0, 1, 2, 3]
            assert result.events_processed == 4
        finally:
            del PROTOCOLS["test_countdown"]

    def test_vectorized_flag_without_a_round_model_is_refused(self):
        class Unported(SyncProtocol):
            name = "test_unported"
            needs_graph = False
            needs_params = False
            supports_vectorized = True

        with pytest.raises(ConfigError, match="has no vectorized port"):
            SystemBuilder(Unported).engine("vectorized").build()


class TestMessagesDropped:
    """Satellite regression: Network.messages_dropped is plumbed into
    ProtocolRunResult uniformly across all five adapters."""

    def test_static_runs_report_zero_for_every_adapter(self):
        params = default_params(f=1)
        runs = [
            (SystemBuilder("ftgcs").topology(ClusterGraph.line(2))
             .params(params).rounds(2).seed(1).build()),
            (SystemBuilder("lynch_welch").params(params).rounds(2)
             .seed(1).build()),
            (SystemBuilder("master_slave")
             .topology(ClusterGraph.line(3))
             .params(default_params(f=0)).rounds(2).seed(1)
             .payload(jump=True).build()),
            (SystemBuilder("gcs_single").topology(ClusterGraph.ring(4))
             .payload(params=GcsParams.default(), until=50.0).seed(1)
             .build()),
            (SystemBuilder("srikanth_toueg")
             .payload(params=StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.1,
                                      period=10.0), rounds=2)
             .seed(1).build()),
        ]
        for system in runs:
            result = system.run()
            assert result.messages_dropped == 0
            # The field mirrors the live network counter exactly.
            assert (result.messages_dropped
                    == system.protocol.network.messages_dropped)

    def test_dynamic_runs_report_drops(self):
        params = default_params(f=1)
        for name, build in (
            ("ftgcs", lambda s: (SystemBuilder("ftgcs").topology(s)
                                 .params(params).rounds(4).seed(2)
                                 .build())),
            ("gcs_single", lambda s: (SystemBuilder("gcs_single")
                                      .topology(s)
                                      .payload(params=GcsParams.default(),
                                               until=300.0)
                                      .seed(2).build())),
        ):
            schedule = EdgeChurnSchedule(
                ClusterGraph.line(3),
                interval=(params.round_length if name == "ftgcs"
                          else 25.0),
                churn=0.5)
            system = build(schedule)
            result = system.run()
            assert result.messages_dropped > 0
            assert (result.messages_dropped
                    == system.protocol.network.messages_dropped)

    def test_link_down_split_matches_legacy_sum(self):
        """messages_dropped = dropped_link_down + dropped_loss +
        dropped_in_flight; edge churn alone populates only the
        link-down bucket."""
        params = default_params(f=1)
        schedule = EdgeChurnSchedule(ClusterGraph.line(3),
                                     interval=params.round_length,
                                     churn=0.5)
        system = (SystemBuilder("ftgcs").topology(schedule)
                  .params(params).rounds(4).seed(2).build())
        result = system.run()
        net = system.protocol.network
        assert result.dropped_link_down > 0
        assert result.messages_lost == 0
        assert (net.messages_dropped == net.dropped_link_down
                + net.dropped_loss + net.dropped_in_flight)
        assert result.dropped_link_down == net.dropped_link_down

    def test_seeded_lossy_run_loses_messages(self):
        """Satellite regression: a seeded lossy run reports a nonzero
        messages_lost through the uniform result surface."""
        params = default_params(f=1)
        system = (SystemBuilder("ftgcs")
                  .topology(ClusterGraph.line(2)).params(params)
                  .rounds(3).seed(5)
                  .lossy(kind="bernoulli", rate=0.1).build())
        result = system.run()
        assert result.messages_lost > 0
        assert result.messages_lost == \
            system.protocol.network.dropped_loss
        # Loss participates in the legacy aggregate too.
        assert result.messages_dropped >= result.messages_lost


class TestFirstContactCapability:
    def test_flags(self):
        assert get_protocol("ftgcs").supports_first_contact
        for name in ("lynch_welch", "master_slave", "gcs_single",
                     "srikanth_toueg"):
            assert not get_protocol(name).supports_first_contact

    def test_builder_validates_eagerly(self):
        with pytest.raises(ConfigError) as err:
            (SystemBuilder("gcs_single").topology(ClusterGraph.ring(4))
             .payload(params=GcsParams.default(), until=10.0)
             .first_contact().build())
        assert "first-contact" in str(err.value)

    def test_first_contact_reaches_system_config(self):
        params = default_params(f=1)
        system = (SystemBuilder("ftgcs").topology(ClusterGraph.line(2))
                  .params(params).rounds(1).seed(1).first_contact()
                  .build())
        assert system.protocol.system.config.dynamic_estimators


class TestResumedRunKeepsResults:
    """A returned result is a snapshot: extending the run with
    ``System.run(until=later)`` leaves it as it was."""

    FT = default_params(f=1)
    BUILDERS = {
        "ftgcs": lambda ft: (SystemBuilder("ftgcs")
                             .topology(ClusterGraph.line(4)).params(ft)
                             .rounds(3)),
        "lynch_welch": lambda ft: (SystemBuilder("lynch_welch")
                                   .params(ft).rounds(3)),
        "master_slave": lambda ft: (SystemBuilder("master_slave")
                                    .topology(ClusterGraph.line(4))
                                    .params(ft).rounds(3)
                                    .payload(record_series=True,
                                             track_edges=True)),
        "gcs_single": lambda ft: (SystemBuilder("gcs_single")
                                  .topology(ClusterGraph.line(4))
                                  .payload(params=GcsParams.default(),
                                           until=100.0)),
        "srikanth_toueg": lambda ft: (SystemBuilder("srikanth_toueg")
                                      .payload(params=StParams(
                                          n=4, f=1, rho=1e-2, d=1.0,
                                          u=0.1, period=10.0),
                                          rounds=3)),
    }

    @pytest.mark.parametrize("protocol", sorted(BUILDERS))
    def test_first_result_unchanged_by_a_later_run(self, protocol):
        system = self.BUILDERS[protocol](self.FT).seed(2).build()
        first = system.run()
        before = content_hash(first)
        second = system.run(until=2.0 * system.protocol.horizon())
        assert content_hash(second) != before  # the run did go on
        assert content_hash(first) == before


class TestReannounceCapSurface:
    def test_capped_protocol_run_reports_hits(self):
        from repro.topology.schedule import build_schedule

        params = default_params(rho=1e-4, d=1.0, u=0.05, f=1)
        graph = ClusterGraph.line(4)
        schedule = build_schedule("adversarial_sweep", graph,
                                  interval=2 * params.round_length)
        system = (SystemBuilder("ftgcs").topology(schedule)
                  .params(params).rounds(14).seed(7).first_contact()
                  .configure(enable_max_estimate=True,
                             max_estimate_unit=params.kappa / 4.0,
                             max_reannounce_levels=1)
                  .build())
        result = system.run()
        # The cut sweep keeps re-upping edges after the announced
        # level has grown past the cap of 1, so every bring-up is a
        # capped (undercount-sound) re-announcement.
        assert result.reannounce_cap_hits > 0
        assert result.reannounce_cap_hits == \
            result.detail.reannounce_cap_hits

    def test_static_runs_report_zero(self):
        params = default_params(rho=1e-4, d=1.0, u=0.05, f=1)
        system = (SystemBuilder("ftgcs")
                  .topology(ClusterGraph.line(2)).params(params)
                  .rounds(3).seed(7).build())
        result = system.run()
        assert result.reannounce_cap_hits == 0
