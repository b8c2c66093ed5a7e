"""Tests for the analysis layer: metrics, sampling, traces."""

import pytest

from repro.analysis.metrics import (
    accumulate_grouped,
    cluster_extrema,
    pulse_diameters,
    unanimity_by_round,
)
from repro.analysis.sampling import SkewSampler
from repro.analysis.traces import ClockTraceRecorder, difference_series
from repro.errors import ConfigError
from repro.sim import Simulator


class TestClusterExtrema:
    def test_cluster_clock_is_midpoint(self):
        ext = cluster_extrema({1: 2.0, 2: 6.0, 3: 4.0})
        assert ext.cluster_clock == pytest.approx(4.0)
        assert ext.spread == pytest.approx(4.0)

    def test_single_member(self):
        ext = cluster_extrema({1: 3.0})
        assert ext.cluster_clock == 3.0
        assert ext.spread == 0.0


class TestComputeSnapshot:
    def test_known_values(self):
        values = [(0, [0.0, 1.0]), (1, [4.0, 5.0])]
        edge_skews = {}
        global_skew, intra, local_cluster, local_node = (
            accumulate_grouped(values, [(0, 1)], edge_out=edge_skews))
        assert global_skew == pytest.approx(5.0)
        assert intra == pytest.approx(1.0)
        # Cluster clocks: 0.5 and 4.5.
        assert local_cluster == pytest.approx(4.0)
        # Node-level: max(1-4, 5-0) = 5.
        assert local_node == pytest.approx(5.0)
        assert edge_skews[(0, 1)] == pytest.approx(4.0)

    def test_empty_input(self):
        assert accumulate_grouped([], []) == (0.0, 0.0, 0.0, 0.0)

    def test_edges_with_missing_cluster_skipped(self):
        edge_skews = {}
        metrics = accumulate_grouped([(0, [0.0]), (1, [])], [(0, 1)],
                                     edge_out=edge_skews)
        assert metrics[2] == 0.0
        assert edge_skews == {}


class TestPulseDiameters:
    def test_diameters(self):
        log = {(0, 1): [(0, 1.0), (1, 1.4), (2, 1.2)],
               (0, 2): [(0, 5.0)]}
        table = pulse_diameters(log)
        assert table[(0, 1)] == pytest.approx(0.4)
        assert table[(0, 2)] == 0.0

    def test_empty(self):
        assert pulse_diameters({}) == {}


class TestUnanimity:
    def test_unanimous_round(self):
        logs = {0: [(1, 0), (2, 1)], 1: [(1, 0), (2, 1)]}
        result = unanimity_by_round(logs)
        assert result[1] == (True, 0)
        assert result[2] == (True, 1)

    def test_split_round(self):
        logs = {0: [(1, 0)], 1: [(1, 1)]}
        assert unanimity_by_round(logs)[1] == (False, -1)

    def test_incomplete_round_omitted(self):
        logs = {0: [(1, 0), (2, 0)], 1: [(1, 0)]}
        result = unanimity_by_round(logs)
        assert 1 in result
        assert 2 not in result


class TestSkewSampler:
    def make_sampler(self, values, interval=1.0, **kwargs):
        sim = Simulator()
        sampler = SkewSampler(sim, interval, lambda: values, [(0, 1)],
                              **kwargs)
        return sim, sampler

    def test_running_maxima(self):
        values = [(0, [0.0]), (1, [3.0])]
        sim, sampler = self.make_sampler(values)
        sampler.start()
        sim.run(until=5.0)
        assert sampler.maxima.samples == 6  # t=0..5
        assert sampler.maxima.global_skew == pytest.approx(3.0)

    def test_series_recording(self):
        values = [(0, [0.0])]
        sim, sampler = self.make_sampler(values, record_series=True)
        sampler.start()
        sim.run(until=3.0)
        assert len(sampler.series) == 4

    def test_edge_tracking(self):
        values = [(0, [0.0]), (1, [2.0])]
        sim, sampler = self.make_sampler(values, track_edges=True)
        sampler.start()
        sim.run(until=1.0)
        assert sampler.maxima.edge_maxima[(0, 1)] == pytest.approx(2.0)

    def test_stop(self):
        values = [(0, [0.0])]
        sim, sampler = self.make_sampler(values)
        sampler.start()
        sim.run(until=1.0)
        sampler.stop()
        sim.run(until=10.0)
        assert sampler.maxima.samples == 2

    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            self.make_sampler([], interval=0.0)

    def test_double_start(self):
        sim, sampler = self.make_sampler([(0, [0.0])])
        sampler.start()
        with pytest.raises(ConfigError):
            sampler.start()
        # An explicit stop() allows a deliberate restart.
        sampler.stop()
        sampler.start()
        assert sampler.maxima.samples == 2

    def test_open_ended_form_drops_a_tick_drifted_past_the_horizon(self):
        # 0.1 accumulated 3 times drifts to 0.30000000000000004 > 0.3,
        # so run(until=0.3) never fires the third tick; the systems
        # take a final sample_now() at the horizon instead.
        sim, sampler = self.make_sampler([(0, [0.0]), (1, [1.0])],
                                         interval=0.1)
        sampler.start()
        sim.run(until=0.3)
        assert sampler.maxima.samples == 3  # final tick drifted past


class TestTraces:
    def test_recorder_samples_on_cadence(self):
        sim = Simulator()
        recorder = ClockTraceRecorder(sim, interval=1.0)
        recorder.watch("wall", lambda: sim.now)
        recorder.start()
        sim.run(until=3.0)
        assert recorder.trace("wall").values() == [0.0, 1.0, 2.0, 3.0]

    def test_offsets_from_time(self):
        sim = Simulator()
        recorder = ClockTraceRecorder(sim, interval=1.0)
        recorder.watch("shifted", lambda: sim.now + 2.0)
        recorder.start()
        sim.run(until=2.0)
        offsets = recorder.trace("shifted").offsets_from_time()
        assert all(v == pytest.approx(2.0) for _, v in offsets)

    def test_difference_and_skew_series(self):
        sim = Simulator()
        recorder = ClockTraceRecorder(sim, interval=1.0)
        recorder.watch("a", lambda: sim.now * 2.0)
        recorder.watch("b", lambda: sim.now)
        recorder.start()
        sim.run(until=2.0)
        diff = difference_series(recorder.trace("a"),
                                 recorder.trace("b"))
        assert diff == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        skew = recorder.skew_series("b", "a")
        assert skew[-1] == (2.0, pytest.approx(2.0))

    def test_mismatched_traces_rejected(self):
        from repro.analysis.traces import Trace

        a = Trace("a", [(0.0, 1.0)])
        b = Trace("b", [(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ConfigError):
            difference_series(a, b)

    def test_duplicate_name_rejected(self):
        sim = Simulator()
        recorder = ClockTraceRecorder(sim, interval=1.0)
        recorder.watch("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            recorder.watch("x", lambda: 0.0)

    def test_watch_system_nodes(self):
        from repro.core.params import Parameters
        from repro.core.system import FtgcsSystem
        from repro.topology import ClusterGraph

        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        system = FtgcsSystem.build(ClusterGraph.line(2), params, seed=1)
        recorder = ClockTraceRecorder(system.sim,
                                      interval=params.round_length / 2)
        recorder.watch_system_nodes(system)
        recorder.start()
        system.run_rounds(2)
        assert len(recorder.names()) == 8
        for name in recorder.names():
            assert len(recorder.trace(name).samples) >= 3

    def test_to_csv(self, tmp_path):
        sim = Simulator()
        recorder = ClockTraceRecorder(sim, interval=1.0)
        recorder.watch("wall", lambda: sim.now)
        recorder.start()
        sim.run(until=2.0)
        path = tmp_path / "traces.csv"
        recorder.to_csv(str(path))
        content = path.read_text()
        assert content.splitlines()[0] == "time,wall"
        assert len(content.splitlines()) == 4

    def test_empty_trace_max_raises(self):
        from repro.analysis.traces import Trace

        with pytest.raises(ConfigError):
            Trace("empty").max_value()


class TestSampleBuffer:
    def test_append_and_read_back(self):
        from repro.analysis.sampling import SAMPLE_COLUMNS, SampleBuffer

        buffer = SampleBuffer(capacity=2)
        for i in range(5):  # forces growth past the initial capacity
            buffer.append(float(i), 1.0 + i, 2.0 + i, 3.0 + i, 4.0 + i)
        assert len(buffer) == 5
        assert buffer.row(3) == (3.0, 4.0, 5.0, 6.0, 7.0)
        assert buffer.column("time") == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert tuple(SAMPLE_COLUMNS)[0] == "time"

    def test_validation(self):
        from repro.analysis.sampling import SampleBuffer

        with pytest.raises(ConfigError):
            SampleBuffer(capacity=0)
        buffer = SampleBuffer()
        with pytest.raises(ConfigError):
            buffer.column("nope")
        with pytest.raises(IndexError):
            buffer.row(0)


class TestBufferedSeries:
    def test_series_matches_eager_snapshots(self):
        values = [(0, [0.0, 1.0]), (1, [4.0])]
        sim = Simulator()
        sampler = SkewSampler(sim, 1.0, lambda: values, [(0, 1)],
                              record_series=True, track_edges=True)
        sampler.start()
        sim.run(until=3.0)
        sampler.sample_now()  # a final sample, as the systems take
        # Global 4, intra 1, cluster clocks 0.5 and 4, node max(4-0).
        assert len(sampler.series) == 5
        for i, snap in enumerate(sampler.series):
            assert snap.time == pytest.approx(float(min(i, 3)))
            assert (snap.global_skew, snap.max_intra_cluster,
                    snap.max_local_cluster, snap.max_local_node) \
                == (4.0, 1.0, 3.5, 4.0)
            assert snap.edge_skews == {(0, 1): 3.5}
        assert sampler.maxima.samples == 5
        assert sampler.maxima.edge_maxima == {(0, 1): 3.5}

    def test_accumulate_grouped_matches_snapshot(self):
        groups = [(0, [0.0, 2.0]), (1, [5.0]), (2, [])]
        edges = [(0, 1), (1, 2)]
        edge_out = {}
        maxima = {}
        metrics = accumulate_grouped(groups, edges, edge_maxima=maxima,
                                     edge_out=edge_out)
        sampler = SkewSampler(Simulator(), 1.0, lambda: groups, edges,
                              record_series=True, track_edges=True)
        sampler.sample_now()
        snap, = sampler.series
        assert metrics == (snap.global_skew, snap.max_intra_cluster,
                           snap.max_local_cluster, snap.max_local_node) \
            == (5.0, 2.0, 4.0, 5.0)
        assert edge_out == snap.edge_skews == {(0, 1): 4.0}
        assert maxima == sampler.maxima.edge_maxima == {(0, 1): 4.0}


class TestLogLogFit:
    def test_hand_computed_exact_power_law(self):
        import math

        from repro.analysis.metrics import log_log_fit

        # y = 3x exactly: slope 1, intercept ln 3, zero residual.
        slope, intercept, residual = log_log_fit([1.0, 2.0, 4.0],
                                                 [3.0, 6.0, 12.0])
        assert slope == pytest.approx(1.0)
        assert intercept == pytest.approx(math.log(3.0))
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_points(self):
        import math

        from repro.analysis.metrics import log_log_fit

        # Two points define the line exactly: slope = ln(8/2)/ln(4/1).
        slope, intercept, residual = log_log_fit([1.0, 4.0], [2.0, 8.0])
        assert slope == pytest.approx(math.log(4.0) / math.log(4.0))
        assert intercept == pytest.approx(math.log(2.0))
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_known_residual(self):
        import math

        from repro.analysis.metrics import log_log_fit

        # Symmetric deviation in log space: ln y = (0, ln 4, 0) at
        # ln x = (ln 1, ln 2, ln 4)... computed by hand: with
        # y = (1, 4, 1), x = (1, 2, 4) the best fit has slope 0 and
        # intercept mean(ln y) = ln(4)/3.
        slope, intercept, residual = log_log_fit([1.0, 2.0, 4.0],
                                                 [1.0, 4.0, 1.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(4.0) / 3.0)
        expected_rms = math.sqrt(
            (2 * (math.log(4.0) / 3.0) ** 2
             + (2.0 * math.log(4.0) / 3.0) ** 2) / 3.0)
        assert residual == pytest.approx(expected_rms)

    def test_sums_are_correctly_rounded(self):
        import functools
        import math
        import operator

        from repro.analysis.metrics import log_log_fit

        # Builtin sum is compensated from Python 3.12 on and naive
        # before it; the fit must give the same bits on every version.
        xs, ys = [2.0, 4.0, 8.0, 16.0], [0.1, 0.2, 0.3, 0.7]
        lx = [math.log(x) for x in xs]
        ly = [math.log(y) for y in ys]
        naive = functools.reduce(operator.add, lx)
        assert naive != math.fsum(lx)  # the inputs tell the two apart
        n = len(xs)
        mean_x, mean_y = math.fsum(lx) / n, math.fsum(ly) / n
        slope = (math.fsum((x - mean_x) * (y - mean_y)
                           for x, y in zip(lx, ly))
                 / math.fsum((x - mean_x) ** 2 for x in lx))
        intercept = mean_y - slope * mean_x
        residual = math.sqrt(math.fsum(
            (y - (intercept + slope * x)) ** 2
            for x, y in zip(lx, ly)) / n)
        assert log_log_fit(xs, ys) == (slope, intercept, residual)

    def test_validation(self):
        from repro.analysis.metrics import log_log_fit

        with pytest.raises(ValueError):
            log_log_fit([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            log_log_fit([1.0, -1.0], [1.0, 2.0])
        slope, intercept, residual = log_log_fit([2.0, 2.0], [1.0, 3.0])
        import math

        assert math.isnan(slope) and math.isnan(residual)
