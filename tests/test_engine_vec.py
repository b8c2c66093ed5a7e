"""The vectorized synchronous-round engine (`repro.engine_vec`).

Degenerate topologies (edgeless, single node), the CSR layout and
segment reductions against per-node loops, set-up without per-vertex
adjacency lists, faulty-node vectors at the f-bound, the `engine` spec
field's serialization/cache behavior, and the builder's eager
rejection of event-only features.  The
cross-engine skew agreement itself lives in
``tests/test_equivalence.py``.
"""

import math
import random
from itertools import chain

import pytest

np = pytest.importorskip("numpy")

from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.core.params import Parameters
from repro.core.protocol import ENGINES, SystemBuilder
from repro.engine_vec.csr import CSRAdjacency
from repro.engine_vec.engine import (
    VecStreams,
    fast_trigger_mask,
    slow_trigger_mask,
)
from repro.errors import ConfigError
from repro.harness.scenario import Scenario
from repro.harness.sweep import (
    ScenarioSpec,
    SweepRunner,
    run_cell,
    spec_hash,
)
from repro.service.store import ResultStore
from repro.topology import ClusterGraph, EdgeChurnSchedule
from repro.topology import graphs
from test_topology import NAMED_GRAPHS

GCS = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                kappa=0.3, slack=0.1)


def vec_gcs(graph, until=100.0, seed=3):
    return (SystemBuilder("gcs_single").topology(graph)
            .payload(params=GCS, until=until)
            .engine("vectorized").seed(seed).build())


class TestDegenerateTopologies:
    def test_single_node_edgeless_graph_runs(self):
        result = vec_gcs(ClusterGraph.line(1)).run()
        assert result.max_local_skew == 0.0
        assert result.max_global_skew == 0.0
        assert result.detail["nodes"] == 1

    def test_edgeless_node_never_triggers(self):
        # Degree 0 everywhere: segment reductions see only empty
        # segments, so the masked fills must never read as estimates.
        result = vec_gcs(ClusterGraph.line(1), until=1000.0).run()
        assert result.detail["rounds"] == 100
        assert result.max_global_skew == 0.0

    def test_single_node_srikanth_toueg_drifts_by_d_per_round(self):
        p = StParams(n=1, f=0, rho=0.0, d=1.0, u=0.0, period=10.0)
        result = (SystemBuilder("srikanth_toueg")
                  .payload(params=p, rounds=5)
                  .engine("vectorized").seed(0).build().run())
        assert result.max_global_skew == 0.0

    def test_csr_empty_segments_masked(self):
        # One isolated node next to a connected pair.
        csr = CSRAdjacency(ClusterGraph(3, [(1, 2)], name="pair+iso"))
        values = np.array([5.0, 1.0, 9.0])
        up = csr.segment_max(csr.gather(values))
        down = csr.segment_min(csr.gather(values))
        assert up[0] == -math.inf and down[0] == math.inf
        assert up[1] == 9.0 and down[2] == 1.0
        gamma = fast_trigger_mask(up - values, values - down,
                                  kappa=0.3, slack=0.1)
        assert not gamma[0]  # masked fills never fire a trigger

    def test_csr_trailing_isolated_vertex(self):
        # Node 2 sees nodes 0 and 1; node 3 is isolated.  A trailing
        # empty row must not shorten the segment before it.
        csr = CSRAdjacency(ClusterGraph(4, [(0, 2), (1, 2)]))
        values = np.array([5.0, 1.0, 9.0, 3.0])
        assert csr.segment_min(csr.gather(values)).tolist() \
            == [9.0, 9.0, 1.0, math.inf]
        assert csr.segment_max(csr.gather(values)).tolist() \
            == [9.0, 9.0, 5.0, -math.inf]


def random_graph_with_isolated(seed):
    """Random edges over every vertex but the first, a middle and the
    last one, listed in random order and orientation."""
    rng = random.Random(seed)
    n = rng.randrange(5, 40)
    isolated = {0, n // 2, n - 1}
    live = [v for v in range(n) if v not in isolated]
    pairs = {tuple(sorted(rng.sample(live, 2)))
             for _ in range(rng.randrange(1, 3 * n))}
    edges = [(b, a) if rng.random() < 0.5 else (a, b)
             for a, b in sorted(pairs, key=lambda _: rng.random())]
    return ClusterGraph(n, edges, name=f"random-isolated-{seed}")


#: Graphs with isolated vertices take the reductions' fill-and-mask
#: path; the caterpillar and the ring, with every row non-empty, take
#: the path that returns ``reduceat``'s result directly.
CSR_GRAPHS = (
    [random_graph_with_isolated(seed) for seed in range(8)]
    + [ClusterGraph(4, [], name="edgeless"), ClusterGraph.line(1),
       ClusterGraph.caterpillar(6, 4), ClusterGraph.ring(5)])


class TestCSRReference:
    """The CSR view against per-node Python loops over the edge list.

    Slot order fixes every per-slot draw, so it is pinned exactly: node
    ``i`` sees the ``b`` of its ``(i, b)`` edges, then the ``a`` of its
    ``(a, i)`` edges, each in edge-list order.
    """

    @pytest.mark.parametrize("graph", CSR_GRAPHS,
                             ids=lambda graph: graph.name)
    def test_layout_matches_edge_list(self, graph):
        csr = CSRAdjacency(graph)
        edges = graph.edges
        assert csr.edge_a.tolist() == [a for a, _ in edges]
        assert csr.edge_b.tolist() == [b for _, b in edges]
        assert csr.indptr[0] == 0
        assert csr.indptr[-1] == csr.num_slots == 2 * len(edges)
        for i in range(graph.num_clusters):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            expected = ([b for a, b in edges if a == i]
                        + [a for a, b in edges if b == i])
            assert csr.indices[lo:hi].tolist() == expected
            assert csr.row[lo:hi].tolist() == [i] * len(expected)

    @pytest.mark.parametrize("graph", CSR_GRAPHS,
                             ids=lambda graph: graph.name)
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_segment_reductions_match_loop(self, graph, dtype):
        csr = CSRAdjacency(graph)
        values = np.random.default_rng(graph.num_edges).normal(
            0.0, 10.0, csr.num_slots).astype(dtype)
        up = csr.segment_max(values)
        down = csr.segment_min(values, fill=7.5)
        assert up.dtype == down.dtype == np.float64
        for i in range(graph.num_clusters):
            own = values[csr.indptr[i]:csr.indptr[i + 1]].tolist()
            assert up[i] == (max(own) if own else -math.inf)
            assert down[i] == (min(own) if own else 7.5)


def reference_csr(graph):
    """The CSR arrays as built from the tuple list with ``np.fromiter``
    before the graph kept an edge array."""
    n = graph.num_clusters
    edges = graph.edges
    flat = np.fromiter(chain.from_iterable(edges), np.int64,
                       2 * len(edges))
    ea, eb = flat[0::2], flat[1::2]
    src = np.concatenate([ea, eb])
    dst = np.concatenate([eb, ea])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return {"row": src[order], "indices": dst[order], "indptr": indptr,
            "edge_a": ea, "edge_b": eb}


@pytest.mark.parametrize("graph", NAMED_GRAPHS + CSR_GRAPHS,
                         ids=lambda graph: graph.name)
def test_csr_from_edge_array_matches_tuple_build(graph):
    csr = CSRAdjacency(graph)
    for name, expected in reference_csr(graph).items():
        got = getattr(csr, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("protocol", ["gcs_single", "ftgcs"])
def test_vectorized_cell_builds_no_adjacency_lists(monkeypatch, protocol):
    # Set-up of a vectorized cell reads only the edge list: the
    # per-vertex adjacency lists would cost a Python list per node.
    calls = []
    original = graphs.adjacency_from_edges

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(graphs, "adjacency_from_edges", counting)
    scenario = Scenario.on("caterpillar", 5, 4)
    if protocol == "gcs_single":
        scenario = scenario.protocol("gcs_single").payload(
            params=GCS, until=50.0)
    else:
        scenario = scenario.params(
            Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)).rounds(3)
    cell = run_cell(scenario.engine("vectorized").seed(4).build())
    assert cell.result.detail["engine"] == "vectorized"
    assert cell.result.detail["nodes"] == 20
    assert calls == []


@pytest.mark.parametrize("adversary", [None, "greedy"])
@pytest.mark.parametrize("protocol", ["gcs_single", "ftgcs"])
def test_vectorized_cell_builds_no_edge_tuples(monkeypatch, protocol,
                                               adversary):
    # Set-up reads the graph's edge array: the tuple list behind
    # ``edges`` would keep a Python object per edge alive for the run.
    reads = []
    edges = ClusterGraph.edges
    monkeypatch.setattr(ClusterGraph, "edges", property(
        lambda graph: reads.append(graph.name) or edges.fget(graph)))
    scenario = Scenario.on("caterpillar", 5, 4)
    if protocol == "gcs_single":
        scenario = scenario.protocol("gcs_single").payload(
            params=GCS, until=50.0)
    else:
        scenario = scenario.params(
            Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)).rounds(3)
    if adversary is not None:
        scenario = scenario.adversarial(adversary, amplitude=0.1)
    cell = run_cell(scenario.engine("vectorized").seed(4).build())
    assert cell.result.detail["nodes"] == 20
    assert reads == []


def test_adversary_free_cell_is_pinned():
    # The bare 600-node cell of the adversary layer's overhead
    # comparison, 100 rounds: no adversary means no new work, so its
    # skew maxima stay the values the round loop had before that
    # layer existed, bit for bit.
    spec = (Scenario.on("caterpillar", 15, 40).protocol("gcs_single")
            .engine("vectorized")
            .payload(params=GCS, until=100 * GCS.period).seed(42).build())
    (cell,) = SweepRunner(processes=1).run([spec], base_seed=42)
    assert cell.result.max_local_skew == 0.5000000000001137
    assert cell.result.max_global_skew == 0.9999999999992042


class TestFaultyVectors:
    def test_silent_faults_at_f_bound(self):
        # n = 3f + 1 with exactly f silent nodes: the quorum
        # (n - f = 5) still closes every round.
        p = StParams(n=7, f=2, rho=1e-4, d=1.0, u=0.01, period=10.0)
        result = (SystemBuilder("srikanth_toueg")
                  .payload(params=p, rounds=10, silent_faults=2,
                           rate_spread=True)
                  .engine("vectorized").seed(5).build().run())
        assert result.detail["silent_faults"] == 2
        # Correct nodes stay inside the analytic resync envelope.
        assert result.max_global_skew <= 2 * (p.u + p.rho * p.period)

    def test_silent_faults_beyond_f_rejected(self):
        p = StParams(n=7, f=2, rho=0.0, d=1.0, u=0.0, period=10.0)
        builder = (SystemBuilder("srikanth_toueg")
                   .payload(params=p, rounds=3, silent_faults=3)
                   .engine("vectorized").seed(0))
        with pytest.raises(ConfigError, match="silent"):
            builder.build().run()

    def test_lynch_welch_trims_at_f_bound(self):
        params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        result = (SystemBuilder("lynch_welch").params(params)
                  .rounds(8).engine("vectorized").seed(2)
                  .build().run())
        assert result.max_global_skew <= params.intra_skew_bound()


class TestEngineSelection:
    def test_engines_constant(self):
        assert ENGINES == ("event", "vectorized")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            SystemBuilder("gcs_single").engine("cuda")

    def test_master_slave_not_vectorized(self):
        builder = (SystemBuilder("master_slave")
                   .topology(ClusterGraph.line(2))
                   .params(Parameters.practical(rho=1e-4, d=1.0,
                                                u=0.1, f=1))
                   .engine("vectorized"))
        with pytest.raises(ConfigError, match="vectorized"):
            builder.build()


class TestEventOnlyFeaturesRejected:
    """Loss, first contact and dynamic schedules have no vectorized
    realization: the builder must refuse them, with or without an
    adversary attached, rather than run a fault-free system."""

    FT = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)

    @pytest.mark.parametrize("adversary", [False, True])
    @pytest.mark.parametrize("feature, match", [
        (lambda b: b.lossy(kind="bernoulli", rate=0.3), "loss models"),
        (lambda b: b.first_contact(True), "first-contact"),
        (lambda b: b.topology(EdgeChurnSchedule(
            ClusterGraph.line(4), interval=5.0, churn=0.5)),
         "static topologies"),
    ], ids=["loss", "first_contact", "edge_churn"])
    def test_rejected(self, feature, match, adversary):
        builder = (SystemBuilder("ftgcs").topology(ClusterGraph.line(4))
                   .params(self.FT).rounds(2).seed(1)
                   .engine("vectorized"))
        if adversary:
            builder.adversary("silent")
        feature(builder)
        with pytest.raises(ConfigError, match=match):
            builder.build()


class TestSpecSerialization:
    def spec(self, engine="vectorized", timing=False, seed=9):
        s = (Scenario.line(4).protocol("gcs_single")
             .payload(params=GCS, until=50.0).seed(seed))
        if engine != "event":
            s = s.engine(engine)
        if timing:
            s = s.timed()
        return s.build()

    def test_engine_round_trips_through_dict(self):
        spec = self.spec(timing=True)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.engine == "vectorized"
        assert clone.timing is True

    def test_spec_hash_differs_by_engine(self):
        assert spec_hash(self.spec("event")) \
            != spec_hash(self.spec("vectorized"))

    def test_result_store_keys_engines_separately(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        event_spec = self.spec("event")
        vec_spec = self.spec("vectorized")
        store.put(event_spec, run_cell(event_spec))
        assert store.get(event_spec) is not None
        assert store.get(vec_spec) is None  # no cross-engine hit
        store.put(vec_spec, run_cell(vec_spec))
        assert store.stats()["entries"] == 2

    def test_sweep_timing_extras_on_vectorized(self):
        cells = SweepRunner(processes=1).run(
            [self.spec(timing=True)], base_seed=9)
        timing = cells[0].extras["timing"]
        assert timing["wall_seconds"] > 0.0
        assert timing["rounds_per_second"] > 0.0


class TestVecStreams:
    def test_streams_deterministic_and_namespaced(self):
        def draw(scope, name):
            stream = VecStreams(7, scope).stream(name)
            return stream.uniform(0.0, 1.0, 5)

        assert np.array_equal(draw("gcs_single", "delays"),
                              draw("gcs_single", "delays"))
        assert not np.array_equal(draw("gcs_single", "delays"),
                                  draw("gcs_single", "other"))
        assert not np.array_equal(draw("gcs_single", "delays"),
                                  draw("ftgcs", "delays"))

    def test_fast_trigger_closed_form(self):
        # Level s=1 opens at up >= 2*kappa - slack = 0.5 (down small).
        up = np.array([0.0, 0.49, 0.51, 2.0])
        down = np.zeros(4)
        fast = fast_trigger_mask(up, down, kappa=0.3, slack=0.1)
        assert fast.tolist() == [False, False, True, True]
        # down past 2*s*kappa + slack closes every level below up.
        blocked = fast_trigger_mask(np.array([0.51]),
                                    np.array([0.71]),
                                    kappa=0.3, slack=0.1)
        assert blocked.tolist() == [False]

    def test_slow_trigger_odd_rung_form(self):
        kappa, slack = 0.3, 0.1
        # m=1 rung: down + slack >= kappa and up - slack <= kappa.
        assert slow_trigger_mask(np.array([0.0]), np.array([0.35]),
                                 kappa, slack).tolist() == [True]
        # up far above every rung down reaches: no odd m in range.
        assert slow_trigger_mask(np.array([2.0]), np.array([0.35]),
                                 kappa, slack).tolist() == [False]
