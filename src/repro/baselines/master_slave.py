"""Baseline: master–slave tree synchronization over clusters.

The introduction's "simplistic approach": pick a root cluster, slave
every other cluster to its tree parent, and let each cluster stay
internally synchronized with Lynch–Welch.  Global skew then grows only
linearly in the tree depth — but the *local* skew admits no non-trivial
bound: a clock wave propagating down a line "compresses" the full
global skew onto a single edge (cf. Locher–Wattenhofer).  Experiment T4
measures exactly that failure against the FTGCS algorithm.

Implementation: each node runs the same
:class:`~repro.core.cluster_sync.ClusterSyncCore` engine inside its
cluster and one passive :class:`~repro.core.estimates.ClusterEstimator`
of its *parent* cluster only.  At each round start a non-root node
chases its parent: ``gamma = 1`` iff the parent estimate is more than
``chase_threshold`` ahead.  No attention is paid to children — that
obliviousness is precisely what breaks the local skew.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.sampling import SkewSampler
from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import LogicalClock
from repro.clocks.rate_models import ConstantRate, FlipRate, RateModel
from repro.core.cluster_sync import ClusterSyncCore
from repro.core.estimates import ClusterEstimator
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.errors import ConfigError
from repro.net.delays import UniformDelay
from repro.net.message import Pulse, PulseKind
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.cluster_graph import ClusterGraph


def bfs_tree(graph: ClusterGraph, root: int = 0) -> dict[int, int]:
    """Parent map of a BFS tree (root maps to itself)."""
    parents = {root: root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if w not in parents:
                parents[w] = v
                queue.append(w)
    if len(parents) != graph.num_clusters:
        raise ConfigError("graph is disconnected; no spanning tree")
    return parents


class MasterSlaveNode:
    """One node of the tree-slaved construction."""

    def __init__(self, node_id: int, cluster_id: int, parent_cluster: int,
                 *, sim: Simulator, network: Network, params: Parameters,
                 schedule: RoundSchedule, hardware: HardwareClock,
                 cluster_members: tuple[int, ...],
                 parent_members: tuple[int, ...],
                 chase_threshold: float, rng,
                 base: float = 0.0, parent_base: float = 0.0,
                 jump: bool = False) -> None:
        self.node_id = node_id
        self.cluster_id = cluster_id
        self.parent_cluster = parent_cluster
        self._network = network
        self._params = params
        self._threshold = chase_threshold
        self._is_root = parent_cluster == cluster_id
        self._jump = jump
        d, u = params.d, params.u
        self_delay = lambda: d - u * rng.random()

        self.logical = LogicalClock(
            sim, hardware, phi=params.phi, mu=params.mu, delta=1.0,
            gamma=0, initial_value=base, name=f"ms-L[{node_id}]")
        peers = tuple(m for m in cluster_members if m != node_id)
        self.core = ClusterSyncCore(
            self.logical, schedule, base, peers, params.f,
            self_delay=self_delay, broadcast=self._broadcast,
            on_round_start=self._on_round_start,
            name=f"ms-core[{node_id}]")
        self.parent_estimator: ClusterEstimator | None = None
        if not self._is_root:
            self.parent_estimator = ClusterEstimator(
                sim, hardware, params, schedule, parent_cluster,
                parent_members, parent_base, parent_base,
                self_delay=self_delay, name=f"ms-est[{node_id}]")
        self._parent_member_set = frozenset(parent_members)
        self._cluster_member_set = frozenset(cluster_members)

    def start(self) -> None:
        if self.parent_estimator is not None:
            self.parent_estimator.start()
        self.core.start()

    def _broadcast(self) -> None:
        self._network.broadcast(self.node_id, Pulse(
            sender=self.node_id, kind=PulseKind.SYNC,
            debug_round=self.core.current_round))

    def on_message(self, message, receive_time: float) -> None:
        if not isinstance(message, Pulse):
            return
        if message.kind is not PulseKind.SYNC:
            return
        sender = message.sender
        if sender in self._cluster_member_set and sender != self.node_id:
            self.core.on_pulse(sender, receive_time)
        elif (self.parent_estimator is not None
              and sender in self._parent_member_set):
            self.parent_estimator.on_pulse(sender, receive_time)

    def _on_round_start(self, _round_index: int) -> None:
        if self._is_root or self.parent_estimator is None:
            return
        gap = self.parent_estimator.value() - self.logical.value()
        if self._jump:
            # Classic echo-style master-slave: snap to the parent.
            # This is the variant whose local skew the paper's
            # introduction criticizes — the snap propagates the full
            # global skew down the tree one edge at a time.
            if gap > self._threshold:
                self.logical.jump_to(self.parent_estimator.value())
            return
        gamma = 1 if gap > self._threshold else 0
        self.logical.set_gamma(gamma)
        self.parent_estimator.set_gamma(gamma)


class MasterSlaveSystem:
    """Tree-slaved synchronization on a cluster graph (fault-free).

    ``rate_model``: ``"uniform"``, ``"extremes"``, ``"flip"`` (the
    drift pump that exposes the local-skew failure) or a callable
    ``(node_id, rng, params) -> RateModel``.
    """

    def __init__(self, graph: ClusterGraph, params: Parameters,
                 seed: int = 0, root: int = 0,
                 chase_threshold: float | None = None,
                 rate_model="uniform",
                 flip_period_rounds: float = 8.0,
                 cluster_offsets: list[float] | None = None,
                 jump: bool = False,
                 record_series: bool = False,
                 track_edges: bool = False) -> None:
        self.graph = graph
        self.params = params
        self.parents = bfs_tree(graph, root)
        if cluster_offsets is None:
            cluster_offsets = [0.0] * graph.num_clusters
        if len(cluster_offsets) != graph.num_clusters:
            raise ConfigError(
                f"cluster_offsets has {len(cluster_offsets)} entries "
                f"for {graph.num_clusters} clusters")
        self._bases = list(cluster_offsets)
        if jump and params.cluster_size > 1:
            raise ConfigError(
                "jump-based master-slave is a single-node-per-cluster "
                "baseline (cluster_size must be 1, i.e. f = 0)")
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.schedule = RoundSchedule(params)
        if chase_threshold is None:
            # Estimate error is at most E (Cor. 3.5 applied to the
            # parent estimator); chase only genuine gaps.
            chase_threshold = 2.0 * params.cap_e
        self._rate_model = rate_model
        self._flip_period = flip_period_rounds * params.round_length

        aug = graph.augment(params.cluster_size)
        self.aug = aug
        self.network = Network(
            self.sim, d=params.d, u=params.u,
            default_delay_model=UniformDelay(
                params.d, params.u, self.rng.stream("delays")))
        for node_id in range(aug.num_nodes):
            self.network.add_node(node_id)
        # Physical links: intra-cluster cliques + child-parent bipartite.
        for a, b in aug.node_edges():
            ca, cb = aug.cluster_of(a), aug.cluster_of(b)
            if ca == cb or self.parents.get(ca) == cb \
                    or self.parents.get(cb) == ca:
                self.network.add_link(a, b)

        self.nodes: dict[int, MasterSlaveNode] = {}
        for node_id in range(aug.num_nodes):
            cluster = aug.cluster_of(node_id)
            parent = self.parents[cluster]
            rng = self.rng.stream(f"node/{node_id}")
            hardware = HardwareClock(
                self.sim, self._make_rate_model(node_id, cluster, rng),
                params.rho, name=f"ms-H[{node_id}]")
            node = MasterSlaveNode(
                node_id, cluster, parent, sim=self.sim,
                network=self.network, params=params,
                schedule=self.schedule, hardware=hardware,
                cluster_members=aug.members(cluster),
                parent_members=aug.members(parent),
                chase_threshold=chase_threshold, rng=rng,
                base=self._bases[cluster],
                parent_base=self._bases[parent], jump=jump)
            self.nodes[node_id] = node
            self.network.set_handler(node_id, node.on_message)

        # The sampler reads every node's clock, grouped by cluster in
        # node id order (ids are cluster-major).
        by_cluster: dict[int, list] = {}
        for node in self.nodes.values():
            by_cluster.setdefault(node.cluster_id, []).append(
                node.logical.value)
        self.sampler = SkewSampler(
            self.sim, self.schedule.round_length(1) / 4.0, graph.edges,
            record_series=record_series, track_edges=track_edges)
        self.sampler.measure(list(by_cluster.items()))
        self._started = False

    def _make_rate_model(self, node_id: int, cluster: int,
                         rng) -> RateModel:
        spec = self._rate_model
        p = self.params
        if callable(spec):
            return spec(node_id, rng, p)
        if spec == "uniform":
            return ConstantRate(1.0 + p.rho * rng.random())
        if spec == "extremes":
            return ConstantRate(1.0 + p.rho * (node_id % 2))
        if spec == "flip":
            # The drift pump: whole clusters alternate fast/slow, with
            # the phase progressing along the cluster index so a skew
            # wave travels down the tree.
            quarter = self._flip_period / 4.0
            phase = quarter * (cluster % 4) + 1.0
            return FlipRate(1.0, 1.0 + p.rho, self._flip_period,
                            phase=phase, start_high=cluster % 2 == 0)
        raise ConfigError(f"unknown rate_model spec: {spec!r}")

    def start(self) -> None:
        """Arm every node and the sampler (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.start()
        self.sampler.start()

    def run_horizon(self, rounds: int) -> float:
        """Absolute kernel time by which ``rounds`` rounds complete."""
        return self.schedule.round_start(rounds + 1) + 1.0

    def run_rounds(self, rounds: int):
        """Run ``rounds`` rounds; returns the sampler maxima."""
        self.start()
        self.sim.run(until=self.run_horizon(rounds))
        self.sampler.sample_now()
        return self.sampler.maxima
