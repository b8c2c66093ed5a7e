"""The cluster graph ``G`` and the paper's augmentation ``G -> G``.

Section 2 of the paper: given ``G = (C, E)``, identify each cluster
``C`` with ``k`` nodes.  The augmented node graph ``G = (V, E)`` has

* **cluster edges** — each cluster forms a ``k``-clique, and
* **intercluster edges** — clusters adjacent in ``G`` are connected by
  a complete bipartite graph.

:class:`ClusterGraph` is the cluster-level object (with named
constructors for the standard topologies); :meth:`ClusterGraph.augment`
produces an :class:`AugmentedGraph` holding the node-level structure
the simulator wires up, plus the grouping metadata nodes need ("which
cluster does this neighbor belong to" — the paper assumes each node
knows this).

Validation is eager and adjacency is lazy: the constructor checks and
canonicalizes the edge list (so a malformed graph raises where it is
built), but the sorted per-cluster adjacency lists are only built the
first time :meth:`ClusterGraph.neighbors`, ``degree``, ``max_degree``,
``diameter`` or ``is_connected`` asks for them.  The vectorized engine
reads only :attr:`ClusterGraph.edges`, so a million-vertex graph it
runs on never pays for a Python list per vertex.
"""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.topology import graphs as g


class ClusterGraph:
    """The abstract network ``G = (C, E)`` of supernodes."""

    def __init__(self, num_clusters: int, edges: list[tuple[int, int]],
                 name: str = "") -> None:
        if num_clusters < 1:
            raise TopologyError(f"need at least one cluster: {num_clusters!r}")
        self._edges = g.normalize_edges(num_clusters, edges)
        self._num_clusters = num_clusters
        self._adjacency: list[list[int]] | None = None
        self.name = name or f"cluster-graph({num_clusters})"

    # -- named constructors -------------------------------------------

    @classmethod
    def line(cls, n: int) -> "ClusterGraph":
        return cls(n, g.line_edges(n), name=f"line({n})")

    @classmethod
    def ring(cls, n: int) -> "ClusterGraph":
        return cls(n, g.ring_edges(n), name=f"ring({n})")

    @classmethod
    def complete(cls, n: int) -> "ClusterGraph":
        return cls(n, g.complete_edges(n), name=f"complete({n})")

    @classmethod
    def star(cls, n: int) -> "ClusterGraph":
        return cls(n, g.star_edges(n), name=f"star({n})")

    @classmethod
    def grid(cls, width: int, height: int) -> "ClusterGraph":
        return cls(width * height, g.grid_edges(width, height),
                   name=f"grid({width}x{height})")

    @classmethod
    def torus(cls, width: int, height: int) -> "ClusterGraph":
        return cls(width * height, g.torus_edges(width, height),
                   name=f"torus({width}x{height})")

    @classmethod
    def balanced_tree(cls, branching: int, height: int) -> "ClusterGraph":
        edges = g.balanced_tree_edges(branching, height)
        num = 1 + sum(branching ** i for i in range(1, height + 1))
        return cls(num, edges, name=f"tree(b={branching},h={height})")

    @classmethod
    def caterpillar(cls, length: int, width: int) -> "ClusterGraph":
        """Spine path of ``length`` hubs, ``width - 1`` leaves each:
        ``length * width`` vertices with diameter ``length + 1`` (for
        ``width >= 2``) — vertex count and diameter decoupled."""
        return cls(length * width, g.caterpillar_edges(length, width),
                   name=f"caterpillar({length}x{width})")

    @classmethod
    def hypercube(cls, dim: int) -> "ClusterGraph":
        return cls(1 << dim, g.hypercube_edges(dim),
                   name=f"hypercube({dim})")

    @classmethod
    def random_connected(cls, n: int, extra_edge_prob: float,
                         rng: random.Random) -> "ClusterGraph":
        edges = g.random_connected_edges(n, extra_edge_prob, rng)
        return cls(n, edges, name=f"random({n},p={extra_edge_prob})")

    # -- accessors -----------------------------------------------------

    @property
    def num_clusters(self) -> int:
        return self._num_clusters

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _adjacent(self) -> list[list[int]]:
        """Sorted adjacency lists, built on the first query."""
        if self._adjacency is None:
            self._adjacency = g.adjacency_from_edges(self._num_clusters,
                                                     self._edges)
        return self._adjacency

    def neighbors(self, cluster: int) -> tuple[int, ...]:
        if not 0 <= cluster < self._num_clusters:
            raise TopologyError(f"unknown cluster: {cluster!r}")
        return tuple(self._adjacent()[cluster])

    def degree(self, cluster: int) -> int:
        return len(self.neighbors(cluster))

    def max_degree(self) -> int:
        return max(len(adj) for adj in self._adjacent())

    def diameter(self) -> int:
        """Exact hop diameter of ``G`` (also the diameter of ``G``)."""
        return g.hop_diameter(self._adjacent())

    def is_connected(self) -> bool:
        return g.is_connected(self._adjacent())

    # -- augmentation ---------------------------------------------------

    def augment(self, cluster_size: int) -> "AugmentedGraph":
        """Build the node-level graph with ``cluster_size`` nodes per
        cluster (cliques inside, complete bipartite across ``E``)."""
        return AugmentedGraph(self, cluster_size)

    def __repr__(self) -> str:
        return (f"ClusterGraph({self.name}, n={self.num_clusters}, "
                f"m={self.num_edges})")


class AugmentedGraph:
    """The node-level graph ``G`` produced from a :class:`ClusterGraph`.

    Node ids are dense integers; cluster ``c`` owns the contiguous block
    ``[c * k, (c+1) * k)``.  Besides plain adjacency, the object exposes
    the grouped views algorithm code needs:

    * :meth:`cluster_neighbors` — same-cluster peers of a node;
    * :meth:`inter_neighbors` — a node's neighbors grouped by adjacent
      cluster (for per-cluster passive estimators).
    """

    def __init__(self, cluster_graph: ClusterGraph,
                 cluster_size: int) -> None:
        if cluster_size < 1:
            raise TopologyError(
                f"cluster_size must be >= 1: {cluster_size!r}")
        self._cluster_graph = cluster_graph
        self._k = cluster_size
        n_clusters = cluster_graph.num_clusters
        self._members: list[tuple[int, ...]] = [
            tuple(range(c * cluster_size, (c + 1) * cluster_size))
            for c in range(n_clusters)
        ]
        self._cluster_of: list[int] = [
            c for c in range(n_clusters) for _ in range(cluster_size)
        ]

    # -- identity -------------------------------------------------------

    @property
    def cluster_graph(self) -> ClusterGraph:
        return self._cluster_graph

    @property
    def cluster_size(self) -> int:
        return self._k

    @property
    def num_nodes(self) -> int:
        return self._cluster_graph.num_clusters * self._k

    def members(self, cluster: int) -> tuple[int, ...]:
        """Node ids belonging to ``cluster``."""
        if not 0 <= cluster < len(self._members):
            raise TopologyError(f"unknown cluster: {cluster!r}")
        return self._members[cluster]

    def cluster_of(self, node: int) -> int:
        """Cluster id owning ``node``."""
        if not 0 <= node < len(self._cluster_of):
            raise TopologyError(f"unknown node: {node!r}")
        return self._cluster_of[node]

    # -- adjacency -------------------------------------------------------

    def cluster_neighbors(self, node: int) -> tuple[int, ...]:
        """Same-cluster peers of ``node`` (clique edges), excluding it."""
        cluster = self.cluster_of(node)
        return tuple(m for m in self._members[cluster] if m != node)

    def adjacent_clusters(self, cluster: int) -> tuple[int, ...]:
        """Clusters adjacent to ``cluster`` in ``G``."""
        return self._cluster_graph.neighbors(cluster)

    def inter_neighbors(self, node: int) -> dict[int, tuple[int, ...]]:
        """Neighbors of ``node`` in other clusters, grouped by cluster."""
        cluster = self.cluster_of(node)
        return {b: self._members[b]
                for b in self._cluster_graph.neighbors(cluster)}

    def neighbors(self, node: int) -> tuple[int, ...]:
        """All neighbors: same-cluster peers, then intercluster nodes."""
        result = list(self.cluster_neighbors(node))
        for neighbors in self.inter_neighbors(node).values():
            result.extend(neighbors)
        return tuple(result)

    def node_edges(self) -> list[tuple[int, int]]:
        """All undirected node-level edges (cluster + intercluster)."""
        edges: list[tuple[int, int]] = []
        k = self._k
        for members in self._members:
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    edges.append((a, b))
        for ca, cb in self._cluster_graph.edges:
            for a in self._members[ca]:
                for b in self._members[cb]:
                    edges.append((min(a, b), max(a, b)))
        return edges

    # -- counts (Theorem 1.1 overhead accounting) -------------------------

    @property
    def num_cluster_edges(self) -> int:
        """Total clique edges: ``|C| * k*(k-1)/2``."""
        return (self._cluster_graph.num_clusters
                * self._k * (self._k - 1) // 2)

    @property
    def num_intercluster_edges(self) -> int:
        """Total bipartite edges: ``|E| * k^2``."""
        return self._cluster_graph.num_edges * self._k * self._k

    @property
    def num_edges(self) -> int:
        return self.num_cluster_edges + self.num_intercluster_edges

    def __repr__(self) -> str:
        return (f"AugmentedGraph({self._cluster_graph.name}, "
                f"k={self._k}, nodes={self.num_nodes}, "
                f"edges={self.num_edges})")
