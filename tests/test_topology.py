"""Unit tests for topologies and the augmentation construction."""

import random

import pytest

from repro.errors import TopologyError
from repro.topology import ClusterGraph, hop_diameter, adjacency_from_edges
from repro.topology import graphs


class TestGenerators:
    def test_line(self):
        graph = ClusterGraph.line(5)
        assert graph.num_clusters == 5
        assert graph.num_edges == 4
        assert graph.diameter() == 4
        assert graph.neighbors(2) == (1, 3)

    def test_ring(self):
        graph = ClusterGraph.ring(6)
        assert graph.num_edges == 6
        assert graph.diameter() == 3
        assert graph.neighbors(0) == (1, 5)

    def test_complete(self):
        graph = ClusterGraph.complete(5)
        assert graph.num_edges == 10
        assert graph.diameter() == 1
        assert graph.max_degree() == 4

    def test_star(self):
        graph = ClusterGraph.star(5)
        assert graph.diameter() == 2
        assert graph.degree(0) == 4

    def test_grid(self):
        graph = ClusterGraph.grid(3, 3)
        assert graph.num_clusters == 9
        assert graph.num_edges == 12
        assert graph.diameter() == 4

    def test_torus(self):
        graph = ClusterGraph.torus(4, 4)
        assert graph.num_clusters == 16
        assert graph.num_edges == 32
        assert graph.diameter() == 4

    def test_balanced_tree(self):
        graph = ClusterGraph.balanced_tree(2, 3)
        assert graph.num_clusters == 15
        assert graph.num_edges == 14
        assert graph.diameter() == 6

    def test_hypercube(self):
        graph = ClusterGraph.hypercube(3)
        assert graph.num_clusters == 8
        assert graph.num_edges == 12
        assert graph.diameter() == 3

    def test_random_connected_seed_deterministic(self):
        import random

        from repro.topology.graphs import random_connected_edges

        first = random_connected_edges(15, 0.2, random.Random(42))
        second = random_connected_edges(15, 0.2, random.Random(42))
        assert first == second
        moved = random_connected_edges(15, 0.2, random.Random(43))
        assert first != moved
        # Canonical form: sorted (min, max) pairs, spanning, no dups.
        assert first == sorted(first)
        assert all(a < b for a, b in first)
        assert len(set(first)) == len(first)
        assert len(first) >= 14

    def test_random_connected(self):
        rng = random.Random(0)
        graph = ClusterGraph.random_connected(20, 0.1, rng)
        assert graph.is_connected()
        assert graph.num_edges >= 19

    def test_single_cluster(self):
        graph = ClusterGraph.line(1)
        assert graph.num_clusters == 1
        assert graph.num_edges == 0
        assert graph.diameter() == 0


class TestValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError):
            ClusterGraph(3, [(0, 5)])

    def test_disconnected_diameter_raises(self):
        graph = ClusterGraph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()
        with pytest.raises(TopologyError):
            graph.diameter()

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ClusterGraph.ring(2)

    @pytest.mark.parametrize("cluster", [-1, 3])
    def test_cluster_ids_outside_range_raise(self, cluster):
        # -1 must not wrap around to the last cluster's adjacency.
        graph = ClusterGraph.line(3)
        with pytest.raises(TopologyError, match="unknown cluster"):
            graph.neighbors(cluster)
        with pytest.raises(TopologyError, match="unknown cluster"):
            graph.degree(cluster)


#: One instance of every named constructor, plus graphs whose
#: adjacency has isolated or disconnected parts.
NAMED_GRAPHS = [
    ClusterGraph.line(1), ClusterGraph.line(6), ClusterGraph.ring(7),
    ClusterGraph.complete(5), ClusterGraph.star(6),
    ClusterGraph.grid(3, 4), ClusterGraph.torus(3, 4),
    ClusterGraph.balanced_tree(2, 3), ClusterGraph.caterpillar(4, 3),
    ClusterGraph.caterpillar(5, 1), ClusterGraph.hypercube(3),
    ClusterGraph.random_connected(12, 0.2, random.Random(7)),
    ClusterGraph(5, [(3, 1), (4, 0)], name="disconnected"),
    ClusterGraph(3, [], name="edgeless"),
]


class TestLazyAdjacency:
    """The adjacency built on first query equals the eager reference
    ``adjacency_from_edges(n, graph.edges)`` on every accessor."""

    @pytest.mark.parametrize("graph", NAMED_GRAPHS,
                             ids=lambda graph: graph.name)
    def test_accessors_match_reference(self, graph):
        n = graph.num_clusters
        reference = adjacency_from_edges(n, graph.edges)
        for cluster in range(n):
            assert graph.neighbors(cluster) == tuple(reference[cluster])
            assert graph.degree(cluster) == len(reference[cluster])
        assert graph.max_degree() == max(len(adj) for adj in reference)
        assert graph.is_connected() == graphs.is_connected(reference)
        if graph.is_connected():
            assert graph.diameter() == hop_diameter(reference)
        else:
            with pytest.raises(TopologyError, match="disconnected"):
                graph.diameter()


class TestAugmentation:
    def test_member_blocks(self):
        aug = ClusterGraph.line(3).augment(4)
        assert aug.num_nodes == 12
        assert aug.members(0) == (0, 1, 2, 3)
        assert aug.members(2) == (8, 9, 10, 11)
        assert aug.cluster_of(5) == 1
        assert aug.cluster_of(0) == 0

    def test_cluster_neighbors_form_clique(self):
        aug = ClusterGraph.line(2).augment(4)
        assert aug.cluster_neighbors(0) == (1, 2, 3)
        assert aug.cluster_neighbors(5) == (4, 6, 7)

    def test_inter_neighbors_grouped_by_cluster(self):
        aug = ClusterGraph.line(3).augment(3)
        groups = aug.inter_neighbors(4)  # node in middle cluster 1
        assert set(groups) == {0, 2}
        assert groups[0] == (0, 1, 2)
        assert groups[2] == (6, 7, 8)

    def test_full_neighbor_list(self):
        aug = ClusterGraph.line(2).augment(3)
        # Node 0: peers 1,2 plus all of cluster 1 (3,4,5).
        assert set(aug.neighbors(0)) == {1, 2, 3, 4, 5}

    def test_edge_counts_match_formulas(self):
        graph = ClusterGraph.ring(5)
        for k in (1, 4, 7):
            aug = graph.augment(k)
            assert aug.num_cluster_edges == 5 * k * (k - 1) // 2
            assert aug.num_intercluster_edges == 5 * k * k
            assert aug.num_edges == len(aug.node_edges())

    def test_node_edges_unique(self):
        aug = ClusterGraph.grid(2, 2).augment(3)
        edges = aug.node_edges()
        assert len(edges) == len(set(edges))

    def test_k1_augmentation_is_original_graph(self):
        graph = ClusterGraph.ring(5)
        aug = graph.augment(1)
        assert aug.num_nodes == 5
        assert aug.num_cluster_edges == 0
        assert aug.num_intercluster_edges == 5
        assert aug.cluster_neighbors(0) == ()

    def test_invalid_cluster_size(self):
        with pytest.raises(TopologyError):
            ClusterGraph.line(2).augment(0)

    def test_unknown_ids_raise(self):
        aug = ClusterGraph.line(2).augment(2)
        with pytest.raises(TopologyError):
            aug.members(5)
        with pytest.raises(TopologyError):
            aug.cluster_of(99)

    def test_negative_ids_raise(self):
        # -1 must not wrap around to the last cluster or node.
        aug = ClusterGraph.line(3).augment(4)
        with pytest.raises(TopologyError, match="unknown cluster"):
            aug.members(-1)
        with pytest.raises(TopologyError, match="unknown cluster"):
            aug.adjacent_clusters(-1)
        for accessor in (aug.cluster_of, aug.cluster_neighbors,
                         aug.inter_neighbors, aug.neighbors):
            with pytest.raises(TopologyError, match="unknown node"):
                accessor(-1)

    def test_overhead_scaling_in_f(self):
        """Nodes scale as O(f) and edges as O(f^2) (Theorem 1.1)."""
        graph = ClusterGraph.grid(3, 3)
        base_nodes = graph.num_clusters
        base_edges = graph.num_edges
        for f in (1, 2, 3):
            k = 3 * f + 1
            aug = graph.augment(k)
            assert aug.num_nodes == base_nodes * k
            expected_edges = (base_nodes * k * (k - 1) // 2
                              + base_edges * k * k)
            assert aug.num_edges == expected_edges


class TestDiameterHelper:
    def test_hop_diameter_direct(self):
        adjacency = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert hop_diameter(adjacency) == 3
