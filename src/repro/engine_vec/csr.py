"""CSR adjacency with empty-segment-safe neighbor reductions.

The vectorized engine's topology primitive: an undirected
:class:`~repro.topology.cluster_graph.ClusterGraph` flattened into the
standard compressed-sparse-row form (``indptr``/``indices`` over
*directed* slots, both directions of every edge).  Per-neighbor values
— clock estimates, delay draws — live in arrays aligned to the slot
order, and per-node aggregates come from ``ufunc.reduceat`` segment
reductions.

Slot order is a contract: every per-slot random draw is consumed in it,
so it fixes the output of every seeded run.  Node ``i``'s slots hold,
in order, the ``b`` of each edge ``(i, b)`` and then the ``a`` of each
edge ``(a, i)``, each group in edge-list order — a stable sort of the
directed slots by source.  The CSR is built straight from the graph's
edge list with no Python object per vertex, in time linear in its
edges.

``reduceat`` needs care at degree-0 vertices: an empty segment makes
it return (or index past) a neighboring slot's value, so
:meth:`CSRAdjacency.segment_max`/``segment_min`` reduce over the
non-empty rows' offsets only and give empty rows the caller's identity
fill.  Isolated vertices therefore aggregate to ``fill``
(``-inf``/``+inf``), which the vectorized trigger evaluation maps to
"no neighbors: no trigger" — the same answer
:func:`repro.core.triggers.evaluate` gives.  The offsets and the
empty-row mask are computed once per graph; a graph without isolated
vertices (every caterpillar) skips the mask and returns the
``reduceat`` result as is.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.topology.cluster_graph import ClusterGraph


class CSRAdjacency:
    """Directed-slot CSR view of an undirected cluster graph.

    Attributes
    ----------
    num_nodes, num_edges:
        Vertex and *undirected* edge counts.
    edge_a, edge_b:
        Endpoint arrays of the undirected edges (length ``num_edges``)
        — the per-edge view skew measurements use.
    row, indices, indptr:
        The CSR triplet over ``2 * num_edges`` directed slots: slot
        ``k`` means "node ``row[k]`` sees neighbor ``indices[k]``";
        node ``i`` owns slots ``indptr[i]:indptr[i+1]``.
    """

    def __init__(self, graph: ClusterGraph) -> None:
        n = graph.num_clusters
        edges = graph.edges
        m = len(edges)
        self.num_nodes = n
        self.num_edges = m
        flat = np.fromiter(chain.from_iterable(edges), np.int64, 2 * m)
        ea, eb = flat[0::2], flat[1::2]
        self.edge_a = ea
        self.edge_b = eb
        src = np.concatenate([ea, eb])
        dst = np.concatenate([eb, ea])
        order = np.argsort(src, kind="stable")
        self.row = src[order]
        self.indices = dst[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        # Segment bookkeeping for reduceat: the starts of the non-empty
        # rows only, so each reduced segment runs exactly to the next
        # non-empty row (empty rows in between have zero length) or to
        # the end of the slots.
        starts = self.indptr[:-1]
        self._nonempty = self.indptr[1:] > starts
        self._all_nonempty = bool(self._nonempty.all())
        self._starts = starts[self._nonempty]

    @property
    def num_slots(self) -> int:
        """Directed slot count (``2 * num_edges``)."""
        return int(self.indices.size)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-slot view of per-node ``values`` (``values[indices]``)."""
        return values[self.indices]

    def _segment_reduce(self, slot_values: np.ndarray, ufunc,
                        fill: float) -> np.ndarray:
        if self._all_nonempty:
            return ufunc.reduceat(slot_values, self._starts).astype(
                np.float64, copy=False)
        out = np.full(self.num_nodes, fill, dtype=np.float64)
        if self._starts.size:
            out[self._nonempty] = ufunc.reduceat(slot_values, self._starts)
        return out

    def segment_max(self, slot_values: np.ndarray,
                    fill: float = -np.inf) -> np.ndarray:
        """Per-node max over its slots (``fill`` for degree-0 nodes)."""
        return self._segment_reduce(slot_values, np.maximum, fill)

    def segment_min(self, slot_values: np.ndarray,
                    fill: float = np.inf) -> np.ndarray:
        """Per-node min over its slots (``fill`` for degree-0 nodes)."""
        return self._segment_reduce(slot_values, np.minimum, fill)

    def edge_skew(self, values: np.ndarray) -> float:
        """Max ``|values[a] - values[b]|`` over undirected edges
        (0.0 on edge-free graphs — the local skew convention)."""
        if self.num_edges == 0:
            return 0.0
        return float(np.abs(values[self.edge_a]
                            - values[self.edge_b]).max())


__all__ = ["CSRAdjacency"]
