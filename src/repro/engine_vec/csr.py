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
edge array (:attr:`~repro.topology.cluster_graph.ClusterGraph.edge_array`)
with no Python object per edge or per vertex, in one stable sort of
its slots.

:meth:`CSRAdjacency.segment_max`/``segment_min`` take their path
from the graph's degrees, fixed when the view is built.  One gather
of every non-empty row's first slot is the whole answer for a row of
one slot.  One ``reduceat`` then runs over the bounds of the rows of
two or more slots (each one's start, then the start of the first
non-empty row after it) and overwrites those rows; the segments
between them are dropped.  On a caterpillar, whose leaves are nearly
every row, that is a few hundred segments instead of one per vertex.
A graph with no degree-1 row (a ring, a grid) keeps the single
``reduceat`` over the non-empty rows' starts and pays no gather.
Every multi-slot segment ends exactly where its row ends, so each max
and min is the same value on either path.

``reduceat`` needs care at degree-0 vertices: an empty segment makes
it return (or index past) a neighboring slot's value, so every bound
is the start of a non-empty row, and empty rows get the caller's
identity fill.  Isolated vertices therefore aggregate to ``fill``
(``-inf``/``+inf``), which the vectorized trigger evaluation maps to
"no neighbors: no trigger" — the same answer
:func:`repro.core.triggers.evaluate` gives.  A graph without isolated
vertices (every caterpillar) skips the fill.
"""

from __future__ import annotations

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

    The view also fixes how :meth:`segment_max` and
    :meth:`segment_min` reduce (module docstring): the first slot of
    each non-empty row, the ``reduceat`` bounds of the rows of two or
    more slots, and where those rows sit among the non-empty ones.
    """

    def __init__(self, graph: ClusterGraph) -> None:
        n = graph.num_clusters
        edges = graph.edge_array
        self.num_nodes = n
        self.num_edges = len(edges)
        ea, eb = edges[:, 0], edges[:, 1]
        self.edge_a = ea
        self.edge_b = eb
        src = np.concatenate([ea, eb])
        dst = np.concatenate([eb, ea])
        degree = np.bincount(src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=self.indptr[1:])
        order = np.argsort(src, kind="stable")
        self.row = src[order]
        self.indices = dst[order]
        # The slot-sized temporaries go before the bookkeeping below,
        # so building the view peaks no higher than the sort does.
        del src, dst, order
        # Segment bookkeeping, over the non-empty rows in order.  Each
        # multi-slot row's segment ends at the start of the next
        # non-empty row (empty rows in between have zero length) or
        # at the end of the slots.
        self._nonempty = degree > 0
        self._all_nonempty = bool(self._nonempty.all())
        self._first = self.indptr[:-1][self._nonempty]
        multi = (degree > 1)[self._nonempty]
        if multi.all():
            # No degree-1 row: the bounds are the non-empty rows'
            # starts, and reduceat's result is the whole answer.
            self._multi = None
            self._bounds = self._first
        else:
            bound = multi.copy()
            bound[1:] |= multi[:-1]
            self._bounds = self._first[bound]
            self._multi = np.flatnonzero(multi)
            self._multi_at = np.flatnonzero(multi[bound])

    @property
    def num_slots(self) -> int:
        """Directed slot count (``2 * num_edges``)."""
        return int(self.indices.size)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Per-slot view of per-node ``values`` (``values[indices]``)."""
        return values[self.indices]

    def _segment_reduce(self, slot_values: np.ndarray, ufunc,
                        fill: float) -> np.ndarray:
        if self._multi is None:
            reduced = ufunc.reduceat(slot_values, self._bounds)
        else:
            reduced = slot_values[self._first]
            reduced[self._multi] = ufunc.reduceat(
                slot_values, self._bounds)[self._multi_at]
        if self._all_nonempty:
            return reduced.astype(np.float64, copy=False)
        out = np.full(self.num_nodes, fill, dtype=np.float64)
        out[self._nonempty] = reduced
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
