"""Generators and utilities for the cluster-level graph ``G = (C, E)``.

These are plain adjacency-list graphs over cluster ids ``0..n-1``.  The
paper's construction (Section 2) then replaces each cluster by a
``k``-clique — see :mod:`repro.topology.cluster_graph`.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.errors import TopologyError


def normalize_edges(num_vertices: int,
                    edges: Sequence[tuple[int, int]] | np.ndarray
                    ) -> np.ndarray:
    """Validate and canonicalize an undirected edge list.

    ``edges`` is a sequence of integer pairs or an ``(m, 2)`` integer
    array.  The result is a fresh ``(m, 2)`` int64 array holding each
    edge as ``(min, max)``, in input order.  The first offending edge
    in input order raises :class:`TopologyError`: an id outside
    ``0..num_vertices - 1`` (the edge named as given), a self-loop, or
    a duplicate (named by its canonical pair); so does input that is
    not integer pairs (fractional or string ids, ragged rows, rows
    that are not pairs).  Duplicates are found with one sort of a
    canonical key; the first offender is searched for only once one is
    known to exist.
    """
    try:
        given = np.asarray(edges)
    except ValueError as exc:  # ragged rows
        raise TopologyError(f"edges are not integer pairs: {exc}") from None
    if given.ndim == 1 and given.size == 0:
        given = given.reshape(0, 2).astype(np.int64)
    if given.ndim != 2 or given.shape[1] != 2 \
            or given.dtype.kind not in "iu":
        raise TopologyError(
            f"edges are not integer pairs: a {given.dtype} array of "
            f"shape {given.shape}")
    given = given.astype(np.int64, copy=False)
    a, b = given[:, 0], given[:, 1]
    result = np.empty(given.shape, dtype=np.int64)
    lo, hi = result[:, 0], result[:, 1]
    np.minimum(a, b, out=lo)
    np.maximum(a, b, out=hi)
    bad = (lo < 0) | (hi >= num_vertices) | (lo == hi)
    # Duplicate keys are only compared before the first range or loop
    # error, where every id is in range and ``lo * n + hi`` is unique
    # per canonical pair.
    valid = int(bad.argmax()) if bad.any() else len(result)
    key = lo[:valid] * num_vertices + hi[:valid]
    # Timsort: generated edge lists come in long ascending key runs.
    ordered = np.sort(key, kind="stable")
    if valid == len(result) and not (ordered[1:] == ordered[:-1]).any():
        return result
    repeated = np.ones(valid, dtype=bool)
    repeated[np.unique(key, return_index=True)[1]] = False
    offender = int(repeated.argmax()) if repeated.any() else valid
    if offender < valid:
        raise TopologyError(
            f"duplicate edge {(int(lo[offender]), int(hi[offender]))!r}")
    x, y = int(a[offender]), int(b[offender])
    if not (0 <= x < num_vertices and 0 <= y < num_vertices):
        raise TopologyError(
            f"edge ({x!r}, {y!r}) references a vertex outside "
            f"0..{num_vertices - 1}")
    raise TopologyError(f"self-loop at vertex {x!r}")


def adjacency_from_edges(num_vertices: int,
                         edges: list[tuple[int, int]]
                         ) -> list[list[int]]:
    """Build sorted adjacency lists from a canonical edge list."""
    adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for neighbors in adjacency:
        neighbors.sort()
    return adjacency


def bfs_distances(adjacency: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get -1."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def hop_diameter(adjacency: list[list[int]]) -> int:
    """Exact hop diameter (max over all-pairs shortest paths).

    Raises :class:`TopologyError` if the graph is disconnected, since a
    diameter is then undefined.
    """
    best = 0
    for source in range(len(adjacency)):
        dist = bfs_distances(adjacency, source)
        worst = max(dist)
        if min(dist) < 0:
            raise TopologyError("graph is disconnected")
        best = max(best, worst)
    return best


def is_connected(adjacency: list[list[int]]) -> bool:
    if not adjacency:
        return True
    return min(bfs_distances(adjacency, 0)) >= 0


# ----------------------------------------------------------------------
# Standard topologies (edge lists over 0..n-1)
# ----------------------------------------------------------------------

def line_edges(n: int) -> list[tuple[int, int]]:
    """Path on ``n`` vertices; diameter ``n - 1``."""
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    return [(i, i + 1) for i in range(n - 1)]


def ring_edges(n: int) -> list[tuple[int, int]]:
    """Cycle on ``n >= 3`` vertices; diameter ``n // 2``."""
    if n < 3:
        raise TopologyError(f"need n >= 3 for a ring: {n!r}")
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    """Clique on ``n`` vertices; diameter 1 (or 0 for n=1)."""
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(n: int) -> list[tuple[int, int]]:
    """Star with center 0 and ``n - 1`` leaves; diameter 2."""
    if n < 2:
        raise TopologyError(f"need n >= 2 for a star: {n!r}")
    return [(0, i) for i in range(1, n)]


def grid_edges(width: int, height: int) -> list[tuple[int, int]]:
    """``width x height`` mesh; vertex ``(x, y)`` has id ``y*width + x``."""
    if width < 1 or height < 1:
        raise TopologyError("grid dimensions must be positive")
    edges: list[tuple[int, int]] = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            if y + 1 < height:
                edges.append((v, v + width))
    return edges


def torus_edges(width: int, height: int) -> list[tuple[int, int]]:
    """``width x height`` torus (wrap-around mesh)."""
    if width < 3 or height < 3:
        raise TopologyError("torus dimensions must be >= 3 to avoid "
                            "duplicate wrap edges")
    edges: list[tuple[int, int]] = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            right = y * width + (x + 1) % width
            down = ((y + 1) % height) * width + x
            edges.append((min(v, right), max(v, right)))
            edges.append((min(v, down), max(v, down)))
    return edges


def balanced_tree_edges(branching: int, height: int) -> list[tuple[int, int]]:
    """Rooted balanced tree; node 0 is the root."""
    if branching < 1 or height < 0:
        raise TopologyError("need branching >= 1 and height >= 0")
    edges: list[tuple[int, int]] = []
    next_id = 1
    frontier = [0]
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return edges


def caterpillar_edges(length: int, width: int) -> np.ndarray:
    """Caterpillar: a spine path of ``length`` hubs, each carrying
    ``width - 1`` leaves; ``length * width`` vertices total.

    Hub ``i`` has id ``i * width``; its leaves occupy the rest of the
    block ``[i * width, (i + 1) * width)``.  The hop diameter is
    ``length + 1`` for ``width >= 2`` (leaf -> spine -> ... -> leaf)
    and ``length - 1`` for ``width == 1`` (a plain path) — the shape
    that decouples vertex count from diameter, so scale sweeps can fix
    ``D`` while pushing ``n`` to 1e5-1e6.

    Returns an ``(n - 1, 2)`` int64 array.  Its order is a contract
    (the CSR slot order, and so every per-slot draw, follows it): each
    hub contributes its spine edge ``(hub, hub + width)`` and then its
    leaf edges ``(hub, hub + 1), ..., (hub, hub + width - 1)``; the
    last hub has no spine edge.
    """
    if length < 1 or width < 1:
        raise TopologyError("caterpillar dimensions must be positive")
    hubs = np.arange(0, length * width, width, dtype=np.int64)[:, None]
    step = np.arange(width, dtype=np.int64)
    step[0] = width
    edges = np.empty((length, width, 2), dtype=np.int64)
    edges[:, :, 0] = hubs
    edges[:, :, 1] = hubs + step
    return np.delete(edges.reshape(-1, 2), (length - 1) * width, axis=0)


def hypercube_edges(dim: int) -> list[tuple[int, int]]:
    """``dim``-dimensional hypercube on ``2**dim`` vertices."""
    if dim < 1:
        raise TopologyError(f"need dim >= 1: {dim!r}")
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return edges


def random_connected_edges(n: int, extra_edge_prob: float,
                           rng: random.Random) -> list[tuple[int, int]]:
    """A random connected graph: random spanning tree plus G(n, p) extras.

    The spanning tree is built by attaching each vertex ``i >= 1`` to a
    uniformly random earlier vertex, which samples trees with good
    degree spread; extra edges are then added independently.
    """
    if n < 1:
        raise TopologyError(f"need n >= 1: {n!r}")
    if not 0 <= extra_edge_prob <= 1:
        raise TopologyError(
            f"probability out of range: {extra_edge_prob!r}")
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    return sorted(edges)
