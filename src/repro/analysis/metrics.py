"""Skew metrics over snapshots of logical clock values.

The quantities the paper bounds:

* **intra-cluster skew** — ``max - min`` of correct logical clocks in
  one cluster (Corollary 3.2 bounds it by ``2 theta_g E``);
* **cluster clock** — ``L_C = (L^+_C + L^-_C) / 2`` (Definition 3.3);
* **cluster-level local skew** — ``|L_B - L_C|`` over ``(B, C) in E``
  (Theorem 4.10 / Theorem 1.1 bound it by ``O(kappa log D)``);
* **node-level local skew** — ``|L_v - L_w|`` over node edges of the
  augmented graph (Theorem 1.1's statement);
* **global skew** — ``max - min`` over all correct nodes (Theorem C.3).

Because intercluster links form *complete* bipartite graphs, the
node-level local skew across a cluster edge ``(B, C)`` equals
``max(maxB - minC, maxC - minB)``; everything here is therefore
computed from per-cluster extrema in ``O(|C| + |E|)`` per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ClusterExtrema:
    """Min/max/derived values of one cluster's correct clocks."""

    low: float
    high: float

    @property
    def cluster_clock(self) -> float:
        """Definition 3.3: ``(L^+ + L^-) / 2``."""
        return 0.5 * (self.low + self.high)

    @property
    def spread(self) -> float:
        """Intra-cluster skew ``L^+ - L^-``."""
        return self.high - self.low


def cluster_extrema(values: dict[int, float]) -> ClusterExtrema:
    """Extrema of one cluster's correct clock values (non-empty)."""
    low = min(values.values())
    high = max(values.values())
    return ClusterExtrema(low=low, high=high)


@dataclass
class SkewSnapshot:
    """All skew metrics at one instant."""

    time: float
    global_skew: float
    max_intra_cluster: float
    max_local_cluster: float
    max_local_node: float
    #: cluster-level skew per edge of ``G`` (for gradient profiles).
    edge_skews: dict[tuple[int, int], float] = field(default_factory=dict)


def accumulate_grouped(groups: list[tuple[int, list[float]]],
                       cluster_edges: list[tuple[int, int]],
                       edge_maxima: dict[tuple[int, int], float]
                       | None = None,
                       edge_out: dict[tuple[int, int], float]
                       | None = None) -> tuple[float, float, float, float]:
    """Every skew metric from grouped correct clock values.

    The sampling hot path: node identities are irrelevant for every
    metric (only per-cluster extrema matter), so ``groups`` holds
    ``(cluster, values)`` pairs of *correct* clocks in a stable order;
    a cluster with no correct member may appear with an empty sequence
    and is skipped, as is every edge of ``cluster_edges`` touching it.

    Returns ``(global_skew, max_intra_cluster, max_local_cluster,
    max_local_node)`` as plain floats — no :class:`SkewSnapshot` is
    built, which is what lets a buffered sampler take thousands of
    samples without allocating one object per tick.  ``edge_maxima``
    (running per-edge maxima) is updated in place when given;
    ``edge_out`` (this sample's per-edge skews) is filled when given.
    """
    lows: dict[int, float] = {}
    highs: dict[int, float] = {}
    global_low = global_high = 0.0
    max_intra = 0.0
    first = True
    for cluster, vals in groups:
        if not vals:
            continue
        low = min(vals)
        high = max(vals)
        lows[cluster] = low
        highs[cluster] = high
        if first:
            global_low, global_high = low, high
            first = False
        else:
            if low < global_low:
                global_low = low
            if high > global_high:
                global_high = high
        spread = high - low
        if spread > max_intra:
            max_intra = spread
    if first:
        return (0.0, 0.0, 0.0, 0.0)

    max_local_cluster = 0.0
    max_local_node = max_intra  # clique edges are node edges too
    track = edge_maxima is not None or edge_out is not None
    for edge in cluster_edges:
        a, b = edge
        la = lows.get(a)
        lb = lows.get(b)
        if la is None or lb is None:
            continue
        ha = highs[a]
        hb = highs[b]
        cluster_skew = 0.5 * abs((la + ha) - (lb + hb))
        if cluster_skew > max_local_cluster:
            max_local_cluster = cluster_skew
        node_skew = max(ha - lb, hb - la)
        if node_skew > max_local_node:
            max_local_node = node_skew
        if track:
            if edge_out is not None:
                edge_out[edge] = cluster_skew
            if edge_maxima is not None \
                    and cluster_skew > edge_maxima.get(edge, 0.0):
                edge_maxima[edge] = cluster_skew
    return (global_high - global_low, max_intra, max_local_cluster,
            max_local_node)


def stabilization_time(samples: "list[tuple[float, float]]",
                       band: float = 1.2,
                       tail_fraction: float = 0.3) -> float:
    """Time by which ``(t, local)`` samples settle into the steady band.

    The steady level is the max local skew over the final
    ``tail_fraction`` of samples; the stabilization time is the time of
    the *last* sample exceeding ``band`` times that level (the first
    sample time when nothing ever exceeds the band — instant
    stability).  Quantifies recovery after topology events, node
    crashes, and message loss; ``nan`` on an empty series.

    Pure float arithmetic in input order, so sweep finish steps using
    it stay bit-identical between serial and pooled runs.
    """
    if not samples:
        return float("nan")
    tail = samples[int(len(samples) * (1.0 - tail_fraction)):]
    steady = max(local for _, local in tail)
    threshold = band * steady
    settle = samples[0][0]
    for t, local in samples:
        if local > threshold:
            settle = t
    return settle


def log_log_fit(xs: "list[float]", ys: "list[float]"
                ) -> tuple[float, float, float]:
    """Least-squares power-law fit ``ln y = intercept + slope * ln x``.

    Returns ``(slope, intercept, rms_residual)`` where the residual is
    the root-mean-square error of the fit in log space.  This is the
    Gradient-TRIX-style regression: fitting measured local skew
    against the trigger unit ``kappa`` (or against the diameter)
    should give slope ~ 1 with a small residual when the skew tracks
    kappa proportionally.  With fewer than two distinct ``x`` values
    the slope is undefined and ``(nan, nan, nan)`` is returned;
    inputs must be positive.

    Every sum is :func:`math.fsum` (correctly rounded), so the fit
    does not depend on the Python version: builtin ``sum`` became
    compensated in 3.12 and rounds differently before it.  No
    randomness either, so finish steps using it stay bit-identical
    between serial and pooled sweeps.
    """
    if len(xs) != len(ys):
        raise ValueError(
            f"log_log_fit needs matched inputs: {len(xs)} vs {len(ys)}")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log_log_fit needs positive inputs")
    n = len(xs)
    if n < 2 or len(set(xs)) < 2:
        nan = float("nan")
        return (nan, nan, nan)
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = math.fsum(lx) / n
    mean_y = math.fsum(ly) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in lx)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sse = math.fsum((y - (intercept + slope * x)) ** 2
                    for x, y in zip(lx, ly))
    return (slope, intercept, math.sqrt(sse / n))


def pulse_diameters(pulse_log: dict[tuple[int, int], list[tuple[int, float]]]
                    ) -> dict[tuple[int, int], float]:
    """Per-(cluster, round) pulse diameters ``‖p_C(r)‖`` (Def. B.7).

    ``pulse_log`` maps ``(cluster, round)`` to ``(node, pulse_time)``
    entries of correct members.
    """
    result: dict[tuple[int, int], float] = {}
    for key, entries in pulse_log.items():
        if len(entries) >= 2:
            times = [t for _, t in entries]
            result[key] = max(times) - min(times)
        elif entries:
            result[key] = 0.0
    return result


def unanimity_by_round(mode_logs: dict[int, list[tuple[int, int]]]
                       ) -> dict[int, tuple[bool, int]]:
    """Which rounds a cluster was unanimous in, and in which mode.

    Parameters
    ----------
    mode_logs:
        ``{node: [(round, gamma), ...]}`` for the cluster's correct
        members.

    Returns
    -------
    dict
        ``{round: (unanimous, gamma)}`` where ``gamma`` is meaningful
        only when ``unanimous`` is true.  Rounds not yet reached by all
        members are omitted.
    """
    per_round: dict[int, set[int]] = {}
    for node, entries in mode_logs.items():
        for round_index, gamma in entries:
            per_round.setdefault(round_index, set()).add(gamma)
    expected = len(mode_logs)
    result: dict[int, tuple[bool, int]] = {}
    counts: dict[int, int] = {}
    for node, entries in mode_logs.items():
        for round_index, _ in entries:
            counts[round_index] = counts.get(round_index, 0) + 1
    for round_index, gammas in per_round.items():
        if counts.get(round_index, 0) != expected:
            continue
        if len(gammas) == 1:
            result[round_index] = (True, next(iter(gammas)))
        else:
            result[round_index] = (False, -1)
    return result
