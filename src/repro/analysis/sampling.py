"""Periodic skew sampling during a simulation run.

A :class:`SkewSampler` is a periodic kernel event that snapshots all
correct logical clocks every ``interval`` time units, maintains running
maxima of every skew metric, and (optionally) a full time series plus
per-edge maxima for gradient-profile plots.

Sampling is an *observation* device: it reads clocks without touching
algorithm state, so its cadence affects only measurement resolution,
never the execution.  Skews between samples can exceed the recorded
maxima by at most ``(theta_max - 1) * interval``, which is negligible
for the default cadence of a quarter round.

Sampling is also the measurement hot path — for every event the
algorithm fires, the sampler reads every correct clock several times
per round.  The sampler therefore (a) re-arms one repeating kernel
event (:meth:`~repro.sim.kernel.Simulator.call_repeating`) instead of
allocating a fresh event per tick, (b) takes a *grouped* collector
(:data:`Collector`) that fills preallocated flat per-cluster buffers
instead of rebuilding nested dicts each sample, and (c) when a series
is recorded, appends each tick's metrics into a preallocated
:class:`SampleBuffer` (numpy columns) through the allocation-free
:func:`~repro.analysis.metrics.accumulate_grouped` kernel — no
:class:`~repro.analysis.metrics.SkewSnapshot` object is built per
tick; the snapshot list materializes lazily on access and is
bit-identical to the historical eager form.

The repeating event accumulates ``t += interval``, so float drift can
push a tick nominally at a run's horizon a few ulps past it, where
``Simulator.run(until=horizon)`` does not fire it.  The systems
therefore take a final :meth:`SkewSampler.sample_now` at the horizon
(``FtgcsSystem.result``, ``MasterSlaveSystem.run_rounds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.metrics import SkewSnapshot, accumulate_grouped
from repro.errors import ConfigError
from repro.sim.kernel import Simulator

#: ``collector()`` returning correct clock values grouped by cluster
#: as ``[(cluster, values), ...]``; the lists may be reused buffers.
Collector = Callable[[], "list[tuple[int, list[float]]]"]

#: Per-sample metric columns held by :class:`SampleBuffer`, in order.
SAMPLE_COLUMNS = ("time", "global_skew", "max_intra_cluster",
                  "max_local_cluster", "max_local_node")


class SampleBuffer:
    """Flat preallocated per-metric columns for skew samples.

    One growable float column per entry of :data:`SAMPLE_COLUMNS`:
    preallocated ``float64`` arrays grown by doubling.  Recording a
    sample costs five scalar stores — no dict, tuple, or dataclass is
    allocated per tick.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1: {capacity!r}")
        self._length = 0
        self._columns = [np.empty(capacity) for _ in SAMPLE_COLUMNS]

    def __len__(self) -> int:
        return self._length

    def append(self, time: float, global_skew: float, intra: float,
               local_cluster: float, local_node: float) -> None:
        """Record one sample (five scalar stores on the hot path)."""
        i = self._length
        columns = self._columns
        if i == len(columns[0]):
            self._columns = columns = [
                np.concatenate([col, np.empty(len(col))])
                for col in columns]
        columns[0][i] = time
        columns[1][i] = global_skew
        columns[2][i] = intra
        columns[3][i] = local_cluster
        columns[4][i] = local_node
        self._length = i + 1

    def column(self, name: str) -> list[float]:
        """One metric column as a plain float list (length == len(self))."""
        try:
            index = SAMPLE_COLUMNS.index(name)
        except ValueError:
            raise ConfigError(f"unknown sample column {name!r}; known: "
                              f"{SAMPLE_COLUMNS}") from None
        return [float(v) for v in self._columns[index][:self._length]]

    def row(self, index: int) -> tuple[float, float, float, float, float]:
        """One sample's ``(time, global, intra, local_cluster,
        local_node)``."""
        if not 0 <= index < self._length:
            raise IndexError(index)
        return tuple(float(col[index]) for col in self._columns)


@dataclass
class SkewMaxima:
    """Running maxima over all samples taken so far."""

    global_skew: float = 0.0
    intra_cluster: float = 0.0
    local_cluster: float = 0.0
    local_node: float = 0.0
    samples: int = 0
    edge_maxima: dict[tuple[int, int], float] = field(default_factory=dict)


class SkewSampler:
    """Periodic skew probe driven by one repeating kernel event.

    Parameters
    ----------
    sim:
        The simulation kernel.
    interval:
        Sampling period (Newtonian time).
    collector:
        Returns the current correct clock values (see
        :data:`Collector`).
    cluster_edges:
        Edge list of the cluster graph ``G``.
    record_series:
        Keep the full metric series (buffered; ``series`` materializes
        :class:`~repro.analysis.metrics.SkewSnapshot` objects lazily).
    track_edges:
        Maintain per-edge cluster-skew maxima (needed for profiles).
    """

    def __init__(self, sim: Simulator, interval: float,
                 collector: Collector,
                 cluster_edges: list[tuple[int, int]],
                 record_series: bool = False,
                 track_edges: bool = False) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive: {interval!r}")
        self._sim = sim
        self._interval = interval
        self._collector = collector
        self._cluster_edges = list(cluster_edges)
        self._record_series = record_series
        self._track_edges = track_edges
        self.maxima = SkewMaxima()
        self._buffer = SampleBuffer() if record_series else None
        #: Per-sample edge-skew dicts (parallel to the buffer); only
        #: kept when both the series and edges are recorded.
        self._edge_series: list[dict[tuple[int, int], float]] = []
        self._event = None

    @property
    def series(self) -> list[SkewSnapshot]:
        """The recorded series as :class:`SkewSnapshot` objects.

        Materialized from the flat buffer on access (the buffer itself
        never allocates per tick); values are bit-identical to the
        historical eagerly-built list.
        """
        buffer = self._buffer
        if buffer is None:
            return []
        edge_series = self._edge_series
        if edge_series:
            return [SkewSnapshot(*buffer.row(i), edge_skews=edge_series[i])
                    for i in range(len(buffer))]
        return [SkewSnapshot(*buffer.row(i)) for i in range(len(buffer))]

    def start(self) -> None:
        """Take a first sample now and re-arm every ``interval``."""
        if self._event is not None:
            raise ConfigError("sampler already started")
        self.sample_now()
        self._event = self._sim.call_repeating(self._interval,
                                               self._sample_tick)

    def stop(self) -> None:
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _sample_tick(self) -> None:
        """Take one sample without allocating a snapshot (hot path)."""
        values = self._collector()
        maxima = self.maxima
        record = self._record_series
        edge_out = None
        if self._track_edges:
            if record:
                edge_out = {}
                self._edge_series.append(edge_out)
            global_skew, intra, local_cluster, local_node = (
                accumulate_grouped(values, self._cluster_edges,
                                   edge_maxima=maxima.edge_maxima,
                                   edge_out=edge_out))
        else:
            global_skew, intra, local_cluster, local_node = (
                accumulate_grouped(values, self._cluster_edges))
        if global_skew > maxima.global_skew:
            maxima.global_skew = global_skew
        if intra > maxima.intra_cluster:
            maxima.intra_cluster = intra
        if local_cluster > maxima.local_cluster:
            maxima.local_cluster = local_cluster
        if local_node > maxima.local_node:
            maxima.local_node = local_node
        maxima.samples += 1
        if record:
            self._buffer.append(self._sim.now, global_skew, intra,
                                local_cluster, local_node)

    #: Take one sample immediately: the tick's own path under the name
    #: the systems call at a run's horizon.
    sample_now = _sample_tick
