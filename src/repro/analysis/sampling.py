"""Skew sampling: the event engine's one measurement path.

A :class:`SkewSampler` reads all correct logical clocks every
``interval`` time units, maintains running maxima of every skew metric,
and (optionally) a full time series plus per-edge maxima for
gradient-profile plots.  Each event-engine system gives its sampler
the clock readers of its correct nodes, grouped by cluster, and the
edges it measures (:meth:`SkewSampler.measure`), and gives them again
whenever either set changes.

Sampling is an *observation* device: it reads clocks without touching
algorithm state, so its cadence affects only measurement resolution,
never the execution.  Skews between samples can exceed the recorded
maxima by at most ``(theta_max - 1) * interval``, which is negligible
for the default cadence of a quarter round.

The sampler has two drives; each system calls the one it uses:

* :meth:`SkewSampler.start` samples now and then on one repeating
  kernel event every ``interval`` (the FTGCS family and master-slave).
  The event accumulates ``t += interval``, so float drift can push the
  tick at a run's horizon a few ulps past it, where
  ``Simulator.run(until=horizon)`` does not fire it; these systems
  therefore take a final :meth:`SkewSampler.sample_now` at the horizon
  (``FtgcsSystem.result``, ``MasterSlaveSystem.run_rounds``).
* :meth:`SkewSampler.advance` runs the kernel to each stop point
  ``interval, 2 interval, ...`` and samples there (``gcs_single`` and
  ``srikanth_toueg``).  It schedules no kernel event, so
  ``events_processed`` and the order of same-time events are the bare
  kernel's.

A tick refills preallocated per-cluster value buffers and, when a
series is recorded, appends its metrics to a :class:`SampleBuffer`
(numpy columns) through the allocation-free
:func:`~repro.analysis.metrics.accumulate_grouped` kernel; the
:class:`~repro.analysis.metrics.SkewSnapshot` list materializes lazily
on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.metrics import (
    SkewSnapshot,
    accumulate_grouped,
    stabilization_time,
)
from repro.errors import ConfigError
from repro.sim.kernel import Simulator

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
    """Skew probe over the correct clocks a system gives it.

    Parameters
    ----------
    sim:
        The simulation kernel.
    interval:
        Sampling period (Newtonian time).
    edges:
        The edges local skew is measured across, as cluster pairs
        (:meth:`measure` can replace them).
    record_series:
        Keep the full metric series (buffered; ``series`` materializes
        :class:`~repro.analysis.metrics.SkewSnapshot` objects lazily).
    track_edges:
        Maintain per-edge cluster-skew maxima (needed for profiles).
    """

    def __init__(self, sim: Simulator, interval: float,
                 edges: list[tuple[int, int]],
                 record_series: bool = False,
                 track_edges: bool = False) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive: {interval!r}")
        self._sim = sim
        self._interval = interval
        self._edges = list(edges)
        self._record_series = record_series
        self._track_edges = track_edges
        self.maxima = SkewMaxima()
        #: The recorded series (``None`` unless ``record_series``).
        self.buffer = SampleBuffer() if record_series else None
        #: Per-sample edge-skew dicts (parallel to the buffer); only
        #: kept when both the series and edges are recorded.
        self._edge_series: list[dict[tuple[int, int], float]] = []
        self._event = None
        #: The next stop point of :meth:`advance`.
        self._next_stop = interval
        #: ``(readers, value buffer)`` per group, as :meth:`measure`
        #: laid them out.
        self._readers: list = []
        #: The latest sample's correct clock values, grouped as
        #: ``[(cluster, values), ...]`` (refilled in place each tick).
        self.readings: list[tuple[int, list[float]]] = []

    def measure(self, groups: list[tuple[int, list[Callable[[], float]]]],
                edges: list[tuple[int, int]] | None = None) -> None:
        """Sample these clocks (and ``edges``, when given) from now on.

        ``groups`` holds ``(cluster, [reader, ...])`` pairs in the
        caller's stable order; each reader returns one correct node's
        clock value.  The sampler preallocates one value buffer per
        cluster, refilled in place at every tick.
        """
        self._readers = []
        self.readings = []
        for cluster, readers in groups:
            buffer = [0.0] * len(readers)
            self._readers.append((list(readers), buffer))
            self.readings.append((cluster, buffer))
        if edges is not None:
            self._edges = list(edges)

    @property
    def series(self) -> list[SkewSnapshot]:
        """The recorded series as :class:`SkewSnapshot` objects.

        Materialized from the flat buffer on access (the buffer itself
        never allocates per tick); values are bit-identical to the
        historical eagerly-built list.
        """
        buffer = self.buffer
        if buffer is None:
            return []
        edge_series = self._edge_series
        if edge_series:
            return [SkewSnapshot(*buffer.row(i), edge_skews=edge_series[i])
                    for i in range(len(buffer))]
        return [SkewSnapshot(*buffer.row(i)) for i in range(len(buffer))]

    def stabilization_time(self) -> float | None:
        """:func:`~repro.analysis.metrics.stabilization_time` of the
        recorded ``(time, max_local_cluster)`` series; ``None`` when no
        series was recorded or no sample was taken."""
        buffer = self.buffer
        if not buffer:
            return None
        return stabilization_time(list(zip(
            buffer.column("time"), buffer.column("max_local_cluster"))))

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

    def advance(self, until: float) -> None:
        """Run the kernel to each stop point up to ``until`` and sample.

        The stop points are ``interval, 2 interval, ...``, accumulated
        as ``t += interval``; a sample is taken at ``sim.now == t`` for
        every ``t <= until``, and a later call resumes from the next
        one.  The kernel stops at the last stop point, not at
        ``until``, and no kernel event is scheduled.
        """
        sim = self._sim
        t = self._next_stop
        while t <= until:
            sim.run(t)
            self._sample_tick()
            t += self._interval
        self._next_stop = t

    def _sample_tick(self) -> None:
        """Take one sample without allocating a snapshot (hot path)."""
        for readers, buffer in self._readers:
            for i, read in enumerate(readers):
                buffer[i] = read()
        maxima = self.maxima
        record = self._record_series
        edge_out = None
        if self._track_edges:
            if record:
                edge_out = {}
                self._edge_series.append(edge_out)
            global_skew, intra, local_cluster, local_node = (
                accumulate_grouped(self.readings, self._edges,
                                   edge_maxima=maxima.edge_maxima,
                                   edge_out=edge_out))
        else:
            global_skew, intra, local_cluster, local_node = (
                accumulate_grouped(self.readings, self._edges))
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
            self.buffer.append(self._sim.now, global_skew, intra,
                               local_cluster, local_node)

    #: Take one sample immediately: the tick's own path under the name
    #: the systems call at a run's horizon.
    sample_now = _sample_tick
