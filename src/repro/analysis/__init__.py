"""Measurement and bound-checking utilities."""

from repro.analysis.bounds import (
    BoundsReport,
    cluster_failure_bound_3ep,
    cluster_failure_bound_binomial,
    cluster_failure_probability,
    system_failure_probability,
)
from repro.analysis.metrics import (
    ClusterExtrema,
    SkewSnapshot,
    accumulate_grouped,
    cluster_extrema,
    log_log_fit,
    pulse_diameters,
    unanimity_by_round,
)
from repro.analysis.sampling import SampleBuffer, SkewMaxima, SkewSampler
from repro.analysis.traces import (
    ClockTraceRecorder,
    Trace,
    difference_series,
)

__all__ = [
    "ClockTraceRecorder",
    "Trace",
    "difference_series",
    "BoundsReport",
    "cluster_failure_bound_3ep",
    "cluster_failure_bound_binomial",
    "cluster_failure_probability",
    "system_failure_probability",
    "ClusterExtrema",
    "SkewSnapshot",
    "accumulate_grouped",
    "cluster_extrema",
    "log_log_fit",
    "pulse_diameters",
    "unanimity_by_round",
    "SampleBuffer",
    "SkewMaxima",
    "SkewSampler",
]
