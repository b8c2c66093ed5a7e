"""Shared helpers for the experiment definitions.

These wrap common scenario shapes — "line under attack", "steady-state
tail measurement", "gradient initialization" — so each experiment in
:mod:`repro.harness.experiments` reads as a parameter table rather than
wiring code.
"""

from __future__ import annotations

from repro.core.params import Parameters


def default_params(rho: float = 1e-4, d: float = 1.0, u: float = 0.1,
                   f: int = 1, **kwargs) -> Parameters:
    """The parameter set shared by most experiments."""
    return Parameters.practical(rho=rho, d=d, u=u, f=f, **kwargs)


def steady_state_skews(series, tail_fraction: float = 0.5
                       ) -> dict[str, float]:
    """Max skews over the last ``tail_fraction`` of a sample series.

    Excludes the initialization transient, which is governed by the
    (arbitrary) initial jitter rather than by the algorithm.
    """
    if not series:
        raise ValueError("scenario must run with record_series=True")
    start = int(len(series) * (1.0 - tail_fraction))
    tail = series[start:]
    return {
        "global": max(s.global_skew for s in tail),
        "intra": max(s.max_intra_cluster for s in tail),
        "local_cluster": max(s.max_local_cluster for s in tail),
        "local_node": max(s.max_local_node for s in tail),
    }


def gradient_offsets(num_clusters: int, per_edge: float) -> list[float]:
    """Linearly increasing cluster offsets: cluster i at ``i*per_edge``."""
    return [i * per_edge for i in range(num_clusters)]


def step_offsets(num_clusters: int, step_at: int,
                 height: float) -> list[float]:
    """Step function: clusters ``>= step_at`` offset by ``height``."""
    return [height if i >= step_at else 0.0
            for i in range(num_clusters)]
