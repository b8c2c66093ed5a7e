"""Hardware clock drift-rate models.

The paper's model (Section 2) prescribes hardware rates
``1 <= h_v(t) <= 1 + rho`` that may vary arbitrarily over time.  A
:class:`RateModel` produces one such trajectory as a sequence of
piecewise-constant segments: :meth:`RateModel.initial_rate` gives the
rate at time 0, and :meth:`RateModel.next_change` yields the next
``(time, rate)`` breakpoint (or ``None`` for "constant forever").

Worst-case analyses are driven by *adversarial* trajectories; the
models here cover the extremes used in the experiments:

* :class:`ConstantRate` — pinned at any value in ``[1, 1+rho]``; the
  classic worst case is one node at ``1`` and another at ``1+rho``.
* :class:`FlipRate` — alternates between two rates with a fixed period
  and phase; used to "pump" skew back and forth along a line, the
  pattern that defeats master–slave synchronization.

Any other trajectory is a :class:`RateModel` subclass returned by a
``rate_model`` factory.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ClockError


class RateModel(ABC):
    """A piecewise-constant rate trajectory."""

    @abstractmethod
    def initial_rate(self) -> float:
        """Rate in effect at simulation start."""

    @abstractmethod
    def next_change(self, now: float) -> tuple[float, float] | None:
        """Return ``(t, rate)`` of the next breakpoint strictly after
        ``now``, or ``None`` if the rate never changes again."""


class ConstantRate(RateModel):
    """A clock that runs at a fixed rate forever."""

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ClockError(f"rate must be positive: {rate!r}")
        self._rate = rate

    def initial_rate(self) -> float:
        return self._rate

    def next_change(self, now: float) -> tuple[float, float] | None:
        return None

    def __repr__(self) -> str:
        return f"ConstantRate({self._rate!r})"


class FlipRate(RateModel):
    """Alternates between ``low`` and ``high`` every ``period``.

    The first flip happens at ``t = phase`` (or at ``t = period`` when
    ``phase == 0``, since the initial segment must have positive
    length); subsequent flips follow every ``period``.  With
    ``start_high=True`` the clock begins at ``high``.  This is the
    adversarial "drift pump": running a region of the network fast
    while another runs slow, then swapping, maximizes the skew an
    oblivious algorithm accumulates.
    """

    def __init__(self, low: float, high: float, period: float,
                 phase: float = 0.0, start_high: bool = False) -> None:
        if not 0 < low <= high:
            raise ClockError(f"need 0 < low <= high: {low!r}, {high!r}")
        if period <= 0:
            raise ClockError(f"period must be positive: {period!r}")
        if phase < 0:
            raise ClockError(f"phase must be non-negative: {phase!r}")
        self._low = low
        self._high = high
        self._period = period
        self._phase = phase
        self._start_high = start_high
        # Flip times are t_i = phase + i*period (i >= 0); only strictly
        # positive times are real flips, so skip t_0 when phase == 0.
        self._i_first = 0 if phase > 0 else 1

    def _rate_after_flips(self, nflips: int) -> float:
        """Rate in effect after ``nflips`` flips have occurred."""
        starts_high = self._start_high
        if nflips % 2 == 0:
            return self._high if starts_high else self._low
        return self._low if starts_high else self._high

    def initial_rate(self) -> float:
        return self._rate_after_flips(0)

    def next_change(self, now: float) -> tuple[float, float] | None:
        index = max(self._i_first,
                    math.floor((now - self._phase) / self._period) + 1)
        t = self._phase + index * self._period
        while t <= now:  # guard against float rounding at boundaries
            index += 1
            t = self._phase + index * self._period
        nflips = index - self._i_first + 1
        return t, self._rate_after_flips(nflips)
