"""Delay models that only the tests use.

Test modules import them by name (``from delay_models import
FixedDelay``); the library ships only the models a spec selects
(``repro.net.delays``).
"""

from repro.errors import NetworkError
from repro.net.delays import DelayModel


class FixedDelay(DelayModel):
    """Every message takes exactly ``delay``: makes delivery times, and
    so same-time ties, exact in network tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise NetworkError(f"delay must be non-negative: {delay!r}")
        self._delay = delay

    def draw(self, sender: int, receiver: int, now: float) -> float:
        return self._delay


class LateDelay(DelayModel):
    """An out-of-model delay: ``d - U`` plus ``U`` times a Pareto(alpha)
    excess, so a heavy tail of draws lands past ``d``.  Declares
    ``in_model = False``, so the network only checks non-negativity."""

    in_model = False

    def __init__(self, d: float, u: float, alpha: float, rng) -> None:
        self._low = d - u
        self._u = u
        self._alpha = alpha
        self._rng = rng

    def draw(self, sender: int, receiver: int, now: float) -> float:
        return self._low + self._u * (self._rng.paretovariate(self._alpha)
                                      - 1.0)
