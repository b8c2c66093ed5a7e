"""Link delay models.

The model of Section 2: a pulse sent at time ``p`` arrives at each
neighbor at some time in ``[p + d - U, p + d]`` where ``d`` is the
maximum delay and ``U`` the delay uncertainty.  A :class:`DelayModel`
draws the per-message delay; the network validates that every draw
stays inside the envelope (Byzantine *links* are not part of the
paper's model — only Byzantine nodes are).

Models provided (``SystemConfig.delay_model`` selects them by name):

* :class:`UniformDelay` (``"uniform"``) — i.i.d. uniform draw from
  ``[d-U, d]``.
* :class:`ExtremalDelay` (``"min"``/``"max"``) — always the minimum or
  always the maximum; the worst cases for synchronization error are at
  the envelope edges.

Any other model is a :class:`DelayModel` subclass returned by a
``delay_model`` factory.  One that sets ``in_model = False`` steps
outside the envelope on purpose (fault injection): the network then
skips envelope validation and only requires non-negative draws.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import NetworkError


class DelayModel(ABC):
    """Draws the delay for one message on one directed link."""

    #: True when every draw is guaranteed to lie in ``[d - U, d]``;
    #: the network validates such draws against the envelope.  Models
    #: that inject out-of-model delays (fault injection) set this
    #: False, and the network then only requires non-negative draws.
    in_model: bool = True

    @abstractmethod
    def draw(self, sender: int, receiver: int, now: float) -> float:
        """Delay (in Newtonian time units) for a message sent now."""


class UniformDelay(DelayModel):
    """I.i.d. uniform delay in ``[d - U, d]``."""

    def __init__(self, d: float, u: float, rng: random.Random) -> None:
        if d <= 0:
            raise NetworkError(f"d must be positive: {d!r}")
        if not 0 <= u <= d:
            raise NetworkError(f"need 0 <= U <= d: U={u!r}, d={d!r}")
        self._d = d
        self._u = u
        self._rng = rng

    def draw(self, sender: int, receiver: int, now: float) -> float:
        return self._d - self._u * self._rng.random()


class ExtremalDelay(DelayModel):
    """Always ``d - U`` (``mode='min'``) or always ``d`` (``mode='max'``)."""

    def __init__(self, d: float, u: float, mode: str = "max") -> None:
        if mode not in ("min", "max"):
            raise NetworkError(f"mode must be 'min' or 'max': {mode!r}")
        if not 0 <= u <= d:
            raise NetworkError(f"need 0 <= U <= d: U={u!r}, d={d!r}")
        self._delay = d if mode == "max" else d - u

    def draw(self, sender: int, receiver: int, now: float) -> float:
        return self._delay
