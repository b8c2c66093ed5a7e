"""Fast/slow conditions and triggers (Definitions 4.1–4.4).

The GCS algorithm compares a cluster's clock against its neighbors on a
ladder of levels.  For level ``s = 1, 2, ...`` define thresholds
``2 s kappa`` (fast, even rungs) and ``(2s - 1) kappa`` (slow, odd
rungs).  With

    up   = max_A (L_A - L_C)      (how far the best neighbor is ahead)
    down = max_B (L_C - L_B)      (how far the worst neighbor is behind)

the paper's quantified definitions reduce to closed forms:

* **FC / FT** — exists integer ``s >= 1`` with ``up >= 2 s kappa -
  slack`` and ``down <= 2 s kappa + slack``;
* **SC / ST** — exists integer ``s >= 1`` with ``down >= (2s-1) kappa
  - slack`` and ``up <= (2s-1) kappa + slack``;

where ``slack = 0`` gives the *conditions* (on true cluster clocks) and
``slack = delta_trigger`` gives the *triggers* (on estimates).  We
solve the existence question directly instead of enumerating levels.

Lemma 4.5: for ``slack < kappa / 2`` the two triggers are mutually
exclusive (firing at level ``s`` and odd rung ``m`` needs
``|2s - m| kappa <= 2 slack``); the library asserts this in its
property-based tests, and every parameter set uses ``kappa / 3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ParameterError


def _exists_fast_level(up: float, down: float, kappa: float,
                       slack: float) -> bool:
    """Is there an integer ``s >= 1`` with
    ``up >= 2 s kappa - slack`` and ``down <= 2 s kappa + slack``?"""
    # s <= (up + slack) / (2 kappa)  and  s >= (down - slack) / (2 kappa)
    s_hi = math.floor((up + slack) / (2.0 * kappa))
    s_lo = max(1, math.ceil((down - slack) / (2.0 * kappa)))
    return s_hi >= s_lo


def _exists_slow_level(up: float, down: float, kappa: float,
                       slack: float) -> bool:
    """Is there an integer ``s >= 1`` (odd rung ``m = 2s - 1``) with
    ``down >= m kappa - slack`` and ``up <= m kappa + slack``?"""
    m_hi = math.floor((down + slack) / kappa)
    m_lo = max(1, math.ceil((up - slack) / kappa))
    if m_hi < m_lo:
        return False
    # Does [m_lo, m_hi] contain an odd integer?
    return (m_lo % 2 == 1) or (m_lo + 1 <= m_hi)


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of one trigger evaluation (with its inputs, for logs)."""

    fast: bool
    slow: bool
    up: float
    down: float


def evaluate(own_value: float, neighbor_values: dict[int, float],
             kappa: float, slack: float) -> TriggerDecision:
    """Evaluate FT/ST (or FC/SC with ``slack=0``) for one cluster/node.

    Parameters
    ----------
    own_value:
        The node's own logical clock (its stand-in for its cluster
        clock), or the true cluster clock when checking conditions.
    neighbor_values:
        Estimated (or true) clocks of the neighboring clusters.
    kappa, slack:
        Level width and trigger slack (``slack < kappa / 2``).

    Returns
    -------
    TriggerDecision
        ``fast``/``slow`` flags plus the ``up``/``down`` extremes.
        With no neighbors both flags are ``False``.
    """
    if kappa <= 0:
        raise ParameterError(f"kappa must be positive: {kappa!r}")
    if slack < 0:
        raise ParameterError(f"slack must be non-negative: {slack!r}")
    if not neighbor_values:
        return TriggerDecision(fast=False, slow=False,
                               up=float("-inf"), down=float("-inf"))
    up = max(value - own_value for value in neighbor_values.values())
    down = max(own_value - value for value in neighbor_values.values())
    fast = _exists_fast_level(up, down, kappa, slack)
    slow = _exists_slow_level(up, down, kappa, slack)
    return TriggerDecision(fast=fast, slow=slow, up=up, down=down)
