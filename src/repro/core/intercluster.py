"""InterclusterSync — Algorithm 2 plus mode policies.

At the start of each round a node evaluates the fast/slow triggers
(Definitions 4.3/4.4) on its own logical clock and its estimates of the
adjacent cluster clocks, then fixes ``gamma_v`` for the entire round.
Three policies for the "neither trigger fires" case are provided:

* ``"algorithm2"`` — keep the previous mode, exactly as printed in
  Algorithm 2 (which only *changes* gamma when a trigger fires);
* ``"slow_default"`` — run slow unless the fast trigger fires; this is
  the precondition of Lemma C.1 and the default here;
* ``"max_rule"`` — Theorem C.3's full rule: fast trigger wins, then
  slow trigger, then "fast if I lag the global-max estimate ``M_v`` by
  more than ``c_global * delta_trigger``", else slow.  Requires a
  :class:`~repro.core.max_estimate.MaxEstimate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import triggers
from repro.core.max_estimate import MaxEstimate
from repro.core.params import Parameters
from repro.errors import ConfigError

MODE_POLICIES = ("algorithm2", "slow_default", "max_rule")


@dataclass
class ModeRecord:
    """One per-round mode decision (for faithfulness analysis)."""

    round_index: int
    gamma: int
    fast_trigger: bool
    slow_trigger: bool
    up: float
    down: float


@dataclass
class InterclusterStats:
    """Aggregate mode statistics for one node."""

    fast_rounds: int = 0
    slow_rounds: int = 0
    max_rule_activations: int = 0
    both_triggers_rounds: int = 0  # must stay 0 (Lemma 4.5)
    history: list[ModeRecord] = field(default_factory=list)


class InterclusterSync:
    """Per-node mode controller simulating the GCS algorithm.

    Parameters
    ----------
    params:
        Algorithm parameters (uses ``kappa``, ``delta_trigger``,
        ``c_global``).
    policy:
        One of :data:`MODE_POLICIES`.
    own_value:
        Callable returning the node's logical clock value — the node's
        stand-in for its cluster's clock.
    estimate_values:
        Callable returning ``{cluster_id: estimated clock}`` for all
        adjacent clusters.
    max_estimate:
        Required for ``policy="max_rule"``.
    record_history:
        Keep a full :class:`ModeRecord` log.
    """

    def __init__(self, params: Parameters, policy: str,
                 own_value: Callable[[], float],
                 estimate_values: Callable[[], dict[int, float]],
                 max_estimate: MaxEstimate | None = None,
                 record_history: bool = False) -> None:
        if policy not in MODE_POLICIES:
            raise ConfigError(
                f"unknown mode policy {policy!r}; expected one of "
                f"{MODE_POLICIES}")
        if policy == "max_rule" and max_estimate is None:
            raise ConfigError("policy 'max_rule' requires a MaxEstimate")
        self._params = params
        self._policy = policy
        self._own_value = own_value
        self._estimate_values = estimate_values
        self._max_estimate = max_estimate
        self._record_history = record_history
        self._gamma = 0
        self.stats = InterclusterStats()

    @property
    def gamma(self) -> int:
        """The mode chosen for the current round."""
        return self._gamma

    def decide(self, round_index: int) -> int:
        """Evaluate triggers and return the round's ``gamma``."""
        own = self._own_value()
        estimates = self._estimate_values()
        decision = triggers.evaluate(
            own, estimates, self._params.kappa, self._params.delta_trigger)

        if decision.fast and decision.slow:
            # Lemma 4.5 says this cannot happen for slack < kappa/2;
            # count it so violations surface in experiment reports.
            self.stats.both_triggers_rounds += 1

        if decision.fast:
            gamma = 1
        elif decision.slow:
            gamma = 0
        elif self._policy == "algorithm2":
            gamma = self._gamma
        elif self._policy == "max_rule":
            lag_limit = (self._params.c_global
                         * self._params.delta_trigger)
            if own <= self._max_estimate.value() - lag_limit:
                gamma = 1
                self.stats.max_rule_activations += 1
            else:
                gamma = 0
        else:  # slow_default
            gamma = 0

        self._gamma = gamma
        if gamma == 1:
            self.stats.fast_rounds += 1
        else:
            self.stats.slow_rounds += 1
        if self._record_history:
            self.stats.history.append(ModeRecord(
                round_index=round_index, gamma=gamma,
                fast_trigger=decision.fast, slow_trigger=decision.slow,
                up=decision.up, down=decision.down))
        return gamma
