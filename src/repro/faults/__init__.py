"""Byzantine adversaries and fault placement policies.

:mod:`repro.faults.adversary` holds one
:class:`~repro.faults.adversary.AdversaryModel` per attack, realized on
both engines; :mod:`repro.faults.placement` builds the
``{node_id: model}`` maps an event-kernel system consumes.
"""

from repro.faults.adversary import (
    AdversaryModel,
    CollusionAdversary,
    CrashAdversary,
    EquivocateAdversary,
    EventContext,
    FastClockAdversary,
    PullApartAdversary,
    RandomPulseAdversary,
    SilentAdversary,
)
from repro.faults.placement import place_everywhere, place_in_clusters

__all__ = [
    "place_everywhere",
    "place_in_clusters",
    "AdversaryModel",
    "CollusionAdversary",
    "CrashAdversary",
    "EquivocateAdversary",
    "EventContext",
    "FastClockAdversary",
    "PullApartAdversary",
    "RandomPulseAdversary",
    "SilentAdversary",
]
