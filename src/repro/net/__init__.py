"""Network substrate: messages, delay models, point-to-point delivery."""

from repro.net.delays import DelayModel, ExtremalDelay, UniformDelay
from repro.net.message import Pulse, PulseKind, ValueMessage
from repro.net.network import Network

__all__ = [
    "DelayModel",
    "ExtremalDelay",
    "UniformDelay",
    "Pulse",
    "PulseKind",
    "ValueMessage",
    "Network",
]
