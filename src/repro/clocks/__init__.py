"""Clock substrate: hardware drift models, logical clocks, alarms."""

from repro.clocks.alarms import ALARM_TOLERANCE, Alarm, AlarmManager
from repro.clocks.base import IntegratingClock
from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import LogicalClock, ScaledClock
from repro.clocks.rate_models import ConstantRate, FlipRate, RateModel

__all__ = [
    "ALARM_TOLERANCE",
    "Alarm",
    "AlarmManager",
    "IntegratingClock",
    "HardwareClock",
    "LogicalClock",
    "ScaledClock",
    "ConstantRate",
    "FlipRate",
    "RateModel",
]
