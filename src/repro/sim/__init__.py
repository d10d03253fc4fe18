"""Deterministic discrete-event simulation kernel (virtual microseconds).

Public surface::

    from repro.sim import Environment, Event, Process, Timeout
    from repro.sim import AllOf, AnyOf, Join, Signal, CountdownLatch
    from repro.sim import Resource, Store, BandwidthServer
    from repro.sim import Interrupt, SimulationError

See :mod:`repro.sim.core` for the execution model.
"""

from .core import (
    NORMAL,
    PENDING,
    URGENT,
    Environment,
    Event,
    Process,
    ProcessGenerator,
    SchedulePolicy,
    Timeout,
)
from .errors import (
    EventLifecycleError,
    Interrupt,
    SchedulingError,
    SimulationError,
    StopProcess,
)
from .primitives import AllOf, AnyOf, Condition, CountdownLatch, Join, Signal
from .resources import BandwidthServer, Request, Resource, Store

__all__ = [
    "NORMAL",
    "PENDING",
    "URGENT",
    "Environment",
    "Event",
    "Process",
    "ProcessGenerator",
    "SchedulePolicy",
    "Timeout",
    "EventLifecycleError",
    "Interrupt",
    "SchedulingError",
    "SimulationError",
    "StopProcess",
    "AllOf",
    "AnyOf",
    "Condition",
    "CountdownLatch",
    "Join",
    "Signal",
    "BandwidthServer",
    "Request",
    "Resource",
    "Store",
]
