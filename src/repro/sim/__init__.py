"""Deterministic discrete-event simulation kernel (virtual microseconds).

Public surface::

    from repro.sim import Environment, Event, Process, Timeout
    from repro.sim import AllOf, AnyOf, Join, Signal, Gate, CountdownLatch
    from repro.sim import Resource, Store, Channel
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
    get_default_queue,
    set_default_queue,
)
from .queues import QUEUE_KINDS, CalendarQueue, HeapQueue, make_queue
from .errors import (
    EventLifecycleError,
    Interrupt,
    SchedulingError,
    SimulationError,
    StopProcess,
)
from .primitives import (AllOf, AnyOf, Condition, CountdownLatch, Gate, Join,
                         Signal)
from .resources import BandwidthServer, Channel, Request, Resource, Store

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
    "get_default_queue",
    "set_default_queue",
    "QUEUE_KINDS",
    "CalendarQueue",
    "HeapQueue",
    "make_queue",
    "EventLifecycleError",
    "Interrupt",
    "SchedulingError",
    "SimulationError",
    "StopProcess",
    "AllOf",
    "AnyOf",
    "Condition",
    "CountdownLatch",
    "Gate",
    "Join",
    "Signal",
    "BandwidthServer",
    "Channel",
    "Request",
    "Resource",
    "Store",
]
