"""Deterministic fault injection for the simulated NTB fabric.

Plans (:class:`FaultPlan`) are pure virtual-time data; the
:class:`FaultInjector` schedules them against a cluster's cables and
adapters.  Drive it from ``ShmemConfig(faults=...)`` or the bench CLI
(``python -m repro.bench --chaos``).  An empty plan is free: it installs
nothing and leaves every run byte-identical in virtual time.
"""

from .injector import FaultInjector
from .plan import (
    DelayTlp,
    DropDoorbell,
    FaultEvent,
    FaultPlan,
    RestoreCable,
    SeverCable,
    validate_for_topology,
)

__all__ = [
    "DelayTlp",
    "DropDoorbell",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RestoreCable",
    "SeverCable",
    "validate_for_topology",
]
