"""Deterministic fault plans: *what* goes wrong and *when* (virtual time).

A :class:`FaultPlan` is an immutable schedule of fault events expressed in
virtual microseconds.  Plans are pure data — applying them to a cluster is
the :class:`~repro.faults.injector.FaultInjector`'s job — so the same plan
can be replayed, diffed, or embedded in a bench config and always produce
the same virtual-time behaviour.

Event types
-----------
``SeverCable``
    Unplug the duplex cable between two adjacent hosts (both directions
    drop posted traffic, reads master-abort to all-ones).
``RestoreCable``
    Re-plug a previously severed cable.
``DropDoorbell``
    Swallow the next ``count`` doorbell rings sent by one adapter — the
    MMIO write is serialized and charged but the peer latch never fires
    (models a marginal cable eating individual TLPs).
``DelayTlp``
    Add ``extra_us`` of flight time to every TLP batch on a cable from
    ``at_us`` until ``until_us`` (models retraining / congested bridge).

Seeded helpers use a hand-rolled LCG rather than :mod:`random` so plans
stay reproducible across interpreter versions and the ``faults`` package
remains free of wall-clock/global-RNG dependencies (lint-enforced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

__all__ = [
    "SeverCable",
    "RestoreCable",
    "DropDoorbell",
    "DelayTlp",
    "FaultEvent",
    "FaultPlan",
    "validate_for_topology",
]


@dataclass(frozen=True)
class SeverCable:
    """Unplug the cable between adjacent hosts ``host_a`` and ``host_b``."""

    at_us: float
    host_a: int
    host_b: int

    def __post_init__(self) -> None:
        _check_edge(self.at_us, self.host_a, self.host_b)


@dataclass(frozen=True)
class RestoreCable:
    """Re-plug the cable between ``host_a`` and ``host_b``."""

    at_us: float
    host_a: int
    host_b: int

    def __post_init__(self) -> None:
        _check_edge(self.at_us, self.host_a, self.host_b)


@dataclass(frozen=True)
class DropDoorbell:
    """Swallow the next ``count`` doorbell rings from one adapter."""

    at_us: float
    host: int
    side: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_us}")
        # Port names are topology-defined ("left"/"right" on rings,
        # "x+"/"y-"/... on grids); existence is checked against the
        # actual topology in validate_for_topology.
        if not self.side or not isinstance(self.side, str):
            raise ValueError(f"side must be a port name, got {self.side!r}")
        if self.count < 1:
            raise ValueError(f"drop count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class DelayTlp:
    """Add ``extra_us`` flight time per TLP batch on a cable for a window."""

    at_us: float
    host_a: int
    host_b: int
    extra_us: float
    until_us: float

    def __post_init__(self) -> None:
        _check_edge(self.at_us, self.host_a, self.host_b)
        if self.extra_us <= 0:
            raise ValueError(f"extra delay must be > 0, got {self.extra_us}")
        if self.until_us <= self.at_us:
            raise ValueError(
                f"delay window must end after it starts "
                f"({self.at_us} .. {self.until_us})"
            )


FaultEvent = Union[SeverCable, RestoreCable, DropDoorbell, DelayTlp]


def _check_edge(at_us: float, host_a: int, host_b: int) -> None:
    if at_us < 0:
        raise ValueError(f"fault time must be >= 0, got {at_us}")
    if host_a < 0 or host_b < 0:
        raise ValueError(f"host ids must be >= 0, got ({host_a}, {host_b})")
    if host_a == host_b:
        raise ValueError(f"cable endpoints must differ, got host {host_a}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, virtual-time schedule of fault events.

    An empty plan is the explicit "no faults" value: configuring a runtime
    with ``FaultPlan()`` (or ``faults=None``) keeps every run byte-identical
    in virtual time to a build without the fault layer at all.
    """

    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, (SeverCable, RestoreCable,
                                      DropDoorbell, DelayTlp)):
                raise TypeError(f"not a fault event: {event!r}")

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def sorted_events(self) -> tuple[FaultEvent, ...]:
        """Events ordered by activation time (stable for equal times)."""
        return tuple(sorted(self.events, key=lambda e: e.at_us))

    # -- convenience constructors ------------------------------------------
    @classmethod
    def single_sever(cls, host_a: int, host_b: int, at_us: float,
                     restore_at_us: float | None = None) -> "FaultPlan":
        """The canonical demo plan: one severed cable, optional re-plug."""
        events: list[FaultEvent] = [SeverCable(at_us, host_a, host_b)]
        if restore_at_us is not None:
            events.append(RestoreCable(restore_at_us, host_a, host_b))
        return cls(tuple(events))

    @classmethod
    def seeded_severs(cls, n_hosts: int, seed: int, *,
                      window_us: tuple[float, float] = (2_000.0, 20_000.0),
                      count: int = 1) -> "FaultPlan":
        """``count`` cable severs at LCG-randomised virtual times.

        Edges are drawn without replacement from the ring's ``n_hosts``
        cables; times are uniform over ``window_us``.  Same seed, same
        plan — forever.
        """
        if n_hosts < 2:
            raise ValueError("need at least 2 hosts for a ring")
        if count < 1 or count > n_hosts:
            raise ValueError(f"count must be in 1..{n_hosts}, got {count}")
        lo, hi = window_us
        if hi <= lo or lo < 0:
            raise ValueError(f"bad time window {window_us}")
        rng = _Lcg(seed)
        edges = [(a, (a + 1) % n_hosts) for a in range(n_hosts)]
        events: list[FaultEvent] = []
        for _ in range(count):
            edge = edges.pop(rng.below(len(edges)))
            at = lo + rng.uniform() * (hi - lo)
            events.append(SeverCable(round(at, 3), edge[0], edge[1]))
        return cls(tuple(events))


class _Lcg:
    """Tiny deterministic generator (Numerical Recipes constants)."""

    def __init__(self, seed: int):
        self._state = (seed ^ 0x5DEECE66D) & 0xFFFFFFFF

    def _next(self) -> int:
        self._state = (self._state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self._state

    def below(self, n: int) -> int:
        return self._next() % n

    def uniform(self) -> float:
        return self._next() / 0x100000000


def validate_for_topology(plan: FaultPlan, topology) -> None:
    """Reject events naming cables or ports ``topology`` does not have.

    ``topology`` is any :class:`~repro.fabric.topology.Topology` — duck
    typed (``cables()``/``ports()``/``n_hosts``) so this pure-data module
    stays import-free of the fabric package.
    """
    valid = set()
    for a, _ap, b, _bp in topology.cables():
        valid.add((a, b))
        valid.add((b, a))
    n_hosts = topology.n_hosts
    for event in plan:
        if isinstance(event, (SeverCable, RestoreCable, DelayTlp)):
            if (event.host_a, event.host_b) not in valid:
                raise ValueError(
                    f"{event!r}: no cable between hosts {event.host_a} "
                    f"and {event.host_b} on {topology!r}"
                )
        elif isinstance(event, DropDoorbell):
            if not (0 <= event.host < n_hosts):
                raise ValueError(
                    f"{event!r}: host {event.host} outside 0..{n_hosts - 1}"
                )
            if event.side not in topology.ports(event.host):
                raise ValueError(
                    f"{event!r}: host {event.host} has no "
                    f"{event.side!r} adapter on {topology!r}"
                )
