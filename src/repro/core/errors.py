"""Exception types for the OpenSHMEM runtime."""

from __future__ import annotations

__all__ = [
    "ShmemError",
    "NotInitializedError",
    "SymmetricHeapError",
    "BadPeError",
    "TransferError",
    "PeerUnreachableError",
    "ProtocolError",
    "RaceError",
    "StuckRunError",
]


class ShmemError(Exception):
    """Base class for OpenSHMEM runtime errors."""


class NotInitializedError(ShmemError):
    """An API was called before ``shmem_init`` (or after finalize)."""


class SymmetricHeapError(ShmemError):
    """Out of symmetric heap, bad offset, or cross-PE inconsistency."""


class BadPeError(ShmemError):
    """A PE number outside ``0 .. num_pes()-1`` (or self where invalid)."""


class TransferError(ShmemError):
    """Put/Get argument or data-path errors."""


class PeerUnreachableError(TransferError):
    """A remote round-trip could not complete because the path to the
    peer is dead (severed cable detected by heartbeat, master abort, or
    a bounded wait that expired).

    Subclasses :class:`TransferError` so callers that already handle
    transfer failures keep working; catch this type specifically to
    distinguish "peer gone" from argument/data-path errors.
    """


class ProtocolError(ShmemError):
    """Wire-protocol violations: bad message kinds, misrouted packets,
    mailbox misuse.  Always indicates a runtime bug, never user error."""


class StuckRunError(ShmemError):
    """A run that neither completed nor raised: the one verdict of
    :func:`repro.core.program.drive`.

    ``kind`` is ``deadlock-drain`` (the event queue drained with PEs
    still blocked), ``deadlock-cycle`` (a wait-for cycle closed),
    ``liveness-horizon`` (the virtual-time bound passed) or
    ``livelock-steps`` (the event budget ran out).  ``entries`` are the
    wait-for graph's blocked primitives at that instant
    (:class:`~repro.obsv.waitgraph.WaitEntry`), ``open_spans`` the
    ShmemScope spans still open (empty when tracing is off).
    """

    def __init__(self, kind: str, detail: str, time_us: float,
                 entries: list, open_spans: list[str]) -> None:
        self.kind = kind
        self.detail = detail
        self.time_us = time_us
        self.entries = entries
        self.open_spans = open_spans
        super().__init__("; ".join(
            [f"{kind} at {time_us:.1f}us: {detail}"] + self.blocked))

    @property
    def blocked(self) -> list[str]:
        """One line per entry: ``pe0 blocked on 'quiet' for 3.0us``."""
        return [entry.describe(self.time_us) for entry in self.entries]


class RaceError(ShmemError):
    """ShmemSan (strict mode) found two conflicting symmetric-heap
    accesses with no happens-before edge between them.

    Carries the :class:`~repro.core.sanitizer.RaceReport` as ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.describe())
