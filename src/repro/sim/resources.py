"""Shared-resource models: capacity-limited resources, FIFO stores, rate
servers.

The hardware models use these for:

* :class:`Resource` — exclusive/limited access (PCIe root-complex bandwidth
  arbitration slots, a DMA engine's single channel, a lock on the scratchpad
  mailbox protocol).
* :class:`Store` — unbounded or bounded FIFO of items (DMA descriptor rings,
  driver work queues, per-host service-thread inboxes).
* :class:`BandwidthServer` — a FIFO rate server (memory ports, DMA pumps).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Optional, TypeVar

from .core import PENDING, Environment, Event, Timeout
from .errors import SimulationError

__all__ = ["Request", "Resource", "Store", "BandwidthServer"]

T = TypeVar("T")


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Event.__init__ inlined, as Timeout does: one per mailbox slot,
        # wire and lock acquisition.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` concurrent holders are allowed; further requests queue.
    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...                      # critical section
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._holders: set[Request] = set()
        self._waiting: Deque[Request] = deque()
        #: total grants (diagnostics / utilization accounting)
        self.grant_count = 0

    @property
    def in_use(self) -> int:
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        env = self.env
        # Grant/queue order is shared state an exploring scheduler must
        # treat as a conflict between steps; the default policy ignores it.
        policy = env._policy
        if policy is not None:
            policy.accessed(("resource", self.name), True)
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            self.grant_count += 1
            # Free: at a quiet instant the request comes back already
            # processed and the requester runs on without an event.
            if not env._grant_inline(req, self):
                req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        policy = self.env._policy
        if policy is not None:
            policy.accessed(("resource", self.name), True)
        if request in self._holders:
            self._holders.remove(request)
        elif request in self._waiting:
            # Cancelled before being granted.
            self._waiting.remove(request)
            return
        else:
            raise SimulationError(
                f"release of a request not holding {self.name!r}"
            )
        while self._waiting and len(self._holders) < self.capacity:
            nxt = self._waiting.popleft()
            self._holders.add(nxt)
            self.grant_count += 1
            nxt.succeed(self)


class Store(Generic[T]):
    """FIFO item store with a blocking get and a non-blocking push.

    ``capacity=None`` means unbounded.  Items are delivered to getters in
    FIFO order; getters are served in FIFO order; pushes past
    ``capacity`` park and are admitted FIFO as getters make room.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None,
                 name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self._getters: Deque[Event] = deque()
        #: parked pushes, admitted FIFO as getters make room.
        self._parked: Deque[T] = deque()
        #: lifetime counts (diagnostics)
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[T, ...]:
        """Snapshot of queued items (read-only diagnostics)."""
        return tuple(self._items)

    def _probe(self) -> None:
        # FIFO order is shared state for an exploring scheduler (see
        # Resource.request); the default policy ignores the report.
        policy = self.env._policy
        if policy is not None:
            policy.accessed(("store", self.name), True)

    def push(self, item: T) -> None:
        """Hand ``item`` to the oldest getter or store it; a full store
        parks it.  No event is made: nothing waits on an insertion."""
        self._probe()
        self.put_count += 1
        if self._getters:
            getter = self._getters.popleft()
            self.get_count += 1
            getter.succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._parked.append(item)

    def get(self) -> Event:
        """Remove and return the oldest item; blocks (as an event) if empty."""
        self._probe()
        evt = self.env.event()
        if self._items:
            self.get_count += 1
            evt.succeed(self._items.popleft())
            if self._parked:
                self._items.append(self._parked.popleft())
        else:
            self._getters.append(evt)
        return evt


class BandwidthServer:
    """A FIFO rate server: holding it for ``nbytes`` takes ``nbytes/rate``.

    Models shared bandwidth-limited stages — a host's memory/root-complex
    port, a DMA engine pump — where concurrent streams queue and therefore
    each observes a service rate divided by the number of contenders (when
    they submit comparable chunk sizes).  This is the mechanism behind the
    ring-simultaneous throughput dip in Fig. 8.
    """

    def __init__(self, env: Environment, rate_mbps: float,
                 name: str = "bw"):
        if rate_mbps <= 0:
            raise ValueError(f"rate must be positive, got {rate_mbps}")
        self.env = env
        self.rate_mbps = rate_mbps  # == bytes per µs
        self.name = name
        self._server = Resource(env, capacity=1, name=f"{name}.server")
        self.total_bytes = 0
        self.busy_time_us = 0.0

    def service_time_us(self, nbytes: int) -> float:
        return nbytes / self.rate_mbps

    def stage(self, nbytes: int, then: Callable[[], None]) -> None:
        """Queue FIFO, occupy for the service time, then call ``then()``
        — a pipeline stage run by event callbacks, with no process (see
        :class:`~repro.sim.Join`)."""
        if nbytes < 0:
            raise ValueError(f"negative hold size {nbytes}")
        _Hold(self, nbytes, then)

    def utilization(self, elapsed_us: Optional[float] = None) -> float:
        elapsed = self.env.now if elapsed_us is None else elapsed_us
        return self.busy_time_us / elapsed if elapsed > 0 else 0.0

class _Hold:
    """One :meth:`BandwidthServer.stage`: request, one service
    ``Timeout`` on the grant, and in its callback the accounting, the
    release (which may grant the next waiter) and ``then()`` — the steps
    a holding process took, in its order, without its events.  Named
    after the server: ShmemCheck attributes a callback to its owner's
    ``name``."""

    __slots__ = ("name", "_server", "_nbytes", "_then", "_req")

    def __init__(self, server: BandwidthServer, nbytes: int,
                 then: Callable[[], None]):
        self.name = server.name
        self._server = server
        self._nbytes = nbytes
        self._then = then
        req = self._req = server._server.request()
        if req.callbacks is None:           # granted inline
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _granted(self, _req: Event) -> None:
        server = self._server
        server.env.timeout(
            server.service_time_us(self._nbytes)).callbacks.append(
                self._served)

    def _served(self, timeout: Timeout) -> None:
        server = self._server
        server.total_bytes += self._nbytes
        server.busy_time_us += timeout.delay
        server._server.release(self._req)
        self._then()
