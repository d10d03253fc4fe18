"""MSI interrupt controller: vectors, masking, delivery latency.

NTB doorbell bits arrive here.  The controller models the platform path
(adapter MSI write → APIC → CPU vectoring) with a configurable delivery
latency, then invokes the registered handler.  Handlers in this codebase
are tiny "top halves" that latch state and wake a service thread (the
"bottom half" of Fig. 5), mirroring the Linux driver split.

Pending semantics: raising a vector whose handler is still being delivered
coalesces (a vector is either idle or pending once) — matching edge MSI +
level doorbell behaviour, which is why the service thread must drain *all*
doorbell work per wake.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..sim import Environment

__all__ = ["InterruptError", "InterruptController"]

Handler = Callable[[int], None]


class InterruptError(Exception):
    """Bad vector or double registration."""


class InterruptController:
    """Per-host interrupt controller with MSI delivery latency."""

    def __init__(self, env: Environment, delivery_latency_us: float,
                 num_vectors: int = 64, name: str = "pic",
                 coalesce: bool = False):
        """``coalesce=True`` drops raises whose vector already has a
        delivery in flight (aggressive APIC coalescing) — an ablation /
        failure-injection mode.  The default delivers every MSI write,
        matching distinct posted MSI transactions; the runtime's ACK
        counting depends on that."""
        if num_vectors < 1:
            raise InterruptError("need at least one vector")
        if delivery_latency_us < 0:
            raise InterruptError("negative delivery latency")
        self.env = env
        self.name = name
        self.coalesce = coalesce
        self.delivery_latency_us = delivery_latency_us
        self.num_vectors = num_vectors
        self._handlers: dict[int, Handler] = {}
        self._masked: set[int] = set()
        self._in_flight: dict[int, int] = {}
        self._deferred: set[int] = set()  # raised while masked
        #: lifetime counts (diagnostics)
        self.raised_count = 0
        self.delivered_count = 0
        self.spurious_count = 0

    def _check_vector(self, vector: int) -> None:
        if not (0 <= vector < self.num_vectors):
            raise InterruptError(
                f"{self.name}: vector {vector} outside 0..{self.num_vectors - 1}"
            )

    # -- registration ------------------------------------------------------------
    def register(self, vector: int, handler: Handler) -> None:
        self._check_vector(vector)
        if vector in self._handlers:
            raise InterruptError(f"{self.name}: vector {vector} already claimed")
        self._handlers[vector] = handler

    def unregister(self, vector: int) -> None:
        self._check_vector(vector)
        self._handlers.pop(vector, None)

    def mask(self, vector: int) -> None:
        self._check_vector(vector)
        self._masked.add(vector)

    def unmask(self, vector: int) -> None:
        """Unmask; a delivery deferred while masked fires now."""
        self._check_vector(vector)
        self._masked.discard(vector)
        if vector in self._deferred:
            self._deferred.discard(vector)
            self._schedule_delivery(vector)

    def is_masked(self, vector: int) -> bool:
        return vector in self._masked

    # -- raising -------------------------------------------------------------------
    def raise_msi(self, vector: int) -> None:
        """Adapter-side MSI write; delivery completes after the latency."""
        self._check_vector(vector)
        self.raised_count += 1
        if vector in self._masked:
            self._deferred.add(vector)
            return
        if self.coalesce and self._in_flight.get(vector, 0) > 0:
            return  # coalesced with the in-flight delivery
        self._schedule_delivery(vector)

    def _schedule_delivery(self, vector: int) -> None:
        self._in_flight[vector] = self._in_flight.get(vector, 0) + 1
        timeout = self.env.timeout(self.delivery_latency_us)
        # A partial of the bound method (not a closure) keeps the delivery
        # step attributable to this controller's host for schedule analysis.
        timeout.callbacks.append(functools.partial(self._deliver_cb, vector))

    def _deliver_cb(self, vector: int, _evt: object) -> None:
        self._deliver(vector)

    def _deliver(self, vector: int) -> None:
        count = self._in_flight.get(vector, 0)
        if count <= 1:
            self._in_flight.pop(vector, None)
        else:
            self._in_flight[vector] = count - 1
        if vector in self._masked:
            # Masked during flight: defer until unmask.
            self._deferred.add(vector)
            return
        handler = self._handlers.get(vector)
        self.delivered_count += 1
        if handler is None:
            self.spurious_count += 1
            return
        handler(vector)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InterruptController {self.name} handlers={len(self._handlers)} "
            f"raised={self.raised_count} delivered={self.delivered_count}>"
        )
