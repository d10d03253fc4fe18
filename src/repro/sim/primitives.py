"""Composite events and synchronization primitives for the sim kernel.

These are the building blocks the hardware models use to express "wait for
any of these doorbell bits", "wait until the DMA queue drains", and similar
conditions without busy-waiting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import Environment, Event
from .errors import EventLifecycleError

__all__ = [
    "Condition",
    "AllOf",
    "AnyOf",
    "Join",
    "Signal",
    "Gate",
    "CountdownLatch",
]


class Condition(Event):
    """An event that triggers when ``evaluate(events, n_done)`` is true.

    On success the value is a dict mapping each *triggered* constituent event
    to its value, in trigger order.  A failing constituent fails the
    condition immediately with the same exception.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(self, env: Environment,
                 evaluate: Callable[[list[Event], int], bool],
                 events: list[Event]):
        super().__init__(env)
        self._events = events
        self._count = 0
        self._evaluate = evaluate

        for event in events:
            if event.env is not env:
                raise EventLifecycleError(
                    "condition mixes events from different environments"
                )

        if not events or evaluate(events, 0):
            self.succeed(self._collect())
            return

        for event in events:
            if event.callbacks is None:
                self._check(event)
                if self.triggered:
                    break
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Filter on *processed* (callbacks ran), not merely triggered:
        # Timeout events carry their value from construction, so a pending
        # long timeout would otherwise leak into an AnyOf result.
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers once every constituent event has triggered."""

    __slots__ = ()

    def __init__(self, env: Environment, events: list[Event]):
        super().__init__(env, lambda events, n: n >= len(events), events)


class AnyOf(Condition):
    """Triggers as soon as one constituent event triggers."""

    __slots__ = ()

    def __init__(self, env: Environment, events: list[Event]):
        super().__init__(env, lambda events, n: n >= 1, events)


class Join(Event):
    """Triggers on the ``count``-th :meth:`arrive` — the :class:`AllOf` of
    stages that run as event callbacks instead of processes.

    ``AllOf`` over ``count`` processes costs every process an
    ``Initialize`` and a termination event, and itself one more.  A
    callback stage has neither, and the non-last arrivals only count —
    as the non-last terminations only bumped ``AllOf``'s counter.  The
    last arrival (made from the callback of the event that ends its
    stage) stands for the last termination, which ``AllOf`` answered by
    triggering itself: two queue hops, taken only where they are
    observable.  At a quiet instant (:meth:`Environment._grant_inline`)
    the join is triggered in place — both hops would have been the next
    two dispatches, with nothing able to run in between.  Otherwise one
    event stands in for the termination, and its own dispatch triggers
    the join by the same rule: in place if that instant is quiet, as an
    event of its own if not.  Every other event keeps its ``(time,
    priority)`` and its order.
    """

    __slots__ = ("name", "_pending")

    def __init__(self, env: Environment, count: int, name: str = "join"):
        super().__init__(env)
        self.name = name
        self._pending = count

    def arrive(self) -> None:
        """One stage is done; the last one triggers the join."""
        self._pending -= 1
        if self._pending or self.env._grant_inline(self, None):
            return
        hop = Event(self.env)
        hop.callbacks.append(self._hop)
        hop.succeed()

    def _hop(self, _event: Event) -> None:
        if not self.env._grant_inline(self, None):
            self.succeed()


class Signal:
    """A re-armable broadcast event (edge-triggered pulse).

    Each call to :meth:`wait` returns an event for the *next* pulse; calling
    :meth:`fire` triggers every outstanding wait event with ``payload``.
    This models level-insensitive hardware strobes such as doorbell MSIs.
    """

    def __init__(self, env: Environment, name: str = "signal"):
        self.env = env
        self.name = name
        self._event = env.event()
        #: total number of pulses fired (diagnostics)
        self.fire_count = 0

    def wait(self) -> Event:
        """Event that triggers at the next :meth:`fire`."""
        return self._event

    @property
    def has_waiters(self) -> bool:
        """Is anything subscribed to the next pulse?  A :meth:`fire`
        nobody waits for still costs a dispatched event, so notifiers on
        hot paths check first."""
        return bool(self._event.callbacks)

    def fire(self, payload: Any = None) -> None:
        """Pulse: wake all current waiters, then re-arm."""
        event, self._event = self._event, self.env.event()
        self.fire_count += 1
        event.succeed(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name} fired={self.fire_count}>"


class Gate:
    """A level-sensitive condition: processes wait until the gate is open.

    Unlike :class:`Signal`, waiting on an already-open gate completes
    immediately.  Used for "wait until initialization finished" and for
    modelling status flags polled by driver threads.
    """

    def __init__(self, env: Environment, open_: bool = False):
        self.env = env
        self._open = open_
        self._event: Optional[Event] = None

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        if self._open:
            evt = self.env.event()
            evt.succeed()
            return evt
        if self._event is None or self._event.callbacks is None:
            self._event = self.env.event()
        return self._event

    def open(self, payload: Any = None) -> None:
        self._open = True
        if self._event is not None and not self._event.triggered:
            self._event.succeed(payload)
        self._event = None

    def close(self) -> None:
        self._open = False


class CountdownLatch:
    """Triggers an event once :meth:`count_down` has been called N times.

    Used by the cluster bring-up to wait until every host finished its NTB
    window handshake, and by collective operations in tests.
    """

    def __init__(self, env: Environment, count: int):
        if count < 0:
            raise ValueError(f"negative latch count {count}")
        self.env = env
        self._remaining = count
        self._event = env.event()
        if count == 0:
            self._event.succeed(0)

    @property
    def remaining(self) -> int:
        return self._remaining

    def count_down(self, n: int = 1) -> None:
        if n < 1:
            raise ValueError("count_down() needs n >= 1")
        if self._remaining <= 0:
            return
        self._remaining -= n
        if self._remaining <= 0:
            self._remaining = 0
            self._event.succeed(0)

    def wait(self) -> Event:
        return self._event
