"""Kernel-thread abstraction: named processes with interrupt-style wakeups.

§III-B.1 step 4: ``shmem_init`` "create[s] a thread to run and process
asynchronous data transferring to support the one-sided communication
property".  :class:`KernelThread` is the vehicle for that service thread
and for the per-PE application threads.

A thread body is a generator taking the thread object; it sleeps on
:meth:`wait_work` and is woken by :meth:`kick` (typically from an interrupt
top half).  Wakeups are level-latched: a kick while runnable is remembered,
so work posted between "drained queue" and "went to sleep" is never lost —
the classic lost-wakeup race the tests exercise explicitly.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..sim import Environment, Event, Process

__all__ = ["KernelThread"]


class KernelThread:
    """A schedulable host thread with a latched wakeup flag."""

    def __init__(self, env: Environment, name: str,
                 body: Callable[["KernelThread"], Generator],
                 wake_latency_us: float = 0.0,
                 on_sleep: Optional[Callable[[], None]] = None):
        self.env = env
        self.name = name
        self.wake_latency_us = wake_latency_us
        #: idle notifier: called each time the thread actually goes to
        #: sleep, for whoever waits on :attr:`is_sleeping`.
        self.on_sleep = on_sleep
        self._pending_kick = False
        self._sleeper: Optional[Event] = None
        self._stopped = False
        self.process: Process = env.process(body(self), name=name)
        #: diagnostics
        self.kick_count = 0
        self.wake_count = 0

    # -- body-side API -------------------------------------------------------------
    def wait_work(self) -> Generator:
        """Sleep until kicked (returns immediately if a kick is latched).

        Charges ``wake_latency_us`` (scheduler delay) on every *actual*
        sleep-then-wake transition, but not when work was already pending —
        a busy service thread doesn't pay the wake cost per item.
        """
        if self._stopped:
            # Return immediately so the body can observe stop_requested.
            self._pending_kick = False
            return
        if self._pending_kick:
            self._pending_kick = False
            return
        self._sleeper = self.env.event()
        if self.on_sleep is not None:
            self.on_sleep()
        yield self._sleeper
        self._sleeper = None
        self._pending_kick = False
        self.wake_count += 1
        if self.wake_latency_us > 0:
            yield self.env.timeout(self.wake_latency_us)

    @property
    def is_sleeping(self) -> bool:
        return self._sleeper is not None

    @property
    def stop_requested(self) -> bool:
        return self._stopped

    # -- external API ------------------------------------------------------------------
    def kick(self) -> None:
        """Wake the thread (idempotent; latches if it is running)."""
        self.kick_count += 1
        if self._sleeper is not None and not self._sleeper.triggered:
            self._sleeper.succeed()
        else:
            self._pending_kick = True

    def stop(self) -> None:
        """Ask the body to exit at its next wait; kicks it awake."""
        self._stopped = True
        self.kick()

    def join(self) -> Event:
        """Event that fires when the body generator returns."""
        return self.process

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sleeping" if self.is_sleeping else (
            "stopped" if self._stopped else "runnable"
        )
        return f"<KernelThread {self.name} {state}>"
