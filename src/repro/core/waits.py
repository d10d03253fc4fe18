"""The runtime's two blocking helpers: bounded remote waits and tickless
local polls.

Every wait on an event that only a *remote* peer can complete — get
chunks, AMO replies, barrier tokens, heap-update watches — goes through
:func:`remote_wait`; the ``bounded-wait`` lint rule enforces this for the
``core`` package.  The helper has two personalities:

* **Fault-free runtime** (no heartbeat, no reply timeout): a strict
  passthrough — one bare ``yield`` of the event, zero extra sim events —
  so runs without a fault plan stay byte-identical in virtual time.
* **Fault-aware runtime**: the wait races the event against the
  runtime's link-state signal and an optional deadline.  A dead link
  turns the wait into a typed
  :class:`~repro.core.errors.PeerUnreachableError` (directly, via a
  failed event, or via a caller-supplied ``doomed`` predicate) instead
  of hanging the simulation forever.

Waits on this host's *own* state — ``quiet``, ``forwarding_quiesce``, the
service's ctrl-relay flush and stop drain — go through :func:`poll_wait`:
the modelled design polls such state every microsecond, and the helper
returns at exactly the instants that loop would without the simulator
executing its idle iterations (docs/SIMULATOR.md, "Tickless waits").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..sim import Event
from .errors import PeerUnreachableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ShmemRuntime

__all__ = ["remote_wait", "poll_wait", "REPOLL"]

#: A :func:`poll_wait` check returns True (done), False (park until the
#: next progress notification) or REPOLL: the check *acted* — flushed
#: slots nothing will ever ACK — and must act again on the very next poll
#: tick whether or not anything notifies.
REPOLL = object()


def remote_wait(rt: "ShmemRuntime", event: Event, *, what: str,
                doomed: Optional[Callable[[], Optional[BaseException]]] = None,
                timeout_us: Optional[float] = None,
                peer: Optional[int] = None) -> Generator:
    """Wait for ``event``, bounded by link death and an optional deadline.

    Parameters
    ----------
    rt:
        The runtime whose link-state signal guards the wait.
    event:
        The completion event.  If a link-death handler *fails* it (the
        pending-table path), the failure propagates out of this wait.
    what:
        Human-readable operation label for error messages.
    doomed:
        Optional predicate re-checked after every link-state change;
        return an exception to abort the wait (e.g. "my barrier path now
        crosses a dead edge"), or ``None`` to keep waiting.
    timeout_us:
        Deadline relative to entry; defaults to the runtime's
        ``reply_timeout_us`` (``None`` disables the deadline).
    peer:
        The PE that must act for this wait to complete, when known.
        Feeds the wait-for graph's deadlock detector under ShmemCheck;
        ``None`` registers a targetless wait (liveness checks only).

    Returns the event's value; raises :class:`PeerUnreachableError` on
    deadline expiry or a ``doomed`` verdict.
    """
    graph = rt.wait_graph
    if graph is None:
        value = yield from _remote_wait_inner(rt, event, what, doomed,
                                              timeout_us)
        return value
    token = graph.block(rt.my_pe_id, what=what, peer=peer,
                        since=rt.env.now)
    try:
        value = yield from _remote_wait_inner(rt, event, what, doomed,
                                              timeout_us)
        return value
    finally:
        graph.unblock(token)


def _remote_wait_inner(
        rt: "ShmemRuntime", event: Event, what: str,
        doomed: Optional[Callable[[], Optional[BaseException]]],
        timeout_us: Optional[float]) -> Generator:
    if not rt.fault_aware:
        value = yield event
        return value
    env = rt.env
    if timeout_us is None:
        timeout_us = rt.config.reply_timeout_us
    deadline = None if timeout_us is None else env.now + timeout_us
    while True:
        waits = [event, rt.link_state_changed.wait()]
        timer = None
        if deadline is not None:
            timer = env.timeout(max(0.0, deadline - env.now))
            waits.append(timer)
        outcome = yield env.any_of(waits)
        if event in outcome:
            return outcome[event]
        if timer is not None and timer in outcome:
            rt.metrics.inc("wait_timeouts")
            raise PeerUnreachableError(
                f"{rt.name}: {what} timed out after {timeout_us} µs "
                f"(lost response? dead link?)"
            )
        # A link changed state while we waited: the caller decides
        # whether this wait can still complete.
        if doomed is not None:
            exc = doomed()
            if exc is not None:
                raise exc


def poll_wait(rt: "ShmemRuntime", what: str, check: Callable[[], object],
              deadline: Optional[float] = None) -> Generator:
    """The 1 µs poll loop ``while not check(): <sleep one µs>``, minus
    its idle iterations.

    Polls happen on the grid ``start + k`` µs (``+= 1.0`` accumulated,
    like the loop's own clock), so the wait ends at the same virtual
    instant the loop would.  But a poll can only see a new verdict after
    :meth:`ShmemRuntime.notify_progress`, so the waiter parks on
    ``rt.progress`` and, once notified, sleeps straight to the next grid
    tick instead of being resumed at every one.

    ``check`` returns True, False or :data:`REPOLL`.  ``deadline`` is a
    virtual instant ``check`` itself compares the clock with; passing it
    here only makes sure a parked waiter is up for the first poll at or
    past it.  ``what`` labels the region for the wait-for graph.
    """
    env = rt.env
    with rt.blocked_on(what):
        tick = env.now          # the grid tick the last poll ran at
        wake = None             # the deadline's wake-up call, once set
        while True:
            verdict = check()
            if verdict is True:
                return
            if verdict is False:
                if deadline is not None and wake is None:
                    at = tick
                    while at < deadline:
                        at += 1.0
                    # The clock, not an event, expires a deadline: the
                    # poll at that tick sees it wherever it falls in the
                    # instant's event order, so the wake-up sorts first.
                    wake = env.timeout_at(at)
                    wake.callbacks.append(
                        lambda _timer: rt.notify_progress(float("-inf")))
                pushed_at = yield rt.progress.wait()
                while tick + 1.0 < env.now:
                    tick += 1.0
                # A notifier running at the very instant of a poll: that
                # poll's timer would have been pushed at the tick before,
                # so by (time, priority, eid) it runs ahead of everything
                # pushed since — and misses this notification.
                if tick + 1.0 == env.now and pushed_at > tick:
                    tick += 1.0
            tick += 1.0
            if tick > env.now:
                yield env.timeout_at(tick)
