"""Deterministic discrete-event simulation kernel.

This is the substrate on which every hardware model in the reproduction runs:
PCIe link serialization, NTB DMA engines, MSI interrupt delivery, host kernel
threads and the OpenSHMEM service loop are all :class:`Process` instances
driven by a single :class:`Environment`.

Design notes
------------
* **Virtual time** is a ``float`` in *microseconds*.  All latency numbers in
  the paper's figures are reported in µs, so using µs as the native unit keeps
  the bench harness free of conversions.
* **Determinism.**  The pending-event queue is keyed by ``(time, priority,
  sequence)`` where ``sequence`` is a monotonically increasing integer.  Two
  events scheduled for the same instant therefore fire in schedule order,
  making every simulation run bit-reproducible — a property the test-suite
  asserts.  The key is a *total* order, so the queue backend is pluggable:
  a binary heap and a calendar (bucket) queue are provided
  (:mod:`repro.sim.queues`) and proven interchangeable by the differential
  harness in ``tests/sim/test_kernel_equivalence.py``.
* **Processes are generator coroutines** (SimPy style).  A process yields
  :class:`Event` objects; the kernel resumes it with the event's value (or
  throws the event's exception) once the event triggers.  ``yield from`` is
  used to compose blocking sub-operations, which is how the OpenSHMEM API
  exposes "blocking" calls to user PE programs.
* **Hot-loop discipline** (docs/SIMULATOR.md).  ``Environment.run`` inlines
  the dispatch body instead of calling :meth:`Environment.step` per event;
  processed :class:`Timeout` objects are recycled through a slab free-list
  when the interpreter's reference count proves nothing else can observe
  them; the no-hook / no-policy paths pay a single truthiness check per
  event — never an iteration, never a callable invocation; and an event
  nothing could observe is not dispatched at all
  (:meth:`Environment._grant_inline`, "Events that do no work" in
  docs/SIMULATOR.md).

The kernel is intentionally small and dependency-free; higher-level
synchronization primitives live in :mod:`repro.sim.primitives` and
:mod:`repro.sim.resources`.
"""

from __future__ import annotations

import sys
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from .errors import (
    EventLifecycleError,
    Interrupt,
    SchedulingError,
    SimulationError,
    StopProcess,
)
from .queues import QUEUE_KINDS, make_queue

# CPython refcount probe used to prove a processed Timeout is unobservable
# before recycling it through the slab.  On interpreters without refcounts
# the slab simply stays disabled (every ``timeout()`` allocates).
_getrefcount = getattr(sys, "getrefcount", None)

__all__ = [
    "PENDING",
    "NORMAL",
    "URGENT",
    "Environment",
    "Event",
    "SchedulePolicy",
    "Timeout",
    "Process",
    "ProcessGenerator",
    "get_default_queue",
    "set_default_queue",
]

#: Sentinel stored in :attr:`Event._value` while the event has not triggered.
PENDING = object()

#: Default scheduling priority.
NORMAL = 1

#: Priority for kernel-internal wakeups that must precede same-time events
#: (e.g. process initialization).
URGENT = 0

#: Maximum recycled Timeout objects kept per environment.
_SLAB_MAX = 512

#: Stands in for the running callback list once a grant was delivered
#: inline (:meth:`Environment._grant_inline`): still exactly one callback,
#: but the rest of it runs as if inside the granted event's own dispatch.
_INLINED = (None,)

ProcessGenerator = Generator["Event", Any, Any]

#: Process-wide default queue backend.  The calendar queue became the
#: default in PR 8 once the differential harness proved it byte-identical
#: to the heap on every covered scenario; :func:`set_default_queue`
#: (or ``Environment(queue="heap")``) selects the classic heap scheduler.
_DEFAULT_QUEUE = "calendar"


def get_default_queue() -> str:
    """The queue backend new :class:`Environment` objects use by default."""
    return _DEFAULT_QUEUE


def set_default_queue(kind: str) -> str:
    """Set the process-wide default queue backend; returns the previous one.

    Existing environments are unaffected.  The differential test fixture
    (``kernel`` in ``tests/conftest.py``) uses this to run whole scenarios
    under each backend.
    """
    global _DEFAULT_QUEUE
    if kind not in QUEUE_KINDS:
        raise ValueError(
            f"unknown event queue kind {kind!r} (expected one of "
            f"{QUEUE_KINDS})")
    previous = _DEFAULT_QUEUE
    _DEFAULT_QUEUE = kind
    return previous


class SchedulePolicy:
    """Pluggable tie-break for events scheduled at the same instant.

    The event queue is keyed by ``(time, priority, sequence)``.  With no
    policy installed (the default), ties resolve in ``sequence`` order —
    schedule order — and the dispatch loop takes a fast path that never
    materializes the tie set, so ordinary runs stay byte-identical.

    A policy turns every tie into an explicit *decision point*: the kernel
    collects all queue entries sharing the head's ``(time, priority)`` and
    asks :meth:`choose` which one to process next.  The unchosen entries go
    back on the queue with their original sequence numbers, so a policy that
    always answers ``0`` reproduces the default order exactly.  This is the
    seam :mod:`repro.check` (ShmemCheck) uses to enumerate interleavings.

    :meth:`scheduled` is invoked for every queue push while a policy is
    installed — the hook model checkers use to attribute newly scheduled
    events to the step that created them.
    """

    def choose(self, now: float, priority: int,
               candidates: "list[Event]") -> int:
        """Return the index (into ``candidates``) of the event to run next.

        ``candidates`` is ordered by sequence number (schedule order) and
        always has length >= 2; singleton pops never reach the policy.
        """
        return 0

    def scheduled(self, now: float, priority: int, event: "Event") -> None:
        """Called after ``event`` is pushed onto the queue (any push site)."""

    def accessed(self, key: object, is_write: bool) -> None:
        """Shared-state access hook (resources, stores, hardware models).

        Instrumented state containers report mutations/reads of their
        internal state here so a model checker can build per-step
        footprints; the default policy ignores them.
        """


class Event:
    """A condition that may *trigger* (succeed or fail) at some instant.

    Events carry an optional value (delivered to waiting processes) or an
    exception (thrown into waiting processes).  Callbacks appended to
    :attr:`callbacks` run exactly once when the event is processed by the
    event loop; afterwards ``callbacks`` is ``None`` and appending raises.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value/exception (it may not yet have
        been *processed* by the loop)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise EventLifecycleError("event has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise EventLifecycleError("value of an untriggered event")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push((env._now, priority, next(env._eid), self))
        env.scheduled_events += 1
        if env._policy is not None:
            env._policy.scheduled(env._now, priority, self)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        If no process ever waits on the failed event, the exception is
        re-raised by :meth:`Environment.step` so model bugs cannot vanish
        silently; call :meth:`defuse` to opt out for fire-and-forget events.
        """
        if self.triggered:
            raise EventLifecycleError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if self.triggered:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def defuse(self) -> "Event":
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True
        return self


class Timeout(Event):
    """An event that triggers ``delay`` µs after creation.

    Timeouts are the single most-constructed object in any run (every cost
    charge is one), so the constructor inlines ``Event.__init__`` +
    ``Environment.schedule``, and :meth:`Environment.timeout` recycles
    processed instances through a slab free-list instead of allocating.

    ``at`` overrides the firing time with an absolute instant (see
    :meth:`Environment.timeout_at`); ``delay`` then only records how long
    ago the timeout was pushed.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 at: Optional[float] = None):
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        when = env._now + delay if at is None else at
        env._push((when, NORMAL, next(env._eid), self))
        env.scheduled_events += 1
        if env._policy is not None:
            env._policy.scheduled(when, NORMAL, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Kernel-internal: first resumption of a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running generator coroutine.

    A ``Process`` is itself an :class:`Event` that triggers when the generator
    returns (value = the generator's return value) or raises (failure).  This
    makes ``yield child_process`` the natural join operation.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {generator!r}; did you "
                "call the process function?"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)
        self.name = name or getattr(generator, "__name__", "process")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for (``None`` when
        running or finished)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The process stops waiting on its current target (the target event
        stays valid and may be re-yielded).  Interrupting a dead process is
        an error; interrupting a process that is currently being resumed is
        deferred by one kernel step.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self._target is None:
            raise SimulationError(f"{self!r} cannot interrupt itself")
        interrupt = Event(self.env)
        interrupt._ok = False
        interrupt._value = Interrupt(cause)
        interrupt._defused = True
        interrupt.callbacks = [self._resume]
        self.env.schedule(interrupt, priority=URGENT)

    # -- kernel internals ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        # An interrupt may arrive after the process already terminated or
        # moved on; deliver only if still waiting.
        if self._value is not PENDING:
            env._active_process = None
            return
        # Detach from the previous target if the wakeup is an interrupt.
        if event is not self._target and self._target is not None:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_target = generator.throw(exc)
            except StopIteration as stop:
                self._terminate_ok(stop.value)
                break
            except StopProcess as stop:
                self._generator.close()
                self._terminate_ok(stop.value)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._terminate_fail(exc)
                break

            if not isinstance(next_target, Event):
                exc2 = SimulationError(
                    f"{self!r} yielded a non-event: {next_target!r}"
                )
                # Feed the error back into the generator so the model sees a
                # clear traceback at the offending yield.
                event = Event(env)
                event._ok = False
                event._value = exc2
                event._defused = True
                continue
            if next_target.env is not env:
                raise SimulationError(
                    f"{self!r} yielded an event from another environment"
                )
            if next_target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_target
                continue
            next_target.callbacks.append(self._resume)
            self._target = next_target
            break

        env._active_process = None

    def _terminate_ok(self, value: Any) -> None:
        self._target = None
        self._ok = True
        self._value = value
        self.env.schedule(self)

    def _terminate_fail(self, exc: BaseException) -> None:
        self._target = None
        self._ok = False
        self._value = exc
        self.env.schedule(self)


class Environment:
    """The simulation event loop.

    The environment owns virtual time, the pending-event queue and the
    currently active process.  It is deliberately single-threaded: all
    concurrency in the models is cooperative.

    ``queue`` selects the scheduler backend (``"heap"`` or ``"calendar"``;
    default: :func:`get_default_queue`).  Both produce the identical
    ``(time, priority, sequence)`` total order — see :mod:`repro.sim.queues`.
    """

    def __init__(self, initial_time: float = 0.0,
                 schedule_policy: Optional[SchedulePolicy] = None,
                 queue: Optional[str] = None):
        self._now: float = float(initial_time)
        self._queue = make_queue(queue or _DEFAULT_QUEUE)
        #: hot-path bound callables of the queue backend (C-level partials
        #: for the heap; bound methods for the calendar).
        self._push = self._queue.push
        self._pop = self._queue.pop
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: the event whose callbacks are running (see :attr:`pushed_at`).
        self._dispatching: Optional[Event] = None
        #: that event's detached callback list (or :data:`_INLINED`); None
        #: outside a dispatch.  What :meth:`_grant_inline` reads.
        self._running: Optional[Sequence] = None
        self._policy: Optional[SchedulePolicy] = schedule_policy
        #: Hooks called as ``hook(env, event)`` just before callbacks run.
        #: Mutate this list in place (append/remove); the dispatch loop
        #: holds a reference to it.
        self.step_hooks: list[Callable[["Environment", Event], None]] = []
        #: Recycled Timeout free-list (see :meth:`timeout`).
        self._slab: list[Timeout] = []
        #: Lifetime kernel statistics (read by the metrics fabric; plain
        #: ints so the hot paths pay one increment, not a method call).
        self.scheduled_events: int = 0
        self.dispatched_events: int = 0
        self.slab_reused: int = 0
        self.slab_recycled: int = 0

    # -- time ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def pushed_at(self) -> float:
        """When the event now being dispatched entered the queue.

        Sequence numbers grow with push time, so this is what orders the
        running event against a same-instant event that was never
        pushed — the poll a tickless wait stands in for (see "Tickless
        waits" in docs/SIMULATOR.md).  A :class:`Timeout` was pushed
        ``delay`` µs ago; everything else triggers at the instant it is
        pushed.
        """
        event = self._dispatching
        if type(event) is Timeout and self._running is not _INLINED:
            return self._now - event.delay
        return self._now

    @property
    def queue_kind(self) -> str:
        """The scheduler backend in use (``"heap"`` | ``"calendar"``)."""
        return self._queue.kind

    @property
    def schedule_policy(self) -> Optional[SchedulePolicy]:
        """The installed tie-break policy (``None`` = sequence order)."""
        return self._policy

    @schedule_policy.setter
    def schedule_policy(self, policy: Optional[SchedulePolicy]) -> None:
        self._policy = policy

    # -- event creation ------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                _at: Optional[float] = None) -> Timeout:
        """Create an event that fires ``delay`` µs from now.

        Draws from the slab free-list when a processed Timeout is
        available; recycling is disabled while a :class:`SchedulePolicy`
        is installed so model checkers can key state on event identity.
        (``_at`` is :meth:`timeout_at`'s way in: the one slab draw serves
        both without a second frame under every cost charge.)
        """
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        when = self._now + delay if _at is None else _at
        slab = self._slab
        if slab and self._policy is None:
            timeout = slab.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout._ok = True
            timeout._defused = False
            timeout.delay = delay
            self._push((when, NORMAL, next(self._eid), timeout))
            self.scheduled_events += 1
            self.slab_reused += 1
            return timeout
        return Timeout(self, delay, value, at=when)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that fires at the absolute instant ``when``.

        ``when`` becomes the queue key as is.  ``timeout(when - now)``
        would key on ``now + (when - now)`` and trust that to round back
        to ``when``; a wait that resumes on a grid of accumulated ticks
        compares clocks for equality and hands over the tick itself.
        """
        if when < self._now:
            raise SchedulingError(
                f"cannot fire at {when} µs: already at {self._now} µs")
        return self.timeout(when - self._now, value, when)

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> "Event":
        from .primitives import AnyOf  # local import avoids cycle

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> "Event":
        from .primitives import AllOf  # local import avoids cycle

        return AllOf(self, list(events))

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Queue a triggered event for processing ``delay`` µs from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        self._push((self._now + delay, priority, next(self._eid), event))
        self.scheduled_events += 1
        if self._policy is not None:
            self._policy.scheduled(self._now + delay, priority, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue.peek_time()

    def _grant_inline(self, event: Event, value: Any) -> bool:
        """Process the untriggered ``event`` here and now, with ``value``,
        if dispatching it through the queue could not be told apart.

        That holds at a *quiet instant*: a dispatch is in progress, the
        event being dispatched had exactly one callback (the caller runs
        inside it, and nothing else runs after it returns), no policy is
        installed, and the queue holds no entry due at or before ``now``.
        ``event.succeed(value)`` would then be the very next entry popped,
        at the same instant, with nothing able to run in between — so
        ``event``'s waiter may as well run in this dispatch, with
        :attr:`pushed_at` reading as it would inside that event's own.
        A waiter that has not yielded ``event`` yet continues at once
        (:meth:`Process._resume` resumes on a processed event
        immediately); one already attached — at most one, or the first
        would find the instant quiet with the second still to run — is
        called here.  Returns False, touching nothing, when the instant
        is not quiet.
        """
        running = self._running
        callbacks = event.callbacks
        if (running is None or len(running) != 1 or len(callbacks) > 1
                or self._policy is not None
                or self._queue.has_due(self._now)):
            return False
        event._value = value
        event.callbacks = None
        self._running = _INLINED
        for callback in callbacks:
            callback(event)
        return True

    def _recycle(self, event: Event) -> None:
        """Return a processed Timeout to the slab if provably unobservable.

        Call with ``event`` referenced only by the caller's local, the
        argument and :attr:`_dispatching`: ``sys.getrefcount(event) == 4``
        (those plus the call's temporary) then proves no
        process, condition or test still holds the object, so reusing it
        cannot alias a live event.  Conditions that hold constituent
        events, generators that kept the yielded timeout in a local, and
        ``run(until=...)`` sentinels all fail the check and simply stay
        garbage-collected as before.
        """
        if (type(event) is Timeout and len(self._slab) < _SLAB_MAX
                and self._policy is None and _getrefcount is not None
                and _getrefcount(event) == 4):
            # 4 == the caller's local + _dispatching + our argument + the
            # temporary ref.
            event._value = PENDING
            self._slab.append(event)
            self.slab_recycled += 1

    def _policy_pop(self) -> tuple:
        """Pop the next entry, letting the policy break (time, prio) ties."""
        queue = self._queue
        head = self._pop()
        when, prio = head[0], head[1]
        nxt = queue.peek_entry()
        if nxt is None or nxt[0] != when or nxt[1] != prio:
            return head
        candidates = [head]
        while True:
            nxt = queue.peek_entry()
            if nxt is None or nxt[0] != when or nxt[1] != prio:
                break
            candidates.append(self._pop())
        assert self._policy is not None
        index = self._policy.choose(when, prio, [c[3] for c in candidates])
        if not 0 <= index < len(candidates):
            raise SchedulingError(
                f"schedule policy chose index {index} out of "
                f"{len(candidates)} candidates"
            )
        chosen = candidates.pop(index)
        push = self._push
        for entry in candidates:
            push(entry)
        return chosen

    def step(self) -> None:
        """Process exactly one event, advancing virtual time to it."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        if self._policy is None:
            when, _prio, _eid, event = self._pop()
        else:
            when, _prio, _eid, event = self._policy_pop()
        self._now = when
        self._dispatching = event
        self.dispatched_events += 1
        if self.step_hooks:
            for hook in self.step_hooks:
                hook(self, event)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is None:  # pragma: no cover - defensive
            raise EventLifecycleError(f"{event!r} processed twice")
        self._running = callbacks
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._running = None
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it.
            exc = event._value
            raise exc
        self._recycle(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the loop.

        ``until`` may be:

        * ``None`` — run until no events remain (quiescence);
        * a number — run until virtual time reaches it;
        * an :class:`Event` — run until that event is processed, returning
          its value (raising its exception on failure).

        All three dispatch through one inlined hot loop (one Python frame
        per *run*, not per event) whenever no :class:`SchedulePolicy` is
        installed; with a policy it falls back to :meth:`step`.
        """
        sentinel: Optional[Event] = None
        horizon = float("inf")
        done: list = []   # non-empty once the sentinel is processed
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            sentinel.callbacks.append(done.append)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SchedulingError(
                    f"cannot run until {horizon} µs: already at "
                    f"{self._now} µs"
                )
        queue = self._queue
        pop_le = queue.pop_le
        hooks = self.step_hooks
        slab = self._slab
        refcount = _getrefcount or (lambda _o: 0)
        try:
            while not done:
                if self._policy is not None:
                    if not queue or queue.peek_time() > horizon:
                        break
                    self.step()
                    continue
                entry = pop_le(horizon)
                if entry is None:
                    break
                # Inlined dispatch body — keep in sync with step().
                when, _prio, _eid, event = entry
                del entry
                self._now = when
                self._dispatching = event
                self.dispatched_events += 1
                if hooks:
                    for hook in hooks:
                        hook(self, event)
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is None:  # pragma: no cover - defensive
                    raise EventLifecycleError(f"{event!r} processed twice")
                self._running = callbacks
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if (type(event) is Timeout and len(slab) < _SLAB_MAX
                        and refcount(event) == 3):
                    event._value = PENDING
                    slab.append(event)
                    self.slab_recycled += 1
        finally:
            self._running = None
        if sentinel is not None:
            if not done:
                raise SimulationError(
                    "deadlock: event loop drained before the awaited "
                    f"event triggered ({sentinel!r})"
                )
            if not sentinel._ok:
                sentinel._defused = True
                raise sentinel._value
            return sentinel._value
        if until is not None:
            self._now = horizon
        return None
