"""The recording/replaying :class:`~repro.sim.SchedulePolicy`.

One :class:`ExplorationPolicy` drives one execution.  It plays back the
forced choice prefix of a :class:`~repro.check.trace.ScheduleTrace`
(taking the default candidate 0 beyond it), fires the fault injection
when its decision index comes due, and records everything the explorer
needs afterwards:

* the :class:`Decision` log — where ties occurred, how wide they were,
  and which step of the run they happened at;
* strong references to every tie's candidate events, so alternatives can
  be identified again when the run ends;
* the per-step :class:`~repro.check.footprint.Footprint` sequence that
  the DPOR pass uses to decide which alternatives commute.

The footprint accumulator rotates in the environment's step hook: the
hook runs before the step's callbacks, so everything probed between two
hook calls belongs to the earlier step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Environment, Event, SchedulePolicy
from .footprint import Footprint, domains_of
from .trace import FaultPoint, ScheduleTrace

__all__ = ["Decision", "ExplorationPolicy"]


class ScheduleDiverged(Exception):
    """A forced choice did not fit the decision it was replayed into."""


@dataclass
class Decision:
    """One genuine tie on the event heap."""

    index: int
    time: float
    priority: int
    step_index: int
    n_candidates: int
    chosen: int
    labels: tuple[str, ...]
    #: per candidate: nothing was waiting on it when the tie was decided
    #: (an orphaned timer of a stopped agent), so running it is a no-op.
    idle: tuple[bool, ...]


def _label(event: Event) -> str:
    name = getattr(event, "name", None)
    if name:
        return str(name)
    return type(event).__name__


class ExplorationPolicy(SchedulePolicy):
    """Record decisions and per-step footprints while forcing a prefix."""

    def __init__(self, trace: ScheduleTrace,
                 inject: Optional[Callable[[FaultPoint], None]] = None,
                 track_footprints: bool = True) -> None:
        self.trace = trace
        self.forced = trace.choices
        self.fault = trace.fault
        self._inject = inject
        self._fault_fired = False
        self.track_footprints = track_footprints

        self.env: Optional[Environment] = None
        self.decisions: list[Decision] = []
        #: strong refs: candidate events per decision (ids stay valid).
        self.candidates: list[list[Event]] = []
        #: per-step (event id, footprint), in execution order.
        self.steps: list[tuple[int, Footprint]] = []
        self._current: Optional[Footprint] = None
        self._current_event_id: int = 0
        #: events scheduled during the current step, with the process
        #: active at schedule time.  Domains resolve at flush time: a
        #: Process scheduled from its own __init__ has no name *yet*.
        self._current_scheduled: list[tuple[Event, Optional[Event]]] = []
        self.diverged = False

    # ------------------------------------------------------------- lifecycle
    def bind(self, env: Environment) -> None:
        """Attach to the environment (step-hook registration)."""
        self.env = env
        if self.track_footprints:
            env.step_hooks.append(self._on_step)

    def _on_step(self, env: Environment, event: Event) -> None:
        self._flush()
        footprint = Footprint()
        footprint.add_domains(*domains_of(event))
        self._current = footprint
        self._current_event_id = id(event)

    def _flush(self) -> None:
        if self._current is None:
            return
        for event, active in self._current_scheduled:
            domains, opaque = domains_of(event)
            if not domains and not opaque and active is not None:
                # A bare event with no callbacks (a fresh Timeout):
                # charge it to the process that created it.
                domains, opaque = domains_of(active)
            self._current.add_domains(domains, opaque)
        self._current_scheduled.clear()
        self.steps.append((self._current_event_id, self._current))
        self._current = None

    def finish(self) -> None:
        """Flush the footprint of the final step (end of run)."""
        self._flush()

    # ----------------------------------------------------- footprint feeding
    def note_access(self, key: object, is_write: bool) -> None:
        """Probe sink: a shared-hardware or heap-cell access this step."""
        if self._current is not None:
            self._current.note(key, is_write)

    def accessed(self, key: object, is_write: bool) -> None:
        """The :class:`~repro.sim.SchedulePolicy` access hook (resources)."""
        self.note_access(key, is_write)

    def scheduled(self, now: float, priority: int, event: Event) -> None:
        """Attribute wakeups scheduled during this step to its footprint."""
        if self._current is None:
            return
        active = self.env.active_process if self.env is not None else None
        self._current_scheduled.append((event, active))

    # ------------------------------------------------------------- decisions
    def choose(self, now: float, priority: int,
               candidates: "list[Event]") -> int:
        index = len(self.decisions)
        if (self.fault is not None and not self._fault_fired
                and index >= self.fault.decision):
            self._fault_fired = True
            if self._inject is not None:
                self._inject(self.fault)
        if index < len(self.forced):
            choice = self.forced[index]
            if not 0 <= choice < len(candidates):
                # The model changed shape under the trace (different code
                # or mutation): record, clamp, and let the runner report.
                self.diverged = True
                choice = 0
        else:
            choice = 0
        # The step that is still accumulating (``_current``) flushes into
        # ``steps`` before the chosen candidate runs, so the chosen step
        # lands one past ``len(steps)`` — the commutation window must not
        # include the pre-decision step.
        step_index = len(self.steps) + (0 if self._current is None else 1)
        self.decisions.append(Decision(
            index=index, time=now, priority=priority,
            step_index=step_index, n_candidates=len(candidates),
            chosen=choice, labels=tuple(_label(c) for c in candidates),
            idle=tuple(not c.callbacks for c in candidates),
        ))
        self.candidates.append(list(candidates))
        return choice

    # ------------------------------------------------------------- reporting
    @property
    def recorded(self) -> tuple[int, ...]:
        """The full choice vector this run actually took."""
        return tuple(d.chosen for d in self.decisions)

    def recorded_trace(self) -> ScheduleTrace:
        return ScheduleTrace(choices=self.recorded, fault=self.fault)

    def step_positions(self) -> dict[int, list[int]]:
        """Map event id -> positions in :attr:`steps` (ascending)."""
        out: dict[int, list[int]] = {}
        for position, (event_id, _fp) in enumerate(self.steps):
            out.setdefault(event_id, []).append(position)
        return out
