"""Wall-clock profiler for the DES kernel itself (ROADMAP item 4).

Everything else in :mod:`repro.obsv` measures *virtual* time; this module
measures how fast the simulator chews through events on the *host* CPU —
the figure that decides whether a 64-host chaos run fits in CI.  It is
the one sanctioned wall-clock reader inside ``repro.*`` (the determinism
lint exempts exactly this file), and it never feeds wall-clock values
back into the simulation: attribution is written to plain host-side
dicts, so an installed profiler cannot perturb virtual time.

Mechanism: :class:`DesProfiler` registers a hook on
``Environment.step_hooks``, which the kernel calls once per dispatched
event *before* callbacks run.  The wall-clock delta between consecutive
hook firings is therefore the cost of processing the *previous* event —
its callbacks, process resumptions and any synchronous model code — and
is attributed to that event's type and (for processes) name prefix.

Usage::

    profiler = DesProfiler(cluster.env)
    profiler.install()
    ... run ...
    profiler.uninstall()
    print(profiler.report())
    figures = profiler.to_json()   # events, wall_s, events_per_sec
"""

from __future__ import annotations

import time
from typing import Any, Optional

__all__ = ["DesProfiler"]

_perf = time.perf_counter

#: Marker in the type-key cache: this type's key is derived per instance
#: (Process events are keyed by their name family, not their class).
_BY_NAME = object()


class DesProfiler:
    """Per-event-type wall-clock attribution over the dispatch loop.

    The hook itself is on the measured path, so it is kept to one
    ``perf_counter`` read and a handful of dict operations per event:
    event keys are interned through two caches (per event *class*, and
    per Process *name* — the string splits that collapse
    ``"pe0.put_nbi:3"`` to its family run once per distinct name, not
    once per event).
    """

    def __init__(self, env):
        self.env = env
        #: event-type name -> dispatched count.
        self.event_counts: dict[str, int] = {}
        #: event-type name -> attributed wall-clock seconds.
        self.event_seconds: dict[str, float] = {}
        self.events = 0
        self._installed = False
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._last_stamp: Optional[float] = None
        self._last_key: Optional[str] = None
        #: event class -> interned key (or _BY_NAME for Process).
        self._type_keys: dict[type, Any] = {}
        #: process name -> interned family key.
        self._name_keys: dict[str, str] = {}

    # ------------------------------------------------------------- control
    def install(self) -> None:
        """Hook the kernel's dispatch loop; idempotent."""
        if self._installed:
            return
        self.env.step_hooks.append(self._on_step)
        self._installed = True
        self._started_at = time.perf_counter()
        self._last_stamp = self._started_at
        self._last_key = None

    def uninstall(self) -> None:
        """Unhook and close the last attribution window; idempotent."""
        if not self._installed:
            return
        self._stopped_at = time.perf_counter()
        self._flush(self._stopped_at)
        try:
            self.env.step_hooks.remove(self._on_step)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._installed = False

    # ---------------------------------------------------------------- hook
    def _on_step(self, env, event) -> None:
        now = _perf()
        last = self._last_key
        if last is not None:
            seconds = self.event_seconds
            seconds[last] = seconds.get(last, 0.0) + (now - self._last_stamp)
        cls = event.__class__
        key = self._type_keys.get(cls)
        if key is None:
            key = cls.__name__
            self._type_keys[cls] = _BY_NAME if key == "Process" else key
            if key == "Process":
                key = _BY_NAME
        if key is _BY_NAME:
            name = getattr(event, "name", "")
            key = self._name_keys.get(name)
            if key is None:
                # Collapse per-instance names ("pe0.put_nbi", "dma.ch0")
                # to their family so the table stays readable at scale.
                key = f"Process:{name.split('.', 1)[-1].split(':', 1)[0]}" \
                    if name else "Process"
                self._name_keys[name] = key
        self.events += 1
        counts = self.event_counts
        counts[key] = counts.get(key, 0) + 1
        self._last_stamp = now
        self._last_key = key

    def _flush(self, now: float) -> None:
        """Attribute the elapsed window to the previous event's key."""
        if self._last_key is not None and self._last_stamp is not None:
            self.event_seconds[self._last_key] = (
                self.event_seconds.get(self._last_key, 0.0)
                + (now - self._last_stamp)
            )
        self._last_key = None

    # -------------------------------------------------------------- results
    @property
    def wall_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at if self._stopped_at is not None \
            else time.perf_counter()
        return end - self._started_at

    @property
    def events_per_sec(self) -> float:
        wall = self.wall_seconds
        return self.events / wall if wall > 0 else 0.0

    def report(self, top: int = 15) -> str:
        """Fixed-width table: per-event-type counts and wall-clock share."""
        total_s = sum(self.event_seconds.values()) or 1e-12
        rows = sorted(self.event_seconds.items(),
                      key=lambda kv: kv[1], reverse=True)[:top]
        width = max([24] + [len(k) for k, _ in rows])
        lines = [
            f"DES profile: {self.events} events in {self.wall_seconds:.3f} s "
            f"({self.events_per_sec:,.0f} events/sec)",
            f"{'event type':<{width}} {'count':>9} {'wall_ms':>10} "
            f"{'share':>7}",
        ]
        lines.append("-" * len(lines[1]))
        for key, seconds in rows:
            lines.append(
                f"{key:<{width}} {self.event_counts.get(key, 0):>9} "
                f"{seconds * 1e3:>10.2f} {seconds / total_s:>6.1%}"
            )
        if not rows:
            lines.append("  (no events dispatched)")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "wall_s": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "by_type": {
                key: {
                    "count": self.event_counts.get(key, 0),
                    "wall_s": seconds,
                }
                for key, seconds in sorted(self.event_seconds.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DesProfiler events={self.events} "
                f"installed={self._installed}>")
