"""ShmemScope: causal span tracing for the NTB/OpenSHMEM stack.

A **span** is one timed activity on one *track* (a PE's op lane, an NTB
driver, a DMA engine, one direction of a PCIe cable, a service thread),
with parent/child causality — a 2-hop ``shmem_put`` renders as a tree:
the ``put`` root on PE 0 with slot-wait / payload-DMA / header-PIO /
doorbell children, the hop-1 ``bypass_forward`` span on the middle host
parented on the root, and the final ``deliver_put`` on the target.

Design rules (these are what keep the guarantees in docs/OBSERVABILITY.md
true):

* **Zero virtual-time cost.**  The scope only ever *reads* ``env.now``;
  it never schedules events, so a run with tracing enabled is
  byte-identical in virtual time to the same run without.
* **Per-process context.**  Each simulation :class:`~repro.sim.Process`
  carries its own span stack, keyed on ``env.active_process`` — a span
  opened inside a coroutine stays current across its suspensions without
  leaking into other processes interleaved at the same virtual time.
* **Cross-process causality without wire-format changes.**  The sender
  binds its current span to the outgoing :class:`Message` *value*
  (frozen, hashable); the receiving service thread adopts the binding
  when it decodes the identical header off the wire.  Channels are FIFO
  per direction, so bindings are queued and popped in order.
* **Balanced enter/exit.**  Spans are only opened through the
  :meth:`ShmemScope.span` context manager (the ``span-discipline`` lint
  rule forbids raw ``span_open``/``span_close`` outside this package) —
  or, for a callback stage with no process, the
  :meth:`ShmemScope.begin_span` / :meth:`ShmemScope.end_span` pair — and
  the NTB invariant auditor checks no span is left open at quiescence
  (``repro.analysis.invariants.check_span_balance``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Optional

__all__ = ["Span", "ShmemScope", "NullScope", "NULL_SCOPE",
           "instrument_cluster"]


@dataclass(slots=True)
class Span:
    """One timed activity.  ``end is None`` while the span is open.

    Slotted: traced runs allocate one of these per instrumented activity,
    so the per-instance ``__dict__`` is worth eliding.
    """

    span_id: int
    parent_id: Optional[int]
    name: str                  # "put", "link_transit", "bypass_forward", ...
    category: str              # "op" | "driver" | "link" | "dma" | "service"
    track: str                 # display lane, e.g. "pe0", "host0.ntb.right"
    start: float
    end: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_open(self) -> bool:
        return self.end is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        close = f"{self.end:.2f}" if self.end is not None else "open"
        return (f"<Span #{self.span_id} {self.name}@{self.track} "
                f"[{self.start:.2f}, {close}]>")


class _SpanCtx:
    """Context manager returned by :meth:`ShmemScope.span`.

    Captures the owning process at ``__enter__`` so the matching pop at
    ``__exit__`` targets the right per-process stack even if the body
    suspended many times in between.
    """

    __slots__ = ("_scope", "_name", "_category", "_track", "_parent",
                 "_args", "_span", "_key")

    def __init__(self, scope: "ShmemScope", name: str, category: str,
                 track: str, parent: Optional[int], args: dict[str, Any]):
        self._scope = scope
        self._name = name
        self._category = category
        self._track = track
        self._parent = parent
        self._args = args
        self._span: Optional[Span] = None
        self._key: Any = None

    def __enter__(self) -> Span:
        scope = self._scope
        self._key = scope._context_key()
        parent = self._parent
        if parent is None:
            parent = scope._current_for_key(self._key)
        span = scope.span_open(self._name, self._category, self._track,
                               parent, self._args)
        scope._stacks.setdefault(self._key, []).append(span.span_id)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._span is not None
        self._scope.span_close(self._span)
        stack = self._scope._stacks.get(self._key)
        if stack and stack[-1] == self._span.span_id:
            stack.pop()
        elif stack and self._span.span_id in stack:  # pragma: no cover
            stack.remove(self._span.span_id)
        if not stack and self._key in self._scope._stacks:
            del self._scope._stacks[self._key]


_NO_PROCESS = object()  # context key for callback/dispatch contexts


class ShmemScope:
    """Span recorder for one simulation.

    One scope is shared by every instrumented component of a cluster
    (mirroring how ``cluster.shmemsan`` is shared): the first tracing
    :class:`~repro.core.runtime.ShmemRuntime` creates it, stores it as
    ``cluster.scope`` and wires it into drivers, DMA engines, doorbells
    and links with :func:`instrument_cluster`.
    """

    enabled = True

    def __init__(self, env):
        self.env = env
        self.spans: list[Span] = []
        self._next_id = 1
        #: per-process span stacks, keyed on the active Process.
        self._stacks: dict[Any, list[int]] = {}
        #: spawned-process parent seeds (bind_process).
        self._seeds: dict[Any, int] = {}
        #: message-value -> FIFO of bound sender span ids.
        self._msg_bind: dict[Hashable, deque[int]] = {}
        #: parent span id (or None for roots) -> children in id order.
        #: Maintained at open time so children()/roots()/walk() are O(1)
        #: per span instead of scanning the whole span list.
        self._kids: dict[Optional[int], list[Span]] = {}

    # ------------------------------------------------------------- context
    def _context_key(self) -> Any:
        proc = self.env.active_process
        return proc if proc is not None else _NO_PROCESS

    def _current_for_key(self, key: Any) -> Optional[int]:
        stack = self._stacks.get(key)
        if stack:
            return stack[-1]
        return self._seeds.get(key)

    def current_span_id(self) -> Optional[int]:
        """The innermost open span of the active process (or its seed)."""
        return self._current_for_key(self._context_key())

    def current_label(self) -> str:
        """Human label of the current span — race-report annotation."""
        span_id = self.current_span_id()
        if span_id is None:
            return ""
        span = self.spans[span_id - 1]
        return f"{span.track}:{span.name}"

    # --------------------------------------------------------------- spans
    def span(self, name: str, category: str = "op", track: str = "",
             parent: Optional[int] = None, **args: Any) -> _SpanCtx:
        """Open a span for the duration of a ``with`` block.

        ``parent`` overrides the default parent (the current span of the
        active process); cross-process children pass the adopted sender
        span explicitly.
        """
        return _SpanCtx(self, name, category, track, parent, args)

    def span_open(self, name: str, category: str, track: str,
                  parent: Optional[int], args: dict[str, Any]) -> Span:
        """Low-level open.  Use :meth:`span` everywhere outside this
        package — the ``span-discipline`` lint rule enforces it."""
        span = Span(
            span_id=self._next_id, parent_id=parent, name=name,
            category=category, track=track, start=self.env.now, args=args,
        )
        self._next_id += 1
        # span_id == index + 1 (ids are dense, spans never removed), so
        # the spans list doubles as the id lookup table.
        self.spans.append(span)
        kids = self._kids.get(parent)
        if kids is None:
            self._kids[parent] = [span]
        else:
            kids.append(span)
        return span

    def span_close(self, span: Span) -> None:
        """Low-level close; see :meth:`span_open`."""
        span.end = self.env.now

    def begin_span(self, name: str, category: str, track: str,
                   parent: Optional[int], **args: Any) -> Span:
        """Open a span whose two ends run in different event callbacks —
        a pipeline stage with no process, hence no span stack to keep it
        on.  ``parent`` is explicit and no stack is touched; close it with
        :meth:`end_span`.  The ``span-discipline`` lint rule admits this
        pair; ``check_span_balance`` still reports one left open."""
        return self.span_open(name, category, track, parent, args)

    def end_span(self, span: Span) -> None:
        """Close a :meth:`begin_span` span."""
        self.span_close(span)

    def instant(self, name: str, category: str = "driver", track: str = "",
                **args: Any) -> Span:
        """A zero-duration marker (doorbell latch, IRQ edge, ...)."""
        span = self.span_open(name, category, track,
                              self.current_span_id(), args)
        span.end = span.start
        return span

    # ------------------------------------------------- cross-process edges
    def bind_msg(self, msg: Hashable, span_id: Optional[int]) -> None:
        """Bind the sender's span to an outgoing message *value*.

        The receiver decodes an equal Message off the wire and adopts the
        binding; per-direction channels are FIFO, so a deque keyed on the
        frozen message value pairs sender and receiver deterministically.
        """
        if span_id is None:
            return
        self._msg_bind.setdefault(msg, deque()).append(span_id)

    def adopt_msg(self, msg: Hashable) -> Optional[int]:
        """Pop the sender span bound to ``msg`` (None if unbound)."""
        queue = self._msg_bind.get(msg)
        if not queue:
            return None
        span_id = queue.popleft()
        if not queue:
            del self._msg_bind[msg]
        return span_id

    def bind_process(self, process: Any, span_id: Optional[int]) -> None:
        """Seed a spawned process so its spans parent on ``span_id``."""
        if span_id is None:
            return
        self._seeds[process] = span_id

    # ----------------------------------------------------------- accessors
    def open_spans(self) -> list[Span]:
        """Spans not yet closed — must be empty at quiescence."""
        return [span for span in self.spans if span.end is None]

    def pending_bindings(self) -> int:
        """Message bindings never adopted — lost causality edges."""
        return sum(len(q) for q in self._msg_bind.values())

    def span_by_id(self, span_id: int) -> Span:
        return self.spans[span_id - 1]

    def children(self, span_id: int) -> list[Span]:
        return list(self._kids.get(span_id, ()))

    def roots(self) -> list[Span]:
        return list(self._kids.get(None, ()))

    def walk(self, span: Span) -> Iterator[Span]:
        """Yield ``span`` and all descendants, depth-first, in id order."""
        yield span
        for child in self.children(span.span_id):
            yield from self.walk(child)

    def subtree_end(self, span: Span) -> float:
        """Effective end: max close time over the span and descendants.

        A Put root closes at *local* completion; remote delivery children
        extend past it — this is the end-to-end horizon.
        """
        return max((s.end for s in self.walk(span) if s.end is not None),
                   default=span.start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ShmemScope spans={len(self.spans)} "
                f"open={len(self.open_spans())}>")


class NullScope:
    """Do-nothing scope: the default wired into every instrumented
    component, so instrumentation sites need no ``if scope`` branches
    and tracing-off runs pay only a no-op method call."""

    enabled = False

    def span(self, name: str, category: str = "op", track: str = "",
             parent: Optional[int] = None, **args: Any) -> "_NullCtx":
        return _NULL_CTX

    def begin_span(self, name: str, category: str, track: str,
                   parent: Optional[int], **args: Any) -> None:
        return None

    def end_span(self, span: Any) -> None:
        pass

    def instant(self, name: str, category: str = "driver", track: str = "",
                **args: Any) -> None:
        return None

    def bind_msg(self, msg: Hashable, span_id: Optional[int]) -> None:
        pass

    def adopt_msg(self, msg: Hashable) -> Optional[int]:
        return None

    def bind_process(self, process: Any, span_id: Optional[int]) -> None:
        pass

    def current_span_id(self) -> Optional[int]:
        return None

    def current_label(self) -> str:
        return ""


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CTX = _NullCtx()

#: Shared inert scope — components default to this until instrumented.
NULL_SCOPE = NullScope()


def instrument_cluster(cluster, scope: ShmemScope) -> None:
    """Point every instrumented component of ``cluster`` at ``scope``.

    Duck-typed on purpose: the hardware layers (``pcie``, ``ntb``) carry a
    ``scope`` attribute defaulting to :data:`NULL_SCOPE` and never import
    anything above themselves.
    """
    for (_host_id, _side), driver in sorted(cluster._drivers.items()):
        driver.scope = scope
        driver.endpoint.dma.scope = scope
        driver.endpoint.doorbell.scope = scope
    for _key, cable in sorted(cluster.cables.items()):
        cable.a_to_b.scope = scope
        cable.b_to_a.scope = scope
