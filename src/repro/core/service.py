"""The per-host service thread: Fig. 5's interrupt service state machine.

§III-B.1 step 4 creates "a thread to run and process asynchronous data
transferring to support the one-sided communication property".  This module
is that thread.  Doorbell top halves enqueue work items; the thread drains
them in arrival order (FIFO — the property that makes the ring barrier
token a flush fence behind forwarded data) and for each message decides,
exactly as Fig. 5 does:

* *Destination is me?*  → drain the payload into the symmetric heap /
  pending-get buffer / AMO table and ACK.
* *Destination is my neighbor?* → deliver through the **data** window.
* otherwise → store-and-forward through the next hop's **bypass** window.

Get requests additionally walk the "Source is me?" branch: the owner spawns
a responder that streams chunks back along the reverse path.

Two of the opt-in fastpath levers (``ShmemConfig.fastpath``,
docs/FASTPATH.md) are branches of this same thread, not a second one:
``coalesce`` keeps it in a bounded poll window after a drain instead of
sleeping into a wake charge, and ``cut_through`` forwards bypass chunks
straight out of the receive slot, returning the upstream credit through a
per-link ordered-ack chain.  With ``fastpath=None`` neither branch is ever
taken: the lever counters stay 0 and ``_ack_tail`` stays empty.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..fabric import NoRouteError
from ..host import KernelThread
from ..ntb import LinkDownError
from ..sim import Event, Process
from .errors import PeerUnreachableError, ProtocolError
from .heap import SymAddr
from . import linkstate
from .transfer import (
    AMO_REQ_FMT,
    AMO_RESP_FMT,
    AmoOp,
    FLAG_INLINE,
    INLINE_PAYLOAD_OFFSET,
    KIND_FACTS,
    Message,
    Mode,
    MsgKind,
    PayloadSource,
    SLOT_HEADER_BYTES,
    chunk_ranges,
    unpack_header_bytes,
)
from .waits import REPOLL, poll_wait

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .links import LinkEnd
    from .runtime import ShmemRuntime

__all__ = ["ShmemService"]

_AMO_REQ_BYTES = struct.calcsize(AMO_REQ_FMT)

#: CPU cost of one atomic read-modify-write on the heap (µs).
_AMO_APPLY_US = 0.5
#: CPU cost of parsing an in-slot header (µs).
_SLOT_HEADER_US = 0.2
#: The ``coalesce`` lever's hot window: poll period (µs) and the number
#: of empty polls before the thread goes back to a real (wake-cost-
#: charging) sleep.  12 × 5 µs covers one ACK or response round trip.
_POLL_US = 5.0
_POLL_ROUNDS = 12

_U64_MASK = 0xFFFFFFFFFFFFFFFF


class _Detached(Process):
    """A :meth:`ShmemService._detach` body.  Nothing ever joins it, so a
    success ends it without the termination event — dispatched with no
    callback, that event moves no other one.  A failure is still
    scheduled, so it surfaces from ``Environment.run`` as before."""

    __slots__ = ()

    def _terminate_ok(self, value: object) -> None:
        self._target = None
        self._value = value


def _amo_compute(op: int, old: int, value: int, compare: int) -> int:
    """Pure AMO arithmetic on signed 64-bit cells."""
    if op == AmoOp.FETCH:
        return old
    if op == AmoOp.SET:
        return value
    if op == AmoOp.ADD:
        return _signed64(old + value)
    if op == AmoOp.COMPARE_SWAP:
        return value if old == compare else old
    if op == AmoOp.AND:
        return _signed64((old & _U64_MASK) & (value & _U64_MASK))
    if op == AmoOp.OR:
        return _signed64((old & _U64_MASK) | (value & _U64_MASK))
    if op == AmoOp.XOR:
        return _signed64((old & _U64_MASK) ^ (value & _U64_MASK))
    raise ProtocolError(f"unknown AMO op {op}")


def _signed64(value: int) -> int:
    value &= _U64_MASK
    return value - (1 << 64) if value >= (1 << 63) else value


class ShmemService:
    """Owns the work queue, the kernel thread, and all message handlers."""

    def __init__(self, runtime: "ShmemRuntime"):
        self.rt = runtime
        self.env = runtime.env
        self._work: deque[tuple[str, str]] = deque()
        #: payload kind -> the bound method that consumes it here.
        self._deliver = {kind: getattr(self, facts.deliver)
                         for kind, facts in KIND_FACTS.items()
                         if facts.deliver is not None}
        self.thread = KernelThread(
            self.env, f"{runtime.name}.service", self._body,
            wake_latency_us=runtime.host.cost_model.thread_wake_us,
            on_sleep=runtime.notify_progress,
        )
        #: diagnostics
        self.handled: dict[str, int] = {}
        self.active_responders = 0
        #: in-flight detached forward/reply tasks (see _detach).
        self.active_forwards = 0
        #: in-flight BARRIER_MSG relays.  Counted separately because
        #: :attr:`quiescent` must ignore them: barrier control is
        #: idempotent and generation-tagged, so a token overtaking one
        #: is harmless — and during a degraded-barrier resend storm a
        #: relay hop's control forwards never fully drain, which would
        #: wedge ``forwarding_quiesce`` (and with it the very arrival
        #: that would end the storm).
        self.active_ctrl_forwards = 0
        #: in-flight deferred ACK tasks (always 0 on the baseline path;
        #: the fastpath's cut-through forwarding defers slot ACKs).
        self.active_acks = 0
        #: fastpath levers 1 and 3, read once (both off on the default
        #: plane, which leaves everything below inert).
        fp = runtime.config.fastpath
        self._fp = fp
        self._cut_through = fp is not None and fp.cut_through
        #: True while the thread idles inside the poll window — counts as
        #: "asleep" for quiescence checks (the poll expires by itself).
        self._poll_idle = False
        #: per-incoming-side tail of the ordered-ack chain.
        self._ack_tail: dict[str, Event] = {}
        #: lever diagnostics
        self.coalesced_wakes = 0
        self.cut_throughs = 0
        self.cut_through_fallbacks = 0
        #: fault diagnostics: chunks dropped at a dead edge, responses
        #: abandoned mid-stream, straggler replies for retired requests.
        self.dropped_forwards = 0
        self.abandoned_responses = 0
        self.stale_responses = 0
        #: identical BARRIER_MSG relays queued per direction (dedup set,
        #: see _forward_control) and how many duplicates were dropped.
        self._queued_ctrl_fwds: set = set()
        self.dup_ctrl_drops = 0

    # ---------------------------------------------------------------- intake
    def enqueue(self, side: str, kind: str) -> None:
        """Top-half entry: record work and kick the thread."""
        self._work.append((side, kind))
        self.thread.kick()

    @property
    def quiescent(self) -> bool:
        """No queued or in-flight *data* work anywhere in the service.

        This is the condition :meth:`ShmemRuntime.forwarding_quiesce` waits
        for (every term that can turn it true calls ``notify_progress``).
        An idle poll counts as asleep: the queue is empty and the poll
        window expires on its own without producing work.  In-flight
        BARRIER_MSG relays (``active_ctrl_forwards``) are deliberately
        excluded — see the counter's comment.
        """
        return (not self._work and self.active_forwards == 0
                and self.active_responders == 0
                and self.active_acks == 0
                and (self.thread.is_sleeping or self._poll_idle))

    def stop(self) -> Generator:
        # Let in-flight forwards/responders drain before killing the thread.
        deadline = self.env.now + self.rt.FINALIZE_DRAIN_US

        def drained():
            if not (self.active_forwards or self.active_ctrl_forwards
                    or self.active_responders
                    or self.active_acks or self._work):
                return True
            if self.env.now < deadline:
                return False
            # A peer that already finalized will never ACK, so a
            # relay queued behind its slot would wait forever.
            # Free the slots: sends are posted writes that return
            # after the local hand-off, so each flush lets one
            # queued task complete (the bytes die at the torn-down
            # end, which is fine — barrier chatter is idempotent).
            for link in self.rt.links.values():
                link.flush()
            return REPOLL

        yield from poll_wait(self.rt, "service-stop", drained, deadline)
        self.thread.stop()
        yield self.thread.join()

    # ------------------------------------------------------------------ body
    def _body(self, thread: KernelThread) -> Generator:
        fp = self._fp
        while True:
            yield from thread.wait_work()
            if thread.stop_requested and not self._work:
                return
            yield from self._drain_work()
            # Lever 1, NAPI-style hot window: poll briefly for follow-on
            # work instead of sleeping into a thread_wake_us charge.  MSI +
            # ISR stay charged per doorbell — the top halves still feed
            # the queue; only the wake is skipped.  (Inline, not a helper
            # generator: a helper costs one more frame per poll tick.)
            while (fp is not None and fp.coalesce
                   and not thread.stop_requested):
                polled = 0
                while (not self._work and polled < _POLL_ROUNDS
                       and not thread.stop_requested):
                    self._poll_idle = True
                    if polled == 0:
                        # Later rounds flip the flag back within one
                        # dispatch: only this edge is ever observable.
                        self.rt.notify_progress()
                    # Bounded by _POLL_ROUNDS, not a blocking wait.
                    yield self.env.timeout(_POLL_US)  # lint: skip
                    self._poll_idle = False
                    polled += 1
                if not self._work:
                    break  # window expired: back to a real sleep
                self.coalesced_wakes += 1
                yield from self._drain_work()

    def _drain_work(self) -> Generator:
        """Handle queued work items in arrival order until the queue drains."""
        while self._work:
            side, kind = self._work.popleft()
            if not self._work:
                self.rt.notify_progress()  # stop() waits on the queue too
            self.handled[kind] = self.handled.get(kind, 0) + 1
            if kind == "data" or kind == "bypass":
                yield from self._receive(side, kind)
            elif kind in ("barrier_start", "barrier_end"):
                assert self.rt.barrier is not None
                self.rt.barrier.on_token(side, kind)
            else:  # pragma: no cover - defensive
                raise ProtocolError(f"unknown work kind {kind!r}")

    # --------------------------------------------------------------- channels
    def _receive(self, side: str, channel: str) -> Generator:
        """Decode the message a doorbell announced and dispatch it.

        Data window: header in ScratchPads, payload at ``rx_data[0]``.
        Bypass window: in-slot header, slots consumed in order."""
        rt = self.rt
        link = rt.links[side]
        where: dict[str, int] = {}
        if channel == "data":
            try:
                msg = yield from link.data_mailbox.recv_header(
                    link.incoming_spad_block)
            except ProtocolError:
                if rt.fault_aware:
                    # The cable died between the doorbell and this read:
                    # the ScratchPads master-abort to all-ones, an invalid
                    # kind.  Drop the orphaned work item.
                    self.stale_responses += 1
                    return
                raise
            payload_phys = link.rx_data.phys
        else:
            mailbox = link.bypass_mailbox
            slot = where["slot"] = link.next_rx_slot
            link.next_rx_slot = (slot + 1) % mailbox.slots
            base = link.rx_bypass.phys + slot * mailbox.slot_stride
            yield from rt.host.cpu._charge(_SLOT_HEADER_US)
            msg = unpack_header_bytes(rt.host.memory.read(base, 16))
            # Inline payloads (fastpath small messages) ride inside the
            # slot header itself, right after the packed Message words.
            payload_phys = base + (INLINE_PAYLOAD_OFFSET
                                   if msg.flags & FLAG_INLINE
                                   else SLOT_HEADER_BYTES)
        scope = rt.scope
        # Adopt the sender's span so this hop's work joins its tree.
        ctx = scope.adopt_msg(msg)
        with scope.span(f"svc_{msg.kind.name.lower()}", category="service",
                        track=f"{rt.name}.service", parent=ctx,
                        src=msg.src_pe, dest=msg.dest_pe, nbytes=msg.size,
                        **where):
            yield from self._dispatch(msg, link, payload_phys, channel)

    def _ack(self, link: "LinkEnd", channel: str) -> Generator:
        """Return the sender's slot.  A posted doorbell: into a severed
        cable it is silently lost (``ring_peer_doorbell`` never raises)."""
        if channel == "data":
            yield from link.data_mailbox.ack()
        elif not self._cut_through:
            yield from link.bypass_mailbox.ack()
        else:
            # Ordered + detached: the doorbell rings after every earlier
            # slot's ACK, from a spawned task so the service thread never
            # blocks on a deferred cut-through ACK ahead of it in the chain.
            prev, gate = self._reserve_ack(link.side)
            self.env.process(
                self._ordered_ack(link, prev, gate),
                name=f"{self.rt.name}.ack.{link.side}",
            )

    def _reserve_ack(self, side: str) -> tuple[Optional[Event], Event]:
        """Claim the next position in ``side``'s ordered-ack chain.

        Must be called from the service thread while the slot is being
        handled — slot handling is serialized, so reservation order is
        slot order, which is exactly the order the sender's FIFO credit
        protocol frees slots in (an unACKed slot's bytes are therefore
        never overwritten while a cut-through still streams out of them).
        """
        prev = self._ack_tail.get(side)
        gate = self.env.event()
        self._ack_tail[side] = gate
        self.active_acks += 1
        return prev, gate

    def _ordered_ack(self, link: "LinkEnd", prev: Optional[Event],
                     gate: Event, *also: str) -> Generator:
        """Ring ``link``'s bypass ACK doorbell in chain order, then open
        ``gate`` for the next slot.  ``also``: the tail of a cut-through
        passes ``"active_forwards"`` — its forward is over only once the
        credit is back."""
        try:
            if prev is not None and not prev.triggered:
                yield prev
            yield from link.bypass_mailbox.ack()
        finally:
            if not gate.triggered:
                gate.succeed()
            self._finish("active_acks", *also)

    # ----------------------------------------------------------------- detach
    def _detach(self, body: Generator, name: str, counter: str) -> None:
        """Run ``body`` as its own process so the service thread never
        blocks on it, counted in ``counter`` until its :meth:`_finish`.

        Ordering: tasks are spawned in arrival order and a send's first
        action is the mailbox slot request, so FIFO slot granting plus the
        mailbox TX lock preserve per-direction message order.
        """
        setattr(self, counter, getattr(self, counter) + 1)
        task = _Detached(self.env, body, name=f"{self.rt.name}.{name}")
        # Seed the detached task so its spans stay in this message's tree.
        self.rt.scope.bind_process(task, self.rt.scope.current_span_id())

    def _finish(self, *counters: str) -> None:
        """A detached body's ``finally``: uncount it, wake the waiters."""
        for counter in counters:
            setattr(self, counter, getattr(self, counter) - 1)
        self.rt.notify_progress()

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, msg: Message, link: "LinkEnd", payload_phys: int,
                  channel: str) -> Generator:
        rt = self.rt
        kind = msg.kind
        mine = msg.dest_pe == rt.my_pe_id
        deliver = self._deliver.get(kind)
        if deliver is not None:
            # Payload kinds (Fig. 5): destination is me -> consume, else
            # relay one hop onward; each ACKs once the slot is drained.
            if mine:
                yield from deliver(msg, link, payload_phys, channel)
            elif kind is MsgKind.PUT_DATA:
                raise ProtocolError(
                    f"{rt.name}: misrouted PUT_DATA for PE {msg.dest_pe}"
                )
            else:
                yield from self._forward(msg, link, payload_phys, channel)
            return
        # Control only — ACK right away to free the ScratchPads.
        yield from self._ack(link, channel)
        if kind is MsgKind.LINK_DOWN or kind is MsgKind.LINK_UP:
            # Control flood from a dead edge's endpoint (see
            # linkstate.announce_link_state): apply locally, then
            # relay onward in the same direction until the far endpoint.
            edge = ((msg.aux >> 8) & 0xFF, msg.aux & 0xFF)
            if kind is MsgKind.LINK_DOWN:
                linkstate.apply_edge_dead(rt, edge)
            else:
                linkstate.apply_edge_alive(rt, edge)
        if not mine:
            self._forward_control(msg, link)
        elif kind is MsgKind.GET_REQ:
            # Owner side of a Get: stream chunks back the way it came.
            self._detach(self._serve_get(msg, link),
                         f"get_responder.{msg.aux}", "active_responders")
        elif kind is MsgKind.BARRIER_MSG:
            assert rt.barrier is not None
            rt.barrier.on_notify(msg)

    # --------------------------------------------------------------- delivery
    def _deliver_put(self, msg: Message, link: "LinkEnd", payload_phys: int,
                     channel: str) -> Generator:
        """Fig. 5: destination is me — copy window buffer → symmetric heap."""
        rt = self.rt
        with rt.scope.span("deliver_put", category="service",
                           track=f"{rt.name}.service", nbytes=msg.size):
            yield from rt.host.cpu.local_memcpy(msg.size)
            data = rt.host.memory.read(payload_phys, msg.size)
            rt.deliver_to_heap(msg.offset, data)
            yield from self._ack(link, channel)

    def _awaited(self, msg: Message, what: str, link: "LinkEnd",
                 channel: str) -> Generator:
        """The pending ``what`` request a response answers, or None for
        a straggler (ACKed and dropped here)."""
        rt = self.rt
        pending = rt.pending.get(msg.aux)
        if pending is not None and pending.what == what:
            return pending
        if not rt.fault_aware:
            raise ProtocolError(
                f"{rt.name}: {msg.kind.name} for unknown request {msg.aux}"
            )
        # A request that was failed or retried after a link event:
        # drain the slot, drop the response.
        self.stale_responses += 1
        yield from self._ack(link, channel)
        return None

    def _deliver_get_chunk(self, msg: Message, link: "LinkEnd",
                           payload_phys: int, channel: str) -> Generator:
        """One response chunk for a Get we initiated."""
        rt = self.rt
        pending = yield from self._awaited(msg, "get", link, channel)
        if pending is None:
            return
        if msg.offset + msg.size > pending.nbytes:
            raise ProtocolError(
                f"{rt.name}: GET_RESP chunk overruns request {msg.aux}"
            )
        # The window-target region is mapped uncached in the prototype, so
        # the memcpy-mode drain pays the PIO read rate; the DMA path copies
        # out at cached-memcpy speed (see EXPERIMENTS.md, Fig. 9 notes).
        with rt.scope.span("deliver_get_chunk", category="service",
                           track=f"{rt.name}.service", nbytes=msg.size):
            if pending.mode is Mode.MEMCPY:
                yield from rt.host.cpu.pio_read(msg.size)
            else:
                yield from rt.host.cpu.local_memcpy(msg.size)
            data = rt.host.memory.read(payload_phys, msg.size)
            rt.host.write_user(pending.dest_virt + msg.offset, data)
            pending.received += msg.size
            yield from self._ack(link, channel)
        if pending.received >= pending.nbytes \
                and not pending.done.triggered:
            pending.done.succeed()

    def _deliver_amo_resp(self, msg: Message, link: "LinkEnd",
                          payload_phys: int, channel: str) -> Generator:
        pending = yield from self._awaited(msg, "amo", link, channel)
        if pending is None:
            return
        raw = self.rt.host.memory.read_bytes(payload_phys, 8)
        (old,) = struct.unpack(AMO_RESP_FMT, raw)
        yield from self._ack(link, channel)
        if not pending.done.triggered:
            pending.done.succeed(old)

    # -------------------------------------------------------------- forwarding
    def _out_link(self, in_link: "LinkEnd",
                  dest_pe: int) -> Optional["LinkEnd"]:
        """The onward link a relay sends toward ``dest_pe``.

        Routing is the runtime's router's call: ring/chain relays keep
        travelling the direction they arrived from (the historical rule),
        grid relays re-resolve per hop (dimension-order by default), so
        the same store-and-forward machinery serves every topology.
        None when the router finds no live way onward — the caller drops
        the message (end-to-end recovery is the requester's job).
        """
        rt = self.rt
        try:
            return rt.link_for(rt.router.forward_port(
                rt.my_pe_id, dest_pe, in_link.side, rt.dead_edges,
                load=rt._port_load))
        except NoRouteError:
            return None

    def _forward(self, msg: Message, in_link: "LinkEnd", payload_phys: int,
                 channel: str) -> Generator:
        """Relay a payload message one hop onward (Fig. 4/5).

        Default: store-and-forward — the chunk is copied into a
        per-message staging buffer, the incoming slot is ACKed, and the
        onward send runs as a *spawned task*; the service thread itself
        never blocks on a downstream mailbox slot.  Blocking in place
        would make the thread part of a hold-and-wait cycle around the
        ring (every host's thread waiting for the next host's thread to
        drain), a real distributed deadlock this design hit before the
        tasks were detached.

        With the ``cut_through`` lever a bypass chunk instead leaves
        straight out of its receive slot (inline payloads are relayed
        inline) — but only when a downstream credit is free right now.
        Under back-pressure the hop degrades to store-and-forward:
        cutting through would hold the upstream credit while *waiting*
        for a downstream one, a hold-and-wait edge that can close into
        the classic credit-deadlock cycle on a saturated ring.
        """
        rt = self.rt
        out_link = self._out_link(in_link, msg.dest_pe)
        if out_link is None or (
                rt.dead_edges and out_link.edge in rt.dead_edges):
            # Nowhere to go, or the onward cable is declared dead: behave
            # like the posted fabric itself — ACK the sender (its slot
            # must come back) and drop the chunk.
            yield from self._ack(in_link, channel)
            self._drop_forward(msg)
            return
        if self._cut_through and channel == "bypass":
            if msg.flags & FLAG_INLINE:
                # Copy the ≤48 in-header bytes out (effectively free) and
                # relay them inline again — the relay skips DMA exactly
                # like the first hop did.
                data = rt.host.memory.read(payload_phys, msg.size).copy()
                yield from rt.host.cpu.local_memcpy(msg.size)
                yield from self._ack(in_link, channel)
                self._relay(msg, out_link, inline=data)
                return
            if out_link.transit_credits:
                # Lever 3: zero-copy, straight out of the rx slot.  Its
                # bytes stay valid until we ACK (ordered chain => the
                # sender cannot have reused it), and the ACK is deferred
                # to the detached task's completion.
                self.cut_throughs += 1
                with rt.scope.span("cut_through", category="service",
                                   track=f"{rt.name}.service",
                                   nbytes=msg.size,
                                   next_pe=out_link.peer_host_id):
                    payload = PayloadSource.from_pinned(
                        rt.host, in_link.rx_bypass,
                        payload_phys - in_link.rx_bypass.phys, msg.size)
                    prev, gate = self._reserve_ack(in_link.side)
                    self._detach(
                        self._cut_through_task(msg, in_link, out_link,
                                               payload, prev, gate),
                        f"cut.{msg.kind.name}", "active_forwards")
                return
            self.cut_through_fallbacks += 1
        with rt.scope.span("bypass_forward", category="service",
                           track=f"{rt.name}.service", nbytes=msg.size,
                           next_pe=out_link.peer_host_id):
            yield from rt.host.cpu.local_memcpy(msg.size)
            staging = rt.host.alloc_pinned(max(msg.size, 64))
            rt.host.memory.write(
                staging.phys, rt.host.memory.view(payload_phys, msg.size)
            )
            yield from self._ack(in_link, channel)
            self._relay(msg, out_link, staging)

    def _cut_through_task(self, msg: Message, in_link: "LinkEnd",
                          out_link: "LinkEnd", payload: PayloadSource,
                          prev: Optional[Event], gate: Event) -> Generator:
        rt = self.rt
        try:
            with rt.scope.span("cut_through_send", category="service",
                               track=f"{rt.name}.service",
                               kind=msg.kind.name, nbytes=msg.size):
                yield from self._onward(msg, out_link, payload)
        except (LinkDownError, PeerUnreachableError):
            self._drop_forward(msg)
        finally:
            # The bytes have left the slot (or died trying): return the
            # upstream credit, in chain order.
            yield from self._ordered_ack(in_link, prev, gate,
                                         "active_forwards")

    def _drop_forward(self, msg: Message) -> None:
        """Count a relayed ``msg`` this host gave up on.  Posted-write
        semantics: it is simply lost; end-to-end recovery is the
        requester's job (retry / reroute / typed error)."""
        self.dropped_forwards += 1

    def _onward(self, msg: Message, out_link: "LinkEnd",
                payload: Optional[PayloadSource] = None,
                inline: Optional[np.ndarray] = None) -> Generator:
        """``msg``'s next hop: the same record posted through ``out_link``
        (plain function — returns the mailbox's send generator)."""
        return out_link.post(
            msg.kind, msg.src_pe, msg.dest_pe,
            last_leg=out_link.peer_host_id == msg.dest_pe, mode=msg.mode,
            offset=msg.offset, size=msg.size, aux=msg.aux,
            payload=payload, inline=inline, relay=True)

    def _forward_control(self, msg: Message, in_link: "LinkEnd") -> None:
        out_link = self._out_link(in_link, msg.dest_pe)
        if out_link is None:
            self._drop_forward(msg)
            return
        dedup = None
        if msg.kind is MsgKind.BARRIER_MSG:
            # ARRIVE/RELEASE are idempotent and generation-tagged (aux):
            # while an identical copy is still queued for this direction,
            # relaying another adds nothing but mailbox congestion.  At
            # large ring sizes the degraded barrier's resend storm would
            # otherwise outpace the surviving line (every hop is a
            # capacity-1 mailbox) and livelock the whole episode.
            dedup = (out_link.side, msg.src_pe, msg.dest_pe, msg.aux)
            if dedup in self._queued_ctrl_fwds:
                self.dup_ctrl_drops += 1
                return
            self._queued_ctrl_fwds.add(dedup)
        self._relay(msg, out_link, dedup=dedup)

    def _relay(self, msg: Message, out_link: "LinkEnd", staging=None,
               dedup=None, inline=None) -> None:
        """Detach ``msg``'s onward send (blocking in place would make the
        thread part of a hold-and-wait cycle, see :meth:`_forward`)."""
        counter = ("active_ctrl_forwards" if msg.kind is MsgKind.BARRIER_MSG
                   else "active_forwards")
        self._detach(
            self._onward_task(msg, out_link, counter, staging, dedup, inline),
            f"fwd.{msg.kind.name}", counter)

    def _onward_task(self, msg: Message, out_link: "LinkEnd", counter: str,
                     staging, dedup, inline) -> Generator:
        try:
            if counter == "active_ctrl_forwards":
                # A relayed ARRIVE/RELEASE must not overtake data chunks
                # this host is forwarding — the same rule the ring-token
                # path enforces with forwarding_quiesce before ringing
                # the token doorbell.  Without it a degraded barrier can
                # release while a long-way-around Put is still mid-line,
                # and the reader sees stale bytes.  Data forwards are
                # finite (no resend storm), so this always drains.
                yield from poll_wait(self.rt, "ctrl-relay data flush",
                                     lambda: not self.active_forwards)
            with self.rt.scope.span("onward_send", category="service",
                                    track=f"{self.rt.name}.service",
                                    kind=msg.kind.name, nbytes=msg.size):
                payload = None
                if staging is not None:
                    payload = PayloadSource.from_pinned(
                        self.rt.host, staging, 0, msg.size
                    )
                yield from self._onward(msg, out_link, payload, inline)
        except (LinkDownError, PeerUnreachableError):
            # A chunk in flight when the cable died.  This task is
            # detached — letting the exception escape would crash the
            # whole simulation, not just this transfer.
            self._drop_forward(msg)
        finally:
            if dedup is not None:
                self._queued_ctrl_fwds.discard(dedup)
            if staging is not None:
                self.rt.host.free_pinned(staging)
            self._finish(counter)

    # ------------------------------------------------------------------- gets
    def _serve_get(self, msg: Message, out_link: "LinkEnd") -> Generator:
        rt = self.rt
        chunk = rt.config.get_chunk
        staging = rt.host.alloc_pinned(chunk)
        try:
            with rt.scope.span("serve_get", category="service",
                               track=f"{rt.name}.service",
                               nbytes=msg.size, requester=msg.src_pe):
                last_leg = out_link.peer_host_id == msg.src_pe
                for chunk_off, chunk_size in chunk_ranges(msg.size, chunk):
                    # heap -> staging (cached copy)
                    yield from rt.host.cpu.local_memcpy(chunk_size)
                    data = rt.heap.read(
                        SymAddr(msg.offset + chunk_off), chunk_size
                    )
                    rt.host.memory.write(staging.phys, data)
                    yield from out_link.post(
                        MsgKind.GET_RESP, rt.my_pe_id, msg.src_pe,
                        last_leg=last_leg, mode=msg.mode, offset=chunk_off,
                        size=chunk_size, aux=msg.aux,
                        payload=PayloadSource.from_pinned(
                            rt.host, staging, 0, chunk_size),
                        relay=True)
        except (LinkDownError, PeerUnreachableError):
            # Reverse path died mid-stream: abandon the response.  The
            # requester's bounded wait notices and retries or raises.
            self.abandoned_responses += 1
        finally:
            rt.host.free_pinned(staging)
            self._finish("active_responders")

    # ------------------------------------------------------------------- amos
    def _serve_amo(self, msg: Message, link: "LinkEnd", payload_phys: int,
                   channel: str) -> Generator:
        rt = self.rt
        with rt.scope.span("serve_amo", category="service",
                           track=f"{rt.name}.service",
                           requester=msg.src_pe):
            raw = rt.host.memory.read_bytes(payload_phys, _AMO_REQ_BYTES)
            op, _dtype, value, compare = struct.unpack(AMO_REQ_FMT, raw)
            yield from self._ack(link, channel)
            old = yield from self.apply_amo_local(msg.offset, op, value,
                                                  compare)
            # Reply along the reverse path (detached, like onward sends).
            staging = rt.host.alloc_pinned(64)
            rt.host.memory.write(
                staging.phys,
                np.frombuffer(struct.pack(AMO_RESP_FMT, old),
                              dtype=np.uint8),
            )
            self._relay(Message(
                kind=MsgKind.AMO_RESP, mode=Mode.DMA,
                src_pe=rt.my_pe_id, dest_pe=msg.src_pe,
                offset=msg.offset, size=8, aux=msg.aux,
            ), link, staging)

    def apply_amo_local(self, offset: int, op: int, value: int,
                        compare: int) -> Generator:
        """Atomic read-modify-write on the local heap.

        The RMW itself happens without yielding (hence atomically with
        respect to every other simulated actor); the time cost is charged
        beforehand.
        """
        rt = self.rt
        yield from rt.host.cpu._charge(_AMO_APPLY_US)
        raw = rt.heap.read(SymAddr(offset), 8).tobytes()
        (old,) = struct.unpack("<q", raw)
        new = _amo_compute(op, old, value, compare)
        rt.heap.write(SymAddr(offset), np.frombuffer(
            struct.pack("<q", new), dtype=np.uint8))
        rt.heap_updated.fire(offset)
        return old
