"""Opt-in optimized data plane: the four fastpath levers.

The paper's protocol (DESIGN.md §5) leaves measurable throughput on the
table in four places, each addressed here behind
``ShmemConfig(fastpath=FastpathConfig(...))``.  With ``fastpath=None``
(the default) none of this module is imported and the runtime is
byte-identical in virtual time to the paper-faithful stack — a property a
regression test asserts against hard-coded golden numbers.

The levers
----------

1. **Interrupt coalescing / adaptive polling** (:class:`CoalescingService`).
   Every doorbell costs ``msi_delivery_us + isr_entry_us`` to reach the
   CPU and, when the service thread is asleep, another ``thread_wake_us``
   scheduler hop — ~55 µs before a byte is examined.  NAPI-style, the
   fastpath thread stays in a bounded polling loop after draining work,
   so back-to-back messages (ACK-paced Put chunking, Get request/response
   trains) skip the wake cost.  MSI + ISR stay charged per doorbell: the
   MSIs are edge-triggered posted writes and the work queue is fed by the
   top halves, which this model keeps (masking the vectors would coalesce
   distinct messages into one delivery and lose work items).

2. **Pinned staging + DMA descriptor chaining** (the mailboxes' optional
   staging buffer, ``_MailboxBase._write_window``; link bring-up hands one
   to each mailbox when ``chain_dma`` is set).  Paged user buffers
   scatter into one descriptor per 4 KiB page at ``per_descriptor_us``
   each — the term that caps large-Put throughput (a 512 KiB Put pays 128 × 9 µs of
   descriptor walks against ~176 µs of wire time).  The fastpath copies
   the payload into a pinned contiguous staging buffer (cached memcpy
   rate) and submits a *chained* descriptor ring over it: descriptor
   *i+1* is prefetched while segment *i* streams, so only the first
   descriptor's cost is exposed.

3. **Cut-through forwarding with credit-based flow control**
   (:meth:`CoalescingService._forward`).  The baseline store-and-forward
   hop copies each chunk into a staging buffer before re-sending so it
   can ACK the upstream slot early.  The fastpath forwards straight out
   of the receive slot (zero copy) and defers the upstream ACK until the
   bytes have left it; ``credit_slots`` (default 8, vs 2) outstanding
   slots per direction keep the pipeline full despite the deferred
   credit return.  Two safety rules make this sound:

   * ACKs per incoming link are emitted in slot order (an ordered-ack
     chain), so an unACKed slot's bytes are never overwritten by the
     sender — the FIFO credit protocol frees the *oldest* slot.
   * A hop only cuts through when a downstream credit is free right now;
     under backpressure it degrades to store-and-forward, so the service
     never holds an upstream credit while *waiting* for a downstream one
     (the classic cut-through credit deadlock on a ring).

4. **Inline small messages** (``BypassMailbox.send_inline`` +
   ``FLAG_INLINE``, runtime side in ``ShmemRuntime._put_chunk``).  A Put
   of ≤ ``inline_max`` (≤ 48) bytes rides in the padding of the 64-byte
   bypass slot header: one PIO write publishes header and payload
   together, skipping DMA setup, descriptor, pump and completion
   entirely.  AMO requests (24-byte operands) inline the same way.  The
   *decode* side lives in the base service so mixed rings interoperate;
   only fastpath senders ever set the flag.

``streaming_get`` additionally collapses the requester-side Get chunk
loop into a single GET_REQ for the whole transfer: the owner already
streams ``get_chunk``-sized responses, so the per-chunk full-path round
trip (what makes baseline Get latency proportional to hop count) is paid
once instead of ``ceil(n / get_chunk)`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..fabric import NoRouteError
from ..ntb import LinkDownError
from ..sim import Event
from .errors import PeerUnreachableError
from .service import ShmemService
from .transfer import (
    CHAIN_CHUNK_BYTES,
    FLAG_INLINE,
    INLINE_MAX_BYTES,
    Message,
    PayloadSource,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .links import LinkEnd
    from .runtime import ShmemRuntime

__all__ = ["FastpathConfig", "CoalescingService"]


@dataclass(frozen=True)
class FastpathConfig:
    """Knobs for the optimized data plane (all levers individually
    ablatable; see docs/FASTPATH.md and the ``--compare-fastpath`` bench).

    Attributes
    ----------
    coalesce:
        Adaptive polling in the service thread (lever 1).
    poll_us / poll_rounds:
        Poll period and the number of empty polls before the thread goes
        back to a real (wake-cost-charging) sleep.  The default hot
        window (12 × 5 µs) covers one ACK or response round trip.
    chain_dma:
        Pinned staging + chained-descriptor DMA for paged sources
        (lever 2).
    chain_chunk:
        Descriptor granularity of the staged chain; descriptors after
        the first hide behind the previous segment's stream time.
    cut_through:
        Zero-copy forwarding with deferred ACKs (lever 3).
    credit_slots:
        Bypass slots per link direction under fastpath — the credit pool
        that replaces the baseline's two-slot stop-and-wait.
    inline_max:
        Inline Puts/AMO operands up to this many bytes in the slot
        header (lever 4); 0 disables inlining.  Capped by the wire
        format at :data:`~repro.core.transfer.INLINE_MAX_BYTES`.
    streaming_get:
        One GET_REQ per Get (owner streams all chunks) instead of one
        request round trip per ``get_chunk``.
    """

    coalesce: bool = True
    poll_us: float = 5.0
    poll_rounds: int = 12
    chain_dma: bool = True
    chain_chunk: int = CHAIN_CHUNK_BYTES
    cut_through: bool = True
    credit_slots: int = 8
    inline_max: int = INLINE_MAX_BYTES
    streaming_get: bool = True

    def __post_init__(self) -> None:
        if self.poll_us <= 0:
            raise ValueError("poll_us must be positive")
        if self.poll_rounds < 0:
            raise ValueError("poll_rounds must be >= 0")
        if self.chain_chunk < 4096:
            raise ValueError("chain_chunk unreasonably small")
        if not (1 <= self.credit_slots <= 64):
            raise ValueError("credit_slots must be in 1..64")
        if not (0 <= self.inline_max <= INLINE_MAX_BYTES):
            raise ValueError(
                f"inline_max must be in 0..{INLINE_MAX_BYTES} "
                f"(wire-format ceiling), got {self.inline_max}"
            )


class CoalescingService(ShmemService):
    """Fastpath service thread: adaptive polling + cut-through forwarding.

    Subclasses the Fig. 5 state machine; dispatch, delivery and the Get
    responder are inherited unchanged.  Behavior differences are gated on
    the runtime's :class:`FastpathConfig` (levers 1 and 3).
    """

    def __init__(self, runtime: "ShmemRuntime"):
        super().__init__(runtime)
        fp = runtime.config.fastpath
        assert fp is not None
        self.fp: FastpathConfig = fp
        #: True while the thread idles inside the poll window — counts as
        #: "asleep" for quiescence checks (the poll expires by itself).
        self._poll_idle = False
        #: per-incoming-side tail of the ordered-ack chain.
        self._ack_tail: dict[str, Event] = {}
        #: diagnostics
        self.coalesced_wakes = 0
        self.cut_throughs = 0
        self.cut_through_fallbacks = 0

    # -------------------------------------------------------------- lever 1
    def _body(self, thread) -> Generator:
        if not self.fp.coalesce:
            yield from super()._body(thread)
            return
        while True:
            yield from thread.wait_work()
            if thread.stop_requested and not self._work:
                return
            while True:
                yield from self._drain_work()
                if thread.stop_requested:
                    break
                # NAPI-style hot window: poll briefly for follow-on work
                # instead of sleeping into a thread_wake_us charge.  The
                # loop is bounded by poll_rounds (lint: bounded wait).
                polled = 0
                while (not self._work and polled < self.fp.poll_rounds
                       and not thread.stop_requested):
                    self._poll_idle = True
                    if polled == 0:
                        # Later rounds flip the flag back within one
                        # dispatch: only this edge is ever observable.
                        self.rt.notify_progress()
                    # Bounded by poll_rounds, not a blocking wait.
                    yield self.env.timeout(self.fp.poll_us)  # lint: skip
                    self._poll_idle = False
                    polled += 1
                if not self._work:
                    break
                self.coalesced_wakes += 1

    @property
    def quiescent(self) -> bool:
        base = super().quiescent
        if base:
            return True
        # An idle poll counts as asleep: the queue is empty and the poll
        # window expires on its own without producing work.
        return (self._poll_idle and not self._work
                and self.active_forwards == 0
                and self.active_responders == 0
                and self.active_acks == 0)

    # -------------------------------------------------------------- lever 3
    def _reserve_ack(self, side: str) -> tuple[Optional[Event], Event]:
        """Claim the next position in ``side``'s ordered-ack chain.

        Must be called from the service thread while the slot is being
        handled — slot handling is serialized, so reservation order is
        slot order, which is exactly the order the sender's FIFO credit
        protocol frees slots in.
        """
        prev = self._ack_tail.get(side)
        gate = self.env.event()
        self._ack_tail[side] = gate
        return prev, gate

    def _ack(self, link: "LinkEnd", channel: str) -> Generator:
        if channel != "bypass" or not self.fp.cut_through:
            yield from super()._ack(link, channel)
            return
        # Ordered + detached: the doorbell rings after every earlier slot's
        # ACK, from a spawned task so the service thread never blocks on a
        # deferred cut-through ACK ahead of it in the chain.
        prev, gate = self._reserve_ack(link.side)
        self.active_acks += 1
        self.env.process(
            self._ordered_ack(link, channel, prev, gate),
            name=f"{self.rt.name}.ack.{link.side}",
        )

    def _ordered_ack(self, link: "LinkEnd", channel: str,
                     prev: Optional[Event], gate: Event,
                     forwarded: bool = False) -> Generator:
        """Ring ``link``'s ACK doorbell in chain order, then open ``gate``
        for the next slot.  ``forwarded``: this is the tail of a
        cut-through, whose forward is over only once the credit is back."""
        try:
            if prev is not None and not prev.triggered:
                yield prev
            try:
                yield from super()._ack(link, channel)
            except LinkDownError:
                pass  # posted ACK into a severed cable: simply lost
        finally:
            if not gate.triggered:
                gate.succeed()
            self.active_acks -= 1
            if forwarded:
                self.active_forwards -= 1
            self.rt.notify_progress()

    def _forward(self, msg: Message, in_link: "LinkEnd", payload_phys: int,
                 channel: str) -> Generator:
        fp = self.fp
        rt = self.rt
        if channel != "bypass" or not fp.cut_through:
            yield from super()._forward(msg, in_link, payload_phys, channel)
            return
        try:
            out_link = self._out_link(in_link, msg.dest_pe)
        except NoRouteError:
            out_link = None
        if out_link is None or (
                rt.dead_edges and out_link.edge in rt.dead_edges):
            # Same posted-fabric semantics as the baseline hop.
            yield from self._ack(in_link, channel)
            self._drop_forward()
            return
        next_pe = rt.neighbor_pe(out_link.direction)
        if msg.flags & FLAG_INLINE:
            yield from self._forward_inline(msg, in_link, out_link, next_pe,
                                            payload_phys, channel)
            return
        if out_link.bypass_mailbox.free_slots == 0:
            # Backpressure: degrade to store-and-forward.  Cutting through
            # would hold the upstream credit while *waiting* for a
            # downstream one — a hold-and-wait edge that can close into
            # the classic credit-deadlock cycle on a saturated ring.
            self.cut_through_fallbacks += 1
            yield from super()._forward(msg, in_link, payload_phys, channel)
            return
        self.cut_throughs += 1
        with rt.scope.span("cut_through", category="service",
                           track=f"{rt.name}.service", nbytes=msg.size,
                           next_pe=next_pe):
            # Zero copy: the onward send streams straight out of the rx
            # slot.  The slot's bytes stay valid until we ACK (ordered
            # chain => the sender cannot have reused it), and the ACK is
            # deferred to the spawned task's completion.
            payload = PayloadSource.from_pinned(
                rt.host, in_link.rx_bypass,
                payload_phys - in_link.rx_bypass.phys, msg.size,
            )
            prev, gate = self._reserve_ack(in_link.side)
            self.active_acks += 1
            self.active_forwards += 1
            task = self.env.process(
                self._cut_through_task(msg, in_link, out_link, next_pe,
                                       payload, channel, prev, gate),
                name=f"{rt.name}.cut.{msg.kind.name}",
            )
            rt.scope.bind_process(task, rt.scope.current_span_id())

    def _cut_through_task(self, msg: Message, in_link: "LinkEnd",
                          out_link: "LinkEnd", next_pe: Optional[int],
                          payload: PayloadSource, channel: str,
                          prev: Optional[Event], gate: Event) -> Generator:
        rt = self.rt
        try:
            with rt.scope.span("cut_through_send", category="service",
                               track=f"{rt.name}.service",
                               kind=msg.kind.name, nbytes=msg.size):
                yield from self._send_onward(msg, out_link, next_pe, payload)
        except (LinkDownError, PeerUnreachableError):
            self._drop_forward()
        finally:
            # The bytes have left the slot (or died trying): return the
            # upstream credit, in chain order.
            yield from self._ordered_ack(in_link, channel, prev, gate,
                                         forwarded=True)

    def _forward_inline(self, msg: Message, in_link: "LinkEnd",
                        out_link: "LinkEnd", next_pe: Optional[int],
                        payload_phys: int, channel: str) -> Generator:
        """Forward an inline message: copy the ≤48 in-header bytes out
        (effectively free) and relay them inline again — the relay skips
        DMA exactly like the first hop did."""
        rt = self.rt
        if next_pe is None:
            yield from super()._forward(msg, in_link, payload_phys, channel)
            return
        data = rt.host.memory.read(payload_phys, msg.size).copy()
        yield from rt.host.cpu.local_memcpy(msg.size)
        yield from self._ack(in_link, channel)
        self._spawn_task(msg, out_link, next_pe, staging=None, inline=data)
