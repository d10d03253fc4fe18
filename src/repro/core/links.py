"""Link bring-up and tear-down: §III-B.1 steps 1–3, one adapter at a time.

Plain functions over a :class:`~repro.core.runtime.ShmemRuntime`, called
from ``initialize`` / ``finalize``: allocate the receive buffers and the
two outgoing mailboxes of each adapter, run the host-ID / readiness
handshake over ScratchPads, wire the doorbell IRQs, bind the mailbox
gauges, and give it all back at finalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..host import PinnedBuffer
from ..ntb import NtbDriver
from ..ntb.device import BYPASS_WINDOW, DATA_WINDOW
from .errors import PeerUnreachableError, ShmemError
from .transfer import (
    BypassMailbox,
    DataMailbox,
    DOORBELL_ACK_BYPASS,
    DOORBELL_ACK_DATA,
    DOORBELL_AMO,
    DOORBELL_BARRIER_END,
    DOORBELL_BARRIER_START,
    DOORBELL_BYPASS_MSG,
    DOORBELL_DMAGET,
    DOORBELL_DMAPUT,
    FLAG_INLINE,
    KIND_FACTS,
    Message,
    Mode,
    MsgKind,
    PayloadSource,
    SPAD_BLOCK_LEFTWARD,
    SPAD_BLOCK_RIGHTWARD,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ShmemRuntime

__all__ = ["LinkEnd", "bring_up", "register_irqs", "wire_link_metrics",
           "tear_down"]

#: The inline bytes of a header-only bypass message (no payload).
_NO_BYTES = np.zeros(0, dtype=np.uint8)

#: Handshake magic values written to ScratchPads during init.
_HELLO_MAGIC = 0x5A5A0000
_READY_MAGIC = 0xA5A50000
#: µs between ScratchPad polls during the init handshake, and its
#: patience: a missing neighbor raises instead of polling forever.
_HANDSHAKE_POLL_US = 5.0
_HANDSHAKE_TIMEOUT_US = 1_000_000.0


@dataclass
class LinkEnd:
    """Everything a runtime holds for one of its adapters."""

    side: str                      # topology port: "left"/"right"/"x+"/...
    edge: tuple[int, int]          # directed cable name (topology.edge_for)
    driver: NtbDriver
    data_mailbox: DataMailbox      # outgoing, via this adapter
    bypass_mailbox: BypassMailbox  # outgoing, via this adapter
    rx_data: PinnedBuffer          # incoming data-window target
    rx_bypass: PinnedBuffer        # incoming bypass-window target
    incoming_spad_block: int       # where peers' headers appear
    next_rx_slot: int = 0          # in-order bypass slot cursor
    peer_host_id: Optional[int] = None  # learned in the handshake
    fastpath: bool = False         # the plane's channel rule (``post``)

    def post(self, kind: MsgKind, src_pe: int, dest_pe: int, *,
             last_leg: bool, mode: Mode = Mode.DMA, offset: int = 0,
             size: int = 0, aux: int = 0,
             payload: Optional[PayloadSource] = None,
             inline: Optional[np.ndarray] = None,
             relay: bool = False, path: tuple[int, ...] = ()) -> Generator:
        """Send one message through this adapter — the channel rule of
        Fig. 4/5, decided here and nowhere else (docs/PROTOCOL.md):
        the ``last_leg`` to the destination or a ``data_only`` kind (the
        AMO words) takes the **data** window; anything else is in transit
        → **bypass**.  ``inline`` bytes ride a bypass slot header, and so
        does a message with no payload in transit: a header-only inline
        message, so a Get request or a relayed barrier notice never
        overtakes the put chunks ahead of it on the same path.

        The fastpath adds two terms, so its data window carries only a
        PE's own one-hop payloads: a message with no payload goes
        header-only on its last leg too, and a ``relay`` send (a relay, a
        cut-through, a Get responder's chunk) stays on the bypass channel
        for its last leg, so a message never overtakes an earlier one of
        the same path by switching channels at a relay.

        A ``path`` for relays (``Route.carried``) rides a bypass slot
        header's tail, so a message with one takes bypass slots.

        Puts are tagged ``PUT_DATA`` on the last leg, ``PUT_FWD`` before
        it; ``relay`` marks a send on behalf of another PE.  A plain
        function: it returns the mailbox's send generator for the caller
        to ``yield from``, adding no frame of its own.
        """
        if kind is MsgKind.PUT_DATA or kind is MsgKind.PUT_FWD:
            kind = MsgKind.PUT_DATA if last_leg else MsgKind.PUT_FWD
        if inline is None and payload is None and (
                self.fastpath or not last_leg):
            inline = _NO_BYTES
        via_data = (inline is None and not path
                    and not (self.fastpath and relay)
                    and (last_leg or KIND_FACTS[kind].data_only))
        mailbox = self.data_mailbox if via_data else self.bypass_mailbox
        msg = Message(kind, mode, src_pe, dest_pe, offset, size, aux,
                      mailbox.next_seq(),
                      0 if inline is None else FLAG_INLINE, path)
        if via_data:
            return self.data_mailbox.send(msg, payload, relay)
        if inline is not None:
            return self.bypass_mailbox.send_inline(msg, inline, relay)
        assert payload is not None
        return self.bypass_mailbox.send(msg, payload, relay)

    def flush(self) -> None:
        """Force-release both channels' outstanding slots: what a dead
        cable or a torn-down peer holds is never ACKed."""
        self.data_mailbox.fail_outstanding()
        self.bypass_mailbox.fail_outstanding()

    def idle(self, local: bool = False) -> bool:
        """Nothing in flight or queued on either channel; ``local`` counts
        only the owning PE's own sends (``_MailboxBase.local_idle``)."""
        if local:
            return (self.data_mailbox.local_idle
                    and self.bypass_mailbox.local_idle)
        return self.data_mailbox.idle and self.bypass_mailbox.idle

    @property
    def load(self) -> int:
        """In-flight messages plus credit waiters, both channels."""
        dm, bm = self.data_mailbox, self.bypass_mailbox
        return dm.in_flight + bm.in_flight + dm.waiters + bm.waiters

    @property
    def transit_credits(self) -> int:
        """Bypass credits free right now (cut-through's go/no-go)."""
        return self.bypass_mailbox.free_slots


def bring_up(rt: "ShmemRuntime") -> Generator:
    """Step 1: probe + set up every seated adapter, then handshake."""
    # Step 1a: enumerate adapters if the cluster has not yet.  Ports
    # come up in PORT_ORDER — ("left", "right") on rings,
    # axis pairs ("x-", "x+", ...) on grids.
    for side in rt.topology.PORT_ORDER:
        if not rt.cluster.has_adapter(rt.my_pe_id, side):
            continue
        driver = rt.cluster.driver(rt.my_pe_id, side)
        if not driver.is_probed:
            yield from driver.probe()
        _setup_link(rt, side, driver)
    if not rt.links:
        raise ShmemError(f"{rt.name}: host has no NTB adapters")
    # Step 1b: host-ID / readiness handshake per link (ScratchPads),
    # in fully phased rounds: all announcements, then all ID polls +
    # window programming, then all READY flags, then all READY polls.
    # Interleaving the phases per link deadlocks the ring (host i's
    # left-link progress would wait on host i-1's right-link progress,
    # circularly).
    for link in rt.links.values():
        # Write our host id into the link's outgoing ScratchPad block.
        yield from link.driver.spad_write(
            link.data_mailbox.spad_block + 0, _HELLO_MAGIC | rt.my_pe_id)
    for link in rt.links.values():
        yield from _handshake(rt, link)
    for link in rt.links.values():
        yield from link.driver.spad_write(
            link.data_mailbox.spad_block + 1, _READY_MAGIC | rt.my_pe_id)
    for link in rt.links.values():
        # The handshake registers are not cleared afterwards: stale
        # values are harmless because the receive path only decodes the
        # block when a message doorbell rings, by which time a fresh
        # header has overwritten it.
        yield from _await_magic(
            rt, link, 1, _READY_MAGIC, f"handshake ready ({link.side})",
            f"{link.side} neighbor never became READY")


def _setup_link(rt: "ShmemRuntime", side: str, driver: NtbDriver) -> None:
    """Step 1 + 3: allocate receive buffers, program translations."""
    cfg = rt.config
    rx_data = rt.host.alloc_pinned(cfg.rx_data_size)
    # Positive ports transmit in the RIGHTWARD ScratchPad block and
    # listen in the LEFTWARD one (the peer's positive-port TX);
    # negative ports mirror.  On rings this is exactly the historical
    # right/left block split; on grids each axis cable reuses the
    # same two blocks of its own adapter pair.
    positive = rt.topology.port_polarity(side)
    out_block = SPAD_BLOCK_RIGHTWARD if positive else SPAD_BLOCK_LEFTWARD
    in_block = SPAD_BLOCK_LEFTWARD if positive else SPAD_BLOCK_RIGHTWARD
    # The fastpath shapes a link: a pinned TX staging buffer per mailbox
    # (chained DMA, freed by tear_down); its deeper bypass credit pool
    # (cut-through) is already in ``cfg.bypass_slots``.
    stage = cfg.fastpath is not None
    data_mailbox = DataMailbox(
        rt.env, driver, spad_block=out_block, name=f"{rt.name}.{side}.data",
        staging=rt.host.alloc_pinned(cfg.rx_data_size) if stage else None,
    )
    bypass_mailbox = BypassMailbox(
        rt.env, driver, slot_payload=cfg.fwd_chunk, slots=cfg.bypass_slots,
        name=f"{rt.name}.{side}.bypass",
        staging=rt.host.alloc_pinned(cfg.fwd_chunk) if stage else None,
    )
    rx_bypass = rt.host.alloc_pinned(bypass_mailbox.window_bytes_needed)
    for mailbox in (data_mailbox, bypass_mailbox):
        mailbox.on_progress = rt.notify_progress
    edge = rt.topology.edge_for(rt.my_pe_id, side)
    assert edge is not None
    rt.links[side] = LinkEnd(
        side=side,
        edge=edge,
        driver=driver,
        data_mailbox=data_mailbox,
        bypass_mailbox=bypass_mailbox,
        rx_data=rx_data,
        rx_bypass=rx_bypass,
        incoming_spad_block=in_block,
        fastpath=stage,
    )


def _await_magic(rt: "ShmemRuntime", link: LinkEnd, reg: int, magic: int,
                 what: str, gone: str) -> Generator:
    """Poll one incoming handshake ScratchPad until it carries ``magic``;
    returns the low half (the peer's host id).  A neighbor that never
    writes it (severed cable, dead host) must surface as a typed error,
    not an infinite ScratchPad poll."""
    start = rt.env.now
    with rt.blocked_on(what):
        while True:
            value = yield from link.driver.spad_read(
                link.incoming_spad_block + reg)
            if (value & 0xFFFF0000) == magic:
                return value & 0xFFFF
            if rt.env.now - start > _HANDSHAKE_TIMEOUT_US:
                raise PeerUnreachableError(
                    f"{rt.name}: {gone} ({_HANDSHAKE_TIMEOUT_US} µs)")
            yield rt.env.timeout(_HANDSHAKE_POLL_US)


def _handshake(rt: "ShmemRuntime", link: LinkEnd) -> Generator:
    """Learn the neighbor's host id over the link's ScratchPads, then
    program windows + LUT — §III-B.1 step 1 verbatim."""
    driver = link.driver
    link.peer_host_id = yield from _await_magic(
        rt, link, 0, _HELLO_MAGIC, f"handshake hello ({link.side})",
        f"no hello from {link.side} neighbor")
    # Program incoming translations now that we know who is talking,
    # and add the peer's requester id to our LUT.
    yield from driver.program_incoming(
        DATA_WINDOW, link.rx_data.phys, link.rx_data.nbytes
    )
    yield from driver.program_incoming(
        BYPASS_WINDOW, link.rx_bypass.phys, link.rx_bypass.nbytes
    )
    # The peer talks through the opposite-polarity port of this
    # cable; its requester-id function number is that port's index
    # (left=0, right=1 historically; grid ports follow PORT_ORDER).
    peer_port = rt.topology.opposite_port(link.side)
    peer_fn = rt.topology.PORT_ORDER.index(peer_port)
    peer_requester = (link.peer_host_id << 8) | peer_fn
    yield from driver.add_lut_entry(peer_requester, rt.my_pe_id)


def register_irqs(rt: "ShmemRuntime") -> None:
    """Step 2: wire doorbell bits to the service thread / mailboxes."""
    service = rt.service
    assert service is not None
    for link in rt.links.values():
        driver, side = link.driver, link.side
        for bit, kind in ((DOORBELL_DMAPUT, "data"),
                          (DOORBELL_DMAGET, "data"),
                          (DOORBELL_AMO, "data"),
                          (DOORBELL_BYPASS_MSG, "bypass"),
                          (DOORBELL_BARRIER_START, "barrier_start"),
                          (DOORBELL_BARRIER_END, "barrier_end")):
            driver.request_irq(
                bit, lambda _b, s=side, k=kind: service.enqueue(s, k))
        # ACKs complete in the top half (no thread hop): they only
        # release flow-control slots.
        driver.request_irq(
            DOORBELL_ACK_DATA, lambda _b, l=link: l.data_mailbox.on_ack())
        driver.request_irq(
            DOORBELL_ACK_BYPASS, lambda _b, l=link: l.bypass_mailbox.on_ack())


def wire_link_metrics(rt: "ShmemRuntime") -> None:
    """Pull-gauge the mailboxes and service thread into the fabric.

    Everything here binds existing lifetime statistics — zero cost on
    the hot paths, zero virtual-time events.  The fastpath's counters
    (cut-throughs, coalesced wakes) are bound only on a fastpath
    runtime: on the default plane they are constant zeros, not metrics.
    """
    for side, link in rt.links.items():
        for channel, mailbox in (("data", link.data_mailbox),
                                 ("bypass", link.bypass_mailbox)):
            scoped = rt.metrics_registry.scoped(
                f"{rt.name}.{side}.{channel}")
            for key, attr in (("sent", "sent_count"),
                              ("acked", "acked_count"),
                              ("failed", "failed_count"),
                              ("inline", "inline_count"),
                              ("in_flight", "in_flight"),
                              ("credits_free", "free_slots")):
                scoped.gauge(key).bind(
                    lambda m=mailbox, a=attr: getattr(m, a))
            scoped.gauge("credit_waiters").bind(
                lambda m=mailbox: m.waiters)
    service = rt.service
    scoped = rt.metrics_registry.scoped(f"{rt.name}.service")
    attrs: tuple[str, ...] = ("dropped_forwards", "abandoned_responses",
                              "stale_responses")
    if rt.config.fastpath is not None:
        attrs = ("cut_throughs", "cut_through_fallbacks",
                 "coalesced_wakes") + attrs
    for attr in attrs:
        scoped.gauge(attr).bind(lambda s=service, a=attr: getattr(s, a))


def tear_down(rt: "ShmemRuntime") -> None:
    """Release IRQ vectors and pinned buffers so the cluster can host a
    new runtime."""
    for link in rt.links.values():
        base = link.driver.irq_base
        for bit in range(16):
            rt.host.interrupts.unregister(base + bit)
        rt.host.free_pinned(link.rx_data)
        rt.host.free_pinned(link.rx_bypass)
        for mailbox in (link.data_mailbox, link.bypass_mailbox):
            if mailbox.staging is not None:
                rt.host.free_pinned(mailbox.staging)
                mailbox.staging = None
    rt.links.clear()
