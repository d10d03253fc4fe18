"""Wire protocol of the OpenSHMEM-over-NTB runtime.

§III-B.3 of the paper: after moving payload through a memory window, the
sender "sends information about the data which includes the host Ids of
source and destination PEs, index, address offset and size" through the
ScratchPad registers, then "triggers the interrupt signal" with a doorbell.
This module implements that protocol precisely, plus the bookkeeping the
paper leaves implicit (flow control, multi-message framing):

* :class:`Message` / 4x32-bit packing — the ScratchPad record format.
  The 8 registers of each link are split 4+4 between the two directions.
* :class:`PayloadSource` — where outgoing bytes come from (paged user
  range or pinned staging buffer) for both the DMA and memcpy paths.
* :class:`DataMailbox` — one-outstanding-message channel through the
  **data window** with the header in ScratchPads (the paper's mechanism).
* :class:`BypassMailbox` — multi-slot channel through the **bypass
  window** with in-slot headers (ntb_transport-style), used for
  store-and-forward so forwarding pipelines; slot count is an ablation
  knob (DESIGN.md §6).

Doorbell bit assignment (paper's four + protocol extensions)::

    0  DOORBELL_DMAPUT         data-window message: Put payload
    1  DOORBELL_DMAGET         data-window message: Get request/response
    2  DOORBELL_BARRIER_START  ring barrier start token
    3  DOORBELL_BARRIER_END    ring barrier end token
    4  DOORBELL_ACK_DATA       data-window slot drained (flow control)
    5  DOORBELL_AMO            data-window message: atomic op
    6  DOORBELL_ACK_BYPASS     bypass slot drained (flow control)
    7  DOORBELL_BYPASS_MSG     bypass-window message arrived
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Optional, Sequence

import numpy as np

from ..host import CostModel, Host, PinnedBuffer
from ..memory import PhysSegment
from ..ntb import DmaConfig, NtbDriver
from ..ntb.device import BYPASS_WINDOW, DATA_WINDOW
from ..sim import Environment, Resource
from .errors import ProtocolError, TransferError

__all__ = [
    "MsgKind",
    "KindFacts",
    "KIND_FACTS",
    "AmoOp",
    "AMO_REQ_FMT",
    "AMO_RESP_FMT",
    "Mode",
    "engine_costs",
    "cheaper_mode",
    "Message",
    "pack_message",
    "unpack_message",
    "PayloadSource",
    "DataMailbox",
    "BypassMailbox",
    "DOORBELL_DMAPUT",
    "DOORBELL_DMAGET",
    "DOORBELL_BARRIER_START",
    "DOORBELL_BARRIER_END",
    "DOORBELL_ACK_DATA",
    "DOORBELL_AMO",
    "DOORBELL_ACK_BYPASS",
    "DOORBELL_BYPASS_MSG",
    "SPAD_BLOCK_RIGHTWARD",
    "SPAD_BLOCK_LEFTWARD",
    "SLOT_HEADER_BYTES",
    "INLINE_PAYLOAD_OFFSET",
    "INLINE_MAX_BYTES",
    "FLAG_INLINE",
    "FLAG_PATH",
    "PATH_MAX_PORTS",
    "inline_room",
    "CHAIN_CHUNK_BYTES",
    "STAGED_ABOVE_BYTES",
]

# Doorbell bit map (see module docstring).
DOORBELL_DMAPUT = 0
DOORBELL_DMAGET = 1
DOORBELL_BARRIER_START = 2
DOORBELL_BARRIER_END = 3
DOORBELL_ACK_DATA = 4
DOORBELL_AMO = 5
DOORBELL_ACK_BYPASS = 6
DOORBELL_BYPASS_MSG = 7

#: ScratchPad register blocks: messages travelling rightward (through a
#: host's *right* adapter) use regs 0-3 of that link; leftward use 4-7.
SPAD_BLOCK_RIGHTWARD = 0
SPAD_BLOCK_LEFTWARD = 4
SPAD_BLOCK_REGS = 4

#: Bypass-slot in-memory header size (4 x u32, padded to a cacheline).
SLOT_HEADER_BYTES = 64

#: Inline payloads ride in the header's padding, after the 4 packed regs.
INLINE_PAYLOAD_OFFSET = 16

#: Largest inline payload (the wire format's limit; the fastpath inlines
#: every Put and AMO operand up to it).
INLINE_MAX_BYTES = SLOT_HEADER_BYTES - INLINE_PAYLOAD_OFFSET

#: Message flag: the payload is carried inside the slot header itself
#: (no window write, no DMA).  Only ever set by the fastpath sender; the
#: decode path is part of the base wire protocol so mixed rings interop.
FLAG_INLINE = 0x1

#: Message flag: the bypass slot header's last :data:`PATH_BYTES` carry
#: the path relays follow, 3 bits per ``PORT_ORDER`` index plus one (0
#: ends it).  A message with a path rides bypass slots (``LinkEnd.post``).
FLAG_PATH = 0x2
PATH_BYTES = 8
PATH_MAX_PORTS = PATH_BYTES * 8 // 3

#: Descriptor granularity of a staged chained DMA: descriptors after the
#: first hide behind the previous segment's stream time.
CHAIN_CHUNK_BYTES = 128 * 1024

#: A DMA send from paged memory is staged (fastpath) only above one page:
#: within a page it is a single descriptor either way.
STAGED_ABOVE_BYTES = 4096


class MsgKind(enum.IntEnum):
    """Message kinds carried in the header."""

    PUT_DATA = 1     # payload for the *destination* PE's symmetric heap
    PUT_FWD = 2      # payload in transit (store-and-forward hop)
    GET_REQ = 3      # control: request data from the owner PE
    GET_RESP = 4     # payload: one chunk of a get response
    AMO_REQ = 5      # control+operand: remote atomic request
    AMO_RESP = 6     # payload: atomic old-value reply
    BARRIER_MSG = 7  # control: dissemination-barrier notification
    LINK_DOWN = 8    # control: an edge of the ring died (aux = edge)
    LINK_UP = 9      # control: a previously dead edge recovered


class KindFacts(NamedTuple):
    """What the protocol knows about one :class:`MsgKind`."""

    doorbell: int           # the bit that announces it in the data window
    payload: bool           # ``send`` needs payload bytes (else: control)
    data_only: bool         # its payload rides the data window on every hop
    deliver: Optional[str]  # ShmemService method consuming it (None: control)


#: The one per-kind table: the mailboxes read ``doorbell`` / ``payload``,
#: the channel rule (``LinkEnd.post``) ``data_only``, the service's
#: dispatch ``deliver``.
KIND_FACTS: dict[MsgKind, KindFacts] = {
    MsgKind.PUT_DATA: KindFacts(DOORBELL_DMAPUT, True, False, "_deliver_put"),
    MsgKind.PUT_FWD: KindFacts(DOORBELL_DMAPUT, True, False, "_deliver_put"),
    MsgKind.GET_REQ: KindFacts(DOORBELL_DMAGET, False, False, None),
    MsgKind.GET_RESP: KindFacts(DOORBELL_DMAGET, True, False,
                                "_deliver_get_chunk"),
    MsgKind.AMO_REQ: KindFacts(DOORBELL_AMO, True, True, "_serve_amo"),
    MsgKind.AMO_RESP: KindFacts(DOORBELL_AMO, True, True,
                                "_deliver_amo_resp"),
    MsgKind.BARRIER_MSG: KindFacts(DOORBELL_DMAGET, False, False, None),
    MsgKind.LINK_DOWN: KindFacts(DOORBELL_DMAGET, False, False, None),
    MsgKind.LINK_UP: KindFacts(DOORBELL_DMAGET, False, False, None),
}


class AmoOp:
    """Remote atomic operation codes (served by the owner's service thread,
    which is single-threaded per host — that is what makes them atomic)."""

    FETCH = 0
    SET = 1
    ADD = 2          # fetch-and-add
    COMPARE_SWAP = 3
    AND = 4
    OR = 5
    XOR = 6

    ALL = (FETCH, SET, ADD, COMPARE_SWAP, AND, OR, XOR)
    #: metric-key spellings (pe0.amo.ADD, not pe0.amo.2).
    NAMES = {FETCH: "FETCH", SET: "SET", ADD: "ADD",
             COMPARE_SWAP: "COMPARE_SWAP", AND: "AND", OR: "OR",
             XOR: "XOR"}


#: AMO operand wire format: op(u32) dtype-code(u32) value(i64) compare(i64);
#: the reply carries the old value.
AMO_REQ_FMT = "<IIqq"
AMO_RESP_FMT = "<q"


class Mode(enum.IntEnum):
    """Data-movement mode (the paper's RDMA-vs-memcpy axis, Fig. 9)."""

    DMA = 0
    MEMCPY = 1


def engine_costs(nbytes: int, cost: CostModel, dma: DmaConfig, *,
                 segments: int = 1, staged: bool = False,
                 uncached_drain: bool = False) -> dict[Mode, float]:
    """Each engine's hand-off plus drain of ``nbytes`` (µs), in closed
    form from the calibration the simulator charges.

    MEMCPY is the PIO store loop; DMA is ``dma_submit + setup + segments ·
    per_descriptor + completion + n / engine_rate``.  ``staged`` is what
    :meth:`_MailboxBase._write_window` does on the fastpath above
    :data:`STAGED_ABOVE_BYTES`: a cached copy into the staging buffer, then
    one exposed descriptor (the chained ones behind it hide in the
    stream).  Each adds the receiver's drain: cached memcpy, or, for a
    memcpy'd message loaded back through the uncached window (a Get
    chunk, an AMO word), the PIO read.  The simulator charges each DMA
    descriptor up to 0.5 µs more than this."""
    drain = cost.local_memcpy_us(nbytes)
    descriptors = (cost.local_memcpy_us(nbytes) + dma.per_descriptor_us
                   if staged else segments * dma.per_descriptor_us)
    return {
        Mode.MEMCPY: cost.pio_write_us(nbytes) + (
            cost.pio_read_us(nbytes) if uncached_drain else drain),
        Mode.DMA: (cost.dma_submit_us + dma.setup_time_us + descriptors
                   + dma.completion_latency_us
                   + nbytes / dma.engine_rate_mbps + drain),
    }


def cheaper_mode(nbytes: int, cost: CostModel, dma: DmaConfig,
                 **kw) -> Mode:
    """The engine :func:`engine_costs` charges less; a tie goes to DMA,
    the paper's default engine."""
    costs = engine_costs(nbytes, cost, dma, **kw)
    return Mode.MEMCPY if costs[Mode.MEMCPY] < costs[Mode.DMA] else Mode.DMA


@dataclass(frozen=True, slots=True)
class Message:
    """One protocol record (fits four 32-bit ScratchPads).

    ``offset``/``size`` are the paper's "Address Offset" / "Data Size";
    ``aux`` carries a request id (get/amo) or chunk offset; ``seq`` is a
    per-direction sequence number used to catch protocol bugs; ``flags``
    occupies the two spare bits of reg0 (``FLAG_INLINE``; the wire adds
    ``FLAG_PATH`` for a ``path``, the ports still to walk).
    """

    kind: MsgKind
    mode: Mode
    src_pe: int
    dest_pe: int
    offset: int
    size: int
    aux: int = 0
    seq: int = 0
    flags: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.src_pe < 256 and 0 <= self.dest_pe < 256):
            raise ProtocolError(f"PE ids must fit a byte: {self}")
        if not (0 <= self.offset < 2**32 and 0 <= self.size < 2**32):
            raise ProtocolError(f"offset/size must fit u32: {self}")
        if not (0 <= self.aux < 2**32):
            raise ProtocolError(f"aux must fit u32: {self}")
        if not (0 <= self.flags < 4):
            raise ProtocolError(f"flags must fit two bits: {self}")
        if len(self.path) > PATH_MAX_PORTS:
            raise ProtocolError(
                f"a path fits {PATH_MAX_PORTS} ports of a slot header: {self}")


def pack_message(msg: Message) -> tuple[int, int, int, int]:
    """Message -> four u32 register values."""
    reg0 = (
        (int(msg.kind) & 0xF) << 28
        | (int(msg.mode) & 0x3) << 26
        | (msg.flags | (FLAG_PATH if msg.path else 0)) << 24
        | (msg.src_pe & 0xFF) << 16
        | (msg.dest_pe & 0xFF) << 8
        | (msg.seq & 0xFF)
    )
    return reg0, msg.offset, msg.size, msg.aux


def unpack_message(regs: Sequence[int],
                   path: tuple[int, ...] = ()) -> Message:
    """Four u32 register values -> Message (validates the kind)."""
    if len(regs) != SPAD_BLOCK_REGS:
        raise ProtocolError(f"expected {SPAD_BLOCK_REGS} regs, got {len(regs)}")
    reg0, offset, size, aux = regs
    if (reg0 >> 24) & FLAG_PATH and not path:
        raise ProtocolError(f"FLAG_PATH without a path in {reg0:#010x}")
    kind_val = (reg0 >> 28) & 0xF
    try:
        kind = MsgKind(kind_val)
    except ValueError:
        raise ProtocolError(f"bad message kind {kind_val} in {reg0:#010x}") \
            from None
    return Message(
        kind=kind,
        mode=Mode((reg0 >> 26) & 0x3),
        src_pe=(reg0 >> 16) & 0xFF,
        dest_pe=(reg0 >> 8) & 0xFF,
        offset=offset,
        size=size,
        aux=aux,
        seq=reg0 & 0xFF,
        flags=(reg0 >> 24) & FLAG_INLINE,
        path=path,
    )


def inline_room(path: tuple[int, ...]) -> int:
    """The inline payload bytes a slot header holds beside ``path``."""
    return INLINE_MAX_BYTES - (PATH_BYTES if path else 0)


def pack_header_bytes(msg: Message,
                      inline_data: Optional[bytes] = None) -> bytes:
    """In-slot header encoding (bypass mailbox).

    With ``inline_data`` the payload bytes are embedded in the header's
    padding at :data:`INLINE_PAYLOAD_OFFSET` (fastpath inline messages),
    before ``msg.path``.
    """
    regs = pack_message(msg)
    head = struct.pack("<4I", *regs)
    if inline_data is not None:
        if len(inline_data) > inline_room(msg.path):
            raise ProtocolError(
                f"inline payload {len(inline_data)} exceeds "
                f"{inline_room(msg.path)} bytes"
            )
        head += bytes(inline_data)
    if msg.path:
        word = sum((port + 1) << (3 * i) for i, port in enumerate(msg.path))
        head = (head.ljust(SLOT_HEADER_BYTES - PATH_BYTES, b"\0")
                + word.to_bytes(PATH_BYTES, "little"))
    return head.ljust(SLOT_HEADER_BYTES, b"\0")


def unpack_header_bytes(raw: bytes | np.ndarray) -> Message:
    regs = struct.unpack("<4I", bytes(raw[:16]))
    word = 0
    if (regs[0] >> 24) & FLAG_PATH:
        word = int.from_bytes(
            bytes(raw[SLOT_HEADER_BYTES - PATH_BYTES:SLOT_HEADER_BYTES]),
            "little")
    path = []
    while word:
        path.append((word & 0x7) - 1)
        word >>= 3
    return unpack_message(regs, tuple(path))


class PayloadSource:
    """Where an outgoing payload lives on the sending host.

    Either a *paged user range* (virt, nbytes) — put/get sources, which DMA
    as one descriptor per page — or a *pinned range* inside a staging
    buffer (single descriptor).
    """

    def __init__(self, host: Host, *, virt: Optional[int] = None,
                 pinned: Optional[PinnedBuffer] = None,
                 pinned_offset: int = 0, nbytes: int = 0):
        if (virt is None) == (pinned is None):
            raise TransferError("exactly one of virt/pinned required")
        if nbytes <= 0:
            raise TransferError(f"payload size must be positive, got {nbytes}")
        self.host = host
        self.virt = virt
        self.pinned = pinned
        self.pinned_offset = pinned_offset
        self.nbytes = nbytes
        if pinned is not None and pinned_offset + nbytes > pinned.nbytes:
            raise TransferError("payload overruns pinned staging buffer")

    @classmethod
    def from_user(cls, host: Host, virt: int, nbytes: int) -> "PayloadSource":
        return cls(host, virt=virt, nbytes=nbytes)

    @classmethod
    def from_pinned(cls, host: Host, pinned: PinnedBuffer, offset: int,
                    nbytes: int) -> "PayloadSource":
        return cls(host, pinned=pinned, pinned_offset=offset, nbytes=nbytes)

    def segments(self) -> list[PhysSegment]:
        """Physical SG list (per-page for user memory, single if pinned)."""
        if self.virt is not None:
            return self.host.user_segments(self.virt, self.nbytes)
        assert self.pinned is not None
        return [PhysSegment(self.pinned.phys + self.pinned_offset, self.nbytes)]

    def data(self) -> np.ndarray:
        """The payload bytes (zero-time read; PIO timing charged separately)."""
        if self.virt is not None:
            return self.host.read_user(self.virt, self.nbytes)
        assert self.pinned is not None
        return self.host.memory.read(
            self.pinned.phys + self.pinned_offset, self.nbytes
        )


def _no_progress() -> None:
    """A mailbox outside a runtime: nobody waits on its slots."""


class _MailboxBase:
    """Shared flow-control plumbing: a slot pool + FIFO ACK releases."""

    def __init__(self, env: Environment, driver: NtbDriver, name: str,
                 capacity: int, staging: Optional[PinnedBuffer] = None):
        self.env = env
        self.driver = driver
        self.name = name
        #: pinned TX staging buffer (fastpath chained DMA; None = DMA straight
        #: from the source).  Whoever allocated the buffer frees it.
        self.staging = staging
        self._slots = Resource(env, capacity=capacity, name=f"{name}.slots")
        self._outstanding: deque = deque()
        #: slot requests issued with ``relay=True`` (store-and-forward
        #: sends the service performs on behalf of *other* PEs), whether
        #: still queued for a slot or already in flight.  ``local_idle``
        #: subtracts these so ``quiet()`` only waits for the owning PE's
        #: own traffic.
        self._relay_reqs: set = set()
        self._seq = 0
        #: slots force-released by fail_outstanding(); a late ACK for one
        #: of these is expected, not a protocol violation.
        self._flushed = 0
        #: called whenever a slot comes back (ACK, flush, failed send):
        #: the owning runtime's tickless waits re-check on it.
        self.on_progress: Callable[[], None] = _no_progress
        #: diagnostics
        self.sent_count = 0
        self.acked_count = 0
        self.failed_count = 0
        self.inline_count = 0
        self.staged_sends = 0

    def next_seq(self) -> int:
        self._seq = (self._seq + 1) & 0xFF
        return self._seq

    def on_ack(self) -> None:
        """Peer drained our oldest outstanding slot (ACK doorbell)."""
        if not self._outstanding:
            if self._flushed > 0:
                # ACK raced with a link-death flush: the doorbell was in
                # flight when fail_outstanding() released the slot.
                self._flushed -= 1
                return
            raise ProtocolError(f"{self.name}: ACK with nothing outstanding")
        request = self._outstanding.popleft()
        self._relay_reqs.discard(request)
        self.acked_count += 1
        self._slots.release(request)
        self.on_progress()

    def fail_outstanding(self) -> int:
        """Link died: force-release every outstanding slot.

        Messages already handed to a severed cable will never be ACKed;
        without this, senders queueing for a slot would wait forever.
        Returns the number of slots flushed.
        """
        flushed = 0
        while self._outstanding:
            request = self._outstanding.popleft()
            self._relay_reqs.discard(request)
            self._slots.release(request)
            self._flushed += 1
            self.failed_count += 1
            flushed += 1
        if flushed:
            self.on_progress()
        return flushed

    def _reclaim(self, request) -> None:
        """A send failed before reaching the peer, so no ACK will release
        its slot — take it back or the channel wedges."""
        if request in self._outstanding:
            self._outstanding.remove(request)
            self._relay_reqs.discard(request)
            self._slots.release(request)
            self.failed_count += 1
            self.on_progress()

    def _transmit(self, msg: Message, relay: bool,
                  publish: Generator) -> Generator:
        """The one send path: wait for a slot, run ``publish`` (the
        channel's payload + header + doorbell hand-off), take the slot
        back if that fails.  The slot itself is released by the peer's
        ACK doorbell (:meth:`on_ack`), not here."""
        scope = self.driver.scope
        scope.bind_msg(msg, scope.current_span_id())
        with scope.span("slot_wait", category="mailbox", track=self.name):
            request = self._slots.request()
            if relay:
                self._relay_reqs.add(request)
            try:
                yield request
            except BaseException:
                self._relay_reqs.discard(request)
                raise
        self._outstanding.append(request)
        try:
            yield from publish
        except BaseException:
            self._reclaim(request)
            raise
        self.sent_count += 1

    def _write_window(self, window: int, offset: int, mode: Mode,
                      payload: PayloadSource) -> Generator:
        """Move one payload into the peer's memory window.

        With a staging buffer (fastpath chained DMA), DMA sends from *paged*
        user memory are first memcpy'd there (cached rate), then DMA'd as
        a chained ring of large contiguous descriptors.  Reuse is safe
        because both mailboxes serialize payload writes (capacity-1 slot
        for the data mailbox, the TX lock for the bypass mailbox) and the
        staged bytes are on the wire before the send routine moves on.
        """
        if mode is not Mode.DMA:
            yield from self.driver.pio_window_write(window, offset,
                                                    payload.data())
            return
        staging = self.staging
        # Staging only pays when it collapses descriptors: a payload within
        # one page is a single descriptor either way, and the extra memcpy
        # would make it strictly slower.
        staged = (staging is not None and payload.virt is not None
                  and STAGED_ABOVE_BYTES < payload.nbytes <= staging.nbytes)
        if staged:
            host = self.driver.host
            with self.driver.scope.span("stage_copy", category="mailbox",
                                        track=self.name,
                                        nbytes=payload.nbytes):
                yield from host.cpu.local_memcpy(payload.nbytes)
                host.memory.write(staging.phys, payload.data())
            self.staged_sends += 1
            segments = [PhysSegment(staging.phys + cursor, take)
                        for cursor, take in chunk_ranges(payload.nbytes,
                                                         CHAIN_CHUNK_BYTES)]
        else:
            segments = payload.segments()
        dma_req = yield from self.driver.dma_write_segments(
            window, offset, segments, chained=staged)
        yield dma_req.done

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    @property
    def waiters(self) -> int:
        """Senders queued for a slot right now."""
        return self._slots.queue_length

    @property
    def free_slots(self) -> int:
        """Credits immediately available (no queued waiters, free tokens)."""
        if self._slots.queue_length:
            return 0
        return self._slots.capacity - self._slots.in_use

    @property
    def idle(self) -> bool:
        return not self._outstanding and self._slots.queue_length == 0

    @property
    def local_idle(self) -> bool:
        """Idle from the owning PE's own point of view.

        Sends tagged ``relay=True`` do not count: OpenSHMEM ``quiet``
        orders the *calling* PE's operations only, and a busy relay line
        must not wedge it.  After a cut, other PEs' detours and barrier
        resends can keep a relay hop's mailbox occupied for as long as
        those PEs wait on this one.
        """
        if not self._relay_reqs:
            return self.idle
        flying = sum(1 for r in self._outstanding if r in self._relay_reqs)
        waiting = len(self._relay_reqs) - flying
        return (len(self._outstanding) == flying
                and self._slots.queue_length == waiting)


class DataMailbox(_MailboxBase):
    """One-outstanding channel through the data window + ScratchPads.

    This is the paper's §III-B.3 mechanism verbatim: payload (if any) goes
    through the data memory window at offset 0, the header goes into the
    direction's ScratchPad block, then the kind-specific doorbell rings.
    """

    def __init__(self, env: Environment, driver: NtbDriver,
                 spad_block: int, name: str,
                 staging: Optional[PinnedBuffer] = None):
        super().__init__(env, driver, name, capacity=1, staging=staging)
        self.spad_block = spad_block

    def send(self, msg: Message, payload: Optional[PayloadSource] = None,
             relay: bool = False) -> Generator:
        """Transmit one message; returns after the *local* hand-off
        (payload written + header + doorbell), i.e. locally blocking.

        ``relay=True`` marks a store-and-forward send issued on behalf
        of another PE; see :attr:`_MailboxBase.local_idle`.  Like the
        bypass routines, this checks its arguments and returns the
        :meth:`_transmit` generator for the caller to ``yield from``.
        """
        if payload is None and KIND_FACTS[msg.kind].payload:
            raise ProtocolError(f"{self.name}: {msg.kind.name} needs payload")
        return self._transmit(msg, relay, self._publish(msg, payload))

    def _publish(self, msg: Message,
                 payload: Optional[PayloadSource]) -> Generator:
        scope = self.driver.scope
        if payload is not None:
            if msg.size != payload.nbytes:
                raise ProtocolError(
                    f"{self.name}: header size {msg.size} != payload "
                    f"{payload.nbytes}"
                )
            with scope.span("payload_write", category="mailbox",
                            track=self.name, nbytes=payload.nbytes,
                            mode=msg.mode.name):
                yield from self._write_window(DATA_WINDOW, 0, msg.mode,
                                              payload)
        with scope.span("header_write", category="mailbox",
                        track=self.name, kind=msg.kind.name):
            yield from self.driver.spad_write_block(
                self.spad_block, list(pack_message(msg)))
        yield from self.driver.ring_doorbell(
            KIND_FACTS[msg.kind].doorbell)

    def recv_header(self, incoming_block: int) -> Generator:
        """Receiver side: read + decode an incoming ScratchPad block.

        ``incoming_block`` is the *peer's* outgoing block on this link —
        the opposite half of the register file from :attr:`spad_block`.
        """
        regs = yield from self.driver.spad_read_block(
            incoming_block, SPAD_BLOCK_REGS
        )
        return unpack_message(regs)

    def ack(self) -> Generator:
        """Receiver side: release the sender's slot."""
        yield from self.driver.ring_doorbell(DOORBELL_ACK_DATA)


class BypassMailbox(_MailboxBase):
    """Multi-slot channel through the bypass window (in-slot headers).

    Slot *i* occupies ``[i * slot_stride, (i+1) * slot_stride)`` of the
    bypass window; each slot is a 64-byte header followed by up to
    ``slot_payload`` bytes.  The sender cycles slots round-robin; because
    processing is in-order and ACKs are FIFO, slot reuse is safe exactly
    when a slot grant is obtained.
    """

    def __init__(self, env: Environment, driver: NtbDriver,
                 slot_payload: int, slots: int, name: str,
                 staging: Optional[PinnedBuffer] = None):
        if slots < 1:
            raise ProtocolError(f"{name}: need at least one bypass slot")
        if slot_payload < 1024:
            raise ProtocolError(f"{name}: bypass slot payload too small")
        super().__init__(env, driver, name, capacity=slots, staging=staging)
        self.slots = slots
        self.slot_payload = slot_payload
        self.slot_stride = SLOT_HEADER_BYTES + slot_payload
        self._next_slot = 0
        # Transmissions are serialized so doorbells ring in slot order —
        # the receiver walks slots with a cursor and must never see slot
        # k+1 published before slot k.  Pipelining is unaffected: the win
        # of multiple slots is transmitting while earlier slots await
        # their ACKs, and the wire is serial anyway.
        self._tx_lock = Resource(env, capacity=1, name=f"{name}.txlock")

    @property
    def window_bytes_needed(self) -> int:
        return self.slot_stride * self.slots

    def send(self, msg: Message, payload: PayloadSource,
             relay: bool = False) -> Generator:
        """Transmit one forwarded chunk (header + payload in the slot)."""
        if payload.nbytes > self.slot_payload:
            raise ProtocolError(
                f"{self.name}: payload {payload.nbytes} exceeds slot "
                f"capacity {self.slot_payload}"
            )
        if msg.size != payload.nbytes:
            raise ProtocolError(
                f"{self.name}: header size {msg.size} != payload "
                f"{payload.nbytes}"
            )
        return self._transmit(msg, relay, self._publish(msg, payload))

    def send_inline(self, msg: Message, data: np.ndarray,
                    relay: bool = False) -> Generator:
        """Payload rides inside the 64-byte slot header (fastpath).

        One PIO write publishes header and payload together, skipping the
        window payload write (and all DMA setup) for tiny messages.  A
        kind with no payload (GET_REQ, BARRIER_MSG, LINK_DOWN / LINK_UP)
        goes header-only, with no bytes, on both planes in transit and on
        the fastpath's last leg too: its ``size`` is a header word of
        its own (a Get's length, a barrier view word), so only a payload
        kind's ``size`` must match the bytes.  Flow control is identical
        to :meth:`send` — the slot is held until the receiver's ACK
        doorbell — so ``quiet()`` semantics are unchanged.
        """
        nbytes = int(data.nbytes)
        if nbytes > inline_room(msg.path):
            raise ProtocolError(
                f"{self.name}: inline payload {nbytes} exceeds "
                f"{inline_room(msg.path)} bytes"
            )
        if msg.size != nbytes and KIND_FACTS[msg.kind].payload:
            raise ProtocolError(
                f"{self.name}: header size {msg.size} != payload {nbytes}"
            )
        if not (msg.flags & FLAG_INLINE):
            raise ProtocolError(f"{self.name}: send_inline needs FLAG_INLINE")
        return self._transmit(msg, relay,
                              self._publish(msg, None, data.tobytes()))

    def _publish(self, msg: Message, payload: Optional[PayloadSource],
                 inline: Optional[bytes] = None) -> Generator:
        """Fill the next slot under the TX lock, then ring the doorbell."""
        scope = self.driver.scope
        slot = self._next_slot
        self._next_slot = (slot + 1) % self.slots
        base = slot * self.slot_stride
        with scope.span("tx_wait", category="mailbox", track=self.name,
                        slot=slot):
            tx = self._tx_lock.request()
            yield tx
        try:
            header = np.frombuffer(pack_header_bytes(msg, inline),
                                   dtype=np.uint8)
            if payload is not None:
                # Payload first, header last: the header's arrival (plus the
                # doorbell) publishes the slot, so the receiver never sees a
                # torn message.
                with scope.span("payload_write", category="mailbox",
                                track=self.name, nbytes=payload.nbytes,
                                mode=msg.mode.name, slot=slot):
                    yield from self._write_window(
                        BYPASS_WINDOW, base + SLOT_HEADER_BYTES, msg.mode,
                        payload)
                span = scope.span("header_write", category="mailbox",
                                  track=self.name, kind=msg.kind.name,
                                  slot=slot)
            else:
                assert inline is not None
                span = scope.span("inline_write", category="mailbox",
                                  track=self.name, kind=msg.kind.name,
                                  nbytes=len(inline), slot=slot)
            with span:
                yield from self.driver.pio_window_write(BYPASS_WINDOW, base,
                                                        header)
            yield from self.driver.ring_doorbell(DOORBELL_BYPASS_MSG)
            if inline is not None:
                self.inline_count += 1
        finally:
            self._tx_lock.release(tx)

    def ack(self) -> Generator:
        yield from self.driver.ring_doorbell(DOORBELL_ACK_BYPASS)


def chunk_ranges(total: int, chunk: int):
    """Yield (offset, size) pieces covering [0, total) in chunk steps."""
    if chunk < 1:
        raise TransferError(f"chunk must be >= 1, got {chunk}")
    cursor = 0
    while cursor < total:
        take = min(chunk, total - cursor)
        yield cursor, take
        cursor += take
