"""NTB DMA engine: descriptor-ring RDMA transfers across the bridge.

The PEX8749 exposes DMA channels that move data between local memory and
the peer's memory window without CPU involvement (§III-A: "The data can be
written with RDMA supported by NTB RDMA interface, or directly with a
memcpy operation").

Model
-----
One engine per NTB endpoint, one channel (the paper uses a single channel
per adapter).  A transfer is described by a scatter/gather list of local
physical segments plus a target window offset; the engine process pulls
requests from a descriptor ring (bounded :class:`~repro.sim.Store`) and,
per request:

1. charges ``setup_time_us`` (driver programming + engine start);
2. for each SG segment: charges ``per_descriptor_us`` (descriptor fetch and
   processing — **this is the term that caps OpenSHMEM Put throughput for
   paged memory**, DESIGN.md §5), then pumps the payload through a
   pipeline (source memory port → PCIe link → destination memory port,
   under the engine's own pump ceiling) in ``pipeline_chunk`` pieces.
   The four stages of a chunk are event callbacks started from the
   engine's own dispatch, and the engine waits on one
   :class:`~repro.sim.Join` per chunk — no stage process, no condition
   event (docs/SIMULATOR.md, "Events that do no work");
3. triggers the request's completion event (and an optional completion
   callback used for interrupt-on-completion).

Reads (``DmaDirection.READ``) traverse the link in the opposite direction
and pay an extra request round trip per segment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from ..memory import PhysSegment, PhysicalMemory
from ..obsv.spans import NULL_SCOPE
from ..pcie import Link
from ..sim import BandwidthServer, Environment, Event, Join, Store

__all__ = ["DmaConfig", "DmaDirection", "DmaRequest", "DmaEngine",
           "LinkDownError"]


class LinkDownError(Exception):
    """The cable died mid-transfer; the engine reports it per request."""


class DmaDirection(enum.Enum):
    """Transfer direction relative to the engine's local host."""

    WRITE = "write"  # local memory -> peer memory (through the window)
    READ = "read"    # peer memory -> local memory


@dataclass(frozen=True)
class DmaConfig:
    """Engine timing/shape parameters (defaults calibrated per DESIGN.md §5).

    Attributes
    ----------
    setup_time_us:
        Per-request programming cost (ring doorbell, channel start).
    per_descriptor_us:
        Per-SG-segment descriptor fetch/processing cost.  Paged user memory
        produces one segment per 4 KiB page, so this term dominates large
        transfers from non-pinned buffers.
    engine_rate_mbps:
        Engine pump ceiling; PEX87xx engines sustain well below wire rate.
    pipeline_chunk:
        Chunk size for the fluid pipeline approximation.
    ring_entries:
        Descriptor ring capacity; submissions beyond it block.
    completion_latency_us:
        Writeback delay from last byte to completion visibility.
    read_roundtrip_us:
        Extra per-segment latency for READ (non-posted request + completion).
    """

    setup_time_us: float = 20.0
    per_descriptor_us: float = 9.0
    engine_rate_mbps: float = 2900.0
    pipeline_chunk: int = 16 * 1024
    ring_entries: int = 256
    completion_latency_us: float = 2.0
    read_roundtrip_us: float = 3.0
    #: Independent DMA channels (PEX8749 exposes four).  Channels pull
    #: from one shared ring and overlap *different* requests; the pump
    #: bandwidth ceiling is shared, so channels help per-request overheads
    #: (setup, descriptor walks), not peak rate.
    channels: int = 1

    def __post_init__(self) -> None:
        if self.setup_time_us < 0 or self.per_descriptor_us < 0:
            raise ValueError("negative DMA timing parameter")
        if self.engine_rate_mbps <= 0:
            raise ValueError("engine rate must be positive")
        if self.pipeline_chunk < 512:
            raise ValueError("pipeline chunk unreasonably small")
        if self.ring_entries < 1:
            raise ValueError("descriptor ring needs at least one entry")
        if not (1 <= self.channels <= 8):
            raise ValueError("channels must be in 1..8")


@dataclass
class DmaRequest:
    """One queued transfer.

    ``segments`` are *local* physical extents (source for WRITE, destination
    for READ); ``window_offset`` addresses the peer side through the given
    outgoing window.  ``done`` triggers with the request once all bytes are
    visible at the destination.
    """

    direction: DmaDirection
    window_index: int
    window_offset: int
    segments: tuple[PhysSegment, ...]
    done: Event
    on_complete: Optional[Callable[["DmaRequest"], None]] = None
    submitted_at: float = 0.0
    completed_at: float = field(default=0.0)
    #: submitter's span at submit time — the engine-side span's parent.
    ctx_span: Optional[int] = None
    #: chained-descriptor mode: the engine prefetches descriptor *i+1*
    #: while segment *i* streams, so only the first segment pays the full
    #: ``per_descriptor_us``; later segments pay only the portion not
    #: hidden behind the previous segment's pump time.
    chained: bool = False

    @property
    def nbytes(self) -> int:
        return sum(seg.nbytes for seg in self.segments)


class DmaEngine:
    """The engine itself: a sim process consuming a descriptor ring.

    The engine is wired to its endpoint lazily (:meth:`attach`) because
    endpoints learn their peer only when cabled.
    """

    def __init__(self, env: Environment, config: DmaConfig,
                 name: str = "dma"):
        self.env = env
        self.config = config
        self.name = name
        self._ring: Store[DmaRequest] = Store(
            env, capacity=config.ring_entries, name=f"{name}.ring"
        )
        self._pump = BandwidthServer(
            env, config.engine_rate_mbps, name=f"{name}.pump"
        )
        self._join_name = f"{name}.join"
        #: observability sink; replaced by instrument_cluster when tracing.
        self.scope = NULL_SCOPE
        # Wired by attach():
        self._local_memory: Optional[PhysicalMemory] = None
        self._local_port: Optional[BandwidthServer] = None
        self._resolve: Optional[Callable[[int, int, int],
                                         tuple[PhysicalMemory, int,
                                               BandwidthServer]]] = None
        self._link_out: Optional[Link] = None
        self._link_in: Optional[Link] = None
        self._workers: list = []
        #: lifetime statistics
        self.completed_requests = 0
        self.completed_bytes = 0
        self.failed_requests = 0
        self.descriptors_processed = 0
        self.descriptors_chained = 0

    # -- wiring -------------------------------------------------------------------
    def attach(self, local_memory: PhysicalMemory,
               local_port: BandwidthServer,
               resolve: Callable[[int, int, int],
                                 tuple[PhysicalMemory, int, BandwidthServer]],
               link_out: Link, link_in: Link) -> None:
        """Connect the engine to its endpoint's address-resolution fabric.

        ``resolve(window_index, window_offset, nbytes)`` must return the
        peer's ``(memory, physical_address, memory_port)`` triple after
        window limit checks.
        """
        self._local_memory = local_memory
        self._local_port = local_port
        self._resolve = resolve
        self._link_out = link_out
        self._link_in = link_in
        if not self._workers:
            self._workers = [
                self.env.process(self._run(), name=f"{self.name}.ch{index}")
                for index in range(self.config.channels)
            ]

    @property
    def is_attached(self) -> bool:
        return self._resolve is not None

    @property
    def queue_depth(self) -> int:
        return len(self._ring)

    # -- submission ------------------------------------------------------------------
    def submit(self, direction: DmaDirection, window_index: int,
               window_offset: int, segments: Sequence[PhysSegment],
               on_complete: Optional[Callable[[DmaRequest], None]] = None,
               chained: bool = False) -> DmaRequest:
        """Queue a transfer; returns the request whose ``done`` event fires
        at completion.  Raises if the engine is not attached."""
        if not self.is_attached:
            raise RuntimeError(f"{self.name}: submit before attach/connect")
        if not segments:
            raise ValueError(f"{self.name}: empty scatter/gather list")
        request = DmaRequest(
            direction=direction,
            window_index=window_index,
            window_offset=window_offset,
            segments=tuple(segments),
            done=self.env.event(),
            on_complete=on_complete,
            submitted_at=self.env.now,
            # submit() runs synchronously in the submitter's process, so
            # this captures the causally-enclosing span (payload_write).
            ctx_span=self.scope.current_span_id(),
            chained=chained,
        )
        # Nothing waits on the insertion: a full ring parks the request.
        self._ring.push(request)
        return request

    # -- engine process -----------------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            request: DmaRequest = yield self._ring.get()
            with self.scope.span("dma", category="dma", track=self.name,
                                 parent=request.ctx_span,
                                 nbytes=request.nbytes,
                                 segments=len(request.segments),
                                 direction=request.direction.value):
                yield self.env.timeout(self.config.setup_time_us)
                try:
                    if request.direction is DmaDirection.WRITE:
                        yield from self._do_write(request)
                    else:
                        yield from self._do_read(request)
                except LinkDownError as exc:
                    # Engine error status: fail this request, keep serving
                    # the ring (a dead cable must not wedge the channel).
                    self.failed_requests += 1
                    request.done.fail(exc)
                    continue
                yield self.env.timeout(self.config.completion_latency_us)
            request.completed_at = self.env.now
            self.completed_requests += 1
            self.completed_bytes += request.nbytes
            if request.on_complete is not None:
                request.on_complete(request)
            request.done.succeed(request)

    def _descriptor_delay(self, request: DmaRequest,
                          fetch_started: Optional[float]) -> float:
        """Exposed descriptor-fetch cost for the next segment.

        Unchained rings fetch each descriptor on demand (full cost).  A
        chained ring starts fetching descriptor *i+1* the moment segment
        *i* begins streaming (``fetch_started``), so only the remainder
        not hidden behind the stream is exposed.
        """
        if not request.chained or fetch_started is None:
            return self.config.per_descriptor_us
        elapsed = self.env.now - fetch_started
        return max(0.0, self.config.per_descriptor_us - elapsed)

    def _charge_descriptor(self, request: DmaRequest,
                           fetch_started: Optional[float],
                           extra: float = 0.0) -> Generator:
        """Charge the (possibly prefetch-hidden) descriptor cost.

        Unchained requests always yield the timeout — even a zero-cost one
        — preserving the pre-chaining event interleaving exactly.
        """
        delay = self._descriptor_delay(request, fetch_started) + extra
        self.descriptors_processed += 1
        if request.chained and fetch_started is not None:
            self.descriptors_chained += 1
        if not request.chained or delay > 0:
            yield self.env.timeout(delay)

    def _do_write(self, request: DmaRequest) -> Generator:
        """local segments -> peer memory at window_offset (gathered)."""
        assert self._resolve is not None
        dst_mem, dst_phys, dst_port = self._resolve(
            request.window_index, request.window_offset, request.nbytes
        )
        cursor = dst_phys
        fetch_started: Optional[float] = None
        for segment in request.segments:
            yield from self._charge_descriptor(request, fetch_started)
            fetch_started = self.env.now
            yield from self._pump_segment(
                src_mem=self._local_memory, src_addr=segment.phys_addr,
                src_port=self._local_port,
                dst_mem=dst_mem, dst_addr=cursor, dst_port=dst_port,
                nbytes=segment.nbytes, link=self._link_out,
            )
            cursor += segment.nbytes

    def _do_read(self, request: DmaRequest) -> Generator:
        """peer memory at window_offset -> local segments (scattered)."""
        assert self._resolve is not None
        src_mem, src_phys, src_port = self._resolve(
            request.window_index, request.window_offset, request.nbytes
        )
        cursor = src_phys
        fetch_started: Optional[float] = None
        for segment in request.segments:
            # The read round trip is non-posted and cannot be prefetched.
            yield from self._charge_descriptor(
                request, fetch_started, extra=self.config.read_roundtrip_us
            )
            fetch_started = self.env.now
            yield from self._pump_segment(
                src_mem=src_mem, src_addr=cursor, src_port=src_port,
                dst_mem=self._local_memory, dst_addr=segment.phys_addr,
                dst_port=self._local_port,
                nbytes=segment.nbytes, link=self._link_in,
            )
            cursor += segment.nbytes

    def _pump_segment(self, src_mem: PhysicalMemory, src_addr: int,
                      src_port: BandwidthServer,
                      dst_mem: PhysicalMemory, dst_addr: int,
                      dst_port: BandwidthServer,
                      nbytes: int, link: Link) -> Generator:
        """Four-stage fluid pipeline: src port || link || dst port || pump.

        Each chunk occupies the source memory port, the wire, the
        destination memory port and the engine's own pump ceiling
        concurrently, so the chunk time is the *maximum* of the stage
        times including queueing — the standard fluid approximation for a
        pipelined DMA stream.  The stages are callbacks, not processes
        (:meth:`BandwidthServer.stage`, :meth:`Link.stage`), started from
        this dispatch in the order their processes used to be spawned —
        same-instant ties can tell — and each arrives at the chunk's
        :class:`~repro.sim.Join` when its service ends.
        """
        chunk_size = self.config.pipeline_chunk
        if link.config.propagation_delay_us:
            yield self.env.timeout(link.config.propagation_delay_us)
        # The wire stage's spans hang under this request's engine span.
        parent = self.scope.current_span_id()
        offset = 0
        while offset < nbytes:
            if link.down:
                raise LinkDownError(
                    f"{self.name}: link went down after {offset}/{nbytes} "
                    "bytes"
                )
            take = min(chunk_size, nbytes - offset)
            join = Join(self.env, 4, self._join_name)
            arrive = join.arrive
            src_port.stage(take, arrive)
            wire = link.stage(take, parent, arrive)
            dst_port.stage(take, arrive)
            self._pump.stage(take, arrive)
            yield join
            if wire.dropped:
                # The cable was cut under this chunk: its bytes never
                # reached the peer, so the request fails and they never
                # land.
                raise LinkDownError(
                    f"{self.name}: link went down under the chunk at "
                    f"{offset}/{nbytes} bytes"
                )
            # Realize the bytes only after the full pipeline completed so a
            # concurrent reader cannot observe data "ahead of time".
            dst_mem.write(
                dst_addr + offset, src_mem.view(src_addr + offset, take)
            )
            offset += take

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DmaEngine {self.name} queued={self.queue_depth} "
            f"done={self.completed_requests}>"
        )
