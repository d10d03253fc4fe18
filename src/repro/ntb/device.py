"""The NTB endpoint: one port of a switchless PCIe NTB connection.

An :class:`NtbEndpoint` models one PEX87xx-style NTB host adapter port.  It
aggregates:

* a Type-0 config header with six BAR slots (BAR0 = register space, two
  64-bit memory windows at BAR2/BAR4 — the paper uses one data window per
  port plus a bypass/transfer window, §III-A/Fig. 4);
* per-window :class:`~repro.ntb.bar.IncomingTranslation` registers
  programmed by the local driver;
* the shared :class:`~repro.ntb.scratchpad.ScratchpadFile` of the link;
* a local :class:`~repro.ntb.doorbell.DoorbellRegister` the peer can latch;
* a requester-ID :class:`~repro.ntb.lut.LookupTable`;
* a :class:`~repro.ntb.dma.DmaEngine`.

Endpoints become functional in two steps mirroring real bring-up:
``attach_host`` (adapter seated in a host: gains memory + memory-port +
requester id) and then :func:`connect` (cable plugged between two endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..memory import PhysSegment, PhysicalMemory
from ..pcie import (
    BarKind,
    BarRegister,
    ConfigSpace,
    DuplexLink,
    Link,
    LinkConfig,
    Type0Header,
)
from ..sim import BandwidthServer, Environment
from .bar import IncomingTranslation, OutgoingWindow, WindowError
from .dma import DmaConfig, DmaDirection, DmaEngine, DmaRequest
from .doorbell import DoorbellRegister
from .lut import LookupTable, LutError
from .scratchpad import TOTAL_SCRATCHPADS, ScratchpadFile

__all__ = ["NtbPortConfig", "NtbEndpoint", "connect_endpoints", "NtbError"]

PLX_VENDOR_ID = 0x10B5
PEX8749_DEVICE_ID = 0x8749

#: Window roles used throughout the OpenSHMEM runtime.
DATA_WINDOW = 0
BYPASS_WINDOW = 1


class NtbError(Exception):
    """Endpoint used before attach/connect, or wiring mistakes."""


@dataclass(frozen=True)
class NtbPortConfig:
    """Static shape of one NTB port."""

    window_sizes: tuple[int, ...] = (64 * 1024 * 1024, 4 * 1024 * 1024)
    vendor_id: int = PLX_VENDOR_ID
    device_id: int = PEX8749_DEVICE_ID
    dma: DmaConfig = field(default_factory=DmaConfig)
    #: MMIO write time for doorbell/scratchpad registers, charged by driver.
    register_space_size: int = 64 * 1024

    def __post_init__(self) -> None:
        if not self.window_sizes:
            raise ValueError("an NTB port needs at least one memory window")
        for size in self.window_sizes:
            if size < 4096 or size & (size - 1):
                raise ValueError(
                    f"window sizes must be powers of two >= 4096, got {size}"
                )
        if len(self.window_sizes) > 2:
            raise ValueError("Type-0 header fits at most two 64-bit windows")


class NtbEndpoint:
    """One NTB port with its registers, windows, DMA engine and link."""

    def __init__(self, env: Environment, name: str,
                 config: Optional[NtbPortConfig] = None):
        self.env = env
        self.name = name
        self.config = config or NtbPortConfig()

        bars = [BarRegister(0, BarKind.MEM32,
                            size=self.config.register_space_size)]
        # 64-bit windows at BAR2 and BAR4 (each eats two slots).
        for i, size in enumerate(self.config.window_sizes):
            bars.append(
                BarRegister(2 + 2 * i, BarKind.MEM64, size=size,
                            prefetchable=True)
            )
        self.header = Type0Header(
            self.config.vendor_id, self.config.device_id, bars
        )
        self.config_space = ConfigSpace(self.header)

        self.outgoing: list[OutgoingWindow] = [
            OutgoingWindow(i, self.header.bar_by_index(2 + 2 * i))
            for i in range(len(self.config.window_sizes))
        ]
        self.incoming: list[IncomingTranslation] = [
            IncomingTranslation(i) for i in range(len(self.config.window_sizes))
        ]
        self.doorbell = DoorbellRegister(env, name=f"{name}.db")
        #: Fault-injection hook: number of upcoming outbound doorbell
        #: rings to swallow (the MMIO write is charged, the peer latch
        #: never fires).  0 means the hook is inert.
        self.fault_drop_doorbells = 0
        #: rings actually swallowed (accounting for tests/reports)
        self.dropped_doorbells = 0
        self.lut = LookupTable(name=f"{name}.lut")
        self.dma = DmaEngine(env, self.config.dma, name=f"{name}.dma")

        # Populated by attach_host():
        self.local_memory: Optional[PhysicalMemory] = None
        self.local_port: Optional[BandwidthServer] = None
        self.requester_id: Optional[int] = None
        # Populated by connect_endpoints():
        self.peer: Optional["NtbEndpoint"] = None
        self.spad: Optional[ScratchpadFile] = None
        self.link_out: Optional[Link] = None
        self.link_in: Optional[Link] = None

    # -- bring-up -------------------------------------------------------------
    def attach_host(self, memory: PhysicalMemory, memory_port: BandwidthServer,
                    requester_id: int) -> None:
        """Seat the adapter in a host (step 1 of bring-up)."""
        if self.local_memory is not None:
            raise NtbError(f"{self.name}: already attached to a host")
        self.local_memory = memory
        self.local_port = memory_port
        self.requester_id = requester_id

    @property
    def is_attached(self) -> bool:
        return self.local_memory is not None

    @property
    def is_connected(self) -> bool:
        return self.peer is not None

    @property
    def link_down(self) -> bool:
        """True when the cable has been severed (or never connected)."""
        if self.link_out is None:
            return True
        return self.link_out.down

    def _require_connected(self) -> "NtbEndpoint":
        if self.peer is None:
            raise NtbError(f"{self.name}: no peer (cable not connected)")
        return self.peer

    # -- translation programming (driver-facing) -------------------------------
    def program_incoming(self, window_index: int, phys_address: int,
                         size: int) -> None:
        """Program the translation registers for one incoming window.

        ``size`` may not exceed the window's BAR aperture (hardware limit
        register), and the target extent must lie inside local DRAM.
        """
        if not self.is_attached:
            raise NtbError(f"{self.name}: program_incoming before attach")
        aperture = self.outgoing[window_index].size
        if size > aperture:
            raise WindowError(
                f"{self.name}: translation size {size:#x} exceeds "
                f"window {window_index} aperture {aperture:#x}"
            )
        assert self.local_memory is not None
        if phys_address + size > self.local_memory.size:
            raise WindowError(
                f"{self.name}: translation target outside local memory"
            )
        self.incoming[window_index].program(phys_address, size)

    def resolve_peer(self, window_index: int, offset: int,
                     nbytes: int) -> tuple[PhysicalMemory, int, BandwidthServer]:
        """Resolve an outgoing access to (peer memory, phys addr, port).

        Enforces: cable connected, peer translation programmed, window
        limits, and a LUT entry for *our* requester id on the peer side
        (i.e. the peer's driver acknowledged this link during setup).
        """
        peer = self._require_connected()
        if self.requester_id is None or not peer.lut.contains(self.requester_id):
            raise LutError(
                f"{self.name}: peer {peer.name} has no LUT entry for "
                f"requester {self.requester_id} — run the ID handshake first"
            )
        assert peer.local_memory is not None and peer.local_port is not None
        window = self.outgoing[window_index]
        phys = window.resolve(
            peer.incoming[window_index], peer.local_memory, offset, nbytes
        )
        return peer.local_memory, phys, peer.local_port

    # -- functional (zero-time) data path; timing charged by callers -------------
    def window_write_functional(self, window_index: int, offset: int,
                                data: bytes | np.ndarray) -> None:
        """Posted write through an outgoing window (no time model here).

        Writes into a severed cable are silently dropped (posted TLPs,
        master-abort semantics)."""
        nbytes = len(data) if isinstance(data, (bytes, bytearray)) else data.size
        if self.link_down:
            return
        memory, phys, _port = self.resolve_peer(window_index, offset, nbytes)
        memory.write(phys, data)

    def window_read_functional(self, window_index: int, offset: int,
                               nbytes: int) -> np.ndarray:
        """Non-posted read through an outgoing window (no time model).

        Reads across a severed cable complete with all-ones — the classic
        PCIe master-abort signature drivers test for."""
        if self.link_down:
            return np.full(nbytes, 0xFF, dtype=np.uint8)
        memory, phys, _port = self.resolve_peer(window_index, offset, nbytes)
        return memory.read(phys, nbytes)

    # -- doorbell / scratchpad ----------------------------------------------------
    def ring_peer_doorbell(self, bit: int):
        """Set a doorbell bit on the peer (process generator).

        The MMIO write is posted; the latch happens one link propagation
        later on the peer side.
        """
        peer = self._require_connected()
        assert self.link_out is not None
        yield from self.link_out.transfer(8)
        if self.link_down:
            return  # the ring was dropped on the floor
        if self.fault_drop_doorbells > 0:
            # Injected single-TLP loss: the write vanished in the fabric.
            self.fault_drop_doorbells -= 1
            self.dropped_doorbells += 1
            return
        peer.doorbell.latch(bit)

    def spad_file(self) -> ScratchpadFile:
        if self.spad is None:
            raise NtbError(f"{self.name}: scratchpads exist only once cabled")
        return self.spad

    # -- DMA ------------------------------------------------------------------------
    def dma_write(self, window_index: int, window_offset: int,
                  segments: Sequence[PhysSegment],
                  on_complete: Optional[Callable[[DmaRequest], None]] = None,
                  chained: bool = False) -> DmaRequest:
        """Submit a local-to-peer DMA through a window."""
        return self.dma.submit(DmaDirection.WRITE, window_index,
                               window_offset, segments, on_complete,
                               chained=chained)

    def dma_read(self, window_index: int, window_offset: int,
                 segments: Sequence[PhysSegment],
                 on_complete: Optional[Callable[[DmaRequest], None]] = None,
                 chained: bool = False) -> DmaRequest:
        """Submit a peer-to-local DMA through a window."""
        return self.dma.submit(DmaDirection.READ, window_index,
                               window_offset, segments, on_complete,
                               chained=chained)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        peer = self.peer.name if self.peer else None
        return f"<NtbEndpoint {self.name} peer={peer}>"


def connect_endpoints(a: NtbEndpoint, b: NtbEndpoint,
                      link_config: Optional[LinkConfig] = None) -> DuplexLink:
    """Plug a PCIe fabric cable between two attached endpoints.

    Creates the duplex link, instantiates the *shared* scratchpad file, and
    attaches both DMA engines to the resolved data path.  Mirrors §III-A:
    "two NTB adapters ... connected to each other [make] an NTB upstream
    and downstream channel, enabling address translation between the two
    hosts".
    """
    if a.env is not b.env:
        raise NtbError("endpoints live in different environments")
    if not a.is_attached or not b.is_attached:
        raise NtbError("attach both endpoints to hosts before cabling")
    if a.is_connected or b.is_connected:
        raise NtbError("an endpoint is already cabled")
    if len(a.outgoing) != len(b.outgoing):
        raise NtbError("endpoints have differing window counts")

    env = a.env
    cable = DuplexLink(env, link_config or LinkConfig(),
                       name=f"{a.name}<->{b.name}")
    # Both banks: 0..7 data/mailbox (paper §II-A), 8..15 link management
    # (heartbeat) — so the watchdog never collides with the mailboxes.
    spad = ScratchpadFile(env, name=f"{a.name}|{b.name}.spad",
                          count=TOTAL_SCRATCHPADS)

    a.peer, b.peer = b, a
    a.spad = b.spad = spad
    a.link_out, a.link_in = cable.a_to_b, cable.b_to_a
    b.link_out, b.link_in = cable.b_to_a, cable.a_to_b

    for endpoint in (a, b):
        assert endpoint.local_memory is not None
        assert endpoint.local_port is not None
        assert endpoint.link_out is not None and endpoint.link_in is not None
        endpoint.dma.attach(
            local_memory=endpoint.local_memory,
            local_port=endpoint.local_port,
            resolve=endpoint.resolve_peer,
            link_out=endpoint.link_out,
            link_in=endpoint.link_in,
        )
    return cable
