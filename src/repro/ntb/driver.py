"""Host-side NTB driver (the analogue of Linux ``ntb_hw_plx`` + transport).

One :class:`NtbDriver` binds one seated :class:`~repro.ntb.device.NtbEndpoint`
to its :class:`~repro.host.Host`.  It performs config-space enumeration the
way a real driver does (vendor probe, BAR sizing, memory/bus-master enable)
and exposes the primitives the OpenSHMEM runtime builds on, each charging
the appropriate :class:`~repro.host.CostModel` cost:

* scratchpad read/write (MMIO register timing),
* doorbell ring/clear/mask plus IRQ registration (doorbell bit → MSI
  vector → top-half callback after ISR entry cost),
* PIO window copies (the paper's "memcpy" data path — write-combined
  stores out, painful uncached loads in),
* DMA submission from paged user buffers (per-page SG) or pinned buffers.
"""

from __future__ import annotations

import functools
from typing import Callable, Generator, Sequence

import numpy as np

from ..host.node import Host
from ..memory import PhysSegment
from ..obsv.spans import NULL_SCOPE
from ..pcie.config import (
    COMMAND_BUS_MASTER,
    COMMAND_MEMORY_ENABLE,
    REG_COMMAND,
    REG_VENDOR_ID,
)
from .device import NtbEndpoint
from .dma import LinkDownError
from .doorbell import DOORBELL_BITS

__all__ = ["NtbDriver", "DriverError"]


class DriverError(Exception):
    """Probe failure or misuse of the driver API."""


class NtbDriver:
    """Bound driver instance for one (host, endpoint) pair."""

    def __init__(self, host: Host, endpoint: NtbEndpoint, side: str,
                 irq_base: int):
        if not side or not isinstance(side, str):
            raise DriverError(
                f"side must be a topology port name "
                f"('left', 'right', 'x+', ...), got {side!r}")
        self.host = host
        self.endpoint = endpoint
        self.side = side
        self.irq_base = irq_base
        self.name = f"{host.name}.ntb.{side}"
        #: observability sink; replaced by instrument_cluster when tracing.
        self.scope = NULL_SCOPE
        self._probed = False
        self._bar_sizes: dict[int, int] = {}
        self._irq_handlers: dict[int, Callable[[int], None]] = {}
        #: lifetime count of master-aborted reads/writes (severed cable).
        self.master_aborts = 0

        endpoint.attach_host(
            memory=host.memory,
            memory_port=host.memory_port,
            requester_id=self._requester_id(),
        )
        host.adapters[side] = self

    def _requester_id(self) -> int:
        # bus/device/function style: host id in the bus field, side in dev.
        # One function number per seated adapter; the 16-vector-per-port
        # IRQ layout already numbers ports, so reuse it (left=0, right=1).
        return (self.host.host_id << 8) | (self.irq_base // 16)

    @property
    def requester_id(self) -> int:
        rid = self.endpoint.requester_id
        assert rid is not None
        return rid

    # -- enumeration ---------------------------------------------------------------
    def probe(self) -> Generator:
        """Config-space enumeration: vendor check, BAR sizing, enables."""
        cpu = self.host.cpu
        cs = self.endpoint.config_space
        yield from cpu.mmio_reg_read()
        ident = cs.read32(REG_VENDOR_ID)
        vendor, device = ident & 0xFFFF, ident >> 16
        if vendor != self.endpoint.config.vendor_id:
            raise DriverError(
                f"{self.name}: unexpected vendor {vendor:#x} "
                f"(device {device:#x})"
            )
        for window in self.endpoint.outgoing:
            bar_index = window.bar.index
            # Sizing protocol: one read, one write, one read, one write.
            yield from cpu.mmio_reg_read()
            yield from cpu.mmio_reg_write()
            yield from cpu.mmio_reg_read()
            yield from cpu.mmio_reg_write()
            self._bar_sizes[bar_index] = cs.probe_bar_size(bar_index)
        yield from cpu.mmio_reg_write()
        cs.write32(REG_COMMAND, COMMAND_MEMORY_ENABLE | COMMAND_BUS_MASTER)
        self._probed = True

    @property
    def is_probed(self) -> bool:
        return self._probed

    def bar_size(self, bar_index: int) -> int:
        if not self._probed:
            raise DriverError(f"{self.name}: bar_size before probe")
        return self._bar_sizes[bar_index]

    # -- window programming --------------------------------------------------------
    def program_incoming(self, window_index: int, phys_address: int,
                         size: int) -> Generator:
        """Program the incoming translation registers (two MMIO writes)."""
        yield from self.host.cpu.mmio_reg_write()
        yield from self.host.cpu.mmio_reg_write()
        self.endpoint.program_incoming(window_index, phys_address, size)

    def add_lut_entry(self, remote_requester_id: int, local_id: int) -> Generator:
        yield from self.host.cpu.mmio_reg_write()
        self.endpoint.lut.add(remote_requester_id, local_id)

    # -- scratchpads ------------------------------------------------------------------
    def spad_write(self, index: int, value: int) -> Generator:
        """Write a scratchpad register.

        The registers live on the cable's bridge pair, so writes into a
        severed cable are silently dropped (posted)."""
        yield from self.host.cpu.mmio_reg_write()
        if self.endpoint.link_down:
            return
        self.endpoint.spad_file().write(index, value)

    def spad_read(self, index: int) -> Generator:
        """Read a scratchpad register; all-ones when the cable is severed
        (master-abort), which is what link-watchdogs key on."""
        yield from self.host.cpu.mmio_reg_read()
        if self.endpoint.link_down:
            self.master_aborts += 1
            return 0xFFFFFFFF
        return self.endpoint.spad_file().read(index)

    def spad_write_block(self, start: int, values: Sequence[int]) -> Generator:
        """Write consecutive registers: charged one by one, landed at once.

        A message header is published only by the doorbell rung after
        the block and read only after that doorbell's IRQ, so nothing
        can observe the registers one by one; they all land when the
        last one's charge ends.  A cable severed anywhere inside the
        block therefore drops the whole block, as a sever just before it
        does."""
        yield from self.host.cpu.mmio_reg_block(len(values), read=False)
        if self.endpoint.link_down:
            return
        self.endpoint.spad_file().write_block(start, values)

    def spad_read_block(self, start: int, count: int) -> Generator:
        """Read consecutive registers: charged one by one, sampled at
        once (see :meth:`spad_write_block`); all of them master-abort to
        all-ones when the cable is down at that instant."""
        yield from self.host.cpu.mmio_reg_block(count, read=True)
        if self.endpoint.link_down:
            self.master_aborts += count
            return (0xFFFFFFFF,) * count
        return self.endpoint.spad_file().read_block(start, count)

    # -- doorbells ---------------------------------------------------------------------
    def ring_doorbell(self, bit: int) -> Generator:
        """Ring the *peer's* doorbell bit (posted MMIO write + link)."""
        with self.scope.span("doorbell_ring", category="driver",
                             track=self.name, bit=bit):
            yield from self.host.cpu.mmio_reg_write()
            yield from self.endpoint.ring_peer_doorbell(bit)

    def clear_doorbell(self, bit: int) -> Generator:
        """W1C our local pending bit."""
        yield from self.host.cpu.mmio_reg_write()
        self.endpoint.doorbell.clear(bit)

    def drain_doorbells(self) -> Generator:
        """Read-and-clear all local pending bits (ISR bottom-half entry)."""
        yield from self.host.cpu.mmio_reg_read()
        yield from self.host.cpu.mmio_reg_write()
        return self.endpoint.doorbell.drain()

    def mask_doorbell(self, bit: int) -> Generator:
        yield from self.host.cpu.mmio_reg_write()
        self.endpoint.doorbell.set_mask(bit)

    def unmask_doorbell(self, bit: int) -> Generator:
        yield from self.host.cpu.mmio_reg_write()
        self.endpoint.doorbell.clear_mask(bit)

    def enable_interrupts(self) -> None:
        """Wire doorbell bits to MSI vectors ``irq_base + bit``."""
        controller = self.host.interrupts
        self.endpoint.doorbell.interrupt_sink = (
            lambda bit: controller.raise_msi(self.irq_base + bit)
        )

    def request_irq(self, bit: int, callback: Callable[[int], None]) -> None:
        """Register a top-half for one doorbell bit.

        The callback runs ``isr_entry_us`` after MSI delivery and receives
        the doorbell bit.  Top halves must be tiny (latch + kick a thread).
        """
        if not (0 <= bit < DOORBELL_BITS):
            raise DriverError(f"{self.name}: doorbell bit {bit} out of range")
        vector = self.irq_base + bit
        cpu = self.host.cpu

        def top_half(_vector: int) -> None:
            delay = self.host.cost_model.isr_entry_us
            timeout = self.host.env.timeout(delay)
            # Partial of a bound method so the bottom-half step stays
            # attributable to this driver's host for schedule analysis.
            timeout.callbacks.append(
                functools.partial(self._run_bottom_half, callback, bit))

        self.host.interrupts.register(vector, top_half)
        self._irq_handlers[bit] = callback

    def _run_bottom_half(self, callback: Callable[[int], None], bit: int,
                         _evt: object) -> None:
        callback(bit)

    # -- PIO (the paper's "memcpy" path) ---------------------------------------------
    def pio_window_write(self, window_index: int, offset: int,
                         data: bytes | np.ndarray) -> Generator:
        """CPU store loop into the outgoing window (write-combined rate).

        Raises :class:`~repro.ntb.dma.LinkDownError` when the cable is
        severed: the stores themselves are posted (silently dropped at the
        endpoint), but a real driver's write loop is fenced by a readback
        that master-aborts, so the copy as a whole fails loudly — matching
        the DMA path's error surface.
        """
        buf = np.frombuffer(memoryview(data), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else data.view(np.uint8).reshape(-1)
        chunk = self.host.cost_model.pio_chunk
        with self.scope.span("pio_copy", category="driver", track=self.name,
                             direction="write", nbytes=int(buf.size)):
            cursor = 0
            while cursor < buf.size:
                if self.endpoint.link_down:
                    self.master_aborts += 1
                    raise LinkDownError(
                        f"{self.name}: PIO write master-aborted at byte "
                        f"{cursor}/{buf.size} (cable severed)"
                    )
                take = min(chunk, buf.size - cursor)
                yield from self.host.cpu.pio_write(take)
                self.endpoint.window_write_functional(
                    window_index, offset + cursor, buf[cursor:cursor + take]
                )
                cursor += take

    def pio_window_read(self, window_index: int, offset: int,
                        nbytes: int) -> Generator:
        """CPU load loop from the window (uncached read rate — slow).

        Reads across a severed cable complete with all-ones at the
        endpoint (master abort); the driver detects the signature and
        raises :class:`~repro.ntb.dma.LinkDownError` instead of handing
        garbage to the caller.
        """
        out = np.empty(nbytes, dtype=np.uint8)
        chunk = self.host.cost_model.pio_chunk
        with self.scope.span("pio_copy", category="driver", track=self.name,
                             direction="read", nbytes=nbytes):
            cursor = 0
            while cursor < nbytes:
                if self.endpoint.link_down:
                    self.master_aborts += 1
                    raise LinkDownError(
                        f"{self.name}: PIO read master-aborted at byte "
                        f"{cursor}/{nbytes} (cable severed)"
                    )
                take = min(chunk, nbytes - cursor)
                yield from self.host.cpu.pio_read(take)
                out[cursor:cursor + take] = \
                    self.endpoint.window_read_functional(
                        window_index, offset + cursor, take
                    )
                cursor += take
        return out

    # -- DMA ----------------------------------------------------------------------------
    def dma_write_user(self, window_index: int, window_offset: int,
                       virt: int, nbytes: int) -> Generator:
        """Submit a DMA from a *paged* user buffer: one descriptor per page."""
        segments = self.host.user_segments(virt, nbytes)
        yield from self.host.cpu.dma_submit()
        return self.endpoint.dma_write(window_index, window_offset, segments)

    def dma_write_segments(self, window_index: int, window_offset: int,
                           segments: Sequence[PhysSegment],
                           chained: bool = False) -> Generator:
        """Submit a DMA from explicit (e.g. pinned) segments.

        ``chained=True`` links the descriptors into one chain so the
        engine prefetches descriptor *i+1* while segment *i* streams
        (fastpath lever 2; see docs/FASTPATH.md).
        """
        yield from self.host.cpu.dma_submit()
        return self.endpoint.dma_write(window_index, window_offset, segments,
                                       chained=chained)

    def dma_read_user(self, window_index: int, window_offset: int,
                      virt: int, nbytes: int) -> Generator:
        segments = self.host.user_segments(virt, nbytes)
        yield from self.host.cpu.dma_submit()
        return self.endpoint.dma_read(window_index, window_offset, segments)

    def dma_read_segments(self, window_index: int, window_offset: int,
                          segments: Sequence[PhysSegment]) -> Generator:
        yield from self.host.cpu.dma_submit()
        return self.endpoint.dma_read(window_index, window_offset, segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NtbDriver {self.name} probed={self._probed}>"
