"""CPU cost model: where every software microsecond comes from.

The paper's measured latencies are dominated not by wire time but by the
software path: staging copies, uncached MMIO reads, doorbell writes, ISR
scheduling.  This module centralizes those costs in one calibratable
:class:`CostModel` (defaults per DESIGN.md §5) and a :class:`Cpu` that
charges them as virtual time.

The key asymmetry — **write-combined PIO writes are ~4x faster than
uncached PIO reads** — is what collapses memcpy-Get in Fig. 9(b)/(d): a Get
that memcpy-s *from* an NTB window pays the read rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..sim import Environment

__all__ = ["CostModel", "Cpu"]


@dataclass(frozen=True)
class CostModel:
    """Calibratable software/platform costs (all rates MB/s == bytes/µs).

    Attributes
    ----------
    local_memcpy_mbps:
        Cached DRAM-to-DRAM ``memcpy`` bandwidth.
    pio_write_mbps:
        CPU store bandwidth into a write-combined NTB window (the paper's
        "memcpy" Put path).
    pio_read_mbps:
        CPU load bandwidth from an uncached NTB window (the paper's
        "memcpy" Get path) — PCIe reads are non-posted, hence brutal.
    mmio_reg_write_us / mmio_reg_read_us:
        Single posted register write / non-posted register read (doorbell,
        scratchpad).
    thread_wake_us:
        Scheduler latency from ISR wakeup to the service thread running.
    isr_entry_us:
        Interrupt entry/exit and doorbell drain at the CPU.
    msi_delivery_us:
        MSI flight time from the adapter to the CPU's APIC.
    memory_port_mbps:
        Host DRAM/root-complex port shared by DMA streams (contention term
        of Fig. 8's ring-vs-independent dip).
    dma_submit_us:
        Driver cost to build and ring one DMA request.
    pio_chunk:
        Granularity at which PIO loops check for doorbell work.
    """

    local_memcpy_mbps: float = 3200.0
    pio_write_mbps: float = 105.0
    pio_read_mbps: float = 25.0
    mmio_reg_write_us: float = 0.3
    mmio_reg_read_us: float = 0.9
    thread_wake_us: float = 30.0
    isr_entry_us: float = 5.0
    msi_delivery_us: float = 20.0
    memory_port_mbps: float = 5200.0
    dma_submit_us: float = 3.0
    pio_chunk: int = 4096

    def __post_init__(self) -> None:
        for attr in ("local_memcpy_mbps", "pio_write_mbps", "pio_read_mbps",
                     "memory_port_mbps"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("mmio_reg_write_us", "mmio_reg_read_us",
                     "thread_wake_us", "isr_entry_us", "msi_delivery_us",
                     "dma_submit_us"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.pio_chunk < 64:
            raise ValueError("pio_chunk unreasonably small")

    # -- derived helpers -------------------------------------------------------
    def local_memcpy_us(self, nbytes: int) -> float:
        return nbytes / self.local_memcpy_mbps

    def pio_write_us(self, nbytes: int) -> float:
        return nbytes / self.pio_write_mbps

    def pio_read_us(self, nbytes: int) -> float:
        return nbytes / self.pio_read_mbps


class Cpu:
    """Charges :class:`CostModel` costs as virtual time on one host.

    Cores are assumed plentiful (the paper's i7 runs the application thread
    and the NTB service thread on separate cores), so concurrent charges do
    not serialize against each other; only explicitly shared stages (the
    memory port, links, DMA engines) contend.
    """

    def __init__(self, env: Environment, cost: CostModel, name: str = "cpu"):
        self.env = env
        self.cost = cost
        self.name = name
        #: accumulated busy microseconds (diagnostics)
        self.busy_us = 0.0

    def _charge(self, duration: float) -> Generator:
        if duration > 0:
            self.busy_us += duration
            yield self.env.timeout(duration)

    # -- copies ------------------------------------------------------------------
    def local_memcpy(self, nbytes: int) -> Generator:
        """Cached local copy."""
        yield from self._charge(self.cost.local_memcpy_us(nbytes))

    def pio_write(self, nbytes: int) -> Generator:
        """Store loop into a write-combined MMIO window."""
        yield from self._charge(self.cost.pio_write_us(nbytes))

    def pio_read(self, nbytes: int) -> Generator:
        """Load loop from an uncached MMIO window."""
        yield from self._charge(self.cost.pio_read_us(nbytes))

    # -- register / driver ops -------------------------------------------------------
    def mmio_reg_write(self) -> Generator:
        yield from self._charge(self.cost.mmio_reg_write_us)

    def mmio_reg_read(self) -> Generator:
        yield from self._charge(self.cost.mmio_reg_read_us)

    def mmio_reg_block(self, count: int, read: bool) -> Generator:
        """``count`` back-to-back register reads (or posted writes) of one
        process, charged from this one frame.

        Still one charge — one event — per register.  A single ``Timeout``
        at the end instant would enter the queue when the *block* starts,
        not when its last register does, so it sorts ahead of any event
        pushed in between that is due at that very instant: same-instant
        ties re-order (docs/SIMULATOR.md, "Events that do no work").
        """
        cost = (self.cost.mmio_reg_read_us if read
                else self.cost.mmio_reg_write_us)
        if cost > 0:
            timeout = self.env.timeout
            for _ in range(count):
                self.busy_us += cost
                yield timeout(cost)

    def dma_submit(self) -> Generator:
        yield from self._charge(self.cost.dma_submit_us)

    def thread_wake(self) -> Generator:
        yield from self._charge(self.cost.thread_wake_us)

    def isr_entry(self) -> Generator:
        yield from self._charge(self.cost.isr_entry_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cpu {self.name} busy={self.busy_us:.1f}us>"
