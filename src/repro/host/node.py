"""The host node: CPU, DRAM, virtual memory, interrupts and NTB adapters.

A :class:`Host` models one of the paper's Core-i7 boxes: local DRAM with a
shared memory/root-complex port, a CPU cost model, an MSI interrupt
controller, a virtual address space for user mappings, and one seated NTB
adapter per cabled topology port — "left"/"right" on the paper's ring, up
to six (``x-`` … ``z+``) on the mesh/torus fabrics of docs/TOPOLOGY.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..memory import (
    Allocation,
    PhysSegment,
    PhysicalMemory,
    RegionAllocator,
    VirtualAddressSpace,
)
from ..sim import BandwidthServer, Environment
from .cpu import CostModel, Cpu
from .interrupts import InterruptController

__all__ = ["HostConfig", "UserBuffer", "PinnedBuffer", "Host"]

#: Virtual base for user (application) mappings — keeps user virtual
#: addresses visibly distinct from physical ones in traces.
USER_VIRT_BASE = 0x7000_0000_0000

#: Gap left between consecutive user mappings (guard pages).
USER_VIRT_GAP = 1 << 20


@dataclass(frozen=True)
class HostConfig:
    """Static shape of one host."""

    memory_size: int = 256 * 1024 * 1024
    page_size: int = 4096
    #: user mmap chunks come from DRAM in pieces of this size, modelling the
    #: "actual size of memory allocation has a limit" fragmentation of
    #: §III-B.2 — virtually contiguous, physically scattered.
    mmap_fragment_size: int = 64 * 1024
    num_irq_vectors: int = 64

    def __post_init__(self) -> None:
        if self.memory_size < 1 << 20:
            raise ValueError("host memory unreasonably small")
        if self.page_size & (self.page_size - 1):
            raise ValueError("page size must be a power of two")
        if self.mmap_fragment_size % self.page_size:
            raise ValueError("mmap fragment size must be page-aligned")


@dataclass(frozen=True)
class UserBuffer:
    """A user allocation: virtually contiguous, physically scattered."""

    virt: int
    nbytes: int
    fragments: tuple[Allocation, ...]

    @property
    def virt_end(self) -> int:
        return self.virt + self.nbytes


@dataclass(frozen=True)
class PinnedBuffer:
    """A physically contiguous, DMA-able allocation (single SG segment)."""

    allocation: Allocation

    @property
    def phys(self) -> int:
        return self.allocation.base

    @property
    def nbytes(self) -> int:
        return self.allocation.size

    @property
    def segment(self) -> PhysSegment:
        return PhysSegment(self.phys, self.nbytes)


class Host:
    """One compute node of the switchless cluster."""

    def __init__(self, env: Environment, host_id: int,
                 config: Optional[HostConfig] = None,
                 cost_model: Optional[CostModel] = None):
        self.env = env
        self.host_id = host_id
        self.config = config or HostConfig()
        self.cost_model = cost_model or CostModel()
        self.name = f"host{host_id}"

        self.memory = PhysicalMemory(self.config.memory_size,
                                     name=f"{self.name}.dram")
        self.dram = RegionAllocator(
            0, self.config.memory_size,
            granularity=self.config.page_size,
            name=f"{self.name}.dram_alloc",
        )
        self.vas = VirtualAddressSpace(
            self.memory, name=f"{self.name}.vas",
            page_size=self.config.page_size,
        )
        self.cpu = Cpu(env, self.cost_model, name=f"{self.name}.cpu")
        self.memory_port = BandwidthServer(
            env, self.cost_model.memory_port_mbps, name=f"{self.name}.memport"
        )
        self.interrupts = InterruptController(
            env, self.cost_model.msi_delivery_us,
            num_vectors=self.config.num_irq_vectors,
            name=f"{self.name}.pic",
        )
        #: NTB drivers by side ("left"/"right"), installed by the fabric.
        self.adapters: dict[str, "object"] = {}
        self._virt_cursor = USER_VIRT_BASE

    # -- memory management ------------------------------------------------------
    def alloc_pinned(self, nbytes: int, alignment: int = 4096) -> PinnedBuffer:
        """Physically contiguous driver/DMA buffer (one SG segment)."""
        allocation = self.dram.alloc(nbytes, alignment=alignment)
        return PinnedBuffer(allocation)

    def free_pinned(self, buffer: PinnedBuffer) -> None:
        self.dram.free(buffer.allocation)

    def mmap(self, nbytes: int, at: Optional[int] = None) -> UserBuffer:
        """Anonymous user mapping: contiguous virtual range over scattered
        physical fragments (the paper's symmetric-heap building block).

        ``at`` pins the virtual base (MAP_FIXED-style) — the symmetric heap
        uses it to concatenate chunks virtually (§III-B.2 / Fig. 3a).
        """
        if nbytes <= 0:
            raise ValueError(f"mmap size must be positive, got {nbytes}")
        page = self.config.page_size
        frag = self.config.mmap_fragment_size
        total = -(-nbytes // page) * page  # round up to pages
        virt_base = self._virt_cursor if at is None else at
        fragments: list[Allocation] = []
        cursor = virt_base
        remaining = total
        try:
            while remaining > 0:
                take = min(frag, remaining)
                allocation = self.dram.alloc(take, alignment=page)
                self.vas.map(cursor, allocation.base, allocation.size)
                fragments.append(allocation)
                cursor += allocation.size
                remaining -= allocation.size
        except Exception:
            # Unwind partial mappings on allocation failure.
            unwind = virt_base
            for allocation in fragments:
                self.vas.unmap(unwind)
                self.dram.free(allocation)
                unwind += allocation.size
            raise
        if at is None:
            self._virt_cursor = cursor + USER_VIRT_GAP
        return UserBuffer(virt_base, total, tuple(fragments))

    def munmap(self, buffer: UserBuffer) -> None:
        cursor = buffer.virt
        for allocation in buffer.fragments:
            self.vas.unmap(cursor)
            self.dram.free(allocation)
            cursor += allocation.size

    def user_segments(self, virt: int, nbytes: int) -> list[PhysSegment]:
        """Page-granular SG list for a user range (what DMA gets)."""
        return list(self.vas.phys_segments(virt, nbytes))

    # -- data helpers -------------------------------------------------------------
    def write_user(self, virt: int, data: bytes | np.ndarray) -> None:
        self.vas.write(virt, data)

    def read_user(self, virt: int, nbytes: int) -> np.ndarray:
        return self.vas.read(virt, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Host {self.name} adapters={sorted(self.adapters)} "
            f"dram_used={self.dram.used_bytes}>"
        )
