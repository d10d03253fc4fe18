"""Virtual address spaces: contiguous virtual ranges over scattered pages.

The paper's symmetric heap (§III-B.2, Fig. 3a) is built from fixed-size
chunks obtained via anonymous ``mmap`` and *virtually concatenated*: the
user-level addresses are contiguous while the backing physical memory is
scattered.  This module models exactly that:

* :class:`VirtualAddressSpace` — per-process mapping of contiguous virtual
  ranges onto physical extents of a :class:`~repro.memory.address_space.PhysicalMemory`.
* :meth:`VirtualAddressSpace.phys_segments` — the segment walk used by the
  DMA engine: a virtually contiguous transfer from paged memory fragments
  into one DMA descriptor **per physical page**, which is the mechanism
  behind the OpenSHMEM Put bandwidth ceiling relative to the raw NTB rate
  (DESIGN.md §5).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .address_space import AccessFault, PhysicalMemory

__all__ = ["Mapping", "PhysSegment", "VirtualAddressSpace"]

DEFAULT_PAGE_SIZE = 4096


@dataclass(frozen=True)
class Mapping:
    """One contiguous virtual range backed by one contiguous physical extent."""

    virt_base: int
    phys_base: int
    size: int

    @property
    def virt_end(self) -> int:
        return self.virt_base + self.size

    def translate(self, virt: int) -> int:
        if not (self.virt_base <= virt < self.virt_end):
            raise AccessFault(f"virt {virt:#x} outside mapping {self}")
        return self.phys_base + (virt - self.virt_base)


@dataclass(frozen=True)
class PhysSegment:
    """A physically contiguous piece of a virtual transfer."""

    phys_addr: int
    nbytes: int


class VirtualAddressSpace:
    """Sorted, non-overlapping set of :class:`Mapping` ranges.

    Translation faults raise :class:`AccessFault` — unmapped access is a
    model bug, never silent.
    """

    def __init__(self, memory: PhysicalMemory, name: str = "vas",
                 page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 1 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.memory = memory
        self.name = name
        self.page_size = page_size
        self._mappings: list[Mapping] = []  # sorted by virt_base
        self._virt_bases: list[int] = []

    # -- mapping management -----------------------------------------------------
    def map(self, virt_base: int, phys_base: int, size: int) -> Mapping:
        """Install a mapping; rejects any virtual overlap."""
        if size <= 0:
            raise ValueError(f"mapping size must be positive, got {size}")
        if phys_base < 0 or phys_base + size > self.memory.size:
            raise AccessFault(
                f"{self.name}: physical extent [{phys_base:#x}, "
                f"{phys_base + size:#x}) outside {self.memory.name}"
            )
        mapping = Mapping(virt_base, phys_base, size)
        idx = bisect_right(self._virt_bases, virt_base)
        if idx > 0:
            prev = self._mappings[idx - 1]
            if prev.virt_end > virt_base:
                raise AccessFault(
                    f"{self.name}: mapping at {virt_base:#x} overlaps {prev}"
                )
        if idx < len(self._mappings):
            nxt = self._mappings[idx]
            if mapping.virt_end > nxt.virt_base:
                raise AccessFault(
                    f"{self.name}: mapping at {virt_base:#x} overlaps {nxt}"
                )
        self._mappings.insert(idx, mapping)
        self._virt_bases.insert(idx, virt_base)
        return mapping

    def unmap(self, virt_base: int) -> Mapping:
        idx = bisect_right(self._virt_bases, virt_base) - 1
        if idx < 0 or self._mappings[idx].virt_base != virt_base:
            raise AccessFault(f"{self.name}: no mapping at {virt_base:#x}")
        self._virt_bases.pop(idx)
        return self._mappings.pop(idx)

    def _find(self, virt: int) -> Mapping:
        idx = bisect_right(self._virt_bases, virt) - 1
        if idx < 0:
            raise AccessFault(f"{self.name}: unmapped virt {virt:#x}")
        mapping = self._mappings[idx]
        if virt >= mapping.virt_end:
            raise AccessFault(f"{self.name}: unmapped virt {virt:#x}")
        return mapping

    # -- translation ---------------------------------------------------------------
    def translate(self, virt: int) -> int:
        """Virtual byte address -> physical byte address."""
        return self._find(virt).translate(virt)

    def extents(self, virt: int, nbytes: int) -> Iterator[PhysSegment]:
        """Walk ``[virt, virt+nbytes)`` yielding physically contiguous
        extents (split only at mapping boundaries)."""
        remaining = nbytes
        cursor = virt
        while remaining > 0:
            mapping = self._find(cursor)
            take = min(remaining, mapping.virt_end - cursor)
            yield PhysSegment(mapping.translate(cursor), take)
            cursor += take
            remaining -= take

    def phys_segments(self, virt: int, nbytes: int) -> Iterator[PhysSegment]:
        """Like :meth:`extents` but additionally split at page boundaries.

        This is the scatter/gather list a DMA engine would be given for
        paged (non-pinned) user memory: one descriptor per page.
        """
        for ext in self.extents(virt, nbytes):
            addr, left = ext.phys_addr, ext.nbytes
            while left > 0:
                page_end = (addr // self.page_size + 1) * self.page_size
                take = min(left, page_end - addr)
                yield PhysSegment(addr, take)
                addr += take
                left -= take

    # -- data access ------------------------------------------------------------------
    def read(self, virt: int, nbytes: int) -> np.ndarray:
        """Gather a copy of virtually contiguous bytes."""
        out = np.empty(nbytes, dtype=np.uint8)
        offset = 0
        for seg in self.extents(virt, nbytes):
            out[offset:offset + seg.nbytes] = self.memory.view(
                seg.phys_addr, seg.nbytes
            )
            offset += seg.nbytes
        return out

    def write(self, virt: int, data: bytes | bytearray | np.ndarray) -> int:
        """Scatter bytes into a virtually contiguous range."""
        buf = np.frombuffer(memoryview(data), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else data.view(np.uint8).reshape(-1)
        offset = 0
        for seg in self.extents(virt, buf.size):
            self.memory.write(seg.phys_addr, buf[offset:offset + seg.nbytes])
            offset += seg.nbytes
        return buf.size

    def is_mapped(self, virt: int, nbytes: int = 1) -> bool:
        try:
            for _seg in self.extents(virt, nbytes):
                pass
            return True
        except AccessFault:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualAddressSpace {self.name} mappings={len(self._mappings)}>"
