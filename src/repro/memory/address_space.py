"""Physical memory model: a flat byte-addressable space backed by NumPy.

Each simulated host owns one :class:`PhysicalMemory`.  Every data movement in
the reproduction — CPU memcpy, PIO through an NTB window, DMA transfers —
ultimately lands here, so data-integrity properties of the OpenSHMEM layer
are checked against real bytes, not placeholders.

Addresses are plain integers (byte offsets).  Reads return *copies* by
default; in-place views are available for zero-copy fast paths where the
caller guarantees it will not alias (mirrors the guide's "views, not copies"
advice while keeping correctness-by-default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["MemoryError_", "AccessFault", "Region", "PhysicalMemory"]

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]


class MemoryError_(Exception):
    """Base class for memory-model errors (named to avoid shadowing the
    builtin ``MemoryError``)."""


class AccessFault(MemoryError_):
    """Out-of-bounds or overlapping-region access."""


@dataclass(frozen=True)
class Region:
    """A named, half-open address range ``[base, base + size)``."""

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size < 0:
            raise ValueError(f"negative base/size in region {self.name!r}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.end

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.end and other.base < self.end

    def offset_of(self, addr: int) -> int:
        if not self.contains(addr):
            raise AccessFault(
                f"address {addr:#x} outside region {self.name!r} "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Region {self.name} [{self.base:#x}, {self.end:#x})>"


class PhysicalMemory:
    """Flat byte-addressable physical memory with named carve-out regions.

    Parameters
    ----------
    size:
        Total bytes of DRAM modelled.
    name:
        Owner label used in fault messages (e.g. ``"host0.dram"``).
    fill:
        Initial byte value; a non-zero poison value helps tests catch reads
        of never-written memory.
    """

    def __init__(self, size: int, name: str = "dram", fill: int = 0):
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.name = name
        self.size = size
        # np.zeros is calloc-backed (lazy pages) — meaningfully faster for
        # the default fill when simulating many multi-hundred-MB hosts.
        self._data = np.zeros(size, dtype=np.uint8) if fill == 0 \
            else np.full(size, fill, dtype=np.uint8)
        self._regions: dict[str, Region] = {}
        #: optional access probe installed by analysis tooling; receives
        #: ``(("mem", name, page), is_write)`` per 4 KiB page touched.
        #: ``None`` (the default) costs one attribute test per access.
        self.probe = None

    # -- region bookkeeping ---------------------------------------------------
    def add_region(self, name: str, base: int, size: int,
                   allow_overlap: bool = False) -> Region:
        """Register a named carve-out; rejects overlaps unless allowed."""
        region = Region(name, base, size)
        if region.end > self.size:
            raise AccessFault(
                f"region {name!r} [{base:#x}, {region.end:#x}) exceeds "
                f"{self.name} size {self.size:#x}"
            )
        if name in self._regions:
            raise MemoryError_(f"duplicate region name {name!r}")
        if not allow_overlap:
            for other in self._regions.values():
                if region.overlaps(other):
                    raise AccessFault(
                        f"region {name!r} overlaps {other.name!r}"
                    )
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryError_(
                f"{self.name} has no region named {name!r}"
            ) from None

    # -- raw access ------------------------------------------------------------
    def _probe_range(self, addr: int, nbytes: int, is_write: bool) -> None:
        probe = self.probe
        if probe is None or nbytes <= 0:
            return
        for page in range(addr >> 12, ((addr + nbytes - 1) >> 12) + 1):
            probe(("mem", self.name, page), is_write)

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise AccessFault(
                f"{self.name}: access [{addr:#x}, {addr + nbytes:#x}) "
                f"outside [0, {self.size:#x})"
            )

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` starting at ``addr`` (uint8 array)."""
        self._check(addr, nbytes)
        self._probe_range(addr, nbytes, False)
        return self._data[addr:addr + nbytes].copy()

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self._check(addr, nbytes)
        self._probe_range(addr, nbytes, False)
        return self._data[addr:addr + nbytes].tobytes()

    def write(self, addr: int, data: BytesLike) -> int:
        """Write ``data`` at ``addr``; returns number of bytes written."""
        buf = np.frombuffer(memoryview(data), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else data.view(np.uint8).reshape(-1)
        nbytes = buf.size
        self._check(addr, nbytes)
        self._probe_range(addr, nbytes, True)
        self._data[addr:addr + nbytes] = buf
        return nbytes

    def fill(self, addr: int, nbytes: int, value: int) -> None:
        self._check(addr, nbytes)
        self._probe_range(addr, nbytes, True)
        self._data[addr:addr + nbytes] = np.uint8(value)

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """Zero-copy mutable view (caller must not hold across resizes)."""
        self._check(addr, nbytes)
        # A mutable view may be written through: treat as a write.
        self._probe_range(addr, nbytes, True)
        return self._data[addr:addr + nbytes]

    # -- typed helpers (register-style accesses) -------------------------------
    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        self._probe_range(addr, 4, False)
        return int(self._data[addr:addr + 4].view(np.uint32)[0])

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self._probe_range(addr, 4, True)
        self._data[addr:addr + 4].view(np.uint32)[0] = np.uint32(value & 0xFFFFFFFF)

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        self._probe_range(addr, 8, False)
        return int(self._data[addr:addr + 8].view(np.uint64)[0])

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        self._probe_range(addr, 8, True)
        self._data[addr:addr + 8].view(np.uint64)[0] = np.uint64(value)

    def copy_within(self, src: int, dst: int, nbytes: int) -> None:
        """memmove-style local copy handling overlap correctly."""
        self._check(src, nbytes)
        self._check(dst, nbytes)
        self._probe_range(src, nbytes, False)
        self._probe_range(dst, nbytes, True)
        chunk = self._data[src:src + nbytes].copy()
        self._data[dst:dst + nbytes] = chunk

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhysicalMemory {self.name} size={self.size:#x} " \
               f"regions={len(self._regions)}>"


def copy_between(src_mem: PhysicalMemory, src_addr: int,
                 dst_mem: PhysicalMemory, dst_addr: int,
                 nbytes: int) -> None:
    """Functional data movement between two physical memories.

    Timing is *not* modelled here — link/DMA/CPU models charge virtual time
    and then call this to realize the bytes.
    """
    dst_mem.write(dst_addr, src_mem.view(src_addr, nbytes))
