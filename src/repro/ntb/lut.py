"""NTB requester-ID Look-Up Table (LUT).

§III-B.1 of the paper: device setup includes "write/read ID setup for LUT
entry mapping for NTB device identification".  On PEX87xx parts the LUT
maps requester IDs from the far side of the bridge onto local IDs so that
completions and DMA traffic are attributable to the correct source.

The reproduction uses the LUT for exactly that: each host registers its
host-ID with both of its NTB ports during ``shmem_init``, and the data path
validates that incoming transfers carry a requester ID that has a LUT entry
— an unconfigured link faults instead of silently passing traffic.
"""

from __future__ import annotations

__all__ = ["LutError", "LookupTable"]

DEFAULT_LUT_ENTRIES = 32


class LutError(Exception):
    """LUT full, duplicate entry, or lookup miss."""


class LookupTable:
    """Fixed-capacity requester-ID translation table."""

    def __init__(self, capacity: int = DEFAULT_LUT_ENTRIES, name: str = "lut"):
        if capacity < 1:
            raise LutError(f"LUT capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: dict[int, int] = {}  # remote requester id -> local id

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, remote_id: int, local_id: int) -> None:
        if remote_id in self._entries:
            if self._entries[remote_id] == local_id:
                return  # idempotent re-registration
            raise LutError(
                f"{self.name}: requester {remote_id:#x} already mapped to "
                f"{self._entries[remote_id]:#x}"
            )
        if len(self._entries) >= self.capacity:
            raise LutError(f"{self.name}: table full ({self.capacity} entries)")
        self._entries[remote_id] = local_id

    def remove(self, remote_id: int) -> None:
        if remote_id not in self._entries:
            raise LutError(f"{self.name}: no entry for requester {remote_id:#x}")
        del self._entries[remote_id]

    def lookup(self, remote_id: int) -> int:
        try:
            return self._entries[remote_id]
        except KeyError:
            raise LutError(
                f"{self.name}: lookup miss for requester {remote_id:#x} "
                "(link not configured?)"
            ) from None

    def contains(self, remote_id: int) -> bool:
        return remote_id in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LookupTable {self.name} {len(self._entries)}/{self.capacity}>"
