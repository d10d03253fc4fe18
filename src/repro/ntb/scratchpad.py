"""ScratchPad registers: the NTB link's shared 32-bit mailbox file.

Per §II-A/§III-A of the paper: each NTB port pair shares **eight 32-bit
ScratchPad registers**; a value written on one side is directly readable on
the other.  The OpenSHMEM runtime uses them for the host-ID / window-offset
handshake during ``shmem_init`` and to carry per-transfer metadata
(SrcId, DestId, symmetric index, offset, size) alongside doorbell interrupts.

The register file itself is passive state shared by the two endpoints of a
cable; access *timing* (a PIO read/write across PCIe) is charged by the
driver layer.  A change :class:`~repro.sim.Signal` lets polling-free models
wait for updates in tests.
"""

from __future__ import annotations

from typing import Sequence

from ..sim import Environment, Signal

__all__ = [
    "ScratchpadError",
    "ScratchpadFile",
    "NUM_SCRATCHPADS",
    "LINK_MGMT_SPAD_BASE",
    "TOTAL_SCRATCHPADS",
]

NUM_SCRATCHPADS = 8

#: PEX87xx parts expose a second bank of eight link-management scratchpads
#: beyond the first data bank.  The OpenSHMEM mailboxes own registers
#: 0..7; the heartbeat/link-watchdog machinery owns 8..15, so the two can
#: share a cable without colliding.
LINK_MGMT_SPAD_BASE = NUM_SCRATCHPADS
TOTAL_SCRATCHPADS = 2 * NUM_SCRATCHPADS


class ScratchpadError(Exception):
    """Bad scratchpad index or value."""


class ScratchpadFile:
    """The shared 8 x 32-bit register file of one NTB link.

    Both connected endpoints hold a reference to the *same* instance —
    that is the non-transparent sharing the hardware provides.
    """

    def __init__(self, env: Environment, name: str = "spad",
                 count: int = NUM_SCRATCHPADS):
        if count < 1:
            raise ScratchpadError(f"need at least one register, got {count}")
        self.env = env
        self.name = name
        self.count = count
        self._regs = [0] * count
        self.changed = Signal(env, name=f"{name}.changed")
        #: lifetime write count (diagnostics)
        self.write_count = 0
        #: optional access probe ``probe(key, is_write)`` — ShmemCheck
        #: installs one to build per-step footprints for DPOR; None (the
        #: default) costs a single attribute test per access.
        self.probe = None

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.count):
            raise ScratchpadError(
                f"{self.name}: register index {index} outside 0..{self.count - 1}"
            )

    def read(self, index: int) -> int:
        self._check_index(index)
        if self.probe is not None:
            self.probe(("spad", self.name, index), False)
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._check_index(index)
        if not isinstance(value, int):
            raise ScratchpadError(f"{self.name}: non-integer value {value!r}")
        if self.probe is not None:
            self.probe(("spad", self.name, index), True)
        self._regs[index] = value & 0xFFFFFFFF
        self.write_count += 1
        if self.changed.has_waiters:
            self.changed.fire((index, self._regs[index]))

    def read_all(self) -> tuple[int, ...]:
        if self.probe is not None:
            for index in range(self.count):
                self.probe(("spad", self.name, index), False)
        return tuple(self._regs)

    def write_block(self, start: int, values: Sequence[int]) -> None:
        """Write consecutive registers (transfer-info record)."""
        if start < 0 or start + len(values) > self.count:
            raise ScratchpadError(
                f"{self.name}: block [{start}, {start + len(values)}) "
                f"outside register file"
            )
        for offset, value in enumerate(values):
            self.write(start + offset, value)

    def read_block(self, start: int, count: int) -> tuple[int, ...]:
        if start < 0 or start + count > self.count:
            raise ScratchpadError(
                f"{self.name}: block [{start}, {start + count}) "
                f"outside register file"
            )
        if self.probe is not None:
            for index in range(start, start + count):
                self.probe(("spad", self.name, index), False)
        return tuple(self._regs[start:start + count])

    def clear(self) -> None:
        for index in range(self.count):
            if self.probe is not None:
                self.probe(("spad", self.name, index), True)
            self._regs[index] = 0
        if self.changed.has_waiters:
            self.changed.fire(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ScratchpadFile {self.name} regs={self._regs}>"
