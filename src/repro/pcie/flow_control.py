"""Credit-based flow control for the PCIe data link layer.

PCIe receivers advertise header and payload-data credits per traffic class;
a transmitter may only emit a TLP when both a header credit and enough data
credits (one per 16-byte unit) are available.  Credits return when the
receiver drains its buffer.

In this reproduction flow control matters in one place: when a store-and-
forward host stalls (its service thread busy), credits on the incoming link
exhaust and back-pressure propagates to the sender — which is visible in
the ring-simultaneous curves of Fig. 8 and in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..sim import Environment, Event, SimulationError

__all__ = ["CreditConfig", "CreditPool"]

#: PCIe data credits are granted in 16-byte units.
CREDIT_UNIT_BYTES = 16


@dataclass(frozen=True)
class CreditConfig:
    """Advertised receiver credits (posted-write path only; the model does
    not distinguish non-posted/completion pools since the NTB data path is
    dominated by posted memory writes)."""

    header_credits: int = 64
    data_credits: int = 1024  # x16 bytes => 16 KiB of buffering

    def __post_init__(self) -> None:
        if self.header_credits < 1 or self.data_credits < 1:
            raise ValueError("credit counts must be >= 1")

    @property
    def buffer_bytes(self) -> int:
        return self.data_credits * CREDIT_UNIT_BYTES


class CreditPool:
    """Counting credit pool with FIFO waiters.

    ``acquire`` is a process generator that blocks until the requested
    credits are available (``claim`` is the same for a caller that runs
    as event callbacks); ``release`` returns them (typically from the
    receiver's drain process).
    """

    def __init__(self, env: Environment, config: CreditConfig,
                 name: str = "credits"):
        self.env = env
        self.config = config
        self.name = name
        self._headers = config.header_credits
        self._data = config.data_credits
        self._waiters: list[tuple[int, int, Event]] = []
        #: number of times a transmitter had to wait (diagnostics)
        self.stall_count = 0

    @staticmethod
    def data_credits_for(nbytes: int) -> int:
        return (nbytes + CREDIT_UNIT_BYTES - 1) // CREDIT_UNIT_BYTES

    @property
    def available_headers(self) -> int:
        return self._headers

    @property
    def available_data(self) -> int:
        return self._data

    def _can_grant(self, headers: int, data: int) -> bool:
        return self._headers >= headers and self._data >= data

    def acquire(self, headers: int, nbytes: int) -> Generator:
        """Block until ``headers`` header credits and credits for
        ``nbytes`` of payload are granted (process generator)."""
        stall = self.claim(headers, nbytes)
        if stall is not None:
            yield stall

    def claim(self, headers: int, nbytes: int) -> Optional[Event]:
        """Take the credits now, or queue for them: ``None`` when granted
        at once, else the event that triggers when they are."""
        data = self.data_credits_for(nbytes)
        if headers > self.config.header_credits or data > self.config.data_credits:
            raise SimulationError(
                f"{self.name}: request ({headers}h/{data}d) exceeds the "
                f"advertised pool ({self.config.header_credits}h/"
                f"{self.config.data_credits}d) and can never be granted"
            )
        if not self._waiters and self._can_grant(headers, data):
            self._headers -= headers
            self._data -= data
            return None
        self.stall_count += 1
        evt = self.env.event()
        self._waiters.append((headers, data, evt))
        return evt

    def release(self, headers: int, nbytes: int) -> None:
        """Return credits and serve queued waiters in FIFO order."""
        data = self.data_credits_for(nbytes)
        self._headers += headers
        self._data += data
        if self._headers > self.config.header_credits or \
                self._data > self.config.data_credits:
            raise SimulationError(f"{self.name}: credit over-release")
        # Strict FIFO: only the head waiter may be admitted (prevents
        # starvation of large requests behind small ones).
        while self._waiters:
            headers_w, data_w, evt = self._waiters[0]
            if not self._can_grant(headers_w, data_w):
                break
            self._waiters.pop(0)
            self._headers -= headers_w
            self._data -= data_w
            evt.succeed()

    @property
    def queue_length(self) -> int:
        return len(self._waiters)
