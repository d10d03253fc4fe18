"""The fastpath plane's one knob: :class:`FastpathConfig`.

``ShmemConfig.fastpath`` holds one of these or ``None``.  Setting it
switches on every mechanism of the optimized data plane at once — they
are branches of the one runtime, not a second one (docs/FASTPATH.md):
the poll window (coalesced wakes) and the cut-through / ordered-ack
branch in :mod:`.service`, the pinned staging + chained DMA and the
inline slot header in :mod:`.transfer`, the inline and streaming-Get
choices in :mod:`.runtime`.  Import it as ``from repro.core import
FastpathConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FastpathConfig"]


@dataclass(frozen=True)
class FastpathConfig:
    """The optimized data plane (docs/FASTPATH.md and the
    ``--compare-fastpath`` bench).

    Attributes
    ----------
    credit_slots:
        Bypass slots per link direction under fastpath — the credit pool
        that replaces the baseline's two-slot stop-and-wait.
    """

    credit_slots: int = 8

    def __post_init__(self) -> None:
        if not (1 <= self.credit_slots <= 64):
            raise ValueError("credit_slots must be in 1..64")
