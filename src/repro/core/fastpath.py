"""The fastpath levers as data: :class:`FastpathConfig`.

Only the knobs live here.  What they switch on are branches of the one
runtime, not a second one (docs/FASTPATH.md): the poll window and the
cut-through / ordered-ack branch in :mod:`.service`, the pinned staging +
chained DMA and the inline slot header in :mod:`.transfer`, the inline and
streaming-Get choices in :mod:`.runtime`.  ``ShmemConfig.fastpath`` holds
one of these or ``None``; import it as ``from repro.core import
FastpathConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transfer import INLINE_MAX_BYTES

__all__ = ["FastpathConfig"]


@dataclass(frozen=True)
class FastpathConfig:
    """Knobs for the optimized data plane (all levers individually
    ablatable; see docs/FASTPATH.md and the ``--compare-fastpath`` bench).

    Attributes
    ----------
    coalesce:
        Adaptive polling in the service thread (lever 1).
    chain_dma:
        Pinned staging + chained-descriptor DMA for paged sources
        (lever 2).
    cut_through:
        Zero-copy forwarding with deferred ACKs (lever 3).
    credit_slots:
        Bypass slots per link direction under fastpath — the credit pool
        that replaces the baseline's two-slot stop-and-wait.
    inline_max:
        Inline Puts/AMO operands up to this many bytes in the slot
        header (lever 4); 0 disables inlining.  Capped by the wire
        format at :data:`~repro.core.transfer.INLINE_MAX_BYTES`.
    streaming_get:
        One GET_REQ per Get (owner streams all chunks) instead of one
        request round trip per ``get_chunk``.
    """

    coalesce: bool = True
    chain_dma: bool = True
    cut_through: bool = True
    credit_slots: int = 8
    inline_max: int = INLINE_MAX_BYTES
    streaming_get: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.credit_slots <= 64):
            raise ValueError("credit_slots must be in 1..64")
        if not (0 <= self.inline_max <= INLINE_MAX_BYTES):
            raise ValueError(
                f"inline_max must be in 0..{INLINE_MAX_BYTES} "
                f"(wire-format ceiling), got {self.inline_max}"
            )
