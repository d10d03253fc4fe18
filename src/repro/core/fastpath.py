"""The fastpath plane's one knob: :class:`FastpathConfig`.

``ShmemConfig.fastpath`` holds one of these or ``None``.  Setting it
switches on every mechanism of the optimized data plane at once — they
are branches of the one runtime, not a second one (docs/FASTPATH.md):
the poll window (coalesced wakes) and the cut-through / ordered-ack
branch and the inline replies in :mod:`.service`, the pinned staging +
chained DMA and the inline slot header in :mod:`.transfer`, the bypass
channel for control messages, relays and Get responses in
:mod:`.links`, the inline, engine and streaming-Get choices in
:mod:`.runtime`.  Import it as ``from repro.core import
FastpathConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FastpathConfig"]


@dataclass(frozen=True)
class FastpathConfig:
    """The optimized data plane (docs/FASTPATH.md and the
    ``--compare-fastpath`` bench).  It has no fields: its presence is the
    switch.  The credit pool of cut-through forwarding is
    ``ShmemConfig.bypass_slots``, which defaults to 8 under it.
    """
