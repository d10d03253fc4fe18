"""PCIe substrate: TLP framing, link timing, config space."""

from .config import (
    BarKind,
    BarRegister,
    ConfigSpace,
    Type0Header,
)
from .link import DuplexLink, Link, LinkConfig
from .tlp import (
    Tlp,
    TlpOverhead,
    TlpType,
    segment_payload,
    tlp_wire_bytes,
    transfer_wire_bytes,
)

__all__ = [
    "BarKind",
    "BarRegister",
    "ConfigSpace",
    "Type0Header",
    "DuplexLink",
    "Link",
    "LinkConfig",
    "Tlp",
    "TlpOverhead",
    "TlpType",
    "segment_payload",
    "tlp_wire_bytes",
    "transfer_wire_bytes",
]
