"""Runtime configuration and the requester-side pending-reply record.

:class:`ShmemConfig` is the one bag of runtime shape knobs (validated at
construction; its ``fastpath`` field takes a :class:`FastpathConfig`, the
opt-in fastpath plane defined in :mod:`.fastpath`); :class:`PendingReply`
is what a PE keeps per outstanding Get chunk or atomic until the reply
lands.  ``ShmemConfig`` is re-exported from :mod:`repro.core.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..fabric import HeartbeatConfig, Route, RoutingPolicy
if TYPE_CHECKING:  # faults loads lazily: only runs configured with a plan
    from ..faults import FaultPlan  # noqa: F401
from ..sim import Event
from .fastpath import FastpathConfig
from .heap import HeapConfig
from .transfer import Mode

__all__ = ["ShmemConfig", "PendingReply"]


@dataclass(frozen=True)
class ShmemConfig:
    """Runtime shape knobs (defaults per DESIGN.md §5/§6).

    Attributes
    ----------
    rx_data_size:
        Incoming data-window buffer; also the max single Put message.
    fwd_chunk:
        Store-and-forward chunk (bypass slot payload size).
    bypass_slots:
        Bypass slots per link direction: outstanding forwarded chunks on
        the default plane (stop-and-wait), the credit pool of cut-through
        forwarding on the fastpath.  None means 2 on the default plane
        and 8 on the fastpath; ``__post_init__`` resolves it, so readers
        always see an int.
    get_chunk:
        Get-response chunk; each chunk pays a full interrupt handshake,
        which is what throttles Get throughput (Fig. 9(b)/(d)).
    routing:
        Which router resolves routes: a :class:`RoutingPolicy` member or
        its value (``"fixed_right"`` — the paper's rule — ``"shortest"``,
        ``"dimension_order"``, ``"adaptive"``).  None is the fabric
        default, from the shape: FIXED_RIGHT on one wrapped axis (a ring
        or a 1-D torus), dimension-order everywhere else.  The two 1-D
        policies raise on multi-axis grids.
    barrier:
        "ring", "dissemination", or "centralized".  "ring" (the default)
        means the fabric's doorbell-token barrier, ``TokenBarrier``,
        whose schedule the resolved router picks: the paper's Fig. 6
        sweep under FIXED_RIGHT on a ring or 1-D torus, neighbour token
        rounds axis by axis under SHORTEST and dimension-order, a flood
        under the adaptive router.
    default_mode:
        DMA or MEMCPY for user puts and gets when the caller does not
        specify; either forces that engine on both planes.  None (the
        default) lets the plane decide: DMA on the paper-faithful plane;
        on the fastpath, each op takes the engine the closed form
        (``transfer.cheaper_mode``) charges less, a put for its size and
        source pages, a get for one response chunk read back through the
        uncached window (memcpy below 696 B).  The runtime's own small words
        (AMO operand and reply, ``put_signal``'s signal) ignore it and
        always go by memcpy.
    """

    heap: HeapConfig = field(default_factory=HeapConfig)
    rx_data_size: int = 1024 * 1024
    fwd_chunk: int = 64 * 1024
    bypass_slots: Optional[int] = None
    get_chunk: int = 8 * 1024
    routing: Optional[RoutingPolicy] = None
    barrier: str = "ring"
    default_mode: Optional[Mode] = None
    #: Optional deadline for every remote wait (Get/AMO replies, barrier
    #: tokens and notifications): a wait that outlasts it counts one
    #: ``wait_timeouts`` and raises PeerUnreachableError (None = no
    #: deadline).  Setting it also makes the runtime fault-aware.
    reply_timeout_us: Optional[float] = None
    #: ShmemSan race detection: None (off), "strict" (raise RaceError at
    #: the second unordered access), or "report" (accumulate RaceReports).
    sanitize: Optional[str] = None
    #: Shadow-state cell size in bytes (smaller = more precise, more
    #: memory).  Accesses are checked per cell, so two PEs touching
    #: different fields of the same cell can be conservatively flagged.
    sanitize_granularity: int = 8
    #: ShmemScope span tracing (repro.obsv): record a causal span tree
    #: per operation.  Zero virtual-time cost; off by default.
    trace_spans: bool = False
    #: Deterministic fault-injection plan (repro.faults); a non-empty
    #: plan auto-enables the heartbeat failure detector.
    faults: Optional[FaultPlan] = None
    #: Heartbeat failure-detector knobs; None = detector off unless a
    #: fault plan demands it.
    heartbeat: Optional[HeartbeatConfig] = None
    #: Send-side retries per Put/Get chunk (and per AMO round trip, under
    #: its one request id) before a dead path surfaces as
    #: PeerUnreachableError.
    max_retries: int = 2
    #: First retry backoff (doubles per attempt).
    retry_backoff_us: float = 50.0
    #: Opt-in optimized data plane (docs/FASTPATH.md): interrupt
    #: coalescing, chained-descriptor DMA, cut-through forwarding and
    #: inline small messages.  None (the default) keeps the runtime
    #: byte-identical in virtual time to the paper-faithful stack.
    fastpath: Optional[FastpathConfig] = None
    #: Virtual-time metrics sampling period (repro.obsv.metrics): the
    #: cluster's MetricsTicker snapshots every instrument into a ring-
    #: buffered time series each period.  The fabric itself (counters,
    #: gauges, histograms) is always on; only the sampler is opt-in
    #: because its tick events must be stopped for quiescence runs.
    metrics_window_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rx_data_size < 4096:
            raise ValueError("rx_data_size too small")
        if self.fwd_chunk < 1024:
            raise ValueError("fwd_chunk too small")
        if self.get_chunk < 512:
            raise ValueError("get_chunk too small")
        if self.barrier not in ("ring", "dissemination", "centralized"):
            raise ValueError(f"unknown barrier strategy {self.barrier!r}")
        if self.routing is not None:  # accept the value spelling too
            object.__setattr__(self, "routing", RoutingPolicy(self.routing))
        if self.sanitize not in (None, "strict", "report"):
            raise ValueError(
                f"sanitize must be None, 'strict' or 'report', "
                f"got {self.sanitize!r}"
            )
        if self.sanitize_granularity < 1:
            raise ValueError("sanitize_granularity must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_us < 0:
            raise ValueError("retry_backoff_us must be >= 0")
        if self.metrics_window_us is not None and self.metrics_window_us <= 0:
            raise ValueError("metrics_window_us must be positive")
        if self.fastpath is not None \
                and not isinstance(self.fastpath, FastpathConfig):
            raise ValueError(
                f"fastpath must be a FastpathConfig or None, "
                f"got {type(self.fastpath).__name__}"
            )
        if self.bypass_slots is None:
            object.__setattr__(self, "bypass_slots",
                               2 if self.fastpath is None else 8)
        if not (1 <= self.bypass_slots <= 64):
            raise ValueError("bypass_slots must be in 1..64")


@dataclass
class PendingReply:
    """Requester-side state for one outstanding Get chunk or atomic."""

    req_id: int
    #: "get" or "amo": which response answers it, and its name in errors.
    what: str
    done: Event
    #: target PE and the request's whole path, so a link-death handler
    #: can tell which pending requests just lost it.
    pe: int
    route: Route
    #: Get only: where response chunks land and how many bytes are in.
    dest_virt: int = 0
    nbytes: int = 0
    mode: Optional[Mode] = None
    received: int = 0
