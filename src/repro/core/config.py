"""Runtime configuration and the requester-side pending-reply record.

:class:`ShmemConfig` is the one bag of runtime shape knobs (validated at
construction; its ``fastpath`` field takes a :class:`FastpathConfig`, the
opt-in lever sub-bag defined in :mod:`.fastpath`); :class:`PendingReply`
is what a PE keeps per outstanding Get chunk or atomic until the reply
lands.  ``ShmemConfig`` is re-exported from :mod:`repro.core.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..fabric import HeartbeatConfig, RoutingPolicy
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
        Outstanding forwarded chunks per link direction (ablation knob).
    get_chunk:
        Get-response chunk; each chunk pays a full interrupt handshake,
        which is what throttles Get throughput (Fig. 9(b)/(d)).
    routing:
        Which router resolves routes: a :class:`RoutingPolicy` member or
        its value (``"fixed_right"`` — the paper's rule — ``"shortest"``,
        ``"dimension_order"``, ``"adaptive"``).  None is the fabric
        default: FIXED_RIGHT on ring/chain, dimension-order on
        mesh/torus.  The two 1-D policies raise on multi-axis grids.
    barrier:
        "ring", "dissemination", or "centralized".  "ring" (the default)
        means the fabric's token barrier where one exists: the paper's
        Fig. 6 ring barrier on a ring, the chain sweep on a chain — and,
        silently, dissemination on a mesh/torus, which circulates no
        token (``topology.kind`` decides, see ``make_barrier``).
    default_mode:
        DMA or MEMCPY when the caller does not specify.
    """

    heap: HeapConfig = field(default_factory=HeapConfig)
    rx_data_size: int = 1024 * 1024
    fwd_chunk: int = 64 * 1024
    bypass_slots: int = 2
    get_chunk: int = 8 * 1024
    routing: Optional[RoutingPolicy] = None
    barrier: str = "ring"
    default_mode: Mode = Mode.DMA
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
    #: Send-side retries per Put/Get chunk (and per AMO request) before a
    #: dead path surfaces as PeerUnreachableError.
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
        if not (1 <= self.bypass_slots <= 64):
            raise ValueError("bypass_slots must be in 1..64")
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


@dataclass
class PendingReply:
    """Requester-side state for one outstanding Get chunk or atomic."""

    req_id: int
    #: "get" or "amo": which response answers it, and its name in errors.
    what: str
    done: Event
    #: target PE and route at issue time, so a link-death handler can
    #: tell which pending requests just lost their path.
    pe: int
    direction: str
    hops: int
    #: Get only: where response chunks land and how many bytes are in.
    dest_virt: int = 0
    nbytes: int = 0
    mode: Optional[Mode] = None
    received: int = 0
