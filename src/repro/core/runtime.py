"""Per-PE OpenSHMEM runtime state and app-side operations.

One :class:`ShmemRuntime` lives on each host (the paper runs one PE per
host).  It owns the symmetric heap, both link ends (mailboxes + receive
buffers), the service thread, pending-request tables and the barrier
strategy, and implements the app-facing halves of Put/Get/AMO.

Initialization follows §III-B.1's four steps:

1. NTB setup — window translation programming, LUT entries, DMA channel
   attach (done when the cluster cabled the endpoints) and the **host-ID /
   readiness handshake over ScratchPads**;
2. interrupt structure — doorbell IRQ registration for the four signals
   (DMAPUT, DMAGET, BARRIER_START, BARRIER_END) plus the protocol ACK
   bits;
3. bypass buffer allocation for store-and-forward;
4. service thread creation (:mod:`repro.core.service`).
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Callable, Generator, Hashable,
                    Iterator, Optional)

import numpy as np

from ..fabric import (
    Cluster,
    HeartbeatConfig,
    HeartbeatMonitor,
    NoRouteError,
    Route,
    make_router,
)
if TYPE_CHECKING:  # faults loads lazily: only runs configured with a plan
    from ..faults import FaultInjector  # noqa: F401
from ..host import Host
from ..ntb import LinkDownError
from ..obsv.metrics import MetricsRegistry, MetricsTicker, size_label
from ..obsv.spans import NULL_SCOPE, ShmemScope, instrument_cluster
from ..sim import Environment, Signal
from . import links, linkstate
from .config import PendingReply, ShmemConfig
from .errors import (
    BadPeError,
    NotInitializedError,
    PeerUnreachableError,
    ProtocolError,
    ShmemError,
    TransferError,
)
from .heap import SymAddr, SymmetricHeap
from .links import LinkEnd
from .transfer import (
    AMO_REQ_FMT,
    INLINE_MAX_BYTES,
    STAGED_ABOVE_BYTES,
    AmoOp,
    Mode,
    MsgKind,
    PayloadSource,
    cheaper_mode,
    chunk_ranges,
    inline_room,
)
from .waits import REPOLL, poll_wait, remote_wait

__all__ = ["ShmemConfig", "ShmemRuntime", "LinkEnd", "AmoOp"]


def _cluster_singleton(cluster: Cluster, attr: str,
                       build: Callable[[], Any],
                       stale: Callable[[Any], bool] = lambda _obj: False
                       ) -> Any:
    """The instance every runtime of ``cluster`` shares, kept at
    ``cluster.<attr>``: the first runtime that needs it builds it (as
    does one that finds a ``stale`` instance), the rest pick it up."""
    obj = getattr(cluster, attr, None)
    if obj is None or stale(obj):
        obj = build()
        setattr(cluster, attr, obj)
    return obj


class ShmemRuntime:
    """OpenSHMEM runtime instance for one host/PE."""

    #: Finalize-time drain budget (virtual µs): see :meth:`quiet`.  Large
    #: enough for any in-flight ACK from a live peer (control messages
    #: ACK within microseconds); only traffic to an already-torn-down
    #: peer can outlast it.
    FINALIZE_DRAIN_US = 10_000.0

    def __init__(self, cluster: Cluster, host_id: int,
                 config: Optional[ShmemConfig] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.config = config or ShmemConfig()
        self.host: Host = cluster.host(host_id)
        self.topology = cluster.topology
        #: pluggable route resolver (repro.fabric.router); the default
        #: selection reproduces the historical inline routing exactly.
        self.router = make_router(self.topology, self.config.routing)
        self.my_pe_id = host_id
        self.n_pes = cluster.n_hosts
        self.name = f"pe{host_id}"

        self.heap = SymmetricHeap(self.host, self.config.heap)
        self.links: dict[str, LinkEnd] = {}
        #: outstanding Get chunks and atomics by request id, registered
        #: by :meth:`_expect_reply` and dropped by :meth:`_retire`.
        self.pending: dict[int, PendingReply] = {}
        self._nbi_handles: list = []
        self._next_req_id = 1
        #: fired after any write lands in the local symmetric heap.
        self.heap_updated = Signal(self.env, name=f"{self.name}.heap_updated")
        #: pulsed by :meth:`notify_progress`; what ``poll_wait`` parks on.
        self.progress = Signal(self.env, name=f"{self.name}.progress")
        self.initialized = False
        self._finalized = False
        # Created during init:
        self.service = None     # ShmemService
        self.barrier = None     # barrier strategy object
        #: op counters
        self.put_count = 0
        self.get_count = 0
        self.amo_count = 0
        #: always-on metrics fabric (repro.obsv.metrics): the cluster
        #: registry and a per-PE scoped facade over it.
        self.metrics_registry: MetricsRegistry = cluster.metrics
        self.metrics = self.metrics_registry.scoped(self.name)
        for key, stat in (("puts", "put_count"), ("gets", "get_count"),
                          ("amos", "amo_count"), ("retries", "retries"),
                          ("reroutes", "reroutes"),
                          ("route_fallbacks", "route_fallbacks")):
            self.metrics.gauge(key).bind(lambda s=stat: getattr(self, s))
        #: The cluster's wait-for graph.  Every blocking primitive
        #: registers through :meth:`blocked_on` (directly or through
        #: :func:`repro.core.waits.remote_wait`), so a stalled run names
        #: what each PE is blocked on and a lock cycle ends the run.
        self.wait_graph = cluster.wait_graph
        #: ShmemSan instance, shared by every sanitizing runtime of the
        #: cluster (race detection needs all PEs' clocks in one place).
        self.san = None
        if self.config.sanitize is not None:
            from .sanitizer import ShmemSan  # local import avoids cycle

            self.san = _cluster_singleton(
                cluster, "shmemsan",
                lambda: ShmemSan(
                    self.n_pes, mode=self.config.sanitize,
                    granularity=self.config.sanitize_granularity),
                stale=lambda san: san.n_pes != self.n_pes)
        #: ShmemScope, shared cluster-wide like the sanitizer: the first
        #: tracing runtime creates it and wires the hardware layers.
        self.scope = NULL_SCOPE
        if self.config.trace_spans:
            self.scope = _cluster_singleton(
                cluster, "scope", self._build_scope)
        if self.san is not None and self.scope.enabled:
            self.san.scope = self.scope
        # -- fault tolerance ------------------------------------------------
        #: ring edges currently declared dead, in the topology's directed
        #: cable naming: edge (a, b) is the cable from a to its right
        #: neighbor b.
        self.dead_edges: set[tuple[int, int]] = set()
        #: fired on every edge death/recovery; bounded remote waits race
        #: it so they unblock the instant the path dies.
        self.link_state_changed = Signal(
            self.env, name=f"{self.name}.link_state")
        self.heartbeats: dict[str, HeartbeatMonitor] = {}
        self._link_watchers: list = []
        self.reroutes = 0
        #: routes where the policy direction was structurally unavailable
        #: (FIXED_RIGHT on a 1-D mesh, leftward) — a real routing
        #: decision the metrics must show.
        self.route_fallbacks = 0
        self.retries = 0
        self.fault_injector: Optional[FaultInjector] = None
        hb = self.config.heartbeat
        if hb is None and self.config.faults:
            # A non-empty fault plan without explicit heartbeat knobs
            # still gets a failure detector, with defaults.
            hb = HeartbeatConfig()
        self._heartbeat_config = hb
        #: False = every remote wait is a bare passthrough, keeping
        #: fault-free runs byte-identical in virtual time; True = waits
        #: are deadline-bounded and link-state aware.
        self.fault_aware = (hb is not None
                            or self.config.reply_timeout_us is not None)
        if self.config.faults is not None:
            # The first runtime with a plan installs it for everyone.
            self.fault_injector = _cluster_singleton(
                cluster, "fault_injector", self._build_fault_injector)

    def _build_scope(self) -> ShmemScope:
        scope = ShmemScope(self.env)
        instrument_cluster(self.cluster, scope)
        return scope

    def _build_fault_injector(self) -> "FaultInjector":
        from ..faults import FaultInjector  # deferred: plans only

        injector = FaultInjector(self.cluster, self.config.faults)
        injector.install()
        return injector

    # ------------------------------------------------------------------ init
    def initialize(self) -> Generator:
        """``shmem_init()`` — the four-step bring-up of §III-B.1."""
        if self.initialized:
            raise ShmemError(f"{self.name}: double shmem_init")
        # Step 1 (NTB setup + handshake) and step 3 (bypass buffers).
        yield from links.bring_up(self)
        # Step 2: interrupt structure; Step 4: service thread.
        from .service import ShmemService  # local import avoids cycle

        self.service = ShmemService(self)
        links.register_irqs(self)
        # Barrier strategy.
        from .barrier import make_barrier  # local import avoids cycle

        self.barrier = make_barrier(self)
        links.wire_link_metrics(self)
        if self._heartbeat_config is not None:
            linkstate.start_failure_detector(self)
        if self.config.metrics_window_us is not None:
            # The first sampling runtime starts the cluster's ticker;
            # finalize() stops it so quiescence runs (env.run until
            # empty) still terminate.
            _cluster_singleton(
                self.cluster, "metrics_ticker",
                lambda: MetricsTicker(
                    self.env, self.metrics_registry,
                    period_us=self.config.metrics_window_us)).start()
        self.initialized = True

    def finalize(self) -> Generator:
        """``shmem_finalize()`` — quiesce, stop the service, release."""
        self._check_ready()
        linkstate.stop_failure_detector(self)
        ticker = getattr(self.cluster, "metrics_ticker", None)
        if ticker is not None:
            ticker.stop()
        # Bounded drain: peers finalize at their own pace, and one that
        # finished first no longer ACKs (its IRQ vectors are gone).  Any
        # traffic still un-ACKed after the budget is such orphaned
        # control chatter — flush it rather than spinning forever.
        yield from self.quiet(flush_after_us=self.FINALIZE_DRAIN_US)
        assert self.service is not None
        yield from self.service.stop()
        self.heap.reset()
        links.tear_down(self)
        self.initialized = False
        self._finalized = True

    # ---------------------------------------------------------------- helpers
    def _check_ready(self) -> None:
        if not self.initialized:
            raise NotInitializedError(
                f"{self.name}: call shmem_init first"
                + (" (already finalized)" if self._finalized else "")
            )

    def check_pe(self, pe: int) -> None:
        if not (0 <= pe < self.n_pes):
            raise BadPeError(f"PE {pe} outside 0..{self.n_pes - 1}")

    def _new_req_id(self) -> int:
        """The next Get / AMO request id (a u32, never 0)."""
        req_id = self._next_req_id
        self._next_req_id = (req_id + 1) & 0xFFFFFFFF or 1
        return req_id

    def _expect_reply(self, what: str, route: Route, pe: int,
                      req_id: Optional[int] = None,
                      **get_fields) -> PendingReply:
        """Register an outstanding ``what`` ("get" / "amo") request under
        ``req_id``, or the next request id."""
        if req_id is None:
            req_id = self._new_req_id()
        pending = self.pending[req_id] = PendingReply(
            req_id=req_id, what=what, done=self.env.event(), pe=pe,
            route=route, **get_fields)
        return pending

    def _retire(self, pending: PendingReply) -> None:
        """Drop a request from the pending table, however it ended; a
        straggler response for a retired id is tolerated (and dropped)
        by the service thread."""
        self.pending.pop(pending.req_id, None)
        self.notify_progress()

    @contextmanager
    def blocked_on(self, what: str, *, peer: Optional[int] = None,
                   resource: Optional[Hashable] = None) -> Iterator[None]:
        """Register a blocking region with the wait-for graph.

        The one registration path: remote waits, lock spins and local
        polls wrap themselves in this, so a stalled run can say *why*
        each PE is not making progress (``drive``'s verdict) and a lock
        wait that closes a cycle ends the run.
        """
        graph = self.wait_graph
        token = graph.block(self.my_pe_id, what, peer, resource)
        try:
            yield
        finally:
            graph.unblock(token)

    def link_for(self, port: str) -> LinkEnd:
        try:
            return self.links[port]
        except KeyError:
            raise ProtocolError(
                f"{self.name}: no {port} adapter for routing"
            ) from None

    def _port_load(self, port: str) -> float:
        """Live congestion estimate the adaptive router's first hop reads:
        in-flight traffic plus credit waiters on the port's mailboxes
        (the post-hoc ``link_utilisation`` sampler tells the same story
        offline from ``link_transit`` spans)."""
        link = self.links.get(port)
        return float("inf") if link is None else link.load

    def route_to(self, pe: int) -> Route:
        """This PE's whole path to ``pe`` from the pluggable router:
        the policy route, or a detour around the edges declared dead;
        no live path raises :class:`PeerUnreachableError` promptly."""
        try:
            route = self.router.resolve(
                self.my_pe_id, pe, self.dead_edges, load=self._port_load)
        except NoRouteError:
            raise PeerUnreachableError(
                f"{self.name}: no live route to PE {pe} "
                f"(dead edges: {sorted(self.dead_edges)})"
            ) from None
        if route.fallback:
            self.route_fallbacks += 1
        if route.rerouted:
            self.reroutes += 1
        return route

    def deliver_to_heap(self, offset: int, data: np.ndarray) -> None:
        """Land bytes in the local symmetric heap + publish the update."""
        self.heap.write(SymAddr(offset), data)
        self.heap_updated.fire(offset)

    # ------------------------------------------------------------ op pipeline
    @contextmanager
    def _op(self, op: str, detail: str, counter: str, /,
            peer: Optional[int] = None, **attrs) -> Iterator[list]:
        """The one envelope every app-facing op runs inside: the ``op``
        span (``attrs`` are its arguments) plus its records in the metrics
        registry — the per-PE ``counter``, the per-PE ``{op}_us`` histogram
        and the cluster-wide ``{op}_us.{detail}[.{hops}hop]`` histogram
        (the key family of docs/METRICS.md).

        Yields the traversed-hops holder, which :meth:`_remote_attempt`
        fills: latency buckets are keyed by the hop count the op
        *actually* traversed, not the issue-time route — a mid-op sever
        reroutes the remaining chunks the long way around, and recording
        that latency under the short-route bucket poisons the histogram.
        Resolving a route here as well, only to label the op, would count
        its reroute twice.
        """
        nbytes = attrs.get("nbytes", 0)
        if peer is not None:
            attrs.update(peer=peer, hops=0)
        traversed = [0]
        start = self.env.now
        op_span = None
        try:
            with self.scope.span(op, category="op", track=self.name,
                                 pe=self.my_pe_id, **attrs) as op_span:
                yield traversed
        finally:
            elapsed = self.env.now - start
            bucket = "" if peer is None else f".{traversed[0]}hop"
            if op_span is not None and peer is not None:
                op_span.args["hops"] = traversed[0]
            self.metrics.inc(counter, nbytes=nbytes)
            self.metrics.observe(f"{op}_us", elapsed)
            self.metrics_registry.observe(f"{op}_us.{detail}{bucket}", elapsed)

    def _remote_attempt(self, pe: int, what: str, traversed: list,
                        attempt, *args,
                        route: Optional[Route] = None) -> Generator:
        """The one remote-attempt loop behind put chunks, get chunks and
        AMO requests: resolve a route (a given ``route`` on the first
        try), run ``attempt(route, link, *args)`` and, if the path died
        under it, back off and go again.

        The route is re-resolved per attempt, so a mid-transfer sever
        sends the rest of the message the long way around; callers invoke
        this once per chunk, which resets the attempt budget per delivered
        chunk.  Whatever an attempt registered in the pending table it has
        retired (with ``notify_progress``) by the time its failure reaches
        the back-off here.
        """
        tries = 0
        while True:
            if route is None or tries:
                route = self.route_to(pe)
            if route.hops > traversed[0]:
                traversed[0] = route.hops
            link = self.link_for(route.port)
            try:
                return (yield from attempt(route, link, *args))
            except (LinkDownError, PeerUnreachableError) as exc:
                if not self.fault_aware or tries >= self.config.max_retries:
                    raise PeerUnreachableError(
                        f"{self.name}: {what} failed: {exc}") from exc
                tries += 1
                self.retries += 1
            # Bounded retry backoff (max_retries), not a blocking wait.
            yield self.env.timeout(  # lint: skip
                self.config.retry_backoff_us * (2 ** (tries - 1)))

    # ------------------------------------------------------------------- put
    def put(self, dest: SymAddr, src_virt: int, nbytes: int, pe: int,
            mode: Optional[Mode] = None, *,
            route: Optional[Route] = None) -> Generator:
        """One-sided Put: locally blocking (§II-B), returns once the local
        buffer is reusable.  ``src_virt`` is a local user virtual address.

        Neighbor destinations stream straight through the data window
        (Fig. 4 upper path); others are chunked into the next hop's bypass
        window for store-and-forward (lower path).  Under fastpath, tiny
        payloads ride inline in a bypass slot header.  A given ``route``
        (``put_signal``'s one path) is every chunk's first try and keeps
        the payload out of slot headers, so a put behind another on that
        route takes the same channel.
        """
        self._check_ready()
        self.check_pe(pe)
        if nbytes <= 0:
            raise TransferError(f"put size must be positive, got {nbytes}")
        if mode is None:
            # Fig. 9: memcpy wins below about 4 KB, less for source bytes
            # spread over several pages.
            staged = nbytes > STAGED_ABOVE_BYTES
            mode = self._engine(nbytes, lambda: dict(
                staged=staged,
                segments=(1 if staged else
                          len(self.host.user_segments(src_virt, nbytes)))))
        self.put_count += 1
        with self._op("put", f"{mode.name}.{size_label(nbytes)}",
                      f"put.{mode.name}", peer=pe, nbytes=nbytes,
                      mode=mode.name) as traversed:
            if self.san is not None:
                self.san.record_write(self.my_pe_id, pe, dest.offset,
                                      nbytes, "put", self.env.now)
            if pe == self.my_pe_id:
                # Local put: a plain memcpy into our own heap.
                yield from self.host.cpu.local_memcpy(nbytes)
                data = self.host.read_user(src_virt, nbytes)
                self.deliver_to_heap(dest.offset, data)
                return
            # Fastpath inline messages: one PIO store publishes header and
            # a tiny payload together — no window write, no DMA setup/
            # descriptor/completion, no ScratchPad walk.  Flow control
            # (slot held until the receiver's ACK) is unchanged, so
            # ``quiet()`` still covers inline traffic.
            inline = (self.config.fastpath is not None and route is None
                      and 0 < nbytes <= INLINE_MAX_BYTES)
            cursor = 0
            while cursor < nbytes:
                cursor += yield from self._remote_attempt(
                    pe, f"put to PE {pe} at byte {cursor}/{nbytes}",
                    traversed, self._put_chunk, dest, src_virt, nbytes, pe,
                    mode, cursor, inline, route=route)

    def _engine(self, nbytes: int, closed_form: Callable[[], dict]) -> Mode:
        """The engine of a put or get with no explicit ``mode``: the
        configured ``default_mode``, else DMA on the paper-faithful plane
        and, on the fastpath, the engine the closed form charges less for
        ``nbytes`` under the call site's ``closed_form()`` terms."""
        if self.config.default_mode is not None:
            return self.config.default_mode
        if self.config.fastpath is None:
            return Mode.DMA
        return cheaper_mode(nbytes, self.host.cost_model,
                            self.cluster.config.ntb.dma, **closed_form())

    def _put_chunk(self, route: Route, link: LinkEnd, dest: SymAddr,
                   src_virt: int, nbytes: int, pe: int, mode: Mode,
                   cursor: int, inline: bool) -> Generator:
        """Hand the next chunk of a Put to the first hop; returns its
        size.  The chunk limit follows the route — a rerouted chunk must
        fit the bypass slot, not the neighbor's data window."""
        last_leg = route.hops == 1
        inline = inline and nbytes <= inline_room(route.carried)
        if inline:
            limit, mode = nbytes, Mode.MEMCPY
        else:
            limit = (self.config.rx_data_size if last_leg
                     else self.config.fwd_chunk)
        size = min(limit, nbytes - cursor)
        virt = src_virt + cursor
        yield from link.post(
            MsgKind.PUT_DATA, self.my_pe_id, pe, last_leg=last_leg,
            mode=mode, offset=dest.offset + cursor, size=size,
            payload=(None if inline
                     else PayloadSource.from_user(self.host, virt, size)),
            inline=self.host.read_user(virt, size) if inline else None,
            path=route.carried)
        return size

    # ------------------------------------------------------------------- get
    def get(self, src: SymAddr, nbytes: int, pe: int, dest_virt: int,
            mode: Optional[Mode] = None) -> Generator:
        """One-sided Get: blocks until the data is in ``dest_virt``.

        The request travels to the owner PE hop by hop; the owner's service
        thread streams the response back along the reverse path in
        ``get_chunk`` pieces (Fig. 5 lower half).
        """
        self._check_ready()
        self.check_pe(pe)
        if nbytes <= 0:
            raise TransferError(f"get size must be positive, got {nbytes}")
        if mode is None:
            # Priced per response chunk, sent from the owner's pinned
            # staging and read back through the uncached window (memcpy
            # below 696 B at the default calibration).
            mode = self._engine(min(nbytes, self.config.get_chunk),
                                lambda: dict(uncached_drain=True))
        self.get_count += 1
        with self._op("get", f"{mode.name}.{size_label(nbytes)}",
                      f"get.{mode.name}", peer=pe, nbytes=nbytes,
                      mode=mode.name) as traversed:
            if self.san is not None:
                self.san.record_read(self.my_pe_id, pe, src.offset,
                                     nbytes, "get", self.env.now)
            if pe == self.my_pe_id:
                yield from self.host.cpu.local_memcpy(nbytes)
                data = self.heap.read(src, nbytes)
                self.host.write_user(dest_virt, data)
                return
            # Requester-driven chunking: one GET_REQ per get_chunk, each
            # chunk completing end-to-end before the next request is
            # issued.  This serialization across the whole path is what
            # makes Get latency proportional to hop count (Fig. 9(b)):
            # every chunk pays the full request + response traversal of
            # the ring.  The fastpath's streaming Get sends a single
            # request for the whole transfer — the owner's responder
            # already streams get_chunk-sized pieces back-to-back, so the
            # request round trip is paid once.
            req_chunk = nbytes if self.config.fastpath is not None \
                else self.config.get_chunk
            for chunk_off, chunk_size in chunk_ranges(nbytes, req_chunk):
                yield from self._remote_attempt(
                    pe, f"get chunk at +{chunk_off} from PE {pe}", traversed,
                    self._get_chunk, src, pe, dest_virt, mode, chunk_off,
                    chunk_size)

    def _get_chunk(self, route: Route, link: LinkEnd, src: SymAddr, pe: int,
                   dest_virt: int, mode: Mode, chunk_off: int,
                   chunk_size: int) -> Generator:
        """One GET_REQ round trip.  A Get is an idempotent read, so the
        whole round trip is the retried attempt: a chunk lost to a dead
        link is simply re-requested over whatever route is currently
        live."""
        pending = self._expect_reply(
            "get", route, pe, dest_virt=dest_virt + chunk_off,
            nbytes=chunk_size, mode=mode)
        try:
            yield from link.post(
                MsgKind.GET_REQ, self.my_pe_id, pe,
                last_leg=route.hops == 1, mode=mode,
                offset=src.offset + chunk_off, size=chunk_size,
                aux=pending.req_id, path=route.carried)
            yield from remote_wait(
                self, pending.done,
                what=f"get request {pending.req_id}", peer=pe)
        finally:
            self._retire(pending)

    # ------------------------------------------------------------------- amo
    def amo(self, pe: int, target: SymAddr, op: int, value: int = 0,
            compare: int = 0) -> Generator:
        """Remote atomic on the owner's heap; returns the old value.

        Served by the owner's single service thread, which is what makes
        the operation atomic with respect to other remote atomics.
        """
        self._check_ready()
        self.check_pe(pe)
        if op not in AmoOp.ALL:
            raise TransferError(f"unknown AMO op {op}")
        self.amo_count += 1
        name = AmoOp.NAMES[op]
        with self._op("amo", name, f"amo.{name}", peer=pe,
                      op=op) as traversed:
            if self.san is not None:
                self.san.record_atomic(self.my_pe_id, pe, target.offset,
                                       8, f"amo:{op}", self.env.now)
            assert self.service is not None
            if pe == self.my_pe_id:
                # Local fast path still serializes through the service
                # thread for atomicity with concurrent remote AMOs.
                return (yield from self.service.apply_amo_local(
                    target.offset, op, value, compare))
            # Exactly once: the whole round trip is the retried attempt,
            # under one request id.  A request the owner never saw is
            # applied by the retry; one whose reply was lost is answered
            # from the owner's reply cache without being applied again.
            req_id = self._new_req_id()
            return (yield from self._remote_attempt(
                pe, f"amo request {req_id} to PE {pe}", traversed,
                self._amo_round_trip, pe, target,
                struct.pack(AMO_REQ_FMT, op, 0, value, compare), req_id))

    def _amo_round_trip(self, route: Route, link: LinkEnd, pe: int,
                        target: SymAddr, operand: bytes,
                        req_id: int) -> Generator:
        """One AMO_REQ hand-off to the first hop and the wait for its
        reply; returns the old value."""
        pending = self._expect_reply("amo", route, pe, req_id)
        # Fastpath: the 24-byte operand rides inline in a bypass slot
        # header.  Otherwise it goes through the data window.  Either way
        # it is one PIO store: for a word, ~34 µs of fixed DMA cost
        # (submit, setup, descriptor, completion) against ~1 µs of PIO.
        inline = self.config.fastpath is not None
        data = np.frombuffer(operand, dtype=np.uint8)
        payload = staging = None
        if not inline:
            # Each request stages its operand in its own buffer, so
            # concurrent AMOs of one PE never overwrite an operand still
            # queued for the data mailbox.
            staging = self.host.alloc_pinned(64)
            self.host.memory.write(staging.phys, data)
            payload = PayloadSource.from_pinned(
                self.host, staging, 0, len(operand))
        try:
            yield from link.post(
                MsgKind.AMO_REQ, self.my_pe_id, pe,
                last_leg=route.hops == 1, mode=Mode.MEMCPY,
                offset=target.offset, size=len(operand),
                aux=req_id, payload=payload,
                inline=data if inline else None, path=route.carried)
            return (yield from remote_wait(
                self, pending.done, what=f"amo request {req_id}", peer=pe))
        finally:
            if staging is not None:
                self.host.free_pinned(staging)
            self._retire(pending)

    # ------------------------------------------------------------ non-blocking
    def put_nbi(self, dest: SymAddr, src_virt: int, nbytes: int, pe: int,
                mode: Optional[Mode] = None):
        """``shmem_put_nbi``: start a put, return immediately.

        Returns the detached :class:`~repro.sim.Process`; completion is
        observed via ``quiet`` (which fences all NBI handles) or by
        yielding the handle directly.  The source buffer must stay
        untouched until then — exactly the OpenSHMEM contract.
        """
        self._check_ready()
        handle = self.env.process(
            self.put(dest, src_virt, nbytes, pe, mode),
            name=f"{self.name}.put_nbi",
        )
        self._nbi_handles.append(handle)
        return handle

    def get_nbi(self, src: SymAddr, nbytes: int, pe: int, dest_virt: int,
                mode: Optional[Mode] = None):
        """``shmem_get_nbi``: start a get, return immediately.

        The destination buffer holds the data only after ``quiet`` (or
        after yielding the returned handle).
        """
        self._check_ready()
        handle = self.env.process(
            self.get(src, nbytes, pe, dest_virt, mode),
            name=f"{self.name}.get_nbi",
        )
        self._nbi_handles.append(handle)
        return handle

    def put_signal(self, dest: SymAddr, src_virt: int, nbytes: int,
                   pe: int, signal: SymAddr, signal_value: int,
                   mode: Optional[Mode] = None) -> Generator:
        """``shmem_put_signal``: put data, then put ``signal_value`` into
        the 8-byte ``signal`` cell on the same PE.

        ``mode`` applies to the user data only.  The signal word is the
        runtime's own and always goes by memcpy (PIO): for 8 bytes the
        fixed DMA cost dwarfs the store.

        Delivery channels are in-order per path, so the signal write
        lands after the data — the consumer pairs it with ``wait_until``.
        Both puts take the one path resolved here, and so the same
        channel: a second resolve could leave by another first hop (the
        adaptive router), and an inline signal by another window.
        """
        self.check_pe(pe)
        route = None if pe == self.my_pe_id else self.route_to(pe)
        yield from self.put(dest, src_virt, nbytes, pe, mode, route=route)
        raw = struct.pack("<q", signal_value)
        staging = self.host.mmap(4096)
        try:
            self.host.write_user(staging.virt, np.frombuffer(raw, np.uint8))
            yield from self.put(signal, staging.virt, len(raw), pe,
                                Mode.MEMCPY, route=route)
        finally:
            self.host.munmap(staging)

    # ----------------------------------------------------------------- fences
    def quiet(self, flush_after_us: Optional[float] = None) -> Generator:
        """Wait until all locally initiated traffic is acknowledged.

        For neighbor Puts an ACK means the destination drained the data
        into its heap (remote completion).  For multi-hop Puts it covers
        the first hop only; end-to-end completion is provided by
        ``barrier_all`` (token FIFO-flushes behind forwarded data) — the
        same guarantee the paper's prototype offers.

        ``flush_after_us`` bounds the wait (finalize only): traffic still
        un-ACKed that long after the exit rendezvous is addressed to a
        peer that already tore down its IRQ vectors and can never ACK —
        it is force-failed instead of polled forever.  Ordinary runs
        drain in microseconds, so the deadline is inert there.
        """
        self._check_ready()
        # Join every outstanding non-blocking operation first.
        while self._nbi_handles:
            handle = self._nbi_handles.pop()
            if handle.is_alive:
                yield handle
        deadline = (None if flush_after_us is None
                    else self.env.now + flush_after_us)

        def drained():
            expired = deadline is not None and self.env.now >= deadline
            # While an edge is dead, judge each mailbox by local_idle
            # rather than idle: quiet orders the calling PE's own
            # operations, and after a cut the detours, retries and
            # barrier resends of *other* PEs crowd the surviving
            # cables — a quiet waiting for traffic this PE relays for
            # them can wait on PEs that are waiting on it.  Fault-free
            # runs keep the stricter global check so their timing is
            # untouched.
            degraded = bool(self.dead_edges)
            busy = flushed = False
            for link in self.links.values():
                if link.idle(local=degraded):
                    continue
                if expired or link.edge in self.dead_edges:
                    # Traffic handed to a severed cable will never be
                    # ACKed (master abort): it is failed, not pending.
                    # apply_edge_dead flushed the slots once at death;
                    # anything sent since (heartbeats, retries racing
                    # the detector, stray barrier re-sends) must be
                    # flushed here too — and again every poll tick while
                    # senders keep queueing, since a hand-off to a dead
                    # cable notifies nobody.
                    link.flush()
                    if link.idle(local=True):
                        continue
                    flushed = True
                busy = True
            if busy or self.pending:
                return REPOLL if flushed else False
            if self.san is not None:
                self.san.quiet(self.my_pe_id)
            return True

        yield from poll_wait(self, "quiet", drained, deadline)

    def forwarding_quiesce(self) -> Generator:
        """Wait until this host's store-and-forward pipeline is empty.

        Barrier strategies call this before propagating a token so the
        token cannot overtake data this host is forwarding on behalf of
        other PEs — that is what gives ``barrier_all`` end-to-end flush
        semantics for multi-hop Puts (the first-hop ACK covered by
        ``quiet`` is not enough).
        """
        service = self.service
        assert service is not None
        yield from poll_wait(self, "forwarding-quiesce",
                             lambda: service.quiescent)

    def notify_progress(self, pushed_at: Optional[float] = None) -> None:
        """Something a :func:`~repro.core.waits.poll_wait` check reads
        just changed.

        Called where a verdict can flip: a mailbox slot comes back, a
        pending Get/AMO retires, an edge dies or recovers, a service
        task finishes, the service thread goes idle.  The payload is
        when the running event was pushed — the waiter needs it to place
        the notifier against a poll due at this very instant.
        """
        if self.progress.has_waiters:
            self.progress.fire(
                self.env.pushed_at if pushed_at is None else pushed_at)

    def barrier_all(self) -> Generator:
        """``shmem_barrier_all()`` — quiesce, then run the strategy."""
        self._check_ready()
        assert self.barrier is not None
        strategy = self.barrier.name
        with self._op("barrier", strategy, "barriers", strategy=strategy):
            yield from self.quiet()
            if self.san is not None:
                self.san.barrier_enter(self.my_pe_id)
            yield from self.barrier.wait()
            if self.san is not None:
                self.san.barrier_exit(self.my_pe_id)

    # ------------------------------------------------------------------ misc
    def malloc(self, nbytes: int) -> Generator:
        """``shmem_malloc`` (charged: allocator + possible chunk growth)."""
        self._check_ready()
        before = self.heap.n_chunks
        addr = self.heap.malloc(nbytes)
        grew = self.heap.n_chunks - before
        # Cost: bookkeeping plus one mmap+page-table fill per new chunk.
        yield from self.host.cpu._charge(0.5 + 40.0 * grew)
        return addr

    def free(self, addr: SymAddr) -> Generator:
        self._check_ready()
        self.heap.free(addr)
        yield from self.host.cpu._charge(0.3)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShmemRuntime {self.name} init={self.initialized} "
            f"links={sorted(self.links)}>"
        )
