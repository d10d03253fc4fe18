"""Barrier algorithms for the switchless fabric (§III-B.4, Fig. 6).

The paper argues the classic centralized barrier is unsuitable ("hard to
make a centralized shared counter in the switchless interconnect network")
and implements a two-round **ring start/end barrier** driven by two doorbell
interrupts, ``DOORBELL_BARRIER_START`` and ``DOORBELL_BARRIER_END``:

1. host 0 reaches the barrier, rings START to host 1, then waits;
2. every other host waits for START from its left, forwards START right;
3. when START wraps back to host 0, it rings END and releases;
4. END propagates around the ring; each host releases on receiving it.

Because barrier tokens are processed by the same FIFO service thread that
forwards data, a token cannot overtake store-and-forward traffic travelling
the same way on its cable — so the barrier flushes a route only if its
tokens follow that route end to end.  The sweep follows FIXED_RIGHT's
rightward routes of up to N - 1 hops, and only those.

Every other fabric and router runs the same doorbell tokens between
cabled neighbours (:class:`GridBarrier`): rounds axis by axis, x then y
then z, as APEnet+ orders its torus traffic — no token is
store-and-forwarded.  ``k // 2`` rounds both ways on a wrapped axis of
extent ``k`` (``k - 1`` on an open one) follow every route a shortest
or dimension-order router takes, including a ring routed SHORTEST.
:func:`make_barrier` picks between the two from the resolved router, not
from the topology's ``kind``.  A cut token episode, sweep or rounds,
falls back to dissemination (:class:`RingBarrier` inherits it).  Two
alternatives are provided for the ablation benches (DESIGN.md §6):

* :class:`DisseminationBarrier` — ceil(log2(N)) rounds of point-to-point
  notifications (Mellor-Crummey & Scott [20]), carried as control messages
  through the data mailboxes (multi-hop partners are store-and-forwarded);
* :class:`CentralizedBarrier` — fetch-add arrival counter + release flag
  on PE 0, all traffic via remote atomics; deliberately naive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from ..fabric import RoutingPolicy
from ..ntb import LinkDownError
from ..sim import Signal
from .errors import PeerUnreachableError, ProtocolError
from .heap import SymAddr
from .transfer import (
    AmoOp,
    DOORBELL_BARRIER_END,
    DOORBELL_BARRIER_START,
    Message,
    MsgKind,
)
from .waits import remote_wait

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ShmemRuntime

__all__ = ["make_barrier", "RingBarrier", "GridBarrier",
           "DisseminationBarrier", "CentralizedBarrier"]


#: Dissemination aux low byte: round index, plus a high bit marking a
#: *nudge* — "re-send me your (generation, round) notification".
_DISSEM_NUDGE = 0x80


def _notify(rt: "ShmemRuntime", dest: int, gen: int, low: int) -> Generator:
    """One generation-tagged BARRIER_MSG toward ``dest`` over whatever
    route is live (plain function: returns the send for ``yield from``)."""
    route = rt.route_to(dest)
    return rt.link_for(route.direction).post(
        MsgKind.BARRIER_MSG, rt.my_pe_id, dest, last_leg=route.hops == 1,
        aux=((gen & 0xFFFFFF) << 8) | low)


def _notify_detached(rt: "ShmemRuntime", dest: int, gen: int,
                     low: int) -> Generator:
    """Body of a detached re-send.  A cable dying under it is not an
    error: the waiter nudges again and we re-send."""
    try:
        yield from _notify(rt, dest, gen, low)
    except (LinkDownError, PeerUnreachableError):
        pass


class DisseminationBarrier:
    """log-round dissemination barrier over BARRIER_MSG control messages.

    Round k: notify PE ``(me + 2^k) mod N``; wait for the notification from
    ``(me - 2^k) mod N``.  Notifications are tagged (generation, round) in
    ``aux`` so early arrivals from fast peers are banked, never lost.

    Fault behavior: a notification posted into a cable at the instant it
    is cut is silently dropped (posted-write semantics, docs/FAULTS.md),
    and the victim's wait has nothing to time it out — the sender stays
    perfectly routable, so a doomed-predicate alone never fires.  Under a
    fault layer each round therefore waits in bounded **resend windows**:
    on expiry the waiter re-sends its own notification (keyed and
    idempotent) and *nudges* its round sender to re-send the missing one.
    The nudge is load-bearing — the sender may have completed this whole
    generation before the cut's damage surfaced (dissemination lets a
    subset of PEs finish while others stall), so only a request/response
    can recover.  A ring cut mid-token-sweep leaves the same skew, which
    is why :class:`RingBarrier` recovers through this class.
    Fault-free runs take the bare-yield path and stay byte-identical.
    """

    name = "dissemination"

    #: µs a fault-aware round waits before re-sending + nudging; sized
    #: past worst-case heartbeat detection (~2 ms at the defaults) so a
    #: cut is usually already marked when the first resend reroutes.
    RESEND_US = 2_500.0

    def __init__(self, runtime: "ShmemRuntime"):
        self.rt = runtime
        self._arrived: dict[tuple[int, int], int] = {}
        self._signal = Signal(runtime.env, name=f"{runtime.name}.dissem")
        self.generation = 0
        #: round currently being waited on, ``None`` outside ``wait()``.
        self._round: Optional[int] = None

    def on_token(self, side: str, kind: str) -> None:  # pragma: no cover
        raise ProtocolError(
            f"{self.rt.name}: doorbell barrier token under dissemination"
        )

    def on_notify(self, msg: Message) -> None:
        gen = (msg.aux >> 8) & 0xFFFFFF
        low = msg.aux & 0xFF
        rnd = low & (_DISSEM_NUDGE - 1)
        if low & _DISSEM_NUDGE:
            self._on_nudge(msg.src_pe, gen, rnd)
            return
        if gen < self.generation or (
                gen == self.generation and self._round is not None
                and rnd < self._round):
            return  # duplicate of an already-consumed notification
        # Exactly one legitimate sender per key: resent duplicates clamp
        # instead of counting, so a recovery re-send can never satisfy a
        # later generation's round.
        self._arrived[(gen, rnd)] = 1
        self._signal.fire((gen, rnd))

    def _on_nudge(self, requester: int, gen: int, rnd: int) -> None:
        """Synchronous (service dispatch): a stalled waiter asks us to
        re-send our (gen, rnd) notification — its copy was cut mid-flight.
        Re-send only if we already passed the original send point;
        otherwise the normal send is still coming and the nudge is early.
        """
        sent = (self.generation > gen
                or (self.generation == gen and self._round is not None
                    and self._round >= rnd))
        if not sent:
            return
        rt = self.rt
        rt.env.process(
            _notify_detached(rt, requester, gen, rnd),
            name=f"{rt.name}.dissem.renotify{requester}",
        )

    def on_link_event(self) -> None:
        """Notifications are generation-tagged: nothing to drain."""

    def _partner_doomed(self, partner: int) -> Optional[BaseException]:
        # Cables are bidirectional, so "I cannot reach my partner" is
        # exactly "my partner cannot reach me".
        try:
            self.rt.route_to(partner)
        except PeerUnreachableError as exc:
            return exc
        return None

    def wait(self) -> Generator:
        rt = self.rt
        n = rt.n_pes
        gen = self.generation
        rounds = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        # An explicit reply deadline keeps its documented "raise, don't
        # retry" contract; otherwise wait in resend windows (see class
        # docstring).  Fault-free, remote_wait ignores the timeout.
        window = (self.RESEND_US
                  if rt.config.reply_timeout_us is None else None)
        for rnd in range(rounds):
            self._round = rnd
            partner = (rt.my_pe_id + (1 << rnd)) % n
            sender = (rt.my_pe_id - (1 << rnd)) % n
            if partner != rt.my_pe_id:
                # Same flush rule as the token barrier: do not let our
                # notification overtake data we are relaying.
                yield from rt.forwarding_quiesce()
                yield from _notify(rt, partner, gen, rnd)
            key = (gen, rnd)
            expires = None  # end of the running resend window
            while self._arrived.get(key, 0) < 1:
                # Another key's notification wakes the wait but must not
                # restart the window: strays arriving faster than it
                # expires would starve the resend and nudge for good.
                left = window
                if window is not None:
                    if expires is None:
                        expires = rt.env.now + window
                    else:
                        left = max(0.0, expires - rt.env.now)
                try:
                    yield from remote_wait(
                        rt, self._signal.wait(),
                        what=f"dissemination round {rnd} notification",
                        doomed=lambda p=partner, s=sender: (
                            self._partner_doomed(p)
                            or self._partner_doomed(s)),
                        timeout_us=left, peer=sender,
                    )
                except PeerUnreachableError:
                    doom = (self._partner_doomed(partner)
                            or self._partner_doomed(sender))
                    if doom is not None or window is None:
                        raise
                    # Resend window expired with both peers routable:
                    # a notification was lost mid-flight.  Re-send ours
                    # and ask the sender for theirs; a cable dying
                    # under the resend just waits for the detector.
                    expires = None
                    try:
                        if partner != rt.my_pe_id:
                            yield from _notify(rt, partner, gen, rnd)
                        if sender != rt.my_pe_id:
                            yield from _notify(rt, sender, gen,
                                               rnd | _DISSEM_NUDGE)
                    except LinkDownError:
                        pass
            self._arrived.pop(key, None)
        self.generation = gen + 1
        self._round = None
        # Purge duplicates banked after their key was consumed.
        for key in [k for k in self._arrived if k[0] <= gen]:
            del self._arrived[key]


class RingBarrier(DisseminationBarrier):
    """The paper's Fig. 6 two-round ring barrier.

    With every cable alive this is the token sweep and nothing else.  The
    episode is a per-PE step list — ring a doorbell on some ports, then
    consume one latched token per port — so :class:`GridBarrier` reuses
    the counting, the drain, the dead-edge check and the recovery below
    with a schedule of its own.
    Fault behavior: a cable death mid-episode aborts the token round, and
    ``wait()`` *recovers inside the same call*.  A ring minus one cable is
    a 1-D mesh, and a mesh's barrier is dissemination, so the call runs
    the inherited :meth:`DisseminationBarrier.wait` over the surviving
    routes under the same absolute ``generation``.  That keeps the
    barrier-call count aligned across PEs — if some PEs raised while
    others completed, later barriers would pair mismatched episodes and
    deadlock.  A cut lets some PEs finish the token episode while others
    abort it; a finished PE is one generation ahead, so it answers a
    laggard's nudge for the episode it already passed (see
    :meth:`DisseminationBarrier._on_nudge`).  The call only raises
    :class:`PeerUnreachableError` when the ring is genuinely partitioned
    (two or more dead edges).
    """

    #: the key this strategy's latency is filed under (barrier_us.<name>).
    name = "ring"

    def __init__(self, runtime: "ShmemRuntime"):
        super().__init__(runtime)
        #: latched doorbells not yet consumed, by (arrival port, kind).
        #: One port's tokens arrive in send order and every ring
        #: interrupts, so the i-th consumed is the i-th its neighbour sent.
        self._tokens: dict[tuple[str, str], int] = {}
        #: this PE's episode: (ports to ring, doorbell bit, ports to
        #: await, token kind) per step.
        self._steps = self._schedule()

    def _schedule(self) -> list[tuple]:
        # The sweep runs the positive way, as FIXED_RIGHT routes do.
        neg, pos = self.rt.topology.PORT_ORDER[:2]
        start = ((pos,), DOORBELL_BARRIER_START)
        end = ((pos,), DOORBELL_BARRIER_END)
        if self.rt.my_pe_id == 0:
            # Start the sweep, absorb it when it wraps, then start END.
            return [(*start, (neg,), "barrier_start"), (*end, (), None)]
        return [((), None, (neg,), "barrier_start"),
                (*start, (neg,), "barrier_end"),
                (*end, (), None)]   # the last host's END wraps to host 0

    # Called synchronously by the service thread (FIFO with data traffic).
    def on_token(self, side: str, kind: str) -> None:
        if kind not in ("barrier_start", "barrier_end"):  # pragma: no cover
            raise ProtocolError(f"bad barrier token kind {kind!r}")
        key = (side, kind)
        self._tokens[key] = self._tokens.get(key, 0) + 1
        self._signal.fire(kind)

    def on_link_event(self) -> None:
        """An edge died or recovered: in-flight tokens are no longer
        trustworthy (the episode they belonged to cannot complete
        consistently), so drain the counters.  Dissemination
        notifications are generation-tagged and survive untouched."""
        self._tokens.clear()

    def _await(self, side: str, kind: str) -> Generator:
        token = "START" if kind == "barrier_start" else "END"
        key = (side, kind)
        while not self._tokens.get(key):
            # remote_wait re-checks ``doomed`` only on a link-state change
            # *during* the wait: a wait entered after the cut was marked
            # (and the counters drained) would sleep forever.
            doom = self._token_doomed()
            if doom is not None:
                raise doom
            yield from remote_wait(self.rt, self._signal.wait(),
                                   what=f"barrier {token} token",
                                   doomed=self._token_doomed)
        self._tokens[key] -= 1

    def _token_doomed(self) -> Optional[BaseException]:
        # Tokens cross every cable of the fabric in one episode, so any
        # dead edge dooms it.
        if self.rt.dead_edges:
            return PeerUnreachableError(
                f"{self.rt.name}: barrier token path crosses dead edge(s) "
                f"{sorted(self.rt.dead_edges)}"
            )
        return None

    def _partitioned(self) -> Optional[BaseException]:
        # Two dead edges split the ring: whichever side a partner is on,
        # some round of the episode needs the other side.
        dead = self.rt.dead_edges
        if len(dead) > 1:
            return PeerUnreachableError(
                f"{self.rt.name}: barrier impossible with {len(dead)} "
                f"dead edges ({sorted(dead)})"
            )
        return None

    def _partner_doomed(self, partner: int) -> Optional[BaseException]:
        return self._partitioned() or super()._partner_doomed(partner)

    def _ring_bits(self, sides: tuple[str, ...], bit: int) -> Generator:
        rt = self.rt
        token = ("start" if bit == DOORBELL_BARRIER_START else "end")
        with rt.scope.span("barrier_token", category="op", track=rt.name,
                           token=token, side=",".join(sides)):
            # Flush our store-and-forward pipeline first: the token must
            # not overtake data we are relaying for other PEs.
            yield from rt.forwarding_quiesce()
            for side in sides:
                yield from rt.links[side].driver.ring_doorbell(bit)

    def wait(self) -> Generator:
        rt = self.rt
        if rt.n_pes == 1:
            self.generation += 1
            return
        if not rt.dead_edges:
            try:
                yield from self._token_wait()
                return
            except LinkDownError:
                # Master abort: the hardware says the cable is gone, but
                # only the failure detector can mark the edge.  Without
                # one there is no recovery verdict — surface the error.
                if not rt.fault_aware or not rt.heartbeats:
                    raise
            except PeerUnreachableError:
                # Recover only on link death; a reply-deadline timeout
                # with healthy links must surface to the caller.
                if not rt.fault_aware or not rt.dead_edges:
                    raise
        # Recovery barrier: dissemination over the surviving routes.  The
        # hardware may report the dead cable (master abort) before the
        # failure detector marks the edge; wait for the verdict so the
        # notifications route around it.  Local signal, fired by our own
        # failure detector.
        while not rt.dead_edges:
            yield rt.link_state_changed.wait()  # lint: skip
        doom = self._partitioned()
        if doom is not None:
            raise doom
        yield from super().wait()

    def _token_wait(self) -> Generator:
        if self.rt.my_pe_id == 0:
            # A stale wrapped END from the previous round may still be
            # latched (host N-1 rings END to us as it releases); ring
            # host 0 never waits on END, so drain it at entry.  (A grid
            # rings no END: nothing to drain.)
            self._tokens.pop((self.rt.topology.PORT_ORDER[0],
                              "barrier_end"), None)
        for send, bit, recv, kind in self._steps:
            if send:
                yield from self._ring_bits(send, bit)
            for side in recv:
                yield from self._await(side, kind)
        self.generation += 1


class GridBarrier(RingBarrier):
    """Doorbell-token rounds between cabled neighbours, axis by axis.

    The Fig. 6 mechanism on a mesh or torus, in APEnet+'s dimension
    order: for x, then y, then z, each PE runs ``k // 2`` rounds on a
    torus axis of extent ``k`` (``k - 1`` on a mesh axis); a round rings
    START on every cabled port of the axis and consumes one token per
    such port.  After ``r`` rounds a PE has heard, transitively, from
    every PE within ``r`` hops on the axis, so the first token of the
    next axis carries the sender's whole finished sub-grid.  Every
    notification is one hop — none is store-and-forwarded.  A dead edge
    drops the episode into the inherited dissemination recovery; the
    route check decides partition, not an edge count.
    """

    name = "grid"

    def _schedule(self) -> list[tuple]:
        topo, me = self.rt.topology, self.rt.my_pe_id
        cabled = topo.ports(me)
        steps = []
        for axis, extent in enumerate(topo.dims):
            ports = tuple(port for port in topo.PORT_ORDER[2 * axis:][:2]
                          if port in cabled)
            rounds = extent // 2 if topo.wrap else extent - 1
            steps += [(ports, DOORBELL_BARRIER_START, ports,
                       "barrier_start")] * rounds
        return steps

    def _partitioned(self) -> Optional[BaseException]:
        return None


class CentralizedBarrier:
    """Arrival counter + release flag on PE 0, via remote atomics.

    Included to demonstrate the paper's §III-B.4 claim: every arrival and
    every release poll is a full AMO round trip through the ring, so cost
    scales O(N^2) in messages — the ablation bench quantifies it.
    """

    name = "centralized"

    #: µs between release-flag polls (exponential backoff capped here).
    POLL_US = 50.0

    def __init__(self, runtime: "ShmemRuntime"):
        self.rt = runtime
        self._cells = None  # SymAddr of [counter, release] on every PE
        self.generation = 0

    def on_token(self, side: str, kind: str) -> None:  # pragma: no cover
        raise ProtocolError(
            f"{self.rt.name}: doorbell barrier token under centralized"
        )

    def on_notify(self, msg: Message) -> None:  # pragma: no cover
        raise ProtocolError(
            f"{self.rt.name}: BARRIER_MSG under centralized barrier"
        )

    def on_link_event(self) -> None:
        """AMO round-trips already carry their own fault handling."""

    def _ensure_cells(self) -> None:
        # SPMD: every PE allocates in lockstep, so offsets agree.
        if self._cells is None:
            self._cells = self.rt.heap.malloc(16)

    def wait(self) -> Generator:
        rt = self.rt
        self._ensure_cells()
        counter: SymAddr = self._cells
        release = SymAddr(self._cells.offset + 8)
        gen = self.generation + 1
        arrived = yield from rt.amo(0, counter, AmoOp.ADD, 1)
        if arrived == rt.n_pes - 1:
            # Last arriver: reset the counter, publish the release flag.
            yield from rt.amo(0, counter, AmoOp.SET, 0)
            yield from rt.amo(0, release, AmoOp.SET, gen)
        else:
            with rt.blocked_on(f"centralized barrier release gen {gen}",
                               resource=("barrier-release", release.offset)):
                while True:
                    value = yield from rt.amo(0, release, AmoOp.FETCH)
                    if value >= gen:
                        break
                    yield rt.env.timeout(self.POLL_US)
        self.generation = gen


def make_barrier(runtime: "ShmemRuntime"):
    """Pick the strategy from config + the resolved router: ``"ring"``
    is the token barrier whose tokens follow the router's routes."""
    strategy = runtime.config.barrier
    if strategy == "dissemination":
        return DisseminationBarrier(runtime)
    if strategy == "centralized":
        return CentralizedBarrier(runtime)
    # Only FIXED_RIGHT (one axis only) routes past k // 2 hops.
    if (runtime.topology.wrap
            and runtime.router.name == RoutingPolicy.FIXED_RIGHT.value):
        return RingBarrier(runtime)
    return GridBarrier(runtime)
