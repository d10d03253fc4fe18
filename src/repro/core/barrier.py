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
tokens follow that route end to end.  :class:`TokenBarrier` is that one
mechanism, doorbell tokens between cabled neighbours, run on one of three
schedules that :meth:`TokenBarrier._schedule` picks from the resolved
router:

* the **sweep** above, under FIXED_RIGHT on a wrapped axis: it follows
  FIXED_RIGHT's rightward routes of up to N - 1 hops, and only those;
* the **axis rounds** under SHORTEST or dimension-order: x, then y, then
  z, as APEnet+ orders its torus traffic, ``k // 2`` rounds both ways on
  a wrapped axis of extent ``k`` (``k - 1`` on an open one), which follow
  every route those routers take, a ring routed SHORTEST included;
* the **flood** under the adaptive router, whose minimal routes take any
  axis order, and over an agreed dead view: every cabled port rung (the
  wire drops the rings into dead cables), one token consumed per live
  port, for D rounds, D the live graph's diameter.

A cut aborts the token episode into the dissemination recovery
:class:`TokenBarrier` inherits.  Its notifications carry the sender's
view of the dead cables and an all-agree bit, ANDed along the
dissemination; a PE whose bit survives (and whose view held still)
*agrees* on that view, posts a one-hop fence on every live port, and
from then on floods.  Over an agreed view every router takes shortest
live paths, at most D hops, and the flood's tokens follow every walk of
up to D hops, so the flood flushes as the axis rounds do.

Every barrier that waits on its peers' messages has one partition
verdict, :meth:`DisseminationBarrier._partitioned`: the dead edges
disconnect the live graph.  No barrier can complete then, so every PE's
wait raises :class:`PeerUnreachableError` ("barrier impossible: dead
edges [...] partition the fabric") as soon as its view shows the split.

Two alternatives are provided for the ablation benches (DESIGN.md §6):

* :class:`DisseminationBarrier` — ceil(log2(N)) rounds of point-to-point
  notifications (Mellor-Crummey & Scott [20]), carried as control messages
  through the data mailboxes (multi-hop partners are store-and-forwarded);
* :class:`CentralizedBarrier` — fetch-add arrival counter + release flag
  on PE 0, all traffic via remote atomics; deliberately naive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, AbstractSet, Generator, Optional

from ..fabric import RoutingPolicy, Topology
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

__all__ = ["make_barrier", "view_code", "TokenBarrier",
           "DisseminationBarrier", "CentralizedBarrier"]


#: Dissemination aux low byte: round index, plus a high bit marking a
#: *nudge* — "re-send me your (generation, round) notification" — and
#: one marking a *fence* (see :meth:`TokenBarrier._agree`).
_DISSEM_NUDGE = 0x80
_FENCE = 0x40
#: Size-word bit of a notification's view words: every view folded into
#: them was the same.
_AGREE = 1 << 31
#: The view words of the plain dissemination barrier and of a reply for
#: a generation the sender passed without them: no view, no agreement.
_NO_VIEW = (0, 0)


def view_code(topology: Topology,
              dead_edges: AbstractSet) -> Optional[int]:
    """A dead-edge set as one integer below 2**63: the cables' indices in
    ``topology.links()`` order, plus one, as digits in base (cables + 1),
    largest most significant.  Injective wherever it fits; None when the
    set does not fit (such a view never agrees)."""
    index = {edge: i for i, edge in enumerate(topology.links())}
    radix, code = len(index) + 1, 0
    for i in sorted((index[edge] for edge in dead_edges), reverse=True):
        code = code * radix + i + 1
    return code if code < 1 << 63 else None


def _view_words(code: Optional[int]) -> tuple[int, int]:
    """A recovery's opening words: the view in BARRIER_MSG's ``offset``
    (low half) and ``size`` (high half) words, with the all-agree bit."""
    if code is None:
        return _NO_VIEW
    return code & 0xFFFFFFFF, (code >> 32) | _AGREE


def _fold(mine: tuple[int, int], theirs: tuple[int, int]) -> tuple[int, int]:
    """AND a received notification's agreement into ours: it survives
    only if both carried it over the same view."""
    return mine if mine == theirs else (mine[0], mine[1] & ~_AGREE)


def _notify(rt: "ShmemRuntime", dest: int, gen: int, low: int,
            words: tuple[int, int] = _NO_VIEW) -> Generator:
    """One generation-tagged BARRIER_MSG toward ``dest`` over whatever
    route is live (plain function: returns the send for ``yield from``)."""
    route = rt.route_to(dest)
    return rt.link_for(route.port).post(
        MsgKind.BARRIER_MSG, rt.my_pe_id, dest, last_leg=route.hops == 1,
        offset=words[0], size=words[1], aux=((gen & 0xFFFFFF) << 8) | low,
        path=route.carried)


def _notify_detached(rt: "ShmemRuntime", dest: int, gen: int, low: int,
                     words: tuple[int, int]) -> Generator:
    """Body of a detached re-send.  A cable dying under it is not an
    error: the waiter nudges again and we re-send."""
    try:
        yield from _notify(rt, dest, gen, low, words)
    except (LinkDownError, PeerUnreachableError):
        pass


class DisseminationBarrier:
    """log-round dissemination barrier over BARRIER_MSG control messages.

    Round k: notify PE ``(me + 2^k) mod N``; wait for the notification from
    ``(me - 2^k) mod N``.  Notifications are tagged (generation, round) in
    ``aux`` so early arrivals from fast peers are banked, never lost.

    Fault behavior: a fabric that the dead edges split fails the barrier
    with :class:`PeerUnreachableError` (:meth:`_partitioned`).  Short of
    that, a notification posted into a cable at the instant it is cut is
    silently dropped (posted-write semantics, docs/FAULTS.md), and the
    victim's wait has nothing to time it out — the fabric stays
    connected, so the partition verdict never fires.  Under a fault
    layer each round therefore waits in bounded **resend windows**:
    on expiry the waiter re-sends its own notification (keyed and
    idempotent) and *nudges* its round sender to re-send the missing one.
    The nudge is load-bearing — the sender may have completed this whole
    generation before the cut's damage surfaced (dissemination lets a
    subset of PEs finish while others stall), so only a request/response
    can recover.  A cut mid-token-episode leaves the same skew, which
    is why :class:`TokenBarrier` recovers through this class.
    Fault-free runs take the bare-yield path and stay byte-identical.
    """

    name = "dissemination"

    #: µs a fault-aware round waits before re-sending + nudging; sized
    #: past worst-case heartbeat detection (~2 ms at the defaults) so a
    #: cut is usually already marked when the first resend reroutes.
    RESEND_US = 2_500.0

    def __init__(self, runtime: "ShmemRuntime"):
        self.rt = runtime
        #: banked notifications' view words, by (generation, round).
        self._arrived: dict[tuple[int, int], tuple[int, int]] = {}
        #: the view words this PE sent (or sends) per (generation, round),
        #: kept a generation on so a nudge is answered with the same words.
        self._sent: dict[tuple[int, int], tuple[int, int]] = {}
        self._signal = Signal(runtime.env, name=f"{runtime.name}.dissem")
        self.generation = 0
        #: round currently being waited on, ``None`` outside ``wait()``.
        self._round: Optional[int] = None

    def on_token(self, side: str, kind: str) -> None:  # pragma: no cover
        raise ProtocolError(
            f"{self.rt.name}: doorbell barrier token under dissemination"
        )

    def on_notify(self, msg: Message, side: str) -> None:
        gen = (msg.aux >> 8) & 0xFFFFFF
        low = msg.aux & 0xFF
        rnd = low & (_FENCE - 1)
        if low & _DISSEM_NUDGE:
            self._on_nudge(msg.src_pe, gen, rnd)
            return
        if gen < self.generation or (
                gen == self.generation and self._round is not None
                and rnd < self._round):
            return  # duplicate of an already-consumed notification
        # Exactly one legitimate sender per key, and a re-send carries
        # the original's words: duplicates clamp instead of counting, so
        # a recovery re-send can never satisfy a later generation's round.
        self._arrived[(gen, rnd)] = (msg.offset, msg.size)
        self._signal.fire((gen, rnd))

    def _on_nudge(self, requester: int, gen: int, rnd: int) -> None:
        """Synchronous (service dispatch): a stalled waiter asks us to
        re-send our (gen, rnd) notification — its copy was cut mid-flight.
        Re-send only if we already passed the original send point;
        otherwise the normal send is still coming and the nudge is early.
        A generation we passed by tokens sent no words: the reply carries
        none, so nobody agrees in it.
        """
        sent = (self.generation > gen
                or (self.generation == gen and self._round is not None
                    and self._round >= rnd))
        if not sent:
            return
        rt = self.rt
        rt.env.process(
            _notify_detached(rt, requester, gen, rnd,
                             self._sent.get((gen, rnd), _NO_VIEW)),
            name=f"{rt.name}.dissem.renotify{requester}",
        )

    def on_link_event(self) -> None:
        """Notifications are generation-tagged: nothing to drain."""

    def _partitioned(self) -> Optional[BaseException]:
        """The one partition verdict of every barrier wait: this PE's
        dead edges disconnect the live graph (the router memoises the
        answer per dead-edge set).  Over a connected live graph every
        router finds a route to every PE, so no other doom exists."""
        dead = self.rt.dead_edges
        if dead and self.rt.router.live_diameter(dead) is None:
            return PeerUnreachableError(
                f"{self.rt.name}: barrier impossible: dead edges "
                f"{sorted(dead)} partition the fabric"
            )
        return None

    def wait(self) -> Generator:
        yield from self._disseminate(_NO_VIEW)

    def _disseminate(self, words: tuple[int, int]) -> Generator:
        """The rounds, each notification carrying ``words`` folded with
        every notification received before it; returns whether the
        all-agree bit survived."""
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
            doom = self._partitioned()
            if doom is not None:
                raise doom
            key = (gen, rnd)
            # Words first: a nudge answered from here on re-sends them.
            self._sent[key] = words
            self._round = rnd
            partner = (rt.my_pe_id + (1 << rnd)) % n
            sender = (rt.my_pe_id - (1 << rnd)) % n
            if partner != rt.my_pe_id:
                # Same flush rule as the token barrier: do not let our
                # notification overtake data we are relaying.
                yield from rt.forwarding_quiesce()
                yield from _notify(rt, partner, gen, rnd, words)
            expires = None  # end of the running resend window
            while key not in self._arrived:
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
                        doomed=self._partitioned,
                        timeout_us=left, peer=sender,
                    )
                except PeerUnreachableError:
                    doom = self._partitioned()
                    if doom is not None:
                        raise doom from None
                    if window is None:
                        raise
                    # Resend window expired over a connected fabric: a
                    # notification was lost mid-flight.  Re-send ours
                    # and ask the sender for theirs; a cable dying
                    # under the resend just waits for the detector.
                    expires = None
                    try:
                        if partner != rt.my_pe_id:
                            yield from _notify(rt, partner, gen, rnd, words)
                        if sender != rt.my_pe_id:
                            yield from _notify(rt, sender, gen,
                                               rnd | _DISSEM_NUDGE)
                    except LinkDownError:
                        pass
            words = _fold(words, self._arrived.pop(key))
        self.generation = gen + 1
        self._round = None
        # Purge duplicates banked after their key was consumed, and the
        # words of the generation before: no nudge for it is left.
        for key in [k for k in self._arrived if k[0] <= gen]:
            del self._arrived[key]
        for key in [k for k in self._sent if k[0] < gen]:
            del self._sent[key]
        return bool(words[1] & _AGREE)


class TokenBarrier(DisseminationBarrier):
    """The paper's Fig. 6 doorbell-token barrier, on every fabric.

    With every cable alive this is a token episode and nothing else: a
    per-PE step list — ring a doorbell on some ports, then consume one
    latched token per port — drawn by :meth:`_schedule` as the sweep
    (``name`` ``"ring"``: FIXED_RIGHT on a wrapped axis), or as the axis
    rounds or the flood (``name`` ``"grid"``: every other router).

    Fault behavior: a token episode runs only under an *agreed* view of
    the dead cables, ∅ at the start of the run.  A link event drops the
    agreement, aborts a running episode, and ``wait()`` *recovers inside
    the same call*: it runs the inherited dissemination
    (:meth:`DisseminationBarrier._disseminate`) over the surviving routes
    under the same absolute ``generation``.  That keeps the barrier-call count
    aligned across PEs — if some PEs raised while others completed, later
    barriers would pair mismatched episodes and deadlock.  A cut lets
    some PEs finish the token episode while others abort it; a finished
    PE is one generation ahead, so it answers a laggard's nudge for the
    episode it already passed (see :meth:`DisseminationBarrier._on_nudge`),
    with no view words, so nobody agrees in that recovery.  A recovery
    whose all-agree bit survives ends in :meth:`_agree`, and the next
    barrier is tokens again, flooded over the live graph.  The call only
    raises :class:`PeerUnreachableError` when the fabric is partitioned
    (:meth:`DisseminationBarrier._partitioned`).
    """

    def __init__(self, runtime: "ShmemRuntime"):
        super().__init__(runtime)
        #: the key this barrier's latency is filed under (barrier_us.<name>):
        #: "ring" for the sweep, "grid" for the rounds and the flood.
        #: Only FIXED_RIGHT (one axis only) routes past k // 2 hops.
        self.name = ("ring" if runtime.topology.wrap and runtime.router.policy
                     is RoutingPolicy.FIXED_RIGHT else "grid")
        #: latched doorbells not yet consumed, by (arrival port, kind).
        #: One port's tokens arrive in send order and every ring
        #: interrupts, so the i-th consumed is the i-th its neighbour sent.
        self._tokens: dict[tuple[str, str], int] = {}
        #: the dead-edge set every PE agreed on, and the (24-bit)
        #: generation of the recovery that agreed, -1 for the run's start;
        #: None from a link event until a recovery agrees again.
        self._agreed: Optional[frozenset] = frozenset()
        self._agreed_gen = -1
        #: per arrival port, the agreement its neighbour last fenced (-1
        #: until a fence): its tokens count only under that agreement.
        self._fenced: dict[str, int] = {}
        #: link events so far: a recovery agrees only if none lands in it.
        self._events = 0
        #: this PE's episode: (ports to ring, doorbell bit, ports to
        #: await, token kind) per step.
        self._steps = self._schedule()

    def _schedule(self) -> list[tuple]:
        """This PE's episode under the agreed view, from the router."""
        rt, dead = self.rt, self._agreed
        topo, me = rt.topology, rt.my_pe_id
        if dead or rt.router.policy is RoutingPolicy.ADAPTIVE:
            # The flood: consume one token per live port, as many rounds
            # as the live graph's diameter.  After ``r`` rounds a PE has
            # heard from every PE within ``r`` live hops, along every walk
            # of up to ``r`` hops.  A round rings every cabled port, the
            # dead ones too (the wire drops those rings): each ring keeps
            # its slot of the healthy fabric, so a cut makes no two
            # neighbours ring a PE at one instant.  The live graph is
            # connected: the agreeing recovery routed every notification.
            rounds = rt.router.live_diameter(dead)
            return [(topo.ports(me), DOORBELL_BARRIER_START,
                     rt.router.live_ports(me, dead), "barrier_start")] * rounds
        if self.name == "ring":
            # The sweep runs the positive way, as FIXED_RIGHT routes do.
            neg, pos = topo.PORT_ORDER
            start = ((pos,), DOORBELL_BARRIER_START)
            end = ((pos,), DOORBELL_BARRIER_END)
            if me == 0:
                # Start the sweep, absorb it when it wraps, then start END.
                return [(*start, (neg,), "barrier_start"), (*end, (), None)]
            return [((), None, (neg,), "barrier_start"),
                    (*start, (neg,), "barrier_end"),
                    (*end, (), None)]   # the last host's END wraps to 0
        # The axis rounds: for x, then y, then z, ``k // 2`` rounds on a
        # wrapped axis of extent ``k`` (``k - 1`` on an open one), each
        # ringing START on every cabled port of the axis and consuming
        # one token per such port.  The first token of the next axis
        # carries the sender's whole finished sub-grid.
        cabled = topo.ports(me)
        steps = []
        for axis, extent in enumerate(topo.dims):
            ports = tuple(port for port in topo.PORT_ORDER[2 * axis:][:2]
                          if port in cabled)
            rounds = extent // 2 if topo.wrap else extent - 1
            steps += [(ports, DOORBELL_BARRIER_START, ports,
                       "barrier_start")] * rounds
        return steps

    # Called synchronously by the service thread (FIFO with data traffic).
    def on_token(self, side: str, kind: str) -> None:
        if kind not in ("barrier_start", "barrier_end"):  # pragma: no cover
            raise ProtocolError(f"bad barrier token kind {kind!r}")
        key = (side, kind)
        self._tokens[key] = self._tokens.get(key, 0) + 1
        self._signal.fire(kind)

    def on_notify(self, msg: Message, side: str) -> None:
        if msg.aux & _FENCE:
            # The neighbour agreed: every token it rang before this fence
            # belongs to an episode that was aborted, and one cable's
            # rings are handled in the order they were rung.
            self._tokens.pop((side, "barrier_start"), None)
            self._tokens.pop((side, "barrier_end"), None)
            self._fenced[side] = (msg.aux >> 8) & 0xFFFFFF
            return
        super().on_notify(msg, side)

    def on_link_event(self) -> None:
        """An edge died or recovered: in-flight tokens are no longer
        trustworthy (the episode they belonged to cannot complete
        consistently), so drain the counters and drop the agreement.
        Dissemination notifications are generation-tagged and survive
        untouched."""
        self._tokens.clear()
        self._agreed = None
        self._events += 1

    def _await(self, side: str, kind: str) -> Generator:
        token = "START" if kind == "barrier_start" else "END"
        key = (side, kind)
        while not self._banked(key):
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

    def _banked(self, key: tuple[str, str]) -> bool:
        """A ``key`` token is latched and counts: its port's neighbour
        fenced the agreement this episode runs under."""
        return (bool(self._tokens.get(key))
                and self._fenced.get(key[0], -1) == self._agreed_gen)

    def _token_doomed(self) -> Optional[BaseException]:
        # The episode's steps were drawn for the agreed view: a link event
        # since dooms it, whichever cable it touched.
        if self._agreed is None:
            return PeerUnreachableError(
                f"{self.rt.name}: barrier tokens ran under a view the "
                f"dead edge(s) {sorted(self.rt.dead_edges)} outdated"
            )
        return None

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
        if self._agreed is not None:
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
                # Recover only on a link event; a reply-deadline timeout
                # under the agreed view must surface to the caller.
                if not rt.fault_aware or self._agreed is not None:
                    raise
        # Recovery barrier: dissemination over the surviving routes.  The
        # hardware may report the dead cable (master abort) before the
        # failure detector marks the edge; wait for the verdict so the
        # notifications route around it.  Local signal, fired by our own
        # failure detector.
        while self._agreed is not None:
            yield rt.link_state_changed.wait()  # lint: skip
        gen, events = self.generation, self._events
        view = frozenset(rt.dead_edges)
        agreed = yield from self._disseminate(
            _view_words(view_code(rt.topology, view)))
        if agreed and self._events == events:
            yield from self._agree(view, gen)

    def _agree(self, view: frozenset, gen: int) -> Generator:
        """Every PE recovered under ``view``: adopt it, and fence each
        live port.  Its neighbour drops the tokens we rang before the
        fence and counts ours from the fence on, once it agrees too."""
        rt = self.rt
        self._agreed, self._agreed_gen = view, gen & 0xFFFFFF
        self._steps = self._schedule()
        for side in rt.router.live_ports(rt.my_pe_id, view):
            link = rt.links[side]
            try:
                yield from link.post(
                    MsgKind.BARRIER_MSG, rt.my_pe_id, link.peer_host_id,
                    last_leg=True, aux=(self._agreed_gen << 8) | _FENCE)
            except (LinkDownError, PeerUnreachableError):
                pass  # the cable's death ends this agreement anyway

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

    def on_notify(self, msg: Message,
                  side: str) -> None:  # pragma: no cover
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
    """The strategy ``ShmemConfig.barrier`` names; ``"ring"`` is the
    doorbell-token barrier, whose schedule follows the resolved router."""
    strategy = {"ring": TokenBarrier, "dissemination": DisseminationBarrier,
                "centralized": CentralizedBarrier}[runtime.config.barrier]
    return strategy(runtime)
