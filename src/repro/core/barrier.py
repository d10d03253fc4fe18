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
the same (rightward) direction — giving the barrier flush semantics for
FIXED_RIGHT routing.  (With SHORTEST routing leftward data races the
rightward token; the scaling ablation quantifies it.)

Two alternatives are provided for the ablation benches (DESIGN.md §6):

* :class:`DisseminationBarrier` — ceil(log2(N)) rounds of point-to-point
  notifications (Mellor-Crummey & Scott [20]), carried as control messages
  through the data mailboxes (multi-hop partners are store-and-forwarded);
* :class:`CentralizedBarrier` — fetch-add arrival counter + release flag
  on PE 0, all traffic via remote atomics; deliberately naive.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from ..ntb import LinkDownError
from ..sim import Signal
from .errors import PeerUnreachableError, ProtocolError, ShmemError
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

__all__ = ["make_barrier", "RingBarrier", "DisseminationBarrier",
           "CentralizedBarrier"]


#: Degraded-mode message subtypes carried in BARRIER_MSG aux (low byte).
_MSG_ARRIVE = 0
_MSG_RELEASE = 1

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
    error: the waiter re-ARRIVEs / nudges again and we re-send."""
    try:
        yield from _notify(rt, dest, gen, low)
    except (LinkDownError, PeerUnreachableError):
        pass


class RingBarrier:
    """The paper's Fig. 6 two-round ring barrier.

    Fault behavior: a cable death mid-episode aborts the token round, and
    ``wait()`` *recovers inside the same call* by re-synchronizing with
    the degraded line sweep.  That keeps the barrier-call count aligned
    across PEs — if some PEs raised while others completed, later
    barriers would pair mismatched episodes and deadlock.  The call only
    raises :class:`PeerUnreachableError` when the ring is genuinely
    partitioned (two or more dead edges).

    Besides the healthy-path doorbell tokens, this also owns the
    *degraded* barrier a ring falls back to when one cable is dead: a
    watermark protocol over generation-tagged BARRIER_MSG control
    messages routed along the surviving path.  Each call sends
    ARRIVE(g) — its absolute episode number — to a coordinator (the
    left end of the surviving line), which maintains the minimum
    generation any PE is still waiting at and broadcasts that watermark
    as RELEASE(w); a call completes once ``w >= g``.  Absolute
    generations make the protocol immune to the skew a mid-episode cut
    creates (some PEs complete the token episode, others abort it):
    a PE that is one episode ahead simply arrives with ``g+1`` and the
    watermark waits for the stragglers, whereas any scheme that pairs
    calls positionally deadlocks.  Arrivals are idempotent and resent
    on a timer, so a control message dropped at a not-yet-informed
    relay cannot hang the barrier.
    """

    #: the key this strategy's latency is filed under (barrier_us.<name>).
    name = "ring"

    #: µs between ARRIVE retransmissions while waiting for a release.
    RESEND_US = 1_000.0

    def __init__(self, runtime: "ShmemRuntime"):
        self.rt = runtime
        self._start_tokens = 0
        self._end_tokens = 0
        self._signal = Signal(runtime.env, name=f"{runtime.name}.barrier")
        #: coordinator state: highest generation each PE arrived with.
        self._arrivals: dict[int, int] = {}
        #: highest released watermark seen (coordinator or broadcast).
        self._released = -1
        #: completed barrier episodes (absolute; tags degraded messages).
        self.generation = 0
        #: completed *degraded* episodes (diagnostics).
        self.degraded_generation = 0

    # Called synchronously by the service thread (FIFO with data traffic).
    def on_token(self, side: str, kind: str) -> None:
        if kind == "barrier_start":
            self._start_tokens += 1
        elif kind == "barrier_end":
            self._end_tokens += 1
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"bad barrier token kind {kind!r}")
        self._signal.fire(kind)

    def on_notify(self, msg: Message) -> None:
        """A degraded-mode control message (generation-tagged)."""
        gen = (msg.aux >> 8) & 0xFFFFFF
        subtype = msg.aux & 0xFF
        if subtype == _MSG_ARRIVE:
            self._coord_arrive(msg.src_pe, gen)
        elif subtype == _MSG_RELEASE:
            if gen > self._released:
                self._released = gen
                self._signal.fire(("release", gen))
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"bad degraded barrier subtype {subtype}")

    def on_link_event(self) -> None:
        """An edge died or recovered: in-flight ring tokens are no longer
        trustworthy (the episode they belonged to cannot complete
        consistently), so drain the counters.  Degraded-mode messages are
        generation-tagged and survive untouched."""
        self._start_tokens = 0
        self._end_tokens = 0

    def _await_start(self) -> Generator:
        while self._start_tokens == 0:
            yield from remote_wait(self.rt, self._signal.wait(),
                                   what="barrier START token",
                                   doomed=self._token_doomed)
        self._start_tokens -= 1

    def _await_end(self) -> Generator:
        while self._end_tokens == 0:
            yield from remote_wait(self.rt, self._signal.wait(),
                                   what="barrier END token",
                                   doomed=self._token_doomed)
        self._end_tokens -= 1

    def _token_doomed(self) -> Optional[BaseException]:
        # Ring tokens traverse every cable of the ring, so any dead edge
        # dooms the episode.
        if self.rt.dead_edges:
            return PeerUnreachableError(
                f"{self.rt.name}: barrier token path crosses dead edge(s) "
                f"{sorted(self.rt.dead_edges)}"
            )
        return None

    def _ring_bit(self, side: str, bit: int) -> Generator:
        token = ("start" if bit == DOORBELL_BARRIER_START else "end")
        with self.rt.scope.span("barrier_token", category="op",
                                track=self.rt.name, token=token, side=side):
            # Flush our store-and-forward pipeline first: the token must
            # not overtake data we are relaying for other PEs.
            yield from self.rt.forwarding_quiesce()
            yield from self.rt.links[side].driver.ring_doorbell(bit)

    # -- degraded mode: the ring minus one cable is a line -----------------
    def _degraded_wait(self) -> Generator:
        """Watermark barrier over the surviving path (recovery barrier).

        With dead edge ``(a, b)`` (b = a's right neighbor) the surviving
        line runs ``b -> b+1 -> ... -> a`` rightward; host ``b`` acts as
        the coordinator.  Control messages ride the data mailboxes and
        are service-forwarded along the line — never across the dead
        cable.  See the class docstring for the protocol and why it
        tolerates generation skew.
        """
        rt = self.rt
        if len(rt.dead_edges) != 1:
            raise PeerUnreachableError(
                f"{rt.name}: barrier impossible with "
                f"{len(rt.dead_edges)} dead edges "
                f"({sorted(rt.dead_edges)})"
            )
        (edge,) = rt.dead_edges
        coordinator = edge[1]  # left end of the surviving line
        gen = self.generation
        with rt.scope.span("barrier_degraded", category="op",
                           track=rt.name, gen=gen,
                           coordinator=rt.my_pe_id == coordinator):
            # Same flush rule as the token path: our arrival must not
            # overtake data we are relaying along the line.
            yield from rt.forwarding_quiesce()
            if rt.my_pe_id == coordinator:
                self._coord_arrive(rt.my_pe_id, gen)
            else:
                yield from _notify(rt, coordinator, gen, _MSG_ARRIVE)
            with rt.blocked_on(f"degraded barrier release gen {gen}",
                               peer=coordinator
                               if rt.my_pe_id != coordinator else None):
                while self._released < gen:
                    doom = self._line_doomed(edge)
                    if doom is not None:
                        raise doom
                    resend = rt.env.timeout(self.RESEND_US)
                    yield rt.env.any_of([
                        self._signal.wait(), rt.link_state_changed.wait(),
                        resend,
                    ])
                    if (resend.triggered and self._released < gen
                            and rt.my_pe_id != coordinator):
                        # The arrival (or its release) may have been
                        # dropped by a relay that had not yet learned of
                        # the dead edge; arrivals are idempotent, so just
                        # re-send.
                        yield from _notify(rt, coordinator, gen,
                                           _MSG_ARRIVE)
        self.degraded_generation += 1
        self.generation = gen + 1

    def _coord_arrive(self, pe: int, gen: int) -> None:
        """Coordinator: record an arrival, advance/re-send the watermark.

        Synchronous (called from service dispatch or the local barrier
        call); any sends it triggers run as detached processes.
        """
        self._arrivals[pe] = max(self._arrivals.get(pe, -1), gen)
        rt = self.rt
        if len(self._arrivals) == rt.n_pes:
            watermark = min(self._arrivals.values())
            if watermark > self._released:
                self._released = watermark
                self._signal.fire(("release", watermark))
                for dest in range(rt.n_pes):
                    if dest != rt.my_pe_id:
                        rt.env.process(
                            _notify_detached(rt, dest, watermark,
                                             _MSG_RELEASE),
                            name=f"{rt.name}.barrier.release{dest}",
                        )
                return
        if self._released >= gen and pe != rt.my_pe_id:
            # The sender re-arrived for an episode we already released:
            # its RELEASE was lost, re-send to it alone.
            rt.env.process(
                _notify_detached(rt, pe, self._released, _MSG_RELEASE),
                name=f"{rt.name}.barrier.rerelease{pe}",
            )

    def _line_doomed(self, edge: tuple[int, int]) -> Optional[BaseException]:
        live = self.rt.dead_edges == {edge}
        if live:
            return None
        return PeerUnreachableError(
            f"{self.rt.name}: topology changed mid-degraded-barrier "
            f"(dead edges now {sorted(self.rt.dead_edges)})"
        )

    def wait(self) -> Generator:
        rt = self.rt
        if rt.n_pes == 1:
            self.generation += 1
            return
        if "right" not in rt.links or "left" not in rt.links:
            raise ShmemError(
                f"{rt.name}: ring barrier needs both adapters"
            )
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
        # Recovery barrier: synchronize over the surviving path.  The
        # hardware may report the dead cable (master abort) before the
        # failure detector marks the edge; wait for the verdict so the
        # recovery protocol knows the line layout.  Local signal, fired
        # by our own failure detector.
        while not rt.dead_edges:
            yield rt.link_state_changed.wait()  # lint: skip
        yield from self._degraded_wait()

    def _token_wait(self) -> Generator:
        if self.rt.my_pe_id == 0:
            # A stale wrapped END from the previous round may still be
            # latched (host N-1 rings END to us as it releases); host 0
            # never waits on END, so drain the counter at entry.
            self._end_tokens = 0
            yield from self._ring_bit("right", DOORBELL_BARRIER_START)
            yield from self._await_start()     # the wrapped START
            yield from self._ring_bit("right", DOORBELL_BARRIER_END)
        else:
            yield from self._await_start()
            yield from self._ring_bit("right", DOORBELL_BARRIER_START)
            yield from self._await_end()
            # Forward END onward; for the last host this wraps to host 0,
            # which absorbs it (see above).
            yield from self._ring_bit("right", DOORBELL_BARRIER_END)
        self.generation += 1


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
    can recover, exactly like the ring watermark's targeted re-RELEASE.
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
            while self._arrived.get(key, 0) < 1:
                try:
                    yield from remote_wait(
                        rt, self._signal.wait(),
                        what=f"dissemination round {rnd} notification",
                        doomed=lambda p=partner, s=sender: (
                            self._partner_doomed(p)
                            or self._partner_doomed(s)),
                        timeout_us=window, peer=sender,
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
    """Pick the strategy from config + topology."""
    strategy = runtime.config.barrier
    if strategy == "dissemination":
        return DisseminationBarrier(runtime)
    if strategy == "centralized":
        return CentralizedBarrier(runtime)
    if runtime.topology.kind == "ring":
        return RingBarrier(runtime)
    # mesh/torus circulate no token; dissemination's pairwise notifies
    # route dimension-order like any other message.
    return DisseminationBarrier(runtime)
