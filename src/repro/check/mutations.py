"""Seeded bugs: the checker's checkers.

A verification harness that has never caught a bug proves nothing.  Each
mutation here re-introduces a realistic protocol defect as a reversible
monkey-patch; the test suite (and the CI ``shmemcheck`` job) asserts
that exploration *with* the mutation produces a violation with a
replayable trace, and that the same exploration without it stays clean.

``dropped-credit-ack``
    The receiver drains a bypass slot but its ACK doorbell is lost: the
    sender's credit is never returned.  Under the fastpath credit pool
    the sender eventually queues on a slot that can never free —
    liveness failure on the ``fastpath-credit`` model.
``lost-doorbell``
    A data doorbell ring crosses the bridge but the pending bit never
    latches (the classic lost-wakeup hardware erratum).  The payload
    sits in the data window, the receiving service never learns of it,
    and the sender waits forever for an ACK — caught on ``put-signal``.
``dropped-nudge``
    ``DisseminationBarrier._on_nudge`` ignores every request: a PE whose
    round notification the cut lost never gets it re-sent.  A cut ring
    recovers through dissemination, and a PE that finished the token
    episode only ever sends its notification in answer to a nudge, so
    the laggards resend and nudge forever — caught on
    ``barrier-recovery`` fault branches as a livelock.
``unchecked-token-wait``
    ``TokenBarrier._await`` drops its dead-edge check before each token
    wait.  A PE whose detector marks the cut between two token waits
    (its counters already drained) then sleeps in a wait that only a
    *later* link-state change could end, while every other PE has fallen
    back to dissemination and resends and nudges it forever — caught on
    ``grid-barrier`` fault branches as a livelock.
``local-view-flood``
    ``TokenBarrier.wait`` floods over each PE's own view of the dead
    cables, with no recovery to agree on it and no fence.  PEs that learn
    of a cut at different instants run different step lists and consume
    each other's tokens.
    Caught on ``grid-barrier`` fault branches as a livelock.
``unfenced-tokens``
    ``TokenBarrier._banked`` counts a latched token whether or not its
    port's fence for the running agreement was handled, so a token left
    over from an aborted episode passes for a round of the flood and a
    PE leaves a round early.  No model reaches that: ``grid-barrier``
    and ``barrier-recovery`` exhaust clean under it.  It has no target
    here; ``tests/core/test_barrier.py`` catches it on a cut 4-ring
    (``test_a_token_rung_before_the_fence_does_not_count``).
``partition-blind``
    ``DisseminationBarrier._partitioned`` never reports a partition (the
    rule the grid token barrier once had), so a fabric that the dead
    edges split is waited on as if it could recover: the PEs whose
    partners stay routable resend and nudge across the split forever.
    No model severs twice; ``tests/integration/test_fault_tolerance.py``
    catches it on each of eight split fabrics, rings, meshes and a torus
    (``TestSplitFabricBarrier``, the ``[partition-blind]`` cases): six
    runs are stuck, and on the two rings routed SHORTEST every PE fails
    a route lookup across the split instead of reaching the verdict.
``amo-reapply``
    The AMO owner keeps no reply cache (its bound is 0), so a retried
    AMO whose first reply a cut lost is applied a second time.  No model
    retries an AMO; ``tests/integration/test_amo_at_most_once.py``
    catches it on a 4-ring cut between the apply and the reply
    (``test_reply_lost_after_apply_is_replayed``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Generator, Iterator

from ..core import barrier as _barrier
from ..core import service as _service
from ..core import transfer as _transfer
from ..core.errors import PeerUnreachableError
from ..core.waits import remote_wait
from ..ntb import LinkDownError
from ..ntb import doorbell as _doorbell

__all__ = ["MUTATIONS"]


@contextmanager
def dropped_credit_ack() -> Iterator[None]:
    """Swallow the first bypass-slot ACK of the run."""
    state = {"dropped": False}

    def on_ack(self: _transfer.BypassMailbox) -> None:
        if not state["dropped"]:
            state["dropped"] = True
            return  # BUG: credit never returned to the pool
        _transfer._MailboxBase.on_ack(self)

    _transfer.BypassMailbox.on_ack = on_ack  # type: ignore[method-assign]
    try:
        yield
    finally:
        del _transfer.BypassMailbox.on_ack  # type: ignore[misc]


@contextmanager
def lost_doorbell() -> Iterator[None]:
    """Swallow the first data-message doorbell ring of the run."""
    original = _doorbell.DoorbellRegister.latch
    data_bits = (_transfer.DOORBELL_DMAPUT, _transfer.DOORBELL_BYPASS_MSG)
    state = {"dropped": False}

    def latch(self: _doorbell.DoorbellRegister, bit: int) -> None:
        if not state["dropped"] and bit in data_bits:
            state["dropped"] = True
            return  # BUG: ring lost, pending bit never latches
        original(self, bit)

    _doorbell.DoorbellRegister.latch = latch  # type: ignore[method-assign]
    try:
        yield
    finally:
        _doorbell.DoorbellRegister.latch = original  # type: ignore[method-assign]


@contextmanager
def dropped_nudge() -> Iterator[None]:
    """Dissemination senders ignore every nudge."""
    barrier = _barrier.DisseminationBarrier
    original = barrier._on_nudge

    def _on_nudge(self, requester: int, gen: int, rnd: int) -> None:
        return  # BUG: the lost notification is never re-sent

    barrier._on_nudge = _on_nudge  # type: ignore[method-assign]
    try:
        yield
    finally:
        barrier._on_nudge = original  # type: ignore[method-assign]


@contextmanager
def unchecked_token_wait() -> Iterator[None]:
    """Token waits trust the link state they were entered under."""
    barrier = _barrier.TokenBarrier
    original = barrier._await

    def _await(self: _barrier.TokenBarrier, side: str,
               kind: str) -> Generator[Any, Any, None]:
        key = (side, kind)
        while not self._banked(key):
            # BUG: no view check before the wait
            yield from remote_wait(
                self.rt, self._signal.wait(), what="barrier token",
                doomed=self._token_doomed)
        self._tokens[key] -= 1

    barrier._await = _await  # type: ignore[method-assign]
    try:
        yield
    finally:
        barrier._await = original  # type: ignore[method-assign]


@contextmanager
def local_view_flood() -> Iterator[None]:
    """Token episodes run on the local view: no agreement, no fence."""
    barrier = _barrier.TokenBarrier
    original = barrier.wait

    def wait(self: _barrier.TokenBarrier) -> Generator[Any, Any, None]:
        rt = self.rt
        while True:
            # BUG: each PE draws its steps from its own view
            self._agreed = frozenset(rt.dead_edges)
            self._steps = self._schedule()
            try:
                yield from self._token_wait()
                return
            except PeerUnreachableError:
                if not rt.fault_aware:
                    raise
            except LinkDownError:
                if not rt.fault_aware:
                    raise
                yield rt.link_state_changed.wait()

    barrier.wait = wait  # type: ignore[method-assign]
    try:
        yield
    finally:
        barrier.wait = original  # type: ignore[method-assign]


@contextmanager
def unfenced_tokens() -> Iterator[None]:
    """Latched tokens count before their port's fence."""
    barrier = _barrier.TokenBarrier
    original = barrier._banked

    def _banked(self: _barrier.TokenBarrier, key: tuple[str, str]) -> bool:
        return bool(self._tokens.get(key))  # BUG: no fence check

    barrier._banked = _banked  # type: ignore[method-assign]
    try:
        yield
    finally:
        barrier._banked = original  # type: ignore[method-assign]


@contextmanager
def partition_blind() -> Iterator[None]:
    """Barrier waits never see a partition."""
    barrier = _barrier.DisseminationBarrier
    original = barrier._partitioned

    def _partitioned(self: _barrier.DisseminationBarrier) -> None:
        return None  # BUG: a split fabric is waited on for good

    barrier._partitioned = _partitioned  # type: ignore[method-assign]
    try:
        yield
    finally:
        barrier._partitioned = original  # type: ignore[method-assign]


@contextmanager
def amo_reapply() -> Iterator[None]:
    """The owner forgets every AMO reply as soon as it sends it."""
    original = _service._AMO_REPLY_CACHE
    _service._AMO_REPLY_CACHE = 0  # BUG: a retry is applied again
    try:
        yield
    finally:
        _service._AMO_REPLY_CACHE = original


MUTATIONS: dict[str, Callable[[], ContextManager[None]]] = {
    "dropped-credit-ack": dropped_credit_ack,
    "lost-doorbell": lost_doorbell,
    "dropped-nudge": dropped_nudge,
    "unchecked-token-wait": unchecked_token_wait,
    "local-view-flood": local_view_flood,
    "unfenced-tokens": unfenced_tokens,
    "partition-blind": partition_blind,
    "amo-reapply": amo_reapply,
}

#: the model each mutation is expected to bite on (used by the CLI's
#: ``--mutate`` smoke mode and the CI job); a mutation without one is
#: caught by a tier-1 test instead.
MUTATION_TARGETS: dict[str, str] = {
    "dropped-credit-ack": "fastpath-credit",
    "lost-doorbell": "put-signal",
    "dropped-nudge": "barrier-recovery",
    "unchecked-token-wait": "grid-barrier",
    "local-view-flood": "grid-barrier",
}
