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
``watermark-off-by-one``
    The degraded-mode barrier coordinator releases ``min(arrivals)+1``
    instead of ``min(arrivals)``: a barrier generation retires before
    every PE arrived.  Caught on ``barrier-recovery`` fault branches as
    a data-consistency violation (a PE reads its neighbor's buffer
    before the neighbor wrote it).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Iterator

from ..core import barrier as _barrier
from ..core import transfer as _transfer
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
def watermark_off_by_one() -> Iterator[None]:
    """Degraded barrier coordinator releases one generation too early."""
    # ``RingBarrier._coord_arrive`` computes the watermark with the
    # module's only ``min`` call: shadow the builtin in that namespace
    # rather than fork a copy of the method.
    # BUG: off-by-one watermark — releases a generation that not every PE
    # has arrived at yet.
    _barrier.min = lambda arrivals: min(arrivals) + 1  # type: ignore[attr-defined]
    try:
        yield
    finally:
        del _barrier.min  # type: ignore[attr-defined]


MUTATIONS: dict[str, Callable[[], ContextManager[None]]] = {
    "dropped-credit-ack": dropped_credit_ack,
    "lost-doorbell": lost_doorbell,
    "watermark-off-by-one": watermark_off_by_one,
}

#: the model each mutation is expected to bite on (used by the CLI's
#: ``--mutate`` smoke mode and the CI job).
MUTATION_TARGETS: dict[str, str] = {
    "dropped-credit-ack": "fastpath-credit",
    "lost-doorbell": "put-signal",
    "watermark-off-by-one": "barrier-recovery",
}
