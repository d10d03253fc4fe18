"""Distributed locks over remote atomics (§II-B's "distributed locking").

A lock is any 8-byte symmetric cell.  Arbitration state lives in **PE 0's
copy** of the cell (a documented convention — OpenSHMEM itself leaves the
internal representation to the implementation).  Acquisition is
compare-and-swap with linear backoff; the holder's ``my_pe + 1`` is stored
so ``clear_lock`` can detect double-release bugs.

Every lock operation is one AMO round trip through the ring, so contention
cost grows with distance from PE 0 — visible in the lock microbenchmarks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from .errors import ShmemError
from .heap import SymAddr
from .runtime import AmoOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import PE

__all__ = ["set_lock", "test_lock", "clear_lock", "LOCK_ARBITER_PE"]

#: The PE whose copy of the cell holds the arbitration state.
LOCK_ARBITER_PE = 0

#: Backoff between failed acquisition attempts (µs); grows linearly with
#: consecutive failures, capped.
_BACKOFF_BASE_US = 20.0
_BACKOFF_CAP_US = 500.0


def _lock_resource(lock: SymAddr) -> tuple[str, int]:
    """Wait-graph resource key for a lock cell."""
    return ("lock", lock.offset)


def set_lock(pe: "PE", lock: SymAddr) -> Generator:
    """``shmem_set_lock`` — blocking acquisition.

    Every backoff between failed CAS attempts is a wait on the cell in
    the wait-for graph, whose holder the graph has from that holder's
    acquisition: a wait that closes a hold-and-wait cycle across PEs ends
    the run with ``deadlock-cycle``.
    """
    token = pe.my_pe() + 1
    rt = pe.rt
    resource = _lock_resource(lock)
    attempt = 0
    while True:
        old = yield from rt.amo(
            LOCK_ARBITER_PE, lock, AmoOp.COMPARE_SWAP, token, 0
        )
        if old == 0:
            rt.wait_graph.acquire(resource, pe.my_pe())
            return
        if old == token:
            raise ShmemError(
                f"PE {pe.my_pe()}: set_lock on a lock it already holds"
            )
        attempt += 1
        backoff = min(_BACKOFF_BASE_US * attempt, _BACKOFF_CAP_US)
        with rt.blocked_on(f"set_lock @+{lock.offset}", resource=resource):
            yield rt.env.timeout(backoff)


def test_lock(pe: "PE", lock: SymAddr) -> Generator:
    """``shmem_test_lock`` — one attempt; returns True on acquisition."""
    token = pe.my_pe() + 1
    old = yield from pe.rt.amo(
        LOCK_ARBITER_PE, lock, AmoOp.COMPARE_SWAP, token, 0
    )
    if old == token:
        raise ShmemError(
            f"PE {pe.my_pe()}: test_lock on a lock it already holds"
        )
    if old == 0:
        pe.rt.wait_graph.acquire(_lock_resource(lock), pe.my_pe())
    return old == 0


def clear_lock(pe: "PE", lock: SymAddr) -> Generator:
    """``shmem_clear_lock`` — release; must be the current holder."""
    token = pe.my_pe() + 1
    old = yield from pe.rt.amo(
        LOCK_ARBITER_PE, lock, AmoOp.COMPARE_SWAP, 0, token
    )
    if old != token:
        raise ShmemError(
            f"PE {pe.my_pe()}: clear_lock while not holding it "
            f"(holder token {old})"
        )
    pe.rt.wait_graph.release(_lock_resource(lock))
