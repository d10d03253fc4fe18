"""The bundled protocol models ShmemCheck explores.

A :class:`CheckModel` is a tiny SPMD program plus the runtime
configuration it runs under and a post-run property check.  Models are
deliberately small — a handful of operations per PE — because the
explorer re-executes them once per schedule; what makes them interesting
is that each one concentrates a protocol mechanism whose correctness
depends on ordering:

``lock``
    Two PEs increment a shared counter under the paper's distributed
    lock.  Mutual exclusion must hold in *every* interleaving.
``deadlock-demo``
    Two locks taken in opposite orders — the textbook ABBA bug, with a
    flag handshake forcing both PEs to hold their first lock before
    either requests its second.  Every schedule wedges; the wait-for
    graph must name the cycle.  (A model that is *supposed* to fail:
    the harness's positive control.)
``barrier-recovery``
    A three-PE ring exchanging data around barriers, with fault branches
    that sever a cable at decision points across the workload's active
    window — the paper's degraded-barrier protocol under systematic
    fault placement, asserting data only on the post-recovery round.
``put-signal``
    Producer/consumer over ``shmem_put_signal`` + ``wait_until``: the
    signal must never overtake its payload.
``fastpath-credit``
    A multi-chunk put forwarded through the middle PE under the fastpath
    credit flow control — the mechanism the dropped-ACK mutation breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

import numpy as np

from ..core import PE, FastpathConfig, ShmemConfig
from ..core.errors import PeerUnreachableError, ShmemError
from ..fabric.heartbeat import HeartbeatConfig

__all__ = ["CheckModel", "MODELS"]

PeMain = Callable[[PE], Generator]


@dataclass(frozen=True)
class CheckModel:
    """One checkable program: code + config + property."""

    name: str
    n_pes: int
    main: PeMain
    make_config: Callable[[], ShmemConfig]
    #: cables the fault pass may sever, as (host, host) ring edges.
    fault_edges: tuple[tuple[int, int], ...] = ()
    #: restrict fault injection to decisions inside this virtual-time
    #: window (us).  Severs during the startup handshake wedge before
    #: the failure detector is armed, and severs after the workload's
    #: last data round test nothing — the window aims the fault pass at
    #: the instants the recovery protocol actually defends.
    fault_window_us: Optional[tuple[float, float]] = None
    #: virtual-time budget per schedule before declaring a liveness bug.
    horizon_us: float = 1_000_000.0
    #: simulator-step budget per schedule (livelock backstop).
    max_steps: int = 400_000
    #: post-run property over the per-PE results; returns problem strings.
    check_results: Optional[Callable[[list[Any]], list[str]]] = None
    #: True for positive controls that are *expected* to produce
    #: violations (the harness must find at least one).
    expect_violation: bool = False
    #: explorer defaults (overridable on the CLI).
    default_budget: int = 200
    tags: tuple[str, ...] = field(default=())


def _base_config(**overrides: Any) -> ShmemConfig:
    settings: dict[str, Any] = dict(
        sanitize="report",
        trace_spans=True,
    )
    settings.update(overrides)
    return ShmemConfig(**settings)


# --------------------------------------------------------------------- lock
def _lock_main(pe: PE) -> Generator:
    lock = yield from pe.static_symmetric("chk.lock", 8)
    counter = yield from pe.static_symmetric("chk.counter", 8)
    yield from pe.barrier_all()
    yield from pe.set_lock(lock)
    value = yield from pe.g(counter, 0)
    yield from pe.p(counter, value + 1, 0)
    yield from pe.clear_lock(lock)
    yield from pe.barrier_all()
    final = yield from pe.g(counter, 0)
    return int(final)


def _lock_check(results: list[Any]) -> list[str]:
    expect = len(results)
    return [
        f"PE {pe}: counter ended at {got}, want {expect} "
        "(lost update — mutual exclusion violated)"
        for pe, got in enumerate(results) if got != expect
    ]


# ------------------------------------------------------------ deadlock demo
def _deadlock_main(pe: PE) -> Generator:
    lock_a = yield from pe.static_symmetric("chk.lockA", 8)
    lock_b = yield from pe.static_symmetric("chk.lockB", 8)
    flag = yield from pe.static_symmetric("chk.holding", 8)
    yield from pe.barrier_all()
    me, other = pe.my_pe(), 1 - pe.my_pe()
    first, second = ((lock_a, lock_b) if me == 0
                     else (lock_b, lock_a))
    yield from pe.set_lock(first)
    # Tell the peer we hold our first lock, and wait until it holds its —
    # the handshake forces the hold-and-wait overlap a free-running race
    # would only hit under timings the deterministic kernel never takes.
    yield from pe.p(flag, 1, other)
    yield from pe.wait_until(flag, "==", 1)
    yield from pe.set_lock(second)
    yield from pe.clear_lock(second)
    yield from pe.clear_lock(first)
    yield from pe.barrier_all()
    return True


# --------------------------------------------------------- barrier recovery
def _barrier_recovery_main(pe: PE) -> Generator:
    """Ring puts around barriers, surviving a mid-phase cable sever.

    The fault contract (docs/FAULTS.md) promises delivery only *after*
    recovery: a put racing the sever may raise
    :class:`PeerUnreachableError`, and a barrier crossed by the cut
    completes via the degraded watermark protocol without guaranteeing
    the phase's data landed.  So the phases under fire are tolerant —
    attempt, swallow unreachable, barrier — and correctness is asserted
    on a strict post-recovery round over the rerouted ring.
    """
    me, n = pe.my_pe(), pe.num_pes()
    buf = yield from pe.static_symmetric("chk.buf", 8)
    yield from pe.barrier_all()
    for phase in range(2):
        try:
            yield from pe.p(buf, 1000 * phase + me, (me + 1) % n)
        except PeerUnreachableError:
            pass
        yield from pe.barrier_all()
    # Let heartbeat detection (2 x 200 us) and retry backoff drain, so
    # the strict round below runs on the recovered fabric.
    yield pe.rt.env.timeout(2_000.0)
    yield from pe.barrier_all()
    yield from pe.p(buf, 7000 + me, (me + 1) % n)
    yield from pe.barrier_all()
    got = int(pe.read_symmetric(buf, 8).view(np.int64)[0])
    expect = 7000 + (me - 1) % n
    if got != expect:
        raise ShmemError(
            f"PE {me}: post-recovery neighbor value {got}, "
            f"want {expect} (barrier released early?)"
        )
    yield from pe.barrier_all()
    return True


# --------------------------------------------------------------- put_signal
_PAYLOAD = tuple(range(7, 7 + 8 * 3, 3))  # 8 int64 values


def _put_signal_main(pe: PE) -> Generator:
    data = yield from pe.static_symmetric("chk.data", 64)
    flag = yield from pe.static_symmetric("chk.flag", 8)
    yield from pe.barrier_all()
    if pe.my_pe() == 0:
        payload = np.asarray(_PAYLOAD, dtype=np.int64)
        yield from pe.put_signal(data, payload.view(np.uint8), 1, flag, 1)
        result = sum(_PAYLOAD)
    else:
        yield from pe.wait_until(flag, "==", 1)
        got = pe.read_symmetric_array(data, 8, np.int64)
        result = int(got.sum())
    yield from pe.barrier_all()
    return result


def _put_signal_check(results: list[Any]) -> list[str]:
    expect = sum(_PAYLOAD)
    return [
        f"PE {pe}: saw payload sum {got}, want {expect} "
        "(signal overtook its data)"
        for pe, got in enumerate(results) if got != expect
    ]


# ----------------------------------------------------------- fastpath credit
_CHUNK = 1024
_N_CHUNKS = 4


def _fastpath_credit_main(pe: PE) -> Generator:
    sink = yield from pe.static_symmetric("chk.sink", _CHUNK * _N_CHUNKS)
    yield from pe.barrier_all()
    last = pe.num_pes() - 1
    if pe.my_pe() == 0:
        # One large put: forwarded through the middle PE in fwd_chunk
        # pieces, exercising the bypass credit pool.
        blob = np.concatenate([
            np.full(_CHUNK, 1 + i, dtype=np.uint8) for i in range(_N_CHUNKS)
        ])
        yield from pe.put(sink, blob, last)
        yield from pe.quiet()
    yield from pe.barrier_all()
    if pe.my_pe() == last:
        got = pe.read_symmetric(sink, _CHUNK * _N_CHUNKS)
        bad = [
            i for i in range(_N_CHUNKS)
            if not (got[i * _CHUNK:(i + 1) * _CHUNK] == 1 + i).all()
        ]
        return ("corrupt chunks " + repr(bad)) if bad else "ok"
    return "ok"


def _fastpath_credit_config() -> ShmemConfig:
    return _base_config(
        fwd_chunk=_CHUNK,
        fastpath=FastpathConfig(credit_slots=2),
    )


def _fastpath_credit_check(results: list[Any]) -> list[str]:
    return [
        f"PE {pe}: {got}"
        for pe, got in enumerate(results) if got != "ok"
    ]


MODELS: dict[str, CheckModel] = {
    model.name: model
    for model in (
        CheckModel(
            name="lock",
            n_pes=2,
            main=_lock_main,
            make_config=_base_config,
            check_results=_lock_check,
            default_budget=400,
            tags=("ci",),
        ),
        CheckModel(
            name="deadlock-demo",
            n_pes=2,
            main=_deadlock_main,
            make_config=_base_config,
            expect_violation=True,
            default_budget=200,
            horizon_us=200_000.0,
            tags=("demo",),
        ),
        CheckModel(
            name="barrier-recovery",
            n_pes=3,
            main=_barrier_recovery_main,
            make_config=lambda: _base_config(
                heartbeat=HeartbeatConfig(period_us=200.0,
                                          miss_threshold=2),
                # Retry long enough to outlast detection (2 x 200 us),
                # so mid-round sends reroute instead of giving up.
                max_retries=8,
                retry_backoff_us=200.0,
            ),
            fault_edges=((0, 1),),
            fault_window_us=(450.0, 1_300.0),
            horizon_us=2_000_000.0,
            default_budget=3_000,
            tags=("ci", "faults"),
        ),
        CheckModel(
            name="put-signal",
            n_pes=2,
            main=_put_signal_main,
            make_config=_base_config,
            check_results=_put_signal_check,
            default_budget=200,
            tags=("ci",),
        ),
        CheckModel(
            name="fastpath-credit",
            n_pes=3,
            main=_fastpath_credit_main,
            make_config=_fastpath_credit_config,
            check_results=_fastpath_credit_check,
            default_budget=200,
            tags=("ci", "fastpath"),
        ),
    )
}
