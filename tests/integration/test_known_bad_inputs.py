"""The known bad inputs: runs that break "verified data or a typed error
in bounded virtual time" today, each a strict xfail, and the ones a fix
has turned into regression tests.

Four come from ``benchmarks/trajectory/README.md`` ("Known bad inputs")
and one was a wire-level cousin of the first (a DMA chunk the wire
dropped landed anyway; it is a regression test now).  Cables cut while
barrier tokens are in flight — the ring sweep, grid rounds and a
SHORTEST ring's rounds — are the regression tests of the token
barriers' dissemination recovery; a detoured put and a flapping cable
are those of the flood that follows once every PE agreed on the cut.
A cut and restore under bypass traffic desynchronises the two ends'
bypass slot cursors, on both planes (a strict xfail that raises).
Each run goes through
``core.program.launch`` and ``drive`` under a virtual-time horizon and a
cap on dispatched events, so an input that never finishes fails in
seconds with drive's ``StuckRunError`` instead of hanging tier-1.
Every failure message is a one-line repro: seed, plan, topology and
routing (the plans are fixed, so there is no seed).

When the fault path is fixed (the ROADMAP item on end-to-end
delivery), a test here starts to pass and ``strict=True`` turns that
into a failure: drop its marker.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    FastpathConfig,
    PeerUnreachableError,
    ProtocolError,
    RaceError,
    ShmemConfig,
    StuckRunError,
)
from repro.check.models import _barrier_recovery_main, _recovery_config
from repro.core.program import drive, launch, make_cluster
from repro.fabric import ClusterConfig
from repro.faults import DelayTlp, FaultPlan, RestoreCable, SeverCable

from ..ntb.test_dma_wire_paths import severed_in_flight

#: the healthy and the sever-only versions of the hanging inputs below
#: finish in under 65 000 events and 30 ms of virtual time.
_HORIZON_US = 1_000_000.0
_MAX_EVENTS = 150_000
_RETRIES = dict(max_retries=8, retry_backoff_us=200.0)


def _run(cluster_config, shmem_config, main):
    """Launch ``main`` on every PE and drive it under the horizon and the
    event cap: ``(results, stuck)``.  A typed error escaping a PE ends
    the run, with the error in the result of every PE that had not
    returned; ``stuck`` is drive's ``StuckRunError`` if the run stalled,
    else None."""
    cluster = make_cluster(cluster_config.n_hosts, cluster_config)
    _runtimes, _pes, results, procs = launch(cluster, main, shmem_config)
    try:
        drive(cluster, procs, horizon_us=_HORIZON_US, max_events=_MAX_EVENTS)
    except PeerUnreachableError as exc:
        return [exc if r is None else r for r in results], None
    except StuckRunError as exc:
        return results, exc
    return results, None


def _repro(plan, cluster_config, shmem_config, seed="none"):
    """The one-line repro every failure here and in the fault fuzz
    (tests/properties/test_fault_fuzz.py) prints."""
    topology = cluster_config.topology + (
        f"{'x'.join(map(str, cluster_config.dims))}"
        if cluster_config.dims else str(cluster_config.n_hosts))
    routing = shmem_config.routing.value if shmem_config.routing \
        else "default"
    fastpath = "on" if shmem_config.fastpath else "off"
    return (f"repro: seed={seed} plan={list(plan)} topology={topology} "
            f"routing={routing} barrier={shmem_config.barrier} "
            f"fastpath={fastpath}")


def _outcomes(results):
    """PEs whose payload check failed without a typed error."""
    return [pe for pe, result in enumerate(results)
            if not isinstance(result, PeerUnreachableError)
            and result is not None and result[0]]


def _put_over_a_cut_cable(sever_at_us):
    """PE 0 puts 64 KiB to PE 2 over PE 1 on a 4-ring between two
    barriers, and cable (1,2) is cut at ``sever_at_us``; PE 2 then checks
    the payload.  Returns the driven run and its repro line."""
    size = 64 * 1024
    plan = FaultPlan([SeverCable(sever_at_us, 1, 2)])
    cluster_config = ClusterConfig(n_hosts=4)
    shmem_config = ShmemConfig(faults=plan, **_RETRIES)

    def main(pe):
        sym = yield from pe.malloc(size)
        yield from pe.barrier_all()
        if pe.my_pe() == 0:
            try:
                yield from pe.put(sym, np.full(size, 9, np.uint8), 2)
            except PeerUnreachableError as exc:
                return exc
        yield from pe.barrier_all()
        stale = 0
        if pe.my_pe() == 2:
            stale = int((pe.read_symmetric(sym, size) != 9).sum())
        return (stale,)

    return (_run(cluster_config, shmem_config, main),
            _repro(plan, cluster_config, shmem_config))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a put relayed across a cable in the window between its cut and its "
    "detection is dropped by the relay; the sender's put already "
    "returned and nobody is told (ROADMAP: end-to-end delivery)"))
def test_relayed_put_lost_between_cut_and_detection():
    """The cut lands while PE 1 relays the put, 1.5 ms before the
    detector can mark the cable."""
    (results, stuck), repro = _put_over_a_cut_cable(500.0)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), \
        f"stale payload, no error on PE {_outcomes(results)}: {repro}"


def test_cut_while_a_barrier_token_is_in_flight():
    """The same put, cut 200 µs later: the second barrier's token is on
    the cable.  PEs 0 and 1 finish the token episode; PEs 2 and 3 finish
    it through the dissemination recovery, nudging the PEs ahead of them
    for the notifications those never sent."""
    (results, stuck), repro = _put_over_a_cut_cable(700.0)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [(0,)] * 4, f"not verified on every PE: {results}; " \
        f"{repro}"


def _token_rounds(topology, dims, edge, sever_at_us):
    """Six rounds of a 4 KiB put to the reflected partner, each closed by
    a barrier, on a grid whose cable ``edge`` is cut at ``sever_at_us``;
    then, once every detector has marked the cut, a strict round whose
    payload every PE checks.  Returns the bounded run and its repro."""
    size = 4096
    plan = FaultPlan([SeverCable(sever_at_us, *edge)])
    n_hosts = int(np.prod(dims))
    cluster_config = ClusterConfig(n_hosts=n_hosts, topology=topology,
                                   dims=dims)
    shmem_config = ShmemConfig(faults=plan, **_RETRIES)

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        partner = n - 1 - me
        sym = yield from pe.malloc(2 * size)
        yield from pe.barrier_all()
        for rnd in range(6):
            try:
                yield from pe.put(sym + (rnd % 2) * size,
                                  np.full(size, rnd + 1, np.uint8), partner)
            except PeerUnreachableError:
                pass
            yield from pe.barrier_all()
        yield pe.rt.env.timeout(3_000.0)
        yield from pe.barrier_all()
        yield from pe.put(sym, np.full(size, 99, np.uint8), partner)
        yield from pe.barrier_all()
        return (int((pe.read_symmetric(sym, size) != 99).sum()),)

    return (_run(cluster_config, shmem_config, main),
            _repro(plan, cluster_config, shmem_config))


# The instants come from the fault-free run's token log: on the 4x4 mesh
# PE 6 rings its first x-round START over (5,6) at 803.1 us (the second
# barrier), on the 3x3 torus PE 4 rings one over (4,5) at 541.7 us; PE 5
# of the mesh rings its second x-round at 858.9 us and its third at
# 970.8 us.
@pytest.mark.parametrize("topology,dims,edge,sever_at_us", [
    ("mesh", (4, 4), (5, 6), 803.6),
    ("torus", (3, 3), (4, 5), 542.2),
], ids=["mesh4x4", "torus3x3"])
def test_cut_while_grid_tokens_are_in_flight(topology, dims, edge,
                                             sever_at_us):
    """The grid token episode the cut lands in moves to the inherited
    dissemination recovery on every PE, under the same generation."""
    (results, stuck), repro = _token_rounds(topology, dims, edge,
                                            sever_at_us)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [(0,)] * len(results), \
        f"not verified on every PE: {results}; {repro}"


def test_cut_between_two_token_rounds_of_one_pe():
    """The cut lands while PE 5 waits between its second and third
    x-round.  The dissemination recovery that follows sees stray resends
    and nudges of other rounds wake its waits faster than a resend
    window lasts; the window runs on regardless, or no PE would ever
    resend (this instant livelocked while each wake restarted it)."""
    (results, stuck), repro = _token_rounds("mesh", (4, 4), (5, 6), 915.0)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [(0,)] * 16, \
        f"not verified on every PE: {results}; {repro}"


def _detoured_put(src, dst, delayed):
    """Cable (5,6) of a 4x4 mesh is cut at 0.5 ms and cable ``delayed``
    carries every TLP 50 µs late from 4 ms.  A settling barrier at 5 ms,
    then ``src`` puts 64 KiB to ``dst`` at 10 ms and every PE enters a
    barrier; ``dst`` then counts stale bytes.  Returns the bounded run
    and its repro line."""
    size = 64 * 1024
    plan = FaultPlan([SeverCable(500.0, 5, 6),
                      DelayTlp(4_000.0, *delayed, 50.0, 1_000_000.0)])
    cluster_config = ClusterConfig(n_hosts=16, topology="mesh", dims=(4, 4))
    shmem_config = ShmemConfig(faults=plan, **_RETRIES)

    def main(pe):
        sym = yield from pe.malloc(size)
        yield from pe.barrier_all()
        yield pe.rt.env.timeout(5_000.0 - pe.rt.env.now)
        yield from pe.barrier_all()
        yield pe.rt.env.timeout(10_000.0 - pe.rt.env.now)
        if pe.my_pe() == src:
            yield from pe.put(sym, np.full(size, 9, np.uint8), dst)
        yield from pe.barrier_all()
        stale = 0
        if pe.my_pe() == dst:
            stale = int((pe.read_symmetric(sym, size) != 9).sum())
        return (stale,)

    return (_run(cluster_config, shmem_config, main),
            _repro(plan, cluster_config, shmem_config))


# The put detours around the cut, and the delayed cable is on its path
# but on no dissemination notification's: each read all 65 536 bytes
# stale while the barriers after a cut were dissemination.
@pytest.mark.parametrize("src,dst,delayed", [
    (7, 4, (0, 1)), (7, 4, (1, 2)), (7, 4, (14, 15)), (6, 5, (1, 2)),
])
def test_barrier_after_a_cut_flushes_a_detoured_put(src, dst, delayed):
    """The settling barrier agrees on the cut; the next one floods its
    tokens over every live cable, so it follows the detour."""
    (results, stuck), repro = _detoured_put(src, dst, delayed)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [(0,)] * 16, f"stale after barrier: {results}; " \
        f"{repro}"


def _recovery_on_a_shortest_ring(n_hosts, plan):
    """ShmemCheck's barrier-recovery body on a SHORTEST ring with
    heartbeats: puts to the next PE around barriers under the plan, then
    a strict round after detection whose payload every PE checks."""
    cluster_config = ClusterConfig(n_hosts=n_hosts)
    shmem_config = dataclasses.replace(_recovery_config(), faults=plan,
                                       routing="shortest")
    return (_run(cluster_config, shmem_config, _barrier_recovery_main),
            _repro(plan, cluster_config, shmem_config))


# A SHORTEST ring runs neighbour token rounds.  Its second and third
# barriers span 208-638 us on the 5-ring, 264-806 us on the 6-ring and
# 320-973 us on the 8-ring (the fault-free run's barrier spans).
@pytest.mark.parametrize("n_hosts,sever_at_us", [
    (5, 250.0), (5, 450.0), (5, 600.0),
    (6, 300.0), (6, 600.0), (6, 700.0),
    (8, 450.0), (8, 700.0), (8, 900.0),
])
def test_cut_while_shortest_ring_tokens_are_in_flight(n_hosts,
                                                      sever_at_us):
    """One cut cable: the token rounds fall back to the inherited
    dissemination recovery and every PE verifies the strict round."""
    plan = FaultPlan.single_sever(0, 1, at_us=sever_at_us)
    (results, stuck), repro = _recovery_on_a_shortest_ring(n_hosts, plan)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [True] * n_hosts, \
        f"not verified on every PE: {results}; {repro}"


@pytest.mark.parametrize("n_hosts,sever_at_us", [
    (5, 250.0), (6, 300.0), (8, 450.0)])
def test_two_cuts_partition_a_shortest_ring(n_hosts, sever_at_us):
    """Two cut cables split the ring: a typed error inside the horizon,
    never a stuck run."""
    half = n_hosts // 2
    plan = FaultPlan([SeverCable(sever_at_us, 0, 1),
                      SeverCable(sever_at_us, half, half + 1)])
    (results, stuck), repro = _recovery_on_a_shortest_ring(n_hosts, plan)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert all(isinstance(result, PeerUnreachableError)
               for result in results), f"{results}; {repro}"


def _rounds_on_mesh16(plan, op):
    """Eight rounds of ``op`` toward the reflected partner, a barrier and
    1 ms of compute, on a 4x4 mesh; returns the bounded run's outcome
    and its repro line."""
    cluster_config = ClusterConfig(n_hosts=16, topology="mesh", dims=(4, 4))
    shmem_config = ShmemConfig(faults=plan, **_RETRIES)
    size = 4096

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        partner = n - 1 - me
        sym = yield from pe.malloc(2 * size)
        pe.write_symmetric(sym, np.full(2 * size, me + 1, np.uint8))
        yield from pe.barrier_all()
        stale = errors = 0
        for rnd in range(8):
            try:
                stale += yield from op(pe, sym, size, partner, rnd)
            except PeerUnreachableError:
                errors += 1
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(1_000.0)
        return (stale, errors)

    return (_run(cluster_config, shmem_config, main),
            _repro(plan, cluster_config, shmem_config))


def _get(pe, sym, size, partner, _rnd):
    got = yield from pe.get(sym, size, partner)
    return int((got != partner + 1).sum())


def _put(pe, sym, size, partner, rnd):
    slot = sym + (rnd % 2) * size
    yield from pe.put(slot, np.full(size, 100 + rnd, np.uint8), partner)
    return 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a get whose request or response path crosses a dead cable is never "
    "answered and never failed (ROADMAP: end-to-end delivery)"))
def test_get_never_returns_while_a_cable_is_down():
    """Cable (5,6) of a 4x4 mesh is cut between two get rounds; PEs 12-15
    then wait in ``get`` for good (the healthy run: 54 000 events)."""
    plan = FaultPlan([SeverCable(3_000.0, 5, 6)])
    (results, stuck), repro = _rounds_on_mesh16(plan, _get)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), f"stale get: {repro}"


def test_flap_finishes():
    """Cable (5,6) of a 4x4 mesh goes down at 3 ms and back up at 8 ms
    under put/barrier rounds.  Barriers recover until every PE agrees on
    the restored fabric; each PE's fence then drops the START tokens its
    neighbours rang into episodes the restore aborted (this run cycled
    through recovery past the event cap while they counted)."""
    plan = FaultPlan([SeverCable(3_000.0, 5, 6),
                      RestoreCable(8_000.0, 5, 6)])
    (results, stuck), repro = _rounds_on_mesh16(plan, _put)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), f"stale put: {repro}"


def _unflushed_put(sanitize):
    """PE 5 of an 8-ring puts 256 KiB to PE 2 the short way (5-4-3-2)
    and enters a dissemination barrier; PE 2's notifiers (1, 0, 6) all
    reach it over other cables, and cable (2,3) carries each TLP 50 µs
    late.  After the barrier PE 2 checks the payload."""
    size = 256 * 1024
    plan = FaultPlan([DelayTlp(0.0, 2, 3, 50.0, 1_000_000.0)])
    cluster_config = ClusterConfig(n_hosts=8)
    shmem_config = ShmemConfig(routing="shortest", barrier="dissemination",
                               faults=plan, sanitize=sanitize)

    def main(pe):
        sym = yield from pe.malloc(size)
        yield from pe.barrier_all()
        if pe.my_pe() == 5:
            yield from pe.put(sym, np.full(size, 9, np.uint8), 2)
        yield from pe.barrier_all()
        stale = 0
        if pe.my_pe() == 2:
            stale = int((pe.read_symmetric(sym, size) != 9).sum())
        yield from pe.barrier_all()
        return (stale,)

    return (_run(cluster_config, shmem_config, main),
            _repro(plan, cluster_config, shmem_config))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the dissemination barrier orders nothing its own notifications do "
    "not travel behind: a put on another route lands after the barrier "
    "(ROADMAP: end-to-end delivery)"))
def test_dissemination_barrier_does_not_flush_a_put_on_another_route():
    (results, stuck), repro = _unflushed_put(sanitize=None)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), f"stale after barrier: {repro}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ShmemSan's barrier_exit assumes every barrier orders all prior "
    "puts, so the unflushed put above is no race to it"))
def test_shmemsan_strict_flags_the_unflushed_put():
    try:
        (results, stuck), repro = _unflushed_put(sanitize="strict")
    except RaceError:
        return
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), \
        f"stale after barrier, and ShmemSan strict saw no race: {repro}"


@pytest.mark.xfail(strict=True, raises=ProtocolError, reason=(
    "a bypass message lost at a cut is failed at the sender, whose slot "
    "cursor has moved on while the receiver's still points at the lost "
    "slot; after the restore the receiver reads a zeroed header (ROADMAP "
    "item 'one flow-control shape, a slot ring with cumulative acks')"))
@pytest.mark.parametrize("plane", ["default", "fastpath"])
def test_bypass_slot_cursors_desync_after_a_restore(plane):
    """Cable (0,3) of a 3x3 mesh is cut at 4.65 ms and restored at 9.7 ms
    under twelve rounds, 1 ms apart, of a 2 KiB put to PE ``me + 1 +
    rnd`` and a barrier; then a strict round every PE checks.  The run
    ends in ``ProtocolError: bad message kind 0`` near 20 ms."""
    size = 2048
    plan = FaultPlan([SeverCable(4652.2, 0, 3), RestoreCable(9697.0, 0, 3)])
    cluster_config = ClusterConfig(n_hosts=9, topology="mesh", dims=(3, 3))
    shmem_config = ShmemConfig(
        faults=plan, fastpath=FastpathConfig() if plane == "fastpath"
        else None, **_RETRIES)

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        sym = yield from pe.malloc(size)
        yield from pe.barrier_all()
        for rnd in range(12):
            try:
                yield from pe.put(sym, np.full(size, rnd + 1, np.uint8),
                                  (me + 1 + rnd) % n)
            except PeerUnreachableError:
                pass
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(1_000.0)
        yield from pe.put(sym, np.full(size, 99, np.uint8), (me + 1) % n)
        yield from pe.barrier_all()
        return (int((pe.read_symmetric(sym, size) != 99).sum()),)

    (results, stuck), repro = (_run(cluster_config, shmem_config, main),
                               _repro(plan, cluster_config, shmem_config))
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert results == [(0,)] * 9, f"not verified on every PE: {results}; " \
        f"{repro}"


def test_dma_chunk_dropped_on_the_wire_never_lands():
    """The last of three chunks is dropped by a cut inside its DelayTlp
    wait: the engine fails the request and the receiver never holds the
    dropped bytes."""
    figures = severed_in_flight(sever_at_us=50.0)
    if figures["dropped"] != 16 * 1024:
        pytest.fail(f"the cut no longer lands in the last chunk: {figures}")
    assert figures["outcome"] == ["LinkDownError"] \
        or not figures["landed"][2], \
        f"dropped chunk landed: {figures} (repro: seed=none plan=" \
        "[DelayTlp 6 us on h0->h1, sever at 50 us] topology=2-host " \
        "cable routing=n/a)"
