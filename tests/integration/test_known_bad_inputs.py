"""The known bad inputs: runs that break "verified data or a typed error
in bounded virtual time" today, each a strict xfail.

Four come from ``benchmarks/trajectory/README.md`` ("Known bad inputs"),
one is a wire-level cousin of the first, and one is a cable cut while a
barrier token is in flight.  Each run goes through
``core.program.launch`` and ``drive`` under a virtual-time horizon and a
cap on dispatched events, so an input that never finishes fails in
seconds with drive's ``StuckRunError`` instead of hanging tier-1.
Every failure message is a one-line repro: seed, plan, topology and
routing (the plans are fixed, so there is no seed).

When the fault path is fixed (ROADMAP item 2), a test here starts to
pass and ``strict=True`` turns that into a failure: drop its marker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PeerUnreachableError,
    RaceError,
    ShmemConfig,
    StuckRunError,
)
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
    "returned and nobody is told (ROADMAP item 2)"))
def test_relayed_put_lost_between_cut_and_detection():
    """The cut lands while PE 1 relays the put, 1.5 ms before the
    detector can mark the cable."""
    (results, stuck), repro = _put_over_a_cut_cable(500.0)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), \
        f"stale payload, no error on PE {_outcomes(results)}: {repro}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a cable cut while a barrier token is in flight leaves the degraded "
    "barrier waiting for arrivals that never come (ROADMAP item 2)"))
def test_cut_while_a_barrier_token_is_in_flight():
    """The same put, cut 200 µs later: the second barrier's token is on
    the cable.  PEs 0 and 1 finish; PEs 2 and 3 wait in the degraded
    barrier, resending every millisecond, until the horizon."""
    (results, stuck), repro = _put_over_a_cut_cable(700.0)
    if stuck is not None and (
            stuck.kind != "liveness-horizon"
            or [r is not None for r in results] != [True, True, False, False]
            or sorted({entry.pe for entry in stuck.entries}) != [2, 3]):
        pytest.fail(f"the stall changed shape: {stuck}; {repro}")
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), \
        f"stale payload, no error on PE {_outcomes(results)}: {repro}"


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
    "answered and never failed (ROADMAP item 2)"))
def test_get_never_returns_while_a_cable_is_down():
    """Cable (5,6) of a 4x4 mesh is cut between two get rounds; PEs 12-15
    then wait in ``get`` for good (the healthy run: 54 000 events)."""
    plan = FaultPlan([SeverCable(3_000.0, 5, 6)])
    (results, stuck), repro = _rounds_on_mesh16(plan, _get)
    assert stuck is None, f"did not finish ({stuck.kind}): {repro}"
    assert not _outcomes(results), f"stale get: {repro}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a sever followed by a restore of the same cable leaves the run "
    "cycling through recovery without end (ROADMAP item 2)"))
def test_flap_never_finishes():
    """Cable (5,6) of a 4x4 mesh goes down at 3 ms and back up at 8 ms
    under put/barrier rounds: the same run without the restore finishes
    in 59 000 events, this one is past the cap."""
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
    "(ROADMAP item 2)"))
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a DMA chunk the wire dropped is still written into the receiver's "
    "window when its pipeline stages join"))
def test_dma_chunk_dropped_on_the_wire_never_lands():
    """The last of three chunks is dropped by a cut inside its DelayTlp
    wait: the engine completes the request, and the receiver holds the
    dropped bytes."""
    figures = severed_in_flight(sever_at_us=50.0)
    if figures["dropped"] != 16 * 1024:
        pytest.fail(f"the cut no longer lands in the last chunk: {figures}")
    assert figures["outcome"] == ["LinkDownError"] \
        or not figures["landed"][2], \
        f"dropped chunk landed: {figures} (repro: seed=none plan=" \
        "[DelayTlp 6 us on h0->h1, sever at 50 us] topology=2-host " \
        "cable routing=n/a)"
