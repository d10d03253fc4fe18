"""Tickless waits: ``core.waits.poll_wait`` against the loop it replaced.

``quiet``, ``forwarding_quiesce``, the ctrl-relay flush and
``ShmemService.stop`` used to be ``while not done: yield env.timeout(1.0)``
loops.  The reference poller below *is* that loop, kept test-side as the
differential oracle (like ``HeapQueue`` for the calendar queue): every
scenario here runs under both and must agree on every per-op completion
time and the final clock, bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

import repro.core.runtime as runtime_module
import repro.core.service as service_module
from repro.bench.experiments.topology import _bench_body
from repro.core import (
    FastpathConfig,
    ShmemConfig,
    ShmemError,
    ShmemRuntime,
    run_spmd,
)
from repro.core.transfer import DOORBELL_ACK_DATA, DOORBELL_DMAPUT
from repro.core.waits import REPOLL, poll_wait
from repro.fabric import Cluster, ClusterConfig, HeartbeatConfig
from repro.faults import FaultPlan
from repro.sim import Environment, Signal


def reference_poll_wait(rt, what, check, deadline=None):
    """The replaced loop: one kernel event per idle microsecond."""
    with rt.blocked_on(what):
        while check() is not True:
            yield rt.env.timeout(1.0)


def both(monkeypatch, scenario):
    """``scenario()`` under the reference poller, then under poll_wait."""
    with monkeypatch.context() as patch:
        patch.setattr(runtime_module, "poll_wait", reference_poll_wait)
        patch.setattr(service_module, "poll_wait", reference_poll_wait)
        reference = scenario()
    return reference, scenario()


# --------------------------------------------------------------------------
# Differential runs over whole programs
# --------------------------------------------------------------------------

def _traffic(pe, nbi=True):
    """Puts to every peer, quiet, barrier, gets, AMOs, NBI + quiet; the
    clock after every op is the result."""
    me, n = pe.my_pe(), pe.num_pes()
    now = lambda: pe.rt.env.now  # noqa: E731
    done = []
    block = yield from pe.malloc(n * 8192)
    counter = yield from pe.malloc(8)
    src = pe.local_alloc(8192)
    dst = pe.local_alloc(8192)
    pe.write_symmetric(counter, np.zeros(1, dtype=np.int64))
    yield from pe.barrier_all()
    for rnd in range(3):
        size = (48, 4096, 8192)[rnd]
        for hop in range(1, n):
            data = np.full(size, 16 * rnd + me, dtype=np.uint8)
            yield from pe.put(block + me * 8192, data, (me + hop) % n)
            done.append(now())
        yield from pe.quiet()
        done.append(now())
        yield from pe.barrier_all()
        done.append(now())
        for hop in range(1, n):
            got = yield from pe.get(block + me * 8192, size, (me + hop) % n)
            assert got[0] == 16 * rnd + me
            done.append(now())
        yield from pe.atomic_fetch_add(counter, 1, (me + rnd) % n)
        done.append(now())
        if nbi:
            pe.put_nbi(block + me * 8192, src, 8192, (me + 1) % n)
            pe.get_nbi(dst, block, 4096, (me + n - 1) % n)
            yield from pe.quiet()
            done.append(now())
    yield from pe.barrier_all()
    done.append(now())
    return done


def _chaos(pe):
    """Put/barrier rounds across a mid-run cable sever."""
    me, n = pe.my_pe(), pe.num_pes()
    done = []
    block = yield from pe.malloc(4096)
    yield from pe.barrier_all()
    for rnd in range(4):
        data = np.full(4096, 8 * rnd + me, dtype=np.uint8)
        try:
            yield from pe.put(block, data, (me + 1) % n)
        except ShmemError:
            done.append("lost")
        yield from pe.quiet()
        done.append(pe.rt.env.now)
        yield from pe.barrier_all()
        done.append(pe.rt.env.now)
    return done


SCENARIOS = [
    # Without the NBI rounds: on the 3-ring they end with two PEs' quiets
    # returning in the same instant, and which of two polls due together
    # runs first — here, who then wins PE 0's slot — is the one thing the
    # tickless wait does not reproduce (docs/SIMULATOR.md).
    pytest.param(
        lambda: run_spmd(lambda pe: _traffic(pe, nbi=False), n_pes=3),
        id="ring3"),
    pytest.param(
        lambda: run_spmd(_traffic, n_pes=4, cluster_config=ClusterConfig(
            n_hosts=4, topology="mesh", dims=(2, 2))),
        id="mesh2x2"),
    pytest.param(
        lambda: run_spmd(_traffic, n_pes=4, shmem_config=ShmemConfig(
            fastpath=FastpathConfig())),
        id="ring4-fastpath"),
    pytest.param(
        lambda: run_spmd(_chaos, n_pes=4, shmem_config=ShmemConfig(
            faults=FaultPlan.single_sever(1, 2, at_us=1_500.0))),
        id="ring4-sever"),
    # ...and this is that tie deciding a published figure: the topology
    # bench on the 4x4 torus, whose bisection phase comes out 0.03 %
    # faster than under the loop (6.4 % on torus4x4x4).  Strict, so
    # whoever fixes or re-orders the tie hears it from tier-1.
    pytest.param(
        lambda: run_spmd(_bench_body, n_pes=16, cluster_config=ClusterConfig(
            n_hosts=16, topology="torus", dims=(4, 4))),
        id="torus4x4-bench",
        marks=pytest.mark.xfail(
            strict=True, reason="same-instant poll tie, docs/SIMULATOR.md")),
]


@pytest.mark.parametrize("run", SCENARIOS)
def test_same_completion_times_as_the_poll_loop(monkeypatch, run):
    def scenario():
        report = run()
        return (report.results, report.elapsed_us,
                report.cluster.env.dispatched_events)

    reference, tickless = both(monkeypatch, scenario)
    assert tickless[0] == reference[0]
    assert tickless[1] == reference[1]
    # The point of the exercise: the idle iterations are gone.
    assert tickless[2] < reference[2]


# --------------------------------------------------------------------------
# poll_wait itself, on a bare kernel
# --------------------------------------------------------------------------

class _Host:
    """The slice of ShmemRuntime poll_wait uses."""

    def __init__(self, env):
        self.env = env
        self.progress = Signal(env)
        self.busy = 1

    def blocked_on(self, what):
        return nullcontext()

    notify_progress = ShmemRuntime.notify_progress

    def release_after(self, *delays):
        """Sleep through ``delays`` in turn, then free what is waited on."""
        for delay in delays:
            yield self.env.timeout(delay)
        self.busy -= 1
        self.notify_progress()


def _returns_at(wait, *release_delays, start=0.25, releaser_first=True):
    env = Environment()
    host = _Host(env)
    out = []

    def waiter():
        yield env.timeout(start)
        yield from wait(host, "test", lambda: host.busy == 0)
        out.append(env.now)

    procs = [host.release_after(*release_delays), waiter()]
    for proc in procs if releaser_first else reversed(procs):
        env.process(proc)
    env.run()
    return out[0], env.dispatched_events


def test_release_between_ticks_returns_on_the_grid():
    # Polls at 0.25 + k; the release at 7.5 is seen by the poll at 8.25.
    for wait in (reference_poll_wait, poll_wait):
        assert _returns_at(wait, 7.5)[0] == 8.25
    # Some 700 poll events collapse into one signal and one grid timer.
    assert _returns_at(poll_wait, 700.5)[1] + 690 \
        < _returns_at(reference_poll_wait, 700.5)[1]


def test_tie_with_an_event_pushed_before_the_previous_tick():
    # The release runs at 5.25, exactly on the grid, off a timeout pushed
    # at 0.25: the loop's poll for 5.25 was pushed at 4.25 — later, so it
    # runs after the release and sees it.
    for wait in (reference_poll_wait, poll_wait):
        assert _returns_at(wait, 0.25, 5.0)[0] == 5.25


def test_tie_with_an_event_pushed_after_the_previous_tick():
    # Same instant, but this release rides a timeout pushed at 4.75: the
    # loop's poll for 5.25 (pushed at 4.25) runs first, sees nothing, and
    # the release is only noticed at 6.25.
    for wait in (reference_poll_wait, poll_wait):
        assert _returns_at(wait, 4.75, 0.5)[0] == 6.25


def test_notification_in_the_instant_the_wait_starts():
    # Releaser and waiter both run at 0.25.  Whoever runs first decides:
    # a release before the first check ends the wait on the spot, one
    # after it waits for the poll at 1.25.
    for wait in (reference_poll_wait, poll_wait):
        assert _returns_at(wait, 0.25, releaser_first=True)[0] == 0.25
        assert _returns_at(wait, 0.25, releaser_first=False)[0] == 1.25


def test_repoll_acts_on_every_tick_without_a_notification():
    env = Environment()
    host = _Host(env)
    polls = []

    def check():
        polls.append(env.now)
        return len(polls) == 4 or REPOLL

    env.process(poll_wait(host, "test", check))
    env.run()
    assert polls == [0.0, 1.0, 2.0, 3.0]


def test_deadline_wakes_a_parked_waiter_for_the_first_poll_past_it():
    env = Environment()
    host = _Host(env)
    polls = []

    def waiter():
        yield env.timeout(0.5)
        deadline = env.now + 10.25

        def check():
            polls.append(env.now)
            return env.now >= deadline

        yield from poll_wait(host, "test", check, deadline)

    env.process(waiter())
    env.run()
    # Nothing ever notifies: one check on entry, one at the first grid
    # tick >= 10.75, which is where the loop would have seen it expire.
    assert polls == [0.5, 11.5]


# --------------------------------------------------------------------------
# Fault and teardown paths through the real runtime
# --------------------------------------------------------------------------

def _put_then_quiet(pe):
    block = yield from pe.malloc(65536)
    yield from pe.barrier_all()
    if pe.my_pe() != 0:
        return None
    yield from pe.put(block, np.full(65536, 7, np.uint8), 1)
    handed_off = pe.rt.env.now
    yield from pe.quiet()
    return handed_off, pe.rt.env.now, sorted(pe.rt.dead_edges)


def test_sever_while_in_quiet_still_returns(monkeypatch):
    heartbeat = HeartbeatConfig()
    healthy = run_spmd(_put_then_quiet, n_pes=3, finalize=False,
                       shmem_config=ShmemConfig(heartbeat=heartbeat))
    handed_off, acked, dead = healthy.results[0]
    assert dead == [] and acked > handed_off + 50

    # Cut the cable after the hand-off, before the ACK can come back: the
    # slot is only ever released by the failure detector's flush.
    config = ShmemConfig(heartbeat=heartbeat, faults=FaultPlan.single_sever(
        0, 1, at_us=(handed_off + acked) / 2))

    def scenario():
        return run_spmd(_put_then_quiet, n_pes=3, finalize=False,
                        shmem_config=config).results[0]

    reference, tickless = both(monkeypatch, scenario)
    assert tickless == reference
    _, returned, dead = tickless
    assert dead == [(0, 1)]
    assert returned > acked + heartbeat.period_us
    # ...and it returned on the poll grid of the quiet that started at
    # the hand-off, like every other quiet.
    assert (returned - handed_off) % 1.0 == pytest.approx(0.0, abs=1e-6)


def _bring_up(n_pes):
    cluster = Cluster(ClusterConfig(n_hosts=n_pes))
    env = cluster.env
    runtimes = [ShmemRuntime(cluster, pe) for pe in range(n_pes)]
    env.run(until=env.all_of(
        [env.process(rt.initialize()) for rt in runtimes]))
    return env, runtimes


def test_mailbox_reports_every_slot_that_comes_back():
    from repro.core.errors import PeerUnreachableError
    from repro.ntb import LinkDownError

    env, (rt0, rt1, rt2) = _bring_up(3)
    mailbox = rt0.links["right"].data_mailbox
    assert mailbox.on_progress == rt0.notify_progress
    reports = []
    mailbox.on_progress = lambda: reports.append(
        (mailbox.acked_count, mailbox.failed_count, mailbox.in_flight))
    block, _, _ = [rt.heap.malloc(4096) for rt in (rt0, rt1, rt2)]
    staging = rt0.host.mmap(4096)

    def traffic():
        yield from rt0.put(block, staging.virt, 4096, 1)
        yield env.timeout(500.0)                # ACKed
        rt1.host.interrupts.mask(                # PE 1 goes deaf...
            rt1.links["left"].driver.irq_base + DOORBELL_DMAPUT)
        yield from rt0.put(block, staging.virt, 4096, 1)
        yield env.timeout(500.0)
        mailbox.fail_outstanding()              # ...so this one is flushed
        rt0.cluster.cable_between(0, 1).sever()
        with pytest.raises((LinkDownError, PeerUnreachableError)):
            yield from rt0.put(block, staging.virt, 4096, 1)

    env.run(until=env.process(traffic()))
    # One report per slot, each after the slot was really back.
    assert reports == [(1, 0, 0), (1, 1, 0), (1, 2, 0)]


def test_finalize_flushes_at_the_drain_deadline(monkeypatch):
    def scenario():
        env, (rt0, rt1) = _bring_up(2)
        env.run(until=env.process(rt1.finalize()))
        seen = {}

        def last_words():
            # PE 1's IRQ vectors are gone: this Put is never ACKed.
            block = rt0.heap.malloc(4096)
            staging = rt0.host.mmap(4096)
            yield from rt0.put(block, staging.virt, 4096, 1)
            seen["from"] = env.now
            yield from rt0.quiet(flush_after_us=rt0.FINALIZE_DRAIN_US)
            seen["until"] = env.now
            seen["failed"] = rt0.links["right"].data_mailbox.failed_count

        env.run(until=env.process(last_words()))
        return seen

    reference, tickless = both(monkeypatch, scenario)
    assert tickless == reference
    assert tickless["failed"] == 1
    # The first poll tick at or past the deadline (float ticks: the one
    # exactly FINALIZE_DRAIN_US in may land a hair short of it).
    waited = tickless["until"] - tickless["from"]
    assert 0.0 <= waited - ShmemRuntime.FINALIZE_DRAIN_US <= 1.0


def test_service_stop_flushes_at_the_drain_deadline(monkeypatch):
    def scenario():
        env, (rt0, rt1, rt2) = _bring_up(3)
        env.run(until=env.process(rt2.finalize()))
        seen = {}

        def relay_into_the_void():
            # Two chunks 0 -> 1 -> 2: PE 1 hands the first to the
            # torn-down PE 2 (never ACKed), the second queues behind its
            # slot forever.
            block = rt0.heap.malloc(8192)
            staging = rt0.host.mmap(8192)
            yield from rt0.put(block, staging.virt, 4096, 2)
            yield from rt0.put(block + 4096, staging.virt, 4096, 2)
            yield env.timeout(500.0)
            seen["stuck"] = rt1.service.active_forwards
            seen["from"] = env.now
            yield from rt1.service.stop()
            seen["until"] = env.now
            seen["left"] = rt1.service.active_forwards

        env.run(until=env.process(relay_into_the_void()))
        return seen

    reference, tickless = both(monkeypatch, scenario)
    assert tickless == reference
    assert (tickless["stuck"], tickless["left"]) == (1, 0)
    # The flush at the deadline frees the slot; the queued relay takes it
    # and hands off (tens of µs of DMA), flushed again every tick, and
    # the first poll after its task ends returns.
    waited = tickless["until"] - tickless["from"]
    assert 0.0 <= waited - ShmemRuntime.FINALIZE_DRAIN_US <= 200.0


def test_quiet_that_can_never_complete_names_the_blocked_pe():
    def main(pe):
        block = yield from pe.malloc(4096)
        yield from pe.barrier_all()
        if pe.my_pe() == 0:
            # Deafen PE 0 to data-window ACKs: its Put is delivered, the
            # ACK doorbell rings, and nothing releases the slot.
            link = pe.rt.links["right"]
            pe.rt.host.interrupts.unregister(
                link.driver.irq_base + DOORBELL_ACK_DATA)
            yield from pe.put(block, np.zeros(4096, np.uint8), 1)
        yield from pe.quiet()

    # The poll loop would spin here until the host gave up; event-driven,
    # the queue simply drains and the run says who was waiting for what.
    with pytest.raises(ShmemError, match="pe0 blocked on 'quiet'"):
        run_spmd(main, n_pes=3, finalize=False)
