"""Fastpath x fault injection: the optimized data plane must lose cables
as gracefully as the paper-faithful one.

The PR's chaos satellite: a severed cable while the sender holds
outstanding bypass credits must surface a typed
:class:`PeerUnreachableError` (never a hang), the credit accounting must
drain via ``fail_outstanding``, and the cut-through forwarder's ordered
ACK chain must unwind cleanly on the transit hop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.core import FastpathConfig, PeerUnreachableError, ShmemConfig
from repro.faults import FaultPlan, SeverCable

from ..conftest import pattern

#: Past the sever plus heartbeat detection (3 x 500 us) plus slack.
_SETTLE_US = 6_000.0


def _fp_chaos_config(plan: FaultPlan, **kwargs) -> ShmemConfig:
    return ShmemConfig(fastpath=FastpathConfig(), faults=plan, **kwargs)


class TestSeveredFirstHop:
    """Cut the sender's own cable mid-transfer, no retries allowed."""

    def test_outstanding_credits_raise_typed_error_no_hang(self):
        # PE0 -> PE2 on a 5-ring routes right; sever (0, 1) while the
        # 512 KB put's chunk train holds multiple bypass credits.
        plan = FaultPlan(events=(SeverCable(400.0, 0, 1),))
        config = _fp_chaos_config(plan, max_retries=0)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(512 * 1024)
            yield from pe.barrier_all()
            outcome = "idle"
            if me == 0:
                try:
                    yield from pe.put_array(
                        sym, pattern(512 * 1024, seed=1), 2)
                    outcome = "completed"
                except PeerUnreachableError:
                    outcome = "typed_error"
            # Everyone idles past sever + detection so heartbeat flushes
            # finish before we inspect the accounting.
            yield pe.rt.env.timeout(_SETTLE_US)
            return outcome

        report = run_spmd(main, 5, shmem_config=config, finalize=False,
                          check_heap_consistency=False)
        # The run completing at all is the no-hang assertion.
        assert report.results[0] == "typed_error"
        assert all(r == "idle" for r in report.results[1:])
        rt0 = report.runtimes[0]
        assert (0, 1) in rt0.dead_edges
        # Outstanding credits on the dead edge were flushed, not leaked:
        # nobody is left waiting on an ACK that can never arrive.
        for rt in report.runtimes:
            for link in rt.links.values():
                assert link.bypass_mailbox.in_flight == 0
                assert link.data_mailbox.in_flight == 0
                assert link.bypass_mailbox.slots \
                    == config.fastpath.credit_slots
            assert rt.service._cut_through
            assert rt.service.active_acks == 0
            assert rt.service.active_forwards == 0


class TestSeveredTransitHop:
    """Cut the cable *ahead* of a cut-through forward in progress."""

    def test_forwarder_drops_cleanly(self):
        # PE0 -> PE2 via PE1; the (1, 2) cable dies while PE1 streams
        # the payload onward.  PE1 must drop the forward (typed, counted)
        # and still ACK PE0 so the ring's credits keep flowing.
        plan = FaultPlan(events=(SeverCable(450.0, 1, 2),))
        config = _fp_chaos_config(plan, max_retries=0)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(512 * 1024)
            yield from pe.barrier_all()
            if me == 0:
                # Local hand-off may complete before the transit hop
                # discovers the cut; either outcome is legal as long as
                # nothing hangs.
                try:
                    yield from pe.put_array(
                        sym, pattern(512 * 1024, seed=2), 2)
                except PeerUnreachableError:
                    pass
            yield pe.rt.env.timeout(_SETTLE_US)
            return True

        report = run_spmd(main, 5, shmem_config=config, finalize=False,
                          check_heap_consistency=False)
        assert all(report.results)
        svc1 = report.runtimes[1].service
        # The forward died on the severed edge, the ordered-ack chain
        # unwound, and no forward/ack task is still alive.
        assert svc1.dropped_forwards >= 1
        assert svc1.active_acks == 0
        assert svc1.active_forwards == 0
        for rt in report.runtimes:
            for link in rt.links.values():
                assert link.bypass_mailbox.in_flight == 0
                assert link.data_mailbox.in_flight == 0


class TestFastpathReroutes:
    """With retry budget, fastpath traffic survives a single cut."""

    def test_put_reroutes_the_long_way(self):
        plan = FaultPlan(events=(SeverCable(300.0, 0, 1),))
        config = _fp_chaos_config(plan, max_retries=8,
                                  retry_backoff_us=200.0)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(64 * 1024)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(_SETTLE_US)  # let detection finish
            if me == 0:
                # Right-hand route is dead; the put must go the long way.
                yield from pe.put_array(sym, pattern(64 * 1024, seed=3), 1)
            yield pe.rt.env.timeout(_SETTLE_US)
            ok = True
            if me == 1:
                ok = bool(np.array_equal(
                    pe.read_symmetric_array(sym, 64 * 1024, np.uint8),
                    pattern(64 * 1024, seed=3)))
            return ok

        report = run_spmd(main, 4, shmem_config=config, finalize=False,
                          check_heap_consistency=False)
        assert all(report.results)
        assert report.runtimes[0].reroutes >= 1

    def test_inline_put_reroutes(self):
        plan = FaultPlan(events=(SeverCable(300.0, 0, 1),))
        config = _fp_chaos_config(plan, max_retries=8,
                                  retry_backoff_us=200.0)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(_SETTLE_US)
            if me == 0:
                yield from pe.put_array(sym, pattern(32, seed=4), 1)
            yield pe.rt.env.timeout(_SETTLE_US)
            ok = True
            if me == 1:
                ok = bool(np.array_equal(
                    pe.read_symmetric_array(sym, 32, np.uint8),
                    pattern(32, seed=4)))
            return ok

        report = run_spmd(main, 4, shmem_config=config, finalize=False,
                          check_heap_consistency=False)
        assert all(report.results)
