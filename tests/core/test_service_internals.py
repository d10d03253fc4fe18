"""White-box tests for the service thread (Fig. 5 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Mode, run_spmd
from repro.core import ProtocolError

from ..conftest import pattern


class TestServiceAccounting:
    def test_handled_counters_by_channel(self):
        def main(pe):
            sym = yield from pe.malloc(4096)
            right = (pe.my_pe() + 1) % pe.num_pes()
            two = (pe.my_pe() + 2) % pe.num_pes()
            yield from pe.put(sym, pattern(1024), right)   # data channel
            yield from pe.put(sym, pattern(1024), two)     # bypass channel
            yield from pe.barrier_all()
            return dict(pe.rt.service.handled)

        report = run_spmd(main, n_pes=3)
        for handled in report.results:
            assert handled.get("data", 0) >= 1      # direct put arrived
            assert handled.get("bypass", 0) >= 1    # forwarded chunk
            assert handled.get("barrier_start", 0) >= 1
        # Host 0's wrapped END may still be in flight when it snapshots,
        # so assert END tokens in aggregate (n-1 forwarding hosts see one).
        total_ends = sum(h.get("barrier_end", 0) for h in report.results)
        assert total_ends >= 2

    def test_service_idle_after_quiesce(self):
        def main(pe):
            sym = yield from pe.malloc(4096)
            right = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.put(sym, pattern(4096), right)
            yield from pe.barrier_all()
            yield from pe.rt.forwarding_quiesce()
            svc = pe.rt.service
            return (svc.quiescent and svc.active_ctrl_forwards == 0,
                    svc.active_forwards,
                    svc.active_responders)

        report = run_spmd(main, n_pes=3)
        for idle, forwards, responders in report.results:
            assert idle
            assert forwards == 0
            assert responders == 0

    def test_responder_count_during_get(self):
        """The owner spawns one responder per outstanding get request."""
        def main(pe):
            sym = yield from pe.malloc(64 * 1024)
            yield from pe.barrier_all()
            if pe.my_pe() == 1:
                data = yield from pe.get(sym, 64 * 1024, 0)
                assert len(data) == 64 * 1024
            yield from pe.barrier_all()
            # After the barrier everything is drained everywhere.
            return pe.rt.service.active_responders

        report = run_spmd(main, n_pes=3)
        assert report.results == [0, 0, 0]


class TestDrainCostModel:
    def test_put_drain_is_cached_memcpy_both_modes(self):
        """PUT drain (rx -> heap) costs the same in DMA and memcpy modes
        — the asymmetric uncached-read cost applies only to Get drains
        (EXPERIMENTS.md, Fig. 9 notes)."""
        def measure(mode):
            def main(pe):
                sym = yield from pe.malloc(128 * 1024)
                yield from pe.barrier_all()
                if pe.my_pe() == 0:
                    yield from pe.put(sym, pattern(128 * 1024), 1,
                                      mode=mode)
                start = pe.rt.env.now
                yield from pe.barrier_all()
                return pe.rt.env.now - start

            report = run_spmd(main, n_pes=3)
            return report.results[1]  # receiver's barrier time

        dma_drain = measure(Mode.DMA)
        memcpy_drain = measure(Mode.MEMCPY)
        # Receiver-side cost roughly equal: barrier times within 3x.
        assert 1 / 3 < (dma_drain / memcpy_drain) < 3

    def test_forward_staging_allocations_are_freed(self):
        """Every spawned forward frees its staging buffer (no DRAM leak
        across many multi-hop puts)."""
        def main(pe):
            sym = yield from pe.malloc(256 * 1024)
            two = (pe.my_pe() + 2) % pe.num_pes()
            # Warm-up grows the PE's persistent staging buffer.
            yield from pe.put(sym, pattern(128 * 1024), two)
            yield from pe.barrier_all()
            used_before = pe.rt.host.dram.used_bytes
            for _ in range(5):
                yield from pe.put(sym, pattern(128 * 1024), two)
                yield from pe.barrier_all()
            yield from pe.rt.forwarding_quiesce()
            return pe.rt.host.dram.used_bytes - used_before

        report = run_spmd(main, n_pes=3)
        assert report.results == [0, 0, 0]

    def test_get_responder_staging_freed(self):
        def main(pe):
            sym = yield from pe.malloc(64 * 1024)
            yield from pe.barrier_all()
            # Warm-up grows the requester's persistent staging buffer.
            if pe.my_pe() == 1:
                yield from pe.get(sym, 64 * 1024, 0)
            yield from pe.barrier_all()
            used_before = pe.rt.host.dram.used_bytes
            if pe.my_pe() == 1:
                yield from pe.get(sym, 64 * 1024, 0)
            yield from pe.barrier_all()
            return pe.rt.host.dram.used_bytes - used_before

        report = run_spmd(main, n_pes=3)
        assert report.results == [0, 0, 0]


class TestMailboxFlowControl:
    def test_data_mailbox_single_outstanding(self):
        """The data channel never has more than one unACKed message."""
        max_seen = {"value": 0}

        def main(pe):
            sym = yield from pe.malloc(4096)
            right = (pe.my_pe() + 1) % pe.num_pes()
            link = pe.rt.links["right"]
            for _ in range(5):
                handle = pe.put_nbi(
                    sym, pe.local_alloc(1024), 1024, right
                )
                max_seen["value"] = max(max_seen["value"],
                                        link.data_mailbox.in_flight)
                yield handle
            yield from pe.barrier_all()

        run_spmd(main, n_pes=3)
        assert max_seen["value"] <= 1

    def test_bypass_respects_slot_count(self):
        observed = {"max": 0}

        def main(pe):
            sym = yield from pe.malloc(512 * 1024)
            two = (pe.my_pe() + 2) % pe.num_pes()
            src = pe.local_alloc(512 * 1024)
            if pe.my_pe() == 0:
                handle = pe.put_nbi(sym, src, 512 * 1024, two)

                def watch():
                    link = pe.rt.links["right"]
                    while handle.is_alive:
                        observed["max"] = max(
                            observed["max"], link.bypass_mailbox.in_flight
                        )
                        yield pe.rt.env.timeout(5.0)

                pe.rt.env.process(watch())
                yield handle
            yield from pe.barrier_all()

        run_spmd(main, n_pes=3)
        assert 1 <= observed["max"] <= 2  # config default: 2 slots

    def test_ack_without_outstanding_raises(self, ring3):
        from repro.core.runtime import ShmemRuntime

        runtimes = [ShmemRuntime(ring3, pe) for pe in range(3)]
        env = ring3.env

        def boot(runtime, poke):
            # All three must initialize together (the handshake is a
            # cluster-wide rendezvous over ScratchPads).
            yield from runtime.initialize()
            if poke:
                runtime.links["right"].data_mailbox.on_ack()

        processes = [
            env.process(boot(runtime, index == 0))
            for index, runtime in enumerate(runtimes)
        ]
        with pytest.raises(ProtocolError, match="nothing outstanding"):
            env.run(until=env.all_of(processes))
