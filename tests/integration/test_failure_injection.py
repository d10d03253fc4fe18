"""Failure-injection and protocol-robustness tests.

These poke at the failure modes the runtime must either survive or loudly
reject: interrupt delivery counts, masked doorbells, unconfigured links,
protocol violations, line-end forwarding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, Mode, run_spmd
from repro.core import ProtocolError
from repro.core.transfer import Message, MsgKind, unpack_message
from repro.fabric import Cluster, Direction, TopologyError
from repro.ntb import DATA_WINDOW, LutError, WindowError

from ..conftest import pattern, run_to_completion


class TestUnconfiguredHardware:
    def test_dma_to_unhandshaken_link_faults_on_lut(self, ring3):
        """Sending before the ID handshake trips the LUT check rather than
        silently writing somewhere."""
        d0 = ring3.driver(0, Direction.RIGHT)
        d1 = ring3.driver(1, Direction.LEFT)
        rx = ring3.host(1).alloc_pinned(4096)
        d1.endpoint.program_incoming(DATA_WINDOW, rx.phys, rx.nbytes)
        tx = ring3.host(0).alloc_pinned(4096)

        def xfer():
            request = yield from d0.dma_write_segments(
                DATA_WINDOW, 0, [tx.segment]
            )
            yield request.done

        with pytest.raises(LutError):
            run_to_completion(ring3.env, xfer())

    def test_write_beyond_translation_limit_faults(self, ring3):
        d0 = ring3.driver(0, Direction.RIGHT)
        d1 = ring3.driver(1, Direction.LEFT)
        rx = ring3.host(1).alloc_pinned(4096)
        d1.endpoint.program_incoming(DATA_WINDOW, rx.phys, 4096)
        d1.endpoint.lut.add(d0.requester_id, 0)
        with pytest.raises(WindowError):
            d0.endpoint.window_write_functional(
                DATA_WINDOW, 4090, b"overflow!"
            )

    def test_chain_end_has_no_adapter(self):
        cluster = Cluster(ClusterConfig(n_hosts=3, topology="mesh",
                                        dims=(3,)))
        with pytest.raises(TopologyError):
            cluster.driver(0, "x-")


class TestInterruptPathologies:
    def test_irq_coalescing_mode_is_survivable_for_data(self):
        """Aggressive MSI coalescing would break the ACK counting, so the
        controller delivers every raise — this test documents that
        boundary by counting deliveries."""
        def main(pe):
            sym = yield from pe.malloc(4096)
            right = (pe.my_pe() + 1) % pe.num_pes()
            for _ in range(5):
                yield from pe.put(sym, pattern(4096), right)
            yield from pe.barrier_all()
            return pe.rt.host.interrupts.delivered_count

        report = run_spmd(main, n_pes=3)
        # Every raise delivered: at least 5 data + 5 ack per host.
        assert all(count >= 10 for count in report.results)

    def test_spurious_doorbell_is_counted_not_fatal(self, ring3):
        host = ring3.host(0)
        host.interrupts.raise_msi(40)  # nothing registered there
        ring3.env.run()
        assert host.interrupts.spurious_count == 1


class TestProtocolViolations:
    def test_bad_kind_in_header_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_message((0x0 << 28, 0, 0, 0))  # kind 0 invalid

    def test_misrouted_put_data_detected(self):
        """A PUT_DATA whose dest is not the receiving host is a runtime
        bug and must raise, not corrupt the heap."""
        from repro.core.runtime import ShmemRuntime
        from repro.core.transfer import PayloadSource

        cluster = Cluster(ClusterConfig(n_hosts=3))
        runtimes = [ShmemRuntime(cluster, i) for i in range(3)]
        env = cluster.env

        def bad_sender(rt):
            yield from rt.initialize()
            link = rt.links["right"]
            src = rt.host.mmap(4096)
            msg = Message(
                kind=MsgKind.PUT_DATA, mode=Mode.DMA,
                src_pe=0, dest_pe=2,  # lie: neighbor is PE 1
                offset=0, size=4096,
                seq=link.data_mailbox.next_seq(),
            )
            payload = PayloadSource.from_user(rt.host, src.virt, 4096)
            yield from link.data_mailbox.send(msg, payload)
            yield env.timeout(100_000.0)

        def victim(rt):
            yield from rt.initialize()
            heap_addr = rt.heap.malloc(8192)
            yield env.timeout(100_000.0)

        processes = [
            env.process(bad_sender(runtimes[0])),
            env.process(victim(runtimes[1])),
            env.process(_init_only(runtimes[2], env)),
        ]
        with pytest.raises(ProtocolError, match="misrouted"):
            env.run(until=env.all_of(processes))

    def test_get_resp_for_unknown_request_detected(self):
        from repro.core.runtime import ShmemRuntime
        from repro.core.transfer import PayloadSource

        cluster = Cluster(ClusterConfig(n_hosts=3))
        runtimes = [ShmemRuntime(cluster, i) for i in range(3)]
        env = cluster.env

        def bad_sender(rt):
            yield from rt.initialize()
            link = rt.links["right"]
            src = rt.host.mmap(4096)
            msg = Message(
                kind=MsgKind.GET_RESP, mode=Mode.DMA,
                src_pe=0, dest_pe=1, offset=0, size=64,
                aux=0xDEAD,  # no such pending request
                seq=link.data_mailbox.next_seq(),
            )
            payload = PayloadSource.from_user(rt.host, src.virt, 64)
            yield from link.data_mailbox.send(msg, payload)
            yield env.timeout(100_000.0)

        processes = [
            env.process(bad_sender(runtimes[0])),
            env.process(_init_only(runtimes[1], env)),
            env.process(_init_only(runtimes[2], env)),
        ]
        with pytest.raises(ProtocolError, match="unknown request"):
            env.run(until=env.all_of(processes))

    def test_put_beyond_backed_heap_detected(self):
        """A put targeting an offset the destination never allocated is a
        heap-bounds error at the receiver (SPMD violation surfaces)."""
        def main(pe):
            # Non-SPMD on purpose: only PE 0 allocates a big region.
            if pe.my_pe() == 0:
                big = yield from pe.malloc(1 << 20)
                yield from pe.put(big + (1 << 19), b"x" * 64, 1)
            yield from pe.barrier_all()

        with pytest.raises(Exception) as exc_info:
            run_spmd(main, n_pes=3, finalize=False)
        assert "heap" in str(exc_info.value).lower() or \
            "symmetric" in str(exc_info.value).lower()


def _init_only(runtime, env):
    yield from runtime.initialize()
    yield env.timeout(100_000.0)


class TestBackpressure:
    def test_sender_survives_slow_receiver(self):
        """A receiver busy in compute while many puts arrive: flow control
        must queue, not drop or deadlock."""
        def main(pe):
            sym = yield from pe.malloc(8192)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                for burst in range(10):
                    yield from pe.put(sym, pattern(8192, seed=burst), 1)
            elif pe.my_pe() == 1:
                # Busy-loop in virtual time while traffic arrives.
                for _ in range(20):
                    yield pe.rt.env.timeout(500.0)
            yield from pe.barrier_all()
            if pe.my_pe() == 1:
                return bool(np.array_equal(
                    pe.read_symmetric(sym, 8192), pattern(8192, seed=9)
                ))
            return True

        report = run_spmd(main, n_pes=3)
        assert all(report.results)

    def test_bidirectional_saturation_no_deadlock(self):
        """Every link direction saturated simultaneously with 2-hop puts —
        the scenario that deadlocked blocking-forward designs."""
        size = 150_000

        def main(pe):
            dest = yield from pe.malloc(size)
            target = (pe.my_pe() + 2) % pe.num_pes()
            yield from pe.put(dest, pattern(size, seed=pe.my_pe()), target)
            yield from pe.barrier_all()
            sender = (pe.my_pe() - 2) % pe.num_pes()
            return bool(np.array_equal(
                pe.read_symmetric(dest, size),
                pattern(size, seed=sender),
            ))

        report = run_spmd(main, n_pes=3)
        assert all(report.results)
