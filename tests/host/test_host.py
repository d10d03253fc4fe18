"""Unit tests for the host substrate: CPU costs, interrupts, threads, node."""

from __future__ import annotations

import numpy as np
import pytest

from repro.host import (
    CostModel,
    Host,
    HostConfig,
    InterruptController,
    InterruptError,
    KernelThread,
)
from repro.memory import AllocationError

from ..conftest import pattern, run_to_completion


class TestCostModel:
    def test_defaults_are_calibrated(self):
        cost = CostModel()
        # The DESIGN.md §5 asymmetry: PIO reads ~4x slower than writes.
        assert cost.pio_write_mbps / cost.pio_read_mbps > 3
        assert cost.local_memcpy_mbps > cost.pio_write_mbps

    def test_derived_times(self):
        cost = CostModel(pio_write_mbps=100.0)
        assert cost.pio_write_us(1000) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(local_memcpy_mbps=0)
        with pytest.raises(ValueError):
            CostModel(thread_wake_us=-1)
        with pytest.raises(ValueError):
            CostModel(pio_chunk=32)

    def test_cpu_charges_time(self, env):
        host = Host(env, 0)

        def work():
            yield from host.cpu.local_memcpy(
                int(host.cost_model.local_memcpy_mbps * 10)
            )
            return env.now

        [end] = run_to_completion(env, work())
        assert end == pytest.approx(10.0)
        assert host.cpu.busy_us == pytest.approx(10.0)


class TestInterruptController:
    def test_delivery_latency(self, env):
        pic = InterruptController(env, delivery_latency_us=20.0)
        hits = []
        pic.register(5, lambda v: hits.append((v, env.now)))
        pic.raise_msi(5)
        env.run()
        assert hits == [(5, 20.0)]

    def test_every_raise_delivers_by_default(self, env):
        pic = InterruptController(env, delivery_latency_us=20.0)
        hits = []
        pic.register(1, lambda v: hits.append(env.now))
        pic.raise_msi(1)
        pic.raise_msi(1)
        pic.raise_msi(1)
        env.run()
        assert len(hits) == 3

    def test_coalesce_mode_drops_inflight_duplicates(self, env):
        pic = InterruptController(env, delivery_latency_us=20.0,
                                  coalesce=True)
        hits = []
        pic.register(1, lambda v: hits.append(env.now))
        pic.raise_msi(1)
        pic.raise_msi(1)  # coalesced
        env.run()
        assert len(hits) == 1

    def test_mask_defers_until_unmask(self, env):
        pic = InterruptController(env, delivery_latency_us=5.0)
        hits = []
        pic.register(2, lambda v: hits.append(env.now))
        pic.mask(2)
        pic.raise_msi(2)
        env.run(until=100.0)
        assert hits == []
        pic.unmask(2)
        env.run()
        assert len(hits) == 1

    def test_spurious_interrupt_counted(self, env):
        pic = InterruptController(env, delivery_latency_us=1.0)
        pic.raise_msi(9)  # no handler
        env.run()
        assert pic.spurious_count == 1

    def test_double_registration_rejected(self, env):
        pic = InterruptController(env, delivery_latency_us=1.0)
        pic.register(0, lambda v: None)
        with pytest.raises(InterruptError):
            pic.register(0, lambda v: None)

    def test_vector_bounds(self, env):
        pic = InterruptController(env, delivery_latency_us=1.0,
                                  num_vectors=4)
        with pytest.raises(InterruptError):
            pic.raise_msi(4)


class TestKernelThread:
    def test_kick_wakes_with_latency(self, env):
        log = []

        def body(thread):
            while not thread.stop_requested:
                yield from thread.wait_work()
                if thread.stop_requested:
                    return
                log.append(env.now)

        thread = KernelThread(env, "svc", body, wake_latency_us=30.0)
        env.run(until=100.0)
        assert thread.is_sleeping
        thread.kick()
        env.run(until=200.0)
        assert log == [130.0]
        thread.stop()
        env.run()

    def test_on_sleep_fires_only_on_a_real_sleep(self, env):
        slept = []

        def body(thread):
            while True:
                yield from thread.wait_work()
                if thread.stop_requested:
                    return
                yield env.timeout(10.0)     # busy: kicks now latch

        thread = KernelThread(env, "svc", body,
                              on_sleep=lambda: slept.append(
                                  (env.now, thread.is_sleeping)))
        env.run(until=5.0)
        assert slept == [(0.0, True)]
        thread.kick()
        env.run(until=8.0)
        thread.kick()                       # latched while busy
        env.run(until=50.0)
        # Woke at 5, busy to 15, took the latched kick without sleeping,
        # busy to 25, then really slept.
        assert slept == [(0.0, True), (25.0, True)]
        thread.stop()
        env.run()

    def test_no_lost_wakeup(self, env):
        """A kick landing while the body is busy is latched, not lost."""
        processed = []

        def body(thread):
            while not thread.stop_requested:
                yield from thread.wait_work()
                if thread.stop_requested:
                    return
                processed.append(env.now)
                yield env.timeout(10.0)  # busy while second kick arrives

        thread = KernelThread(env, "svc", body, wake_latency_us=0.0)

        def kicker():
            yield env.timeout(1.0)
            thread.kick()
            yield env.timeout(5.0)  # thread is mid-busy
            thread.kick()

        env.process(kicker())
        env.run(until=1000.0)
        assert len(processed) == 2
        thread.stop()
        env.run()

    def test_pending_kick_skips_wake_latency(self, env):
        """A kick latched before the thread sleeps is consumed without
        paying the scheduler wake cost (busy threads don't reschedule),
        and multiple kicks while runnable merge into one."""
        stamps = []

        def body(thread):
            yield from thread.wait_work()
            stamps.append(env.now)

        thread = KernelThread(env, "svc", body, wake_latency_us=30.0)
        thread.kick()
        thread.kick()  # merges with the latched kick
        env.run()
        assert stamps == [0.0]
        assert thread.kick_count == 2
        assert thread.wake_count == 0  # never actually slept

    def test_join(self, env):
        def body(thread):
            yield from thread.wait_work()
            return "bye"

        thread = KernelThread(env, "t", body)
        thread.kick()
        assert env.run(until=thread.join()) == "bye"


class TestHostMemoryManagement:
    def test_pinned_is_physically_contiguous(self, env):
        host = Host(env, 0)
        pinned = host.alloc_pinned(64 * 1024)
        assert pinned.segment.nbytes == 64 * 1024

    def test_mmap_scatters_physically(self, env):
        config = HostConfig(mmap_fragment_size=64 * 1024)
        host = Host(env, 0, config=config)
        # Interleave to force discontiguity between fragments.
        buffer_a = host.mmap(128 * 1024)
        host.alloc_pinned(4096)
        buffer_b = host.mmap(128 * 1024)
        frags = buffer_b.fragments
        assert len(frags) == 2
        # Virtually contiguous regardless:
        data = pattern(128 * 1024)
        host.write_user(buffer_b.virt, data)
        assert np.array_equal(host.read_user(buffer_b.virt, data.size), data)

    def test_mmap_rounds_to_pages(self, env):
        host = Host(env, 0)
        buffer = host.mmap(100)
        assert buffer.nbytes == host.config.page_size

    def test_mmap_at_fixed_address(self, env):
        host = Host(env, 0)
        buffer = host.mmap(4096, at=0x5000_0000_0000)
        assert buffer.virt == 0x5000_0000_0000

    def test_munmap_releases(self, env):
        host = Host(env, 0)
        before = host.dram.free_bytes
        buffer = host.mmap(1 << 20)
        host.munmap(buffer)
        assert host.dram.free_bytes == before
        assert not host.vas.is_mapped(buffer.virt)

    def test_mmap_failure_unwinds_cleanly(self, env):
        config = HostConfig(memory_size=4 << 20)
        host = Host(env, 0, config=config)
        free_before = host.dram.free_bytes
        with pytest.raises(AllocationError):
            host.mmap(64 << 20)
        assert host.dram.free_bytes == free_before

    def test_user_segments_page_granular(self, env):
        host = Host(env, 0)
        buffer = host.mmap(32 * 1024)
        segments = host.user_segments(buffer.virt, 32 * 1024)
        assert len(segments) == 8
        assert all(s.nbytes == 4096 for s in segments)

    def test_guard_gap_between_mappings(self, env):
        host = Host(env, 0)
        a = host.mmap(4096)
        b = host.mmap(4096)
        assert b.virt > a.virt_end  # hole between them

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HostConfig(page_size=1000)
        with pytest.raises(ValueError):
            HostConfig(mmap_fragment_size=1000)
        with pytest.raises(ValueError):
            HostConfig(memory_size=1024)
