"""Edge-case tests for runtime argument validation and config limits."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Mode, ShmemConfig, run_spmd
from repro.core import FastpathConfig, HeapConfig
from repro.core.runtime import ShmemConfig as RuntimeShmemConfig


class TestConfigValidation:
    def test_rx_data_size_floor(self):
        with pytest.raises(ValueError):
            ShmemConfig(rx_data_size=1024)

    def test_fwd_chunk_floor(self):
        with pytest.raises(ValueError):
            ShmemConfig(fwd_chunk=512)

    def test_bypass_slots_range(self):
        with pytest.raises(ValueError):
            ShmemConfig(bypass_slots=0)
        with pytest.raises(ValueError):
            ShmemConfig(bypass_slots=65)

    def test_bypass_slots_default_follows_the_plane(self):
        fastpath = FastpathConfig()
        assert ShmemConfig().bypass_slots == 2
        assert ShmemConfig(fastpath=fastpath).bypass_slots == 8
        assert ShmemConfig(fastpath=fastpath, bypass_slots=2).bypass_slots == 2
        assert ShmemConfig(bypass_slots=8).bypass_slots == 8

    def test_get_chunk_floor(self):
        with pytest.raises(ValueError):
            ShmemConfig(get_chunk=256)

    def test_barrier_name_checked(self):
        with pytest.raises(ValueError):
            ShmemConfig(barrier="tree")


@pytest.mark.parametrize("fastpath", [None, FastpathConfig()],
                         ids=["default", "fastpath"])
@pytest.mark.parametrize("hops", [1, 2])
def test_a_get_chunk_larger_than_a_bypass_slot(fastpath, hops):
    """A response chunk that travels through bypass slots (every hop on
    the fastpath, the hops before the last on the default plane) is cut
    to ``fwd_chunk``: a 128 KiB ``get_chunk`` over 16 KiB slots."""
    size = 256 * 1024
    data = (np.arange(size) % 251).astype(np.uint8)

    def main(pe):
        sym = yield from pe.malloc(size)
        pe.write_symmetric(sym, data)
        yield from pe.barrier_all()
        ok = None
        if pe.my_pe() == 0:
            got = yield from pe.get(sym, size, hops)
            ok = bool(np.array_equal(got, data))
        yield from pe.barrier_all()
        return ok

    report = run_spmd(main, n_pes=3, shmem_config=ShmemConfig(
        fastpath=fastpath, get_chunk=128 * 1024, fwd_chunk=16 * 1024))
    assert report.results[0] is True


class TestArgumentValidation:
    def test_zero_byte_put_rejected(self):
        def main(pe):
            sym = yield from pe.malloc(64)
            try:
                yield from pe.rt.put(sym, 0, 0, 1)
            except Exception as exc:
                result = type(exc).__name__
            else:
                result = "none"
            yield from pe.barrier_all()
            return result

        report = run_spmd(main, n_pes=3)
        assert all(r == "TransferError" for r in report.results)

    def test_zero_byte_get_rejected(self):
        def main(pe):
            sym = yield from pe.malloc(64)
            try:
                yield from pe.rt.get(sym, 0, 1, 0)
            except Exception as exc:
                result = type(exc).__name__
            else:
                result = "none"
            yield from pe.barrier_all()
            return result

        report = run_spmd(main, n_pes=3)
        assert all(r == "TransferError" for r in report.results)

    def test_get_bad_pe_rejected(self):
        def main(pe):
            sym = yield from pe.malloc(64)
            try:
                yield from pe.get(sym, 8, -1)
            except Exception as exc:
                result = type(exc).__name__
            else:
                result = "none"
            yield from pe.barrier_all()
            return result

        report = run_spmd(main, n_pes=3)
        assert all(r == "BadPeError" for r in report.results)

    def test_amo_bad_pe_rejected(self):
        def main(pe):
            sym = yield from pe.malloc(8)
            try:
                yield from pe.atomic_fetch(sym, 7)
            except Exception as exc:
                result = type(exc).__name__
            else:
                result = "none"
            yield from pe.barrier_all()
            return result

        report = run_spmd(main, n_pes=3)
        assert all(r == "BadPeError" for r in report.results)


class TestHeapGrowthUnderRuntime:
    def test_large_allocations_grow_heap_chunks(self):
        config = ShmemConfig(
            heap=HeapConfig(chunk_size=1 << 20, max_chunks=8)
        )

        def main(pe):
            before = pe.rt.heap.n_chunks
            blocks = []
            for _ in range(3):
                blocks.append((yield from pe.malloc(900 * 1024)))
            after = pe.rt.heap.n_chunks
            yield from pe.barrier_all()
            return (before, after)

        report = run_spmd(main, n_pes=3, shmem_config=config)
        for before, after in report.results:
            assert before == 0
            assert after == 3  # 900KB allocations at 1MB chunks

    def test_heap_exhaustion_is_loud(self):
        config = ShmemConfig(
            heap=HeapConfig(chunk_size=1 << 20, max_chunks=1)
        )

        def main(pe):
            try:
                yield from pe.malloc(4 << 20)
            except Exception as exc:
                result = type(exc).__name__
            else:
                result = "none"
            yield from pe.barrier_all()
            return result

        report = run_spmd(main, n_pes=3, shmem_config=config)
        assert all(r == "SymmetricHeapError" for r in report.results)


class TestModeDefaulting:
    def test_default_mode_config_applies(self):
        """With default_mode=MEMCPY, unspecified puts use the PIO path —
        visible in the latency (64 KB: ~626 µs PIO vs ~202 µs DMA)."""
        def timed(config):
            def main(pe):
                sym = yield from pe.malloc(64 * 1024)
                src = pe.local_alloc(64 * 1024)
                yield from pe.barrier_all()
                elapsed = None
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.put_from(sym, src, 64 * 1024, 1)
                    elapsed = pe.rt.env.now - start
                yield from pe.barrier_all()
                return elapsed

            return run_spmd(main, n_pes=3,
                            shmem_config=config).results[0]

        memcpy_default = timed(ShmemConfig(default_mode=Mode.MEMCPY))
        dma_default = timed(ShmemConfig(default_mode=Mode.DMA))
        assert memcpy_default > 2 * dma_default
