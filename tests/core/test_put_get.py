"""Data-path tests for Put/Get: modes, hop counts, sizes, integrity.

These exercise the Fig. 4/5 machinery: direct neighbor delivery through
the data window, store-and-forward through bypass buffers, and the
requester-driven Get protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, Mode, RoutingPolicy, ShmemConfig, run_spmd

from ..conftest import pattern


def _ring(n=3, **shmem_kwargs):
    return dict(
        n_pes=n,
        cluster_config=ClusterConfig(n_hosts=n),
        shmem_config=ShmemConfig(**shmem_kwargs) if shmem_kwargs else None,
    )


class TestPutIntegrity:
    @pytest.mark.parametrize("mode", [Mode.DMA, Mode.MEMCPY])
    @pytest.mark.parametrize("size", [1, 100, 4096, 65536, 300_000])
    def test_neighbor_put_all_sizes(self, mode, size):
        def main(pe):
            dest = yield from pe.malloc(max(size, 64))
            right = (pe.my_pe() + 1) % pe.num_pes()
            data = pattern(size, seed=pe.my_pe())
            yield from pe.put(dest, data, right, mode=mode)
            yield from pe.barrier_all()
            left = (pe.my_pe() - 1) % pe.num_pes()
            return bool(np.array_equal(
                pe.read_symmetric(dest, size), pattern(size, seed=left)
            ))

        report = run_spmd(main, **_ring())
        assert all(report.results)

    @pytest.mark.parametrize("mode", [Mode.DMA, Mode.MEMCPY])
    def test_two_hop_put_through_bypass(self, mode):
        size = 200_000  # several bypass chunks

        def main(pe):
            dest = yield from pe.malloc(size)
            target = (pe.my_pe() + 2) % pe.num_pes()
            yield from pe.put(dest, pattern(size, seed=pe.my_pe()),
                              target, mode=mode)
            yield from pe.barrier_all()
            sender = (pe.my_pe() - 2) % pe.num_pes()
            return bool(np.array_equal(
                pe.read_symmetric(dest, size), pattern(size, seed=sender)
            ))

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_three_hop_put_on_five_ring(self):
        size = 100_000

        def main(pe):
            dest = yield from pe.malloc(size)
            target = (pe.my_pe() + 3) % pe.num_pes()
            yield from pe.put(dest, pattern(size, seed=pe.my_pe()), target)
            yield from pe.barrier_all()
            sender = (pe.my_pe() - 3) % pe.num_pes()
            return bool(np.array_equal(
                pe.read_symmetric(dest, size), pattern(size, seed=sender)
            ))

        report = run_spmd(main, **_ring(5))
        assert all(report.results)

    def test_put_at_offset_within_allocation(self):
        def main(pe):
            dest = yield from pe.malloc(4096)
            right = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.put(dest + 1024, b"MARK", right)
            yield from pe.barrier_all()
            raw = pe.read_symmetric(dest, 4096)
            return (bytes(raw[1024:1028]) == b"MARK"
                    and int(raw[:1024].sum()) == 0)

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_interleaved_puts_from_both_sides(self):
        """Each PE receives from both neighbors concurrently."""
        size = 50_000

        def main(pe):
            left_buf = yield from pe.malloc(size)
            right_buf = yield from pe.malloc(size)
            me, n = pe.my_pe(), pe.num_pes()
            yield from pe.put(left_buf, pattern(size, seed=me * 2),
                              (me + 1) % n)
            yield from pe.put(right_buf, pattern(size, seed=me * 2 + 1),
                              (me - 1) % n)
            yield from pe.barrier_all()
            ok_left = np.array_equal(
                pe.read_symmetric(left_buf, size),
                pattern(size, seed=((me - 1) % n) * 2),
            )
            ok_right = np.array_equal(
                pe.read_symmetric(right_buf, size),
                pattern(size, seed=((me + 1) % n) * 2 + 1),
            )
            return bool(ok_left and ok_right)

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_back_to_back_puts_ordered(self):
        """Two puts to the same cell from the same source apply in order
        (single in-order channel per direction)."""
        def main(pe):
            cell = yield from pe.malloc(8)
            right = (pe.my_pe() + 1) % pe.num_pes()
            for value in range(1, 6):
                yield from pe.p(cell, value * 100 + pe.my_pe(), right)
            yield from pe.barrier_all()
            left = (pe.my_pe() - 1) % pe.num_pes()
            return int(pe.read_symmetric_array(cell, 1, np.int64)[0]) \
                == 500 + left

        report = run_spmd(main, **_ring())
        assert all(report.results)


class TestGetIntegrity:
    @pytest.mark.parametrize("mode", [Mode.DMA, Mode.MEMCPY])
    @pytest.mark.parametrize("size", [1, 4096, 50_000])
    def test_neighbor_get(self, mode, size):
        def main(pe):
            src = yield from pe.malloc(max(size, 64))
            pe.write_symmetric(src, pattern(size, seed=pe.my_pe() + 5))
            yield from pe.barrier_all()
            right = (pe.my_pe() + 1) % pe.num_pes()
            data = yield from pe.get(src, size, right, mode=mode)
            yield from pe.barrier_all()
            return bool(np.array_equal(data, pattern(size, seed=right + 5)))

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_two_hop_get(self):
        size = 40_000

        def main(pe):
            src = yield from pe.malloc(size)
            pe.write_symmetric(src, pattern(size, seed=pe.my_pe()))
            yield from pe.barrier_all()
            target = (pe.my_pe() + 2) % pe.num_pes()
            data = yield from pe.get(src, size, target)
            yield from pe.barrier_all()
            return bool(np.array_equal(data, pattern(size, seed=target)))

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_get_into_local_buffer(self):
        def main(pe):
            src = yield from pe.malloc(8192)
            pe.write_symmetric(src, pattern(8192, seed=pe.my_pe()))
            yield from pe.barrier_all()
            right = (pe.my_pe() + 1) % pe.num_pes()
            dest = pe.local_alloc(8192)
            yield from pe.get_into(dest, src, 8192, right)
            yield from pe.barrier_all()
            return bool(np.array_equal(
                dest.read(8192), pattern(8192, seed=right)
            ))

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_concurrent_gets_against_same_owner(self):
        """Two PEs get from PE 0 simultaneously."""
        def main(pe):
            src = yield from pe.malloc(20_000)
            pe.write_symmetric(src, pattern(20_000, seed=pe.my_pe()))
            yield from pe.barrier_all()
            if pe.my_pe() != 0:
                data = yield from pe.get(src, 20_000, 0)
                ok = np.array_equal(data, pattern(20_000, seed=0))
            else:
                ok = True
            yield from pe.barrier_all()
            return bool(ok)

        report = run_spmd(main, **_ring())
        assert all(report.results)

    def test_get_then_put_roundtrip(self):
        """Read-modify-write across the ring."""
        def main(pe):
            cell = yield from pe.malloc(8)
            pe.write_symmetric(
                cell, np.array([pe.my_pe() * 10], dtype=np.int64)
            )
            yield from pe.barrier_all()
            right = (pe.my_pe() + 1) % pe.num_pes()
            value = yield from pe.g(cell, right)
            yield from pe.barrier_all()  # everyone read before writing
            yield from pe.p(cell, value + 1, right)
            yield from pe.barrier_all()
            # right neighbor wrote (my_value + 1) into my cell
            return int(pe.read_symmetric_array(cell, 1, np.int64)[0]) \
                == pe.my_pe() * 10 + 1

        report = run_spmd(main, **_ring())
        assert all(report.results)


class TestRoutingPolicies:
    def test_shortest_routing_delivers(self):
        """SHORTEST sends 4->0 leftward on a 5-ring; data still lands."""
        size = 30_000

        def main(pe):
            dest = yield from pe.malloc(size)
            target = (pe.my_pe() + 4) % pe.num_pes()  # 1 hop left
            yield from pe.put(dest, pattern(size, seed=pe.my_pe()), target)
            yield from pe.quiet()
            sender = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.barrier_all()
            got = pe.read_symmetric(dest, size)
            return bool(np.array_equal(got, pattern(size, seed=sender)))

        report = run_spmd(
            main, n_pes=5,
            cluster_config=ClusterConfig(n_hosts=5),
            shmem_config=ShmemConfig(routing=RoutingPolicy.SHORTEST),
        )
        assert all(report.results)

    def test_fixed_right_goes_the_long_way(self):
        """FIXED_RIGHT: PE0 -> PE4 on a 5-ring takes 4 hops; the transfer
        still completes correctly."""
        def main(pe):
            dest = yield from pe.malloc(4096)
            if pe.my_pe() == 0:
                yield from pe.put(dest, pattern(4096, seed=42), 4)
            yield from pe.barrier_all()
            if pe.my_pe() == 4:
                return bool(np.array_equal(
                    pe.read_symmetric(dest, 4096), pattern(4096, seed=42)
                ))
            return True

        report = run_spmd(
            main, n_pes=5,
            cluster_config=ClusterConfig(n_hosts=5),
            shmem_config=ShmemConfig(routing=RoutingPolicy.FIXED_RIGHT),
        )
        assert all(report.results)


class TestLatencyShapes:
    """Fast sanity checks on the calibrated latency model (full curves
    are regenerated by the benchmarks)."""

    def _measure(self, op, mode, target_of, size=65536):
        def main(pe):
            sym = yield from pe.malloc(size)
            pe.write_symmetric(sym, pattern(size))
            src = pe.local_alloc(size)
            src.write(pattern(size))
            yield from pe.barrier_all()
            elapsed = None
            if pe.my_pe() == 0:
                start = pe.rt.env.now
                if op == "put":
                    yield from pe.put_from(sym, src, size,
                                           target_of(pe), mode=mode)
                else:
                    yield from pe.get(sym, size, target_of(pe), mode=mode)
                elapsed = pe.rt.env.now - start
            yield from pe.barrier_all()
            return elapsed

        report = run_spmd(main, **_ring())
        return report.results[0]

    def test_put_dma_beats_memcpy_at_64k(self):
        dma = self._measure("put", Mode.DMA, lambda pe: 1)
        memcpy = self._measure("put", Mode.MEMCPY, lambda pe: 1)
        assert dma < memcpy

    def test_get_much_slower_than_put(self):
        put = self._measure("put", Mode.DMA, lambda pe: 1)
        get = self._measure("get", Mode.DMA, lambda pe: 1)
        assert get > 3 * put

    def test_put_hop_insensitive(self):
        one = self._measure("put", Mode.DMA, lambda pe: 1)
        two = self._measure("put", Mode.DMA, lambda pe: 2)
        assert two < 2 * one  # nowhere near proportional to hops

    def test_get_hop_sensitive(self):
        one = self._measure("get", Mode.DMA, lambda pe: 1)
        two = self._measure("get", Mode.DMA, lambda pe: 2)
        assert two > 1.6 * one

    def test_memcpy_get_collapses(self):
        dma = self._measure("get", Mode.DMA, lambda pe: 1)
        memcpy = self._measure("get", Mode.MEMCPY, lambda pe: 1)
        assert memcpy > 2.5 * dma
