"""Chain-topology end-to-end tests and protocol stress (seq wraparound)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, Mode, run_spmd

from ..conftest import pattern


def chain(n):
    return ClusterConfig(n_hosts=n, topology="chain")


class TestChainTopologyEndToEnd:
    def test_neighbor_puts_on_chain(self):
        def main(pe):
            dest = yield from pe.malloc(8192)
            me, n = pe.my_pe(), pe.num_pes()
            if me + 1 < n:
                yield from pe.put(dest, pattern(8192, seed=me), me + 1)
            yield from pe.barrier_all()
            if me == 0:
                return True
            return bool(np.array_equal(
                pe.read_symmetric(dest, 8192), pattern(8192, seed=me - 1)
            ))

        report = run_spmd(main, n_pes=3, cluster_config=chain(3))
        assert all(report.results)

    def test_leftward_put_on_chain(self):
        """FIXED_RIGHT falls back to leftward routing when rightward is
        impossible on a chain."""
        def main(pe):
            dest = yield from pe.malloc(4096)
            if pe.my_pe() == 2:
                yield from pe.put(dest, pattern(4096, seed=9), 0)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                return bool(np.array_equal(
                    pe.read_symmetric(dest, 4096), pattern(4096, seed=9)
                ))
            return True

        report = run_spmd(main, n_pes=3, cluster_config=chain(3))
        assert all(report.results)

    def test_multi_hop_forwarding_down_the_chain(self):
        def main(pe):
            dest = yield from pe.malloc(50_000)
            n = pe.num_pes()
            if pe.my_pe() == 0:
                yield from pe.put(dest, pattern(50_000, seed=4), n - 1)
            yield from pe.barrier_all()
            if pe.my_pe() == n - 1:
                return bool(np.array_equal(
                    pe.read_symmetric(dest, 50_000),
                    pattern(50_000, seed=4),
                ))
            return True

        report = run_spmd(main, n_pes=4, cluster_config=chain(4))
        assert all(report.results)

    def test_gets_across_chain(self):
        def main(pe):
            src = yield from pe.malloc(10_000)
            pe.write_symmetric(src, pattern(10_000, seed=pe.my_pe()))
            yield from pe.barrier_all()
            other = pe.num_pes() - 1 - pe.my_pe()
            if other != pe.my_pe():
                data = yield from pe.get(src, 10_000, other)
                ok = np.array_equal(data, pattern(10_000, seed=other))
            else:
                ok = True
            yield from pe.barrier_all()
            return bool(ok)

        report = run_spmd(main, n_pes=3, cluster_config=chain(3))
        assert all(report.results)

    def test_chain_atomics(self):
        def main(pe):
            cell = yield from pe.malloc(8)
            pe.write_symmetric(cell, np.zeros(1, dtype=np.int64))
            yield from pe.barrier_all()
            yield from pe.atomic_add(cell, pe.my_pe() + 1, 0)
            yield from pe.barrier_all()
            value = yield from pe.atomic_fetch(cell, 0)
            return value

        report = run_spmd(main, n_pes=3, cluster_config=chain(3))
        assert all(v == 6 for v in report.results)


class TestSequenceWraparound:
    def test_over_256_messages_one_direction(self):
        """The 8-bit seq field wraps; ordering and integrity must hold."""
        rounds = 300

        def main(pe):
            cell = yield from pe.malloc(8)
            right = (pe.my_pe() + 1) % pe.num_pes()
            for value in range(rounds):
                yield from pe.p(cell, value, right)
            yield from pe.barrier_all()
            left_value = int(pe.read_symmetric_array(cell, 1, np.int64)[0])
            return left_value

        report = run_spmd(main, n_pes=3)
        assert report.results == [rounds - 1] * 3

    def test_many_barriers_wrap_generations(self):
        def main(pe):
            for _ in range(50):
                yield from pe.barrier_all()
            return pe.rt.barrier.generation

        report = run_spmd(main, n_pes=3)
        assert report.results == [50, 50, 50]


class TestLatencyInstrumentation:
    def test_tracer_records_op_latencies(self):
        def main(pe):
            sym = yield from pe.malloc(8192)
            right = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.put(sym, pattern(8192), right)
            yield from pe.get(sym, 1024, right)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        hist = report.metrics.hist
        assert hist.get("pe0.put_us").count == 1
        assert hist.get("pe0.get_us").count == 1
        assert hist.get("pe0.get_us").mean > hist.get("pe0.put_us").mean
        assert report.stats()["pe0.put.DMA:bytes"] == 8192
        assert hist.get("pe0.barrier_us").count >= 1
