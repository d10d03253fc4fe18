"""Tests for all four barrier strategies (Fig. 6 + ablations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, ShmemConfig, run_spmd
from repro.core.barrier import (
    CentralizedBarrier,
    DisseminationBarrier,
    RingBarrier,
)


def barrier_correctness_program(rounds=5):
    """Every PE increments a local counter between barriers; after each
    barrier the counter must be globally uniform — the canonical barrier
    correctness check (no PE races ahead)."""

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        counters = yield from pe.malloc(8 * n)
        pe.write_symmetric(counters, np.zeros(n, dtype=np.int64))
        yield from pe.barrier_all()
        violations = 0
        for round_no in range(1, rounds + 1):
            # Publish my round number to everyone.
            for target in range(n):
                if target == me:
                    pe.write_symmetric(
                        counters + 8 * me,
                        np.array([round_no], dtype=np.int64),
                    )
                else:
                    yield from pe.p(counters + 8 * me, round_no, target)
            yield from pe.barrier_all()
            view = pe.read_symmetric_array(counters, n, np.int64)
            if not (view == round_no).all():
                violations += 1
            yield from pe.barrier_all()
        return violations

    return main


class TestRingBarrier:
    @pytest.mark.parametrize("n_pes", [2, 3, 5])
    def test_no_pe_races_ahead(self, n_pes):
        report = run_spmd(
            barrier_correctness_program(), n_pes=n_pes,
            cluster_config=ClusterConfig(n_hosts=n_pes),
        )
        assert report.results == [0] * n_pes

    def test_strategy_selected_for_ring(self):
        def main(pe):
            yield from pe.barrier_all()
            return type(pe.rt.barrier).__name__

        report = run_spmd(main, n_pes=3)
        assert all(r == "RingBarrier" for r in report.results)

    def test_generation_counter_advances(self):
        def main(pe):
            for _ in range(4):
                yield from pe.barrier_all()
            return pe.rt.barrier.generation

        report = run_spmd(main, n_pes=3)
        assert report.results == [4, 4, 4]

    def test_skewed_arrival_still_synchronizes(self):
        """PEs enter the barrier at wildly different times."""
        def main(pe):
            yield pe.rt.env.timeout(pe.my_pe() * 5000.0)
            t0 = pe.rt.env.now
            yield from pe.barrier_all()
            exit_time = pe.rt.env.now
            return exit_time

        report = run_spmd(main, n_pes=3)
        # All exits happen after the slowest entry (10000 us).
        assert all(t >= 10_000.0 for t in report.results)


class TestDisseminationBarrier:
    @pytest.mark.parametrize("n_pes", [2, 3, 4, 5])
    def test_correctness(self, n_pes):
        report = run_spmd(
            barrier_correctness_program(rounds=3), n_pes=n_pes,
            cluster_config=ClusterConfig(n_hosts=n_pes),
            shmem_config=ShmemConfig(barrier="dissemination"),
        )
        assert report.results == [0] * n_pes

    def test_strategy_selected(self):
        def main(pe):
            yield from pe.barrier_all()
            return type(pe.rt.barrier).__name__

        report = run_spmd(
            main, n_pes=3,
            shmem_config=ShmemConfig(barrier="dissemination"),
        )
        assert all(r == "DisseminationBarrier" for r in report.results)


class TestCentralizedBarrier:
    def test_correctness(self):
        report = run_spmd(
            barrier_correctness_program(rounds=2), n_pes=3,
            shmem_config=ShmemConfig(barrier="centralized"),
        )
        assert report.results == [0, 0, 0]

    def test_slower_than_ring(self):
        """The paper's §III-B.4 claim, quantified."""

        def timed_barriers(pe):
            yield from pe.barrier_all()  # warm up / allocate cells
            start = pe.rt.env.now
            for _ in range(3):
                yield from pe.barrier_all()
            return pe.rt.env.now - start

        ring = run_spmd(timed_barriers, n_pes=3)
        central = run_spmd(
            timed_barriers, n_pes=3,
            shmem_config=ShmemConfig(barrier="centralized"),
        )
        assert min(central.results) > max(ring.results)


class TestChainBarrier:
    """A line of hosts (the 1-D mesh) circulates no token: its default
    barrier is the dissemination barrier."""

    def test_correctness_on_chain(self):
        report = run_spmd(
            barrier_correctness_program(rounds=3), n_pes=3,
            cluster_config=ClusterConfig(n_hosts=3, topology="mesh",
                                         dims=(3,)),
        )
        assert report.results == [0, 0, 0]

    def test_strategy_selected_for_chain(self):
        def main(pe):
            yield from pe.barrier_all()
            return type(pe.rt.barrier).__name__

        report = run_spmd(
            main, n_pes=3,
            cluster_config=ClusterConfig(n_hosts=3, topology="mesh",
                                         dims=(3,)),
        )
        assert all(r == "DisseminationBarrier" for r in report.results)


class TestBarrierLatencyShape:
    def test_barrier_substantial_vs_small_put(self):
        """Fig. 10: barrier latency dwarfs small-message put latency."""
        def main(pe):
            sym = yield from pe.malloc(1024)
            yield from pe.barrier_all()
            t_put = None
            if pe.my_pe() == 0:
                t0 = pe.rt.env.now
                yield from pe.put(sym, b"\x01" * 1024, 1)
                t_put = pe.rt.env.now - t0
            t0 = pe.rt.env.now
            yield from pe.barrier_all()
            t_barrier = pe.rt.env.now - t0
            return (t_put, t_barrier)

        report = run_spmd(main, n_pes=3)
        t_put, t_barrier = report.results[0]
        assert t_barrier > 3 * t_put


class TestBarrierLatencyKey:
    """``barrier_us.<name>`` carries the strategy that ran, not the
    config default that asked for "whatever fits"."""

    @staticmethod
    def _keys(report):
        return sorted(key for key, _ in report.cluster.metrics.hist.items()
                      if key.startswith("barrier_us."))

    @staticmethod
    def _main(pe):
        yield from pe.barrier_all()
        return pe.rt.barrier.name

    def test_mesh_files_under_dissemination(self):
        # ShmemConfig.barrier stays at its default "ring"; make_barrier
        # picks dissemination because a grid has no token to pass.
        report = run_spmd(
            self._main, n_pes=4,
            cluster_config=ClusterConfig(n_hosts=4, topology="mesh",
                                         dims=(2, 2)),
            shmem_config=ShmemConfig(trace_spans=True))
        assert set(report.results) == {"dissemination"}
        assert self._keys(report) == ["barrier_us.dissemination"]
        barriers = [s for s in report.scope.spans if s.name == "barrier"]
        assert {s.args["strategy"] for s in barriers} == {"dissemination"}

    def test_ring_keeps_its_key(self):
        report = run_spmd(self._main, n_pes=3)
        assert self._keys(report) == ["barrier_us.ring"]

    @pytest.mark.parametrize("strategy", ["dissemination", "centralized"])
    def test_explicit_strategy_on_a_ring(self, strategy):
        report = run_spmd(self._main, n_pes=3,
                          shmem_config=ShmemConfig(barrier=strategy))
        assert self._keys(report) == [f"barrier_us.{strategy}"]
