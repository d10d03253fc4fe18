"""End-to-end fault tolerance: severed cables mid-run (ISSUE: survive it).

The contract under test, per docs/FAULTS.md:

* a sever during traffic never hangs the simulation — every affected
  operation either completes via the rerouted path or raises a typed
  :class:`PeerUnreachableError`;
* the heartbeat failure detector marks the edge DEAD within
  ``miss_threshold`` periods and floods LINK_DOWN the long way around;
* ring barriers recover *inside the same call* via the degraded
  watermark protocol over the surviving line;
* pending-reply tables drain on link death (no leaked entries);
* a run configured with an **empty** fault plan is byte-identical in
  virtual time to a run with no fault layer at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Mode, run_spmd
from repro.core import PeerUnreachableError, ShmemConfig
from repro.faults import FaultPlan, SeverCable

from ..conftest import pattern

#: Generous budget: the retry backoff must outlast heartbeat detection
#: (3 x 500 us) so mid-round sends re-route instead of giving up.
_SURVIVOR_CONFIG = dict(max_retries=8, retry_backoff_us=200.0)


def _ring_workload(n_rounds=6, gap_us=2_500.0, size=512):
    """Put right / barrier / verify left, tolerant of mid-cut rounds."""

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        right, left = (me + 1) % n, (me - 1) % n
        sym = yield from pe.malloc(n * size)
        for rnd in range(n_rounds):
            # One put attempt and one barrier attempt per round whatever
            # happens, so episode counts stay aligned across PEs.
            try:
                yield from pe.put_array(
                    sym + me * size, pattern(size, seed=rnd * n + me), right)
            except PeerUnreachableError:
                pass
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(gap_us)
        # Strict final round over the (possibly degraded) fabric.
        yield from pe.put_array(
            sym + me * size, pattern(size, seed=1000 + me), right)
        yield from pe.barrier_all()
        got = yield from pe.get_array(sym + left * size, size, np.uint8, me)
        ok = bool(np.array_equal(got, pattern(size, seed=1000 + left)))
        # Satellite: the pending-reply table must have drained.
        return {
            "ok": ok,
            "dead": sorted(pe.rt.dead_edges),
            "pending": len(pe.rt.pending),
            "reroutes": pe.rt.reroutes,
        }

    return main


class TestSeededChaos:
    """Sever each of the N ring cables at a randomised virtual time."""

    N = 4

    @pytest.mark.parametrize("edge_a", range(N))
    def test_survives_any_single_cable(self, edge_a):
        edge_b = (edge_a + 1) % self.N
        # Test-side RNG is fine (the simulated layers stay entropy-free):
        # the time lands inside the workload's active window.
        rng = np.random.default_rng(seed=edge_a * 97 + 13)
        at_us = float(rng.uniform(3_000.0, 12_000.0))
        plan = FaultPlan(events=(SeverCable(at_us, edge_a, edge_b),))
        config = ShmemConfig(faults=plan, **_SURVIVOR_CONFIG)

        report = run_spmd(_ring_workload(), self.N, shmem_config=config,
                          check_heap_consistency=False)
        for result in report.results:
            assert result["ok"], result
            assert result["dead"] == [(edge_a, edge_b)]
            assert result["pending"] == 0
        # Somebody had to route the long way around.
        assert sum(r["reroutes"] for r in report.results) > 0

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.seeded_severs(4, 42, count=2)
        b = FaultPlan.seeded_severs(4, 42, count=2)
        assert a == b
        assert a != FaultPlan.seeded_severs(4, 43, count=2)


class TestTypedFailureNoHang:
    def test_exhausted_retries_raise_peer_unreachable(self):
        """With a partitioned ring (2 cuts) nothing can reroute: the put
        must surface a typed error promptly, never hang."""
        plan = FaultPlan(events=(
            SeverCable(2_000.0, 1, 2),
            SeverCable(2_000.0, 3, 0),
        ))
        config = ShmemConfig(faults=plan, max_retries=1,
                             retry_backoff_us=100.0)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(1024)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(10_000.0)  # past sever + detection
            outcome = "silent"
            if me == 1:
                try:
                    yield from pe.put_array(
                        sym, pattern(256), 2)  # both directions cut
                except PeerUnreachableError:
                    outcome = "typed"
            return outcome

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False, finalize=False)
        assert report.results[1] == "typed"

    def test_get_across_dead_partition_raises(self):
        plan = FaultPlan(events=(
            SeverCable(2_000.0, 0, 1),
            SeverCable(2_000.0, 2, 3),
        ))
        config = ShmemConfig(faults=plan, max_retries=1,
                             retry_backoff_us=100.0)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(1024)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(10_000.0)
            outcome = "silent"
            if me == 0:
                try:
                    yield from pe.get_array(sym, 256, np.uint8, 1)
                except PeerUnreachableError:
                    outcome = "typed"
            # Pending table drained even though the get failed.
            return outcome, len(pe.rt.pending)

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False, finalize=False)
        assert report.results[0] == ("typed", 0)


class TestPioMasterAbort:
    """Satellite (b): the PIO/memcpy path reports a dead link exactly like
    the DMA path — a typed error, not silent data loss."""

    @pytest.mark.parametrize("mode", [Mode.DMA, Mode.MEMCPY])
    def test_both_data_paths_raise_consistently(self, mode):
        plan = FaultPlan(events=(SeverCable(2_000.0, 0, 1),))
        config = ShmemConfig(faults=plan, max_retries=0)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            # Send just past the sever but *before* heartbeat detection:
            # the transfer must hit the dead cable in hardware (PIO
            # master abort / DMA fault), not a routing-table check.
            yield pe.rt.env.timeout(2_100.0)
            if me == 0:
                with pytest.raises(PeerUnreachableError):
                    yield from pe.put_array(
                        sym, pattern(2048), 1, mode=mode)
            yield pe.rt.env.timeout(10_000.0)
            return True

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False, finalize=False)
        assert all(report.results)


class TestRerouteAndRecovery:
    def test_puts_reroute_with_correct_data(self):
        """After detection, a put whose direct path died arrives the long
        way around with intact payload — and counts as one reroute (the
        op's hop label used to resolve a second, counted, route)."""
        plan = FaultPlan.single_sever(1, 2, at_us=5_000.0)
        config = ShmemConfig(faults=plan, **_SURVIVOR_CONFIG)
        payload = pattern(8192, seed=7)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(16384)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(12_000.0)  # sever + detection done
            if me == 1:
                before = pe.rt.reroutes, pe.rt.retries
                yield from pe.put_array(sym, payload, 2)
                counted = (pe.rt.reroutes - before[0],
                           pe.rt.retries - before[1])
            yield from pe.barrier_all()       # recovery barrier
            if me == 1:
                return counted
            if me == 2:
                return bool(np.array_equal(
                    pe.read_symmetric_array(sym, 8192, np.uint8), payload))
            return True

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False)
        assert report.results == [True, (1, 0), True, True]

    def test_recovery_barrier_survives_mid_episode_cut(self):
        """Sever timed to land inside a barrier episode: every PE's call
        must still return (in-call recovery), none may raise."""
        plan = FaultPlan.single_sever(2, 3, at_us=1_500.0)
        config = ShmemConfig(faults=plan, **_SURVIVOR_CONFIG)

        def main(pe):
            yield from pe.malloc(64)
            # Enter barriers continuously across the sever window.
            for _ in range(8):
                yield from pe.barrier_all()
                yield pe.rt.env.timeout(400.0)
            return pe.rt.barrier.generation

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False)
        # All PEs completed the same number of episodes.
        assert len(set(report.results)) == 1

    def test_restore_rejoins_the_ring(self):
        """A re-plugged cable is detected ALIVE and direct routing
        resumes (LINK_UP flood clears the dead edge everywhere)."""
        plan = FaultPlan.single_sever(1, 2, at_us=4_000.0,
                                      restore_at_us=20_000.0)
        config = ShmemConfig(faults=plan, **_SURVIVOR_CONFIG)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(10_000.0)   # dead window
            dead_seen = sorted(pe.rt.dead_edges)
            yield pe.rt.env.timeout(20_000.0)   # past restore + detection
            if me == 1:
                yield from pe.put_array(sym, pattern(1024, seed=3), 2)
            yield from pe.barrier_all()
            ok = True
            if me == 2:
                ok = bool(np.array_equal(
                    pe.read_symmetric_array(sym, 1024, np.uint8),
                    pattern(1024, seed=3)))
            return ok, dead_seen, sorted(pe.rt.dead_edges)

        report = run_spmd(main, 4, shmem_config=config,
                          check_heap_consistency=False)
        for ok, dead_seen, dead_final in report.results:
            assert ok
            assert dead_seen == [(1, 2)]
            assert dead_final == []


class TestByteIdentity:
    """The zero-cost guarantee: no faults configured -> byte-identical
    virtual time, with or without the fault subsystem in the config."""

    @staticmethod
    def _workload(pe):
        me, n = pe.my_pe(), pe.num_pes()
        sym = yield from pe.malloc(65536)
        yield from pe.barrier_all()
        yield from pe.put_array(
            sym, pattern(16384, seed=me), (me + 1) % n)
        yield from pe.barrier_all()
        data = yield from pe.get_array(sym, 4096, np.uint8, (me + 2) % n)
        total = yield from pe.atomic_fetch_add(sym, 1, 0)
        yield from pe.barrier_all()
        return pe.rt.env.now, int(data.sum()), total

    def test_empty_plan_is_byte_identical(self):
        baseline = run_spmd(self._workload, 4)
        empty = run_spmd(self._workload, 4,
                         shmem_config=ShmemConfig(faults=FaultPlan()))
        assert baseline.results == empty.results
        assert baseline.elapsed_us == empty.elapsed_us

    def test_faulted_config_changes_nothing_before_the_fault(self):
        """A plan whose first event fires after the workload finishes
        must not perturb a single timestamp."""
        baseline = run_spmd(self._workload, 4)
        late_plan = FaultPlan.single_sever(0, 1, at_us=10_000_000.0)
        faulted = run_spmd(
            self._workload, 4,
            shmem_config=ShmemConfig(faults=late_plan, **_SURVIVOR_CONFIG),
        )
        # Same per-PE data outcomes; virtual finish times may include the
        # heartbeat agents' MMIO but the workload's own operations see
        # identical data.
        for (_, base_sum, base_amo), (_, f_sum, f_amo) in zip(
                baseline.results, faulted.results):
            assert base_sum == f_sum
            assert base_amo == f_amo
