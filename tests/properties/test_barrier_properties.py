"""Property-based barrier correctness under random arrival skew."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro import ClusterConfig, FastpathConfig, ShmemConfig, run_spmd
from repro.fabric import Topology
from repro.faults import DelayTlp, FaultPlan

_SETTINGS = settings(
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


class TestBarrierUnderSkew:
    @_SETTINGS
    @given(
        n_pes=st.integers(2, 5),
        strategy=st.sampled_from(["ring", "dissemination"]),
        skews=st.lists(st.floats(0.0, 20_000.0), min_size=5, max_size=5),
        rounds=st.integers(1, 3),
    )
    def test_no_pe_escapes_early(self, n_pes, strategy, skews, rounds):
        """With arbitrary per-PE compute skew before each barrier, no PE
        may observe a neighbor's pre-barrier value after the barrier."""
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            cell = yield from pe.malloc(8 * n)
            pe.write_symmetric(cell, np.zeros(n, dtype=np.int64))
            yield from pe.barrier_all()
            violations = 0
            for round_no in range(1, rounds + 1):
                yield pe.rt.env.timeout(skews[me % len(skews)])
                for target in range(n):
                    if target == me:
                        pe.write_symmetric(
                            cell + 8 * me,
                            np.array([round_no], dtype=np.int64),
                        )
                    else:
                        yield from pe.p(cell + 8 * me, round_no, target)
                yield from pe.barrier_all()
                view = pe.read_symmetric_array(cell, n, np.int64)
                if not (view == round_no).all():
                    violations += 1
                yield from pe.barrier_all()
            return violations

        report = run_spmd(
            main, n_pes=n_pes,
            cluster_config=ClusterConfig(n_hosts=n_pes),
            shmem_config=ShmemConfig(barrier=strategy),
        )
        assert report.results == [0] * n_pes

    @_SETTINGS
    @given(
        sizes=st.lists(st.integers(1, 120_000), min_size=1, max_size=3),
        hops=st.integers(1, 2),
    )
    def test_flush_property_for_random_put_sizes(self, sizes, hops):
        """Any put issued before barrier_all is fully visible after it,
        at any size and hop distance (the token-flush guarantee)."""
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            arena = yield from pe.malloc(sum(
                -(-size // 64) * 64 for size in sizes
            ) + 64 * len(sizes))
            yield from pe.barrier_all()
            target = (me + hops) % n
            offset = 0
            for index, size in enumerate(sizes):
                data = np.full(size, (me + index) % 251, dtype=np.uint8)
                yield from pe.put(arena + offset, data, target)
                offset += -(-size // 64) * 64 + 64
            yield from pe.barrier_all()
            sender = (me - hops) % n
            offset, ok = 0, True
            for index, size in enumerate(sizes):
                got = pe.read_symmetric(arena + offset, size)
                ok = ok and (got == (sender + index) % 251).all()
                offset += -(-size // 64) * 64 + 64
            return bool(ok)

        report = run_spmd(main, n_pes=3)
        assert all(report.results)


def _align(size: int) -> int:
    return -(-size // 64) * 64


class TestOneAxisFlush:
    """The barrier's tokens follow the router's routes, so a put issued
    before ``barrier_all`` has landed when it returns: the Fig. 6 sweep
    under FIXED_RIGHT, neighbour token rounds under SHORTEST — on a ring
    and on the 1-D torus alike."""

    @pytest.mark.parametrize("fastpath", [False, True],
                             ids=["default", "fastpath"])
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("routing", ["fixed_right", "shortest"])
    @pytest.mark.parametrize("topology", ["ring", "torus"])
    @settings(max_examples=4, suppress_health_check=[HealthCheck.too_slow],
              deadline=None, derandomize=True, database=None,
              phases=(Phase.generate,))   # a shrink holds many clusters
    @given(data=st.data())
    def test_puts_land_by_the_barrier(self, topology, routing, n, fastpath,
                                      data):
        # Per PE: one or two puts, each to a random distance at a
        # random size; no quiet before the barrier.
        plan = data.draw(st.lists(
            st.lists(st.tuples(st.integers(1, n - 1),
                               st.integers(8, 100_000)),
                     min_size=1, max_size=2),
            min_size=n, max_size=n))
        # One landing slot per (sender, put), at the same offset on
        # every PE.
        slots, arena_bytes = {}, 0
        for sender, puts in enumerate(plan):
            for index, (_, size) in enumerate(puts):
                slots[sender, index] = arena_bytes
                arena_bytes += _align(size)

        def fill(sender, index):
            return (7 * sender + index + 1) % 251

        def main(pe):
            me = pe.my_pe()
            arena = yield from pe.malloc(arena_bytes)
            yield from pe.barrier_all()
            for index, (distance, size) in enumerate(plan[me]):
                payload = np.full(size, fill(me, index), dtype=np.uint8)
                yield from pe.put(arena + slots[me, index], payload,
                                  (me + distance) % n)
            yield from pe.barrier_all()
            missing = []
            for sender, puts in enumerate(plan):
                for index, (distance, size) in enumerate(puts):
                    if (sender + distance) % n != me:
                        continue
                    got = pe.read_symmetric(arena + slots[sender, index],
                                            size)
                    if not (got == fill(sender, index)).all():
                        missing.append((sender, index))
            return missing

        report = run_spmd(
            main, n_pes=n,
            cluster_config=ClusterConfig(
                n_hosts=n, topology=topology,
                dims=(n,) if topology == "torus" else None),
            shmem_config=ShmemConfig(
                routing=routing,
                fastpath=FastpathConfig() if fastpath else None))
        assert report.results == [[]] * n


class TestAdaptiveGridFlush:
    """Adaptive routes are minimal but take any axis order, which the
    axis-by-axis token rounds do not follow: under the adaptive router a
    healthy grid floods its tokens over every live port instead."""

    _GRIDS = [("mesh", (4, 4)), ("torus", (4, 4))]

    def test_put_around_a_busy_port_lands_by_the_barrier(self):
        """PE 0's x+ port is busy with a put to PE 1, so its put to
        PE 15 leaves y first; the x-then-y rounds released PE 15 with all
        65 536 bytes stale."""
        size = 64 * 1024

        def main(pe):
            sym = yield from pe.malloc(2 * size)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield from pe.put(sym, np.full(size, 1, np.uint8), 1)
                yield from pe.put(sym + size, np.full(size, 2, np.uint8), 15)
            yield from pe.barrier_all()
            return int((pe.read_symmetric(sym + size, size) != 2).sum())

        report = run_spmd(
            main, n_pes=16,
            cluster_config=ClusterConfig(n_hosts=16, topology="mesh",
                                         dims=(4, 4)),
            shmem_config=ShmemConfig(routing="adaptive"))
        assert report.results[15] == 0

    @pytest.mark.parametrize("topology,dims", _GRIDS,
                             ids=["mesh4x4", "torus4x4"])
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow],
              deadline=None, derandomize=True, database=None,
              phases=(Phase.generate,))   # a shrink holds many clusters
    @given(data=st.data())
    def test_puts_land_by_the_barrier(self, topology, dims, data):
        n = int(np.prod(dims))
        # One PE keeps its x+ port busy with a large put to its
        # neighbour, then puts to a random PE at a random size, so the
        # adaptive router may leave along any other port; the other PEs
        # put to random PEs.  No quiet before the barrier, and one random
        # cable carries every TLP 50 µs late.
        cables = list(Topology(dims, wrap=topology == "torus").links())
        delayed = data.draw(st.sampled_from(cables))
        busy = data.draw(st.integers(0, n - 1))
        plan = [[(1, 65_536)] if pe == busy else [] for pe in range(n)]
        for pe in range(n):
            plan[pe] += data.draw(st.lists(
                st.tuples(st.integers(1, n - 1), st.integers(8, 100_000)),
                min_size=1 if pe == busy else 0, max_size=1))
        slots, arena_bytes = {}, 0
        for sender, puts in enumerate(plan):
            for index, (_, size) in enumerate(puts):
                slots[sender, index] = arena_bytes
                arena_bytes += _align(size)

        def fill(sender, index):
            return (7 * sender + index + 1) % 251

        def main(pe):
            me = pe.my_pe()
            arena = yield from pe.malloc(arena_bytes)
            yield from pe.barrier_all()
            for index, (distance, size) in enumerate(plan[me]):
                payload = np.full(size, fill(me, index), dtype=np.uint8)
                yield from pe.put(arena + slots[me, index], payload,
                                  (me + distance) % n)
            yield from pe.barrier_all()
            missing = []
            for sender, puts in enumerate(plan):
                for index, (distance, size) in enumerate(puts):
                    if (sender + distance) % n != me:
                        continue
                    got = pe.read_symmetric(arena + slots[sender, index],
                                            size)
                    if not (got == fill(sender, index)).all():
                        missing.append((sender, index))
            return missing

        report = run_spmd(
            main, n_pes=n,
            cluster_config=ClusterConfig(n_hosts=n, topology=topology,
                                         dims=dims),
            shmem_config=ShmemConfig(routing="adaptive", faults=FaultPlan(
                [DelayTlp(0.0, *delayed, 50.0, 1_000_000.0)])))
        assert report.results == [[]] * n
