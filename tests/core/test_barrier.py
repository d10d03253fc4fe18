"""Tests for the three barrier strategies (Fig. 6 + ablations)."""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np
import pytest

from repro import ClusterConfig, ShmemConfig, run_spmd
from repro.check.mutations import MUTATIONS
from repro.core import StuckRunError
from repro.core.barrier import (
    CentralizedBarrier,
    DisseminationBarrier,
    TokenBarrier,
    view_code,
)
from repro.core.program import drive, launch, make_cluster
from repro.core.transfer import DOORBELL_BARRIER_START
from repro.fabric import MeshTopology, RingTopology, TorusTopology
from repro.faults import DelayTlp, FaultPlan, SeverCable


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
            return type(pe.rt.barrier), pe.rt.barrier.name

        report = run_spmd(main, n_pes=3)
        assert all(r == (TokenBarrier, "ring") for r in report.results)

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
    """A line of hosts (the 1-D mesh) passes doorbell tokens between
    cabled neighbours: its default barrier is the grid token barrier."""

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
            return type(pe.rt.barrier), pe.rt.barrier.name

        report = run_spmd(
            main, n_pes=3,
            cluster_config=ClusterConfig(n_hosts=3, topology="mesh",
                                         dims=(3,)),
        )
        assert all(r == (TokenBarrier, "grid") for r in report.results)


class TestGridBarrier:
    """Doorbell-token rounds axis by axis on a mesh/torus: a PE leaves
    only after hearing, transitively, from every other PE."""

    GRIDS = [("mesh", (2, 3)), ("torus", (3, 4)), ("mesh", (2, 2, 2))]

    @staticmethod
    def _cluster(topology, dims):
        n = int(np.prod(dims))
        return n, ClusterConfig(n_hosts=n, topology=topology, dims=dims)

    @pytest.mark.parametrize("topology,dims", GRIDS)
    def test_no_pe_races_ahead(self, topology, dims):
        n, config = self._cluster(topology, dims)
        report = run_spmd(barrier_correctness_program(rounds=2), n_pes=n,
                          cluster_config=config)
        assert report.results == [0] * n

    @pytest.mark.parametrize("topology,dims", GRIDS)
    def test_skewed_arrival_still_synchronizes(self, topology, dims):
        """The last PE, at the far corner from PE 0, enters last."""
        def main(pe):
            yield pe.rt.env.timeout(pe.my_pe() * 1000.0)
            yield from pe.barrier_all()
            return pe.rt.env.now, type(pe.rt.barrier), pe.rt.barrier.name

        n, config = self._cluster(topology, dims)
        report = run_spmd(main, n_pes=n, cluster_config=config)
        assert all(t >= (n - 1) * 1000.0 for t, _, _ in report.results)
        assert {(cls, name) for _, cls, name in report.results} == {
            (TokenBarrier, "grid")}


class TestTokenRoundClosedForm:
    """An idle SHORTEST ring runs ``n // 2`` doorbell-token rounds, each
    the sum of named costs: ring the doorbell (one MMIO write), its wire
    time (an 8-byte posted write plus propagation), then the Fig. 5 wake
    path at the neighbour (MSI, ISR, service-thread wake)."""

    @staticmethod
    def _round_us(config):
        cost, link = config.cost_model, config.link
        terms = (cost.mmio_reg_write_us,
                 link.serialization_time_us(8), link.propagation_delay_us,
                 cost.msi_delivery_us, cost.isr_entry_us,
                 cost.thread_wake_us)
        return sum(terms), len(terms)

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 8, 16])
    def test_floor_half_n_rounds(self, n):
        def main(pe):
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(1000.0)   # everyone enters together
            start = pe.rt.env.now
            yield from pe.barrier_all()
            return start, pe.rt.env.now

        config = ClusterConfig(n_hosts=n)
        report = run_spmd(main, n_pes=n, cluster_config=config,
                          shmem_config=ShmemConfig(routing="shortest"))
        round_us, terms = self._round_us(config)
        rounds = n // 2
        assert {(type(rt.barrier), rt.barrier.name)
                for rt in report.runtimes} == {(TokenBarrier, "grid")}
        assert len({start for start, _ in report.results}) == 1
        for start, end in report.results:
            # The simulator adds each term to the absolute clock, the
            # formula sums them first: one ulp per term apart at most.
            assert abs((end - start) - rounds * round_us) <= \
                rounds * terms * math.ulp(end)


def _barriers_after_cuts(topology, dims, edges, n_barriers=4):
    """Cut ``edges`` at 2.5 ms, then one barrier every 5 ms, driven under
    a horizon and an event cap; per PE, each barrier's (start, end) and
    the dead-edge set its strategy agreed on after it."""
    n = int(np.prod(dims))
    cluster = make_cluster(n, ClusterConfig(n_hosts=n, topology=topology,
                                            dims=dims))
    config = ShmemConfig(
        faults=FaultPlan([SeverCable(2_500.0, *edge) for edge in edges]),
        max_retries=8, retry_backoff_us=200.0)

    def main(pe):
        yield from pe.barrier_all()
        spans = []
        for k in range(1, n_barriers + 1):
            yield pe.rt.env.timeout(5_000.0 * k - pe.rt.env.now)
            start = pe.rt.env.now
            yield from pe.barrier_all()
            spans.append((start, pe.rt.env.now, pe.rt.barrier._agreed))
        return spans

    _runtimes, _pes, results, procs = launch(cluster, main, config)
    drive(cluster, procs, horizon_us=1_000_000.0, max_events=2_000_000)
    return results


class TestAgreedFlood:
    """After a cut the recovery makes every PE agree on the dead cables;
    later barriers flood one-hop tokens over the live graph."""

    # Each livelocked a flood that drew its steps from the PE's own view:
    # PEs entered the barrier with different views and consumed each
    # other's tokens.
    @pytest.mark.parametrize("topology,dims,edges", [
        ("mesh", (4, 4), [(5, 6), (9, 10)]),
        ("torus", (4, 4, 4), [(0, 1)]),
    ], ids=["mesh4x4-two-cuts", "torus4x4x4"])
    def test_cut_while_views_differ_finishes(self, topology, dims, edges):
        try:
            results = _barriers_after_cuts(topology, dims, edges)
        except StuckRunError as exc:  # pragma: no cover - the regression
            pytest.fail(f"did not finish ({exc.kind}): {exc}")
        assert {spans[-1][2] for spans in results} == {frozenset(edges)}

    @pytest.mark.parametrize("topology,dims,edges,diameter", [
        ("mesh", (4, 4), [(5, 6)], 6),
        ("mesh", (4, 4), [(5, 6), (9, 10)], 6),
        ("torus", (4, 4), [(0, 1)], 4),
    ], ids=["mesh4x4", "mesh4x4-two-cuts", "torus4x4"])
    def test_idle_barrier_is_diameter_token_rounds(self, topology, dims,
                                                   edges, diameter):
        """Once agreed, an idle barrier is D token rounds for the first
        PE out.  A PE rings its cabled ports one after another, so a PE
        that its neighbours ring late in their order leaves up to three
        rings (MMIO write + wire) later."""
        results = _barriers_after_cuts(topology, dims, edges)
        config = ClusterConfig(n_hosts=int(np.prod(dims)))
        round_us, terms = TestTokenRoundClosedForm._round_us(config)
        cost, link = config.cost_model, config.link
        ring_us = (cost.mmio_reg_write_us + link.serialization_time_us(8)
                   + link.propagation_delay_us)
        assert {spans[-1][2] for spans in results} == {frozenset(edges)}
        assert len({spans[-1][0] for spans in results}) == 1
        start, end = min((spans[-1][:2] for spans in results),
                         key=lambda span: span[1])
        assert abs((end - start) - diameter * round_us) <= \
            diameter * terms * math.ulp(end)
        assert max(spans[-1][1] for spans in results) - end \
            <= 3 * ring_us + 1e-9

    @pytest.mark.parametrize("mutation", [None, "unfenced-tokens"])
    def test_a_token_rung_before_the_fence_does_not_count(self, mutation):
        """A 4-ring loses cable (0,1), a line 1-2-3-0 (D = 3).  PE 2 rings
        a START at PE 1 while no episode runs, as a PE does into an
        episode the cut aborts.  Cable (3,0) is slow, so PE 1 agrees and
        enters the next barrier before PE 2's fence reaches it; PE 0
        enters that barrier last.  Counted, the stray token lets PE 1
        leave a round early, before PE 0 came in: the seeded mutation
        that counts it must be caught here (no ShmemCheck model reaches
        it)."""
        plan = FaultPlan([SeverCable(500.0, 0, 1),
                          DelayTlp(3_000.0, 3, 0, 400.0, 1_000_000.0)])
        cluster = make_cluster(4, ClusterConfig(n_hosts=4))

        def main(pe):
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(4_000.0 - pe.rt.env.now)
            if pe.my_pe() == 2:
                yield from pe.rt.links["left"].driver.ring_doorbell(
                    DOORBELL_BARRIER_START)
            yield pe.rt.env.timeout(5_000.0 - pe.rt.env.now)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield pe.rt.env.timeout(1_000.0)
            enter = pe.rt.env.now
            yield from pe.barrier_all()
            return enter, pe.rt.env.now, pe.rt.barrier._agreed

        _runtimes, _pes, results, procs = launch(
            cluster, main, ShmemConfig(faults=plan, max_retries=8,
                                       retry_backoff_us=200.0))
        with MUTATIONS[mutation]() if mutation else nullcontext():
            drive(cluster, procs, horizon_us=1_000_000.0,
                  max_events=400_000)
        assert {agreed for _, _, agreed in results} == {frozenset({(0, 1)})}
        last_in = max(enter for enter, _, _ in results)
        early = [pe for pe, (_, leave, _) in enumerate(results)
                 if leave < last_in]
        assert early == ([1] if mutation else []), results

    @pytest.mark.parametrize("topology", [
        RingTopology(3), RingTopology(4), RingTopology(8), RingTopology(16),
        RingTopology(64), MeshTopology((2, 2)), MeshTopology((4, 4)),
        MeshTopology((8, 8)), TorusTopology((4,)), TorusTopology((3, 3)),
        TorusTopology((4, 4)), TorusTopology((4, 4, 4)),
    ], ids=lambda topo: type(topo).__name__.removesuffix("Topology").lower()
        + "x".join(map(str, topo.dims)))
    def test_view_code_is_injective_up_to_two_dead_edges(self, topology):
        cables = list(topology.links())
        views = [frozenset()] + [frozenset([a]) for a in cables] + [
            frozenset([a, b]) for i, a in enumerate(cables)
            for b in cables[i + 1:]]
        codes = {view_code(topology, view) for view in views}
        assert None not in codes
        assert len(codes) == len(views)


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

    def test_mesh_files_under_grid(self):
        # ShmemConfig.barrier stays at its default "ring"; make_barrier
        # picks the grid token barrier because the mesh's router is not
        # FIXED_RIGHT on a wrapped axis.
        report = run_spmd(
            self._main, n_pes=4,
            cluster_config=ClusterConfig(n_hosts=4, topology="mesh",
                                         dims=(2, 2)),
            shmem_config=ShmemConfig(trace_spans=True))
        assert set(report.results) == {"grid"}
        assert self._keys(report) == ["barrier_us.grid"]
        barriers = [s for s in report.scope.spans if s.name == "barrier"]
        assert {s.args["strategy"] for s in barriers} == {"grid"}

    def test_ring_keeps_its_key(self):
        report = run_spmd(self._main, n_pes=3)
        assert self._keys(report) == ["barrier_us.ring"]

    @pytest.mark.parametrize("strategy", ["dissemination", "centralized"])
    def test_explicit_strategy_on_a_ring(self, strategy):
        report = run_spmd(self._main, n_pes=3,
                          shmem_config=ShmemConfig(barrier=strategy))
        assert self._keys(report) == [f"barrier_us.{strategy}"]
