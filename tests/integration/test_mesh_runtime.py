"""End-to-end runtime runs on 2D mesh / 3D torus fabrics (PR 9).

The grid generalization must compose with the whole stack — relays,
barriers, heartbeats, metrics — not just the topology math.  Alongside
the happy paths this file pins the PR's routing-correctness bugfixes at
the runtime level:

* latency histograms are keyed by the hop count an op *actually*
  traversed: a put rerouted mid-transfer by a severed cable lands in
  the long-route bucket, not the issue-time one;
* FIXED_RIGHT's leftward fallback on an open axis (a line of hosts,
  the 1-D mesh) is surfaced as ``route_fallbacks`` in the metrics
  fabric;
* a double-severed ring raises a typed :class:`PeerUnreachableError`
  promptly (no retry spin into a known-dead route);
* ``ShmemConfig`` validates router names up front.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.core import PeerUnreachableError, ShmemConfig
from repro.fabric import ClusterConfig
from repro.faults import FaultPlan, SeverCable

from ..conftest import pattern

_SLOT = 1024


def _antipodal_workload(pe):
    """Put to the antipodal PE, barrier, verify, get it back."""
    me, n = pe.my_pe(), pe.num_pes()
    partner = (me + n // 2) % n
    writer = (me - n // 2) % n
    sym = yield from pe.malloc(_SLOT)
    yield from pe.put_array(sym, pattern(_SLOT, seed=me), partner)
    yield from pe.barrier_all()
    mine_ok = bool(np.array_equal(pe.read_symmetric(sym, _SLOT),
                                  pattern(_SLOT, seed=writer)))
    got = yield from pe.get_array(sym, _SLOT, np.uint8, partner)
    get_ok = bool(np.array_equal(got, pattern(_SLOT, seed=(partner - n // 2) % n)))
    yield from pe.barrier_all()
    return {"ok": mine_ok and get_ok}


class TestGridEndToEnd:
    def test_mesh_3x3(self):
        report = run_spmd(
            _antipodal_workload, n_pes=9,
            cluster_config=ClusterConfig(n_hosts=9, topology="mesh",
                                         dims=(3, 3)),
            check_heap_consistency=False)
        assert all(r["ok"] for r in report.results)
        assert report.runtimes[0].router.name == "dimension_order"

    def test_torus_3x3_adaptive(self):
        report = run_spmd(
            _antipodal_workload, n_pes=9,
            cluster_config=ClusterConfig(n_hosts=9, topology="torus",
                                         dims=(3, 3)),
            shmem_config=ShmemConfig(routing="adaptive"),
            check_heap_consistency=False)
        assert all(r["ok"] for r in report.results)
        assert report.runtimes[0].router.name == "adaptive"

    def test_torus_3d(self):
        report = run_spmd(
            _antipodal_workload, n_pes=27,
            cluster_config=ClusterConfig(n_hosts=27, topology="torus",
                                         dims=(3, 3, 3)),
            check_heap_consistency=False)
        assert all(r["ok"] for r in report.results)


class TestTraversedHopMetrics:
    """Satellite bugfix: latency buckets key on traversed hops."""

    def test_mid_put_sever_lands_in_long_route_bucket(self):
        # PE 0 starts a 32-chunk 256KB put to its right neighbor; the
        # (0, 1) cable dies shortly after the first chunks land.  The
        # remaining chunks reroute the long way (3 hops), so the put's
        # latency must be recorded under ``.3hop`` — keying it by the
        # issue-time single hop would poison the 1-hop histogram with a
        # reroute-inflated sample.
        plan = FaultPlan(events=(SeverCable(5_050.0, 0, 1),))
        config = ShmemConfig(faults=plan, max_retries=8,
                             retry_backoff_us=200.0,
                             rx_data_size=8192, fwd_chunk=8192)
        nbytes = 256 * 1024

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(nbytes)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(5_000.0 - pe.rt.env.now)
            if me == 0:
                yield from pe.put_array(sym, pattern(nbytes), 1)
            else:
                yield pe.rt.env.timeout(30_000.0)
            yield from pe.barrier_all()
            if me == 1:
                # The chunk posted into the cable at the cut instant is
                # lost (posted writes have no TLP-level ack; episode
                # protocols own end-to-end completion, per docs/FAULTS.md)
                # — verify the rerouted remainder of the transfer.
                got = pe.read_symmetric(sym, nbytes)[2 * 8192:]
                return {"ok": bool(np.array_equal(
                    got, pattern(nbytes)[2 * 8192:]))}
            return {"ok": True}

        report = run_spmd(main, 4,
                          cluster_config=ClusterConfig(n_hosts=4),
                          shmem_config=config,
                          check_heap_consistency=False)
        assert all(r["ok"] for r in report.results)
        rt0 = report.runtimes[0]
        assert rt0.reroutes > 0
        keys = [key for key, _h in rt0.metrics_registry.hist.items()]
        assert "put_us.DMA.256KB.3hop" in keys, keys
        assert "put_us.DMA.256KB.1hop" not in keys, keys


class TestChainFallbackSurfaced:
    def test_route_fallbacks_counted(self):
        # On a line of 3 hosts, PE 2 -> PE 0 cannot honor FIXED_RIGHT;
        # the leftward fallback used to be silent — it must now show up
        # in the runtime's mirrored counter.
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(_SLOT)
            yield from pe.put_array(sym, pattern(_SLOT, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            return {"fallbacks": pe.rt.route_fallbacks}

        report = run_spmd(main, 3,
                          cluster_config=ClusterConfig(
                              n_hosts=3, topology="mesh", dims=(3,)),
                          shmem_config=ShmemConfig(routing="fixed_right"),
                          check_heap_consistency=False)
        by_pe = [r["fallbacks"] for r in report.results]
        assert by_pe[2] > 0
        assert by_pe[0] == 0


class TestDoubleSeverPrompt:
    def test_partitioned_destination_fails_fast(self):
        # Both cables into PE 2 die.  Once the heartbeat has flooded the
        # link state, a put toward 2 must raise the typed error straight
        # from route resolution — not burn the retry/backoff budget
        # probing a direction that is known dead (the old behaviour).
        plan = FaultPlan(events=(SeverCable(2_000.0, 1, 2),
                                 SeverCable(2_000.0, 2, 3)))
        config = ShmemConfig(faults=plan, max_retries=8,
                             retry_backoff_us=200.0)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(_SLOT)
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(10_000.0 - pe.rt.env.now)
            out = {"raised": False, "spent_us": 0.0}
            if me == 0:
                t0 = pe.rt.env.now
                try:
                    yield from pe.put_array(sym, pattern(_SLOT), 2)
                except PeerUnreachableError:
                    out = {"raised": True,
                           "spent_us": pe.rt.env.now - t0}
            return out

        report = run_spmd(main, 4,
                          cluster_config=ClusterConfig(n_hosts=4),
                          shmem_config=config,
                          check_heap_consistency=False)
        res = report.results[0]
        assert res["raised"]
        # Prompt: resolution fails without a single backoff sleep.
        assert res["spent_us"] < config.retry_backoff_us


class TestMidBarrierSever:
    """A cut landing during a dissemination barrier must not hang.

    The notification posted into the cable at the cut instant is
    silently dropped (posted-write semantics), and its sender stays
    routable — so without the resend/nudge recovery the waiting PE
    blocks forever (this exact scenario wedged pre-fix: twelve of
    sixteen PEs stuck in the first ``barrier_all`` while virtual time
    ran away).
    """

    def test_torus_barrier_survives_mid_barrier_cut(self):
        plan = FaultPlan(events=(SeverCable(150.0, 5, 6),))
        config = ShmemConfig(faults=plan, routing="adaptive",
                             max_retries=8, retry_backoff_us=200.0)

        def main(pe):
            yield from pe.barrier_all()
            yield from pe.barrier_all()
            return pe.my_pe()

        report = run_spmd(main, 16,
                          cluster_config=ClusterConfig(n_hosts=16,
                                                       topology="torus",
                                                       dims=(4, 4)),
                          shmem_config=config,
                          check_heap_consistency=False)
        assert list(report.results) == list(range(16))
        # Recovery is a handful of resend windows, not a stall spiral.
        assert report.elapsed_us < 60_000.0

    def test_ring_dissemination_ablation_survives_cut(self):
        # The ablation config (dissemination on a ring) shares the same
        # recovery path; one dead edge leaves the ring connected, so the
        # barrier must complete the long way around.
        plan = FaultPlan(events=(SeverCable(150.0, 1, 2),))
        config = ShmemConfig(faults=plan, barrier="dissemination",
                             max_retries=8, retry_backoff_us=200.0)

        def main(pe):
            yield from pe.barrier_all()
            yield from pe.barrier_all()
            return pe.my_pe()

        report = run_spmd(main, 4,
                          cluster_config=ClusterConfig(n_hosts=4),
                          shmem_config=config,
                          check_heap_consistency=False)
        assert list(report.results) == list(range(4))


class TestPendingGetOnACutPath:
    def test_get_whose_issue_time_path_dies_is_retried_and_verified(
            self, monkeypatch):
        """A 64 KiB get from PE 0 to PE 8 on a 3x3 mesh leaves on the
        dimension-order path 0-1-2-5-8; cable (1,2) dies under it.  When
        the detector marks the edge, the dead-link handler's verdict
        (``Router.blocked``) finds the pending request on the dead path,
        fails it, and the retry verifies the data over a detour."""
        import sys

        from repro.core import linkstate
        from repro.fabric import Router

        verdicts = []
        judge = Router.blocked
        handler = linkstate._fail_pending_on_edge.__code__

        def counted(router, src, dst, route, dead_edges):
            verdict = judge(router, src, dst, route, dead_edges)
            if sys._getframe(1).f_code is handler:
                verdicts.append((router.name, src, dst, verdict))
            return verdict

        monkeypatch.setattr(Router, "blocked", counted)
        size = 64 * 1024

        def main(pe):
            sym = yield from pe.malloc(size)
            pe.write_symmetric(sym, np.full(size, pe.my_pe() + 1, np.uint8))
            yield from pe.barrier_all()
            ok = True
            if pe.my_pe() == 0:
                got = yield from pe.get(sym, size, 8)
                ok = bool((got == 9).all())
            yield from pe.barrier_all()
            return ok

        report = run_spmd(
            main, 9,
            cluster_config=ClusterConfig(n_hosts=9, topology="mesh",
                                         dims=(3, 3)),
            shmem_config=ShmemConfig(
                faults=FaultPlan([SeverCable(2_500.0, 1, 2)]),
                max_retries=8, retry_backoff_us=200.0))
        assert all(report.results)
        assert verdicts == [("dimension_order", 0, 8, True)]
        assert report.runtimes[0].retries == 1

    def test_a_detoured_get_outlives_a_cut_off_its_path(self, monkeypatch):
        """With (1,2) dead, a 64 KiB get from PE 0 to PE 2 on a 3x3 mesh
        leaves on the detour 0-1-4-5-2.  Cable (6,7) dies while it is
        pending: the handler's verdict reads the request's whole path,
        keeps it, and the get completes with no retry.  A guess of the
        detour's cables from its first port failed it."""
        import sys

        from repro.core import linkstate
        from repro.fabric import Router

        verdicts = []
        judge = Router.blocked
        handler = linkstate._fail_pending_on_edge.__code__

        def counted(router, src, dst, route, dead_edges):
            verdict = judge(router, src, dst, route, dead_edges)
            if sys._getframe(1).f_code is handler:
                verdicts.append((route.ports, sorted(dead_edges), verdict))
            return verdict

        monkeypatch.setattr(Router, "blocked", counted)
        size = 64 * 1024

        def main(pe):
            sym = yield from pe.malloc(size)
            pe.write_symmetric(sym, np.full(size, pe.my_pe() + 1, np.uint8))
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(5_000.0 - pe.rt.env.now)
            ok = True
            if pe.my_pe() == 0:
                got = yield from pe.get(sym, size, 2)
                ok = bool((got == 3).all())
            yield from pe.barrier_all()
            return ok

        report = run_spmd(
            main, 9,
            cluster_config=ClusterConfig(n_hosts=9, topology="mesh",
                                         dims=(3, 3)),
            shmem_config=ShmemConfig(
                faults=FaultPlan([SeverCable(1_000.0, 1, 2),
                                  SeverCable(4_000.0, 6, 7)]),
                max_retries=8, retry_backoff_us=200.0))
        assert all(report.results)
        assert verdicts == [(("x+", "y+", "x+", "y-"),
                             [(1, 2), (6, 7)], False)]
        assert report.runtimes[0].retries == 0


class TestRouterConfigValidation:
    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            ShmemConfig(routing="valiant")

    def test_policy_router_rejected_on_grid(self):
        from repro.fabric import TopologyError

        with pytest.raises(TopologyError):
            run_spmd(_antipodal_workload, n_pes=4,
                     cluster_config=ClusterConfig(n_hosts=4,
                                                  topology="mesh",
                                                  dims=(2, 2)),
                     shmem_config=ShmemConfig(routing="fixed_right"),
                     check_heap_consistency=False)
