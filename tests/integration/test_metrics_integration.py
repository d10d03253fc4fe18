"""End-to-end metrics fabric: wiring and the zero-cost guarantee."""

from __future__ import annotations

import inspect
from collections import Counter

import pytest

from repro.core import (FastpathConfig, PeerUnreachableError, ShmemConfig,
                        ShmemSan, run_spmd)
from repro.fabric import ClusterConfig
from repro.faults import FaultPlan, SeverCable
from repro.host import Host, InterruptController
from repro.ntb import DmaEngine, NtbEndpoint, connect_endpoints
from repro.pcie import DuplexLink, Link


def _workload(pe):
    sym = yield from pe.malloc(8192)
    src = pe.local_alloc(8192)
    dst = pe.local_alloc(8192)
    yield from pe.barrier_all()
    target = (pe.my_pe() + 1) % pe.num_pes()
    for _ in range(3):
        yield from pe.put_from(sym, src, 4096, target)
    yield from pe.barrier_all()
    yield from pe.get_into(dst, sym, 2048, target)
    yield from pe.barrier_all()
    return pe.my_pe()


# --------------------------------------------------------- always-on wiring
class TestClusterWiring:
    def test_registry_is_always_on(self):
        report = run_spmd(_workload, n_pes=3)
        registry = report.metrics
        assert registry.value("pe0.puts") == 3
        assert registry.value("pe*.puts") == 9
        assert registry.value("pe0.put.DMA") == 3
        assert registry.value("sim.events_dispatched") > 0
        assert registry.value("sim.events_scheduled") >= \
            registry.value("sim.events_dispatched")

    def test_hardware_counters_reflect_traffic(self):
        report = run_spmd(_workload, n_pes=3)
        registry = report.metrics
        # Every host's DMA engines moved the puts' bytes somewhere.
        assert registry.value("host*.dma.bytes") > 0
        assert registry.value("host*.db.rung") > 0
        assert registry.value("host*.pio.master_aborts") == 0
        assert registry.value("host*.dma.failed") == 0

    def test_op_histograms_recorded(self):
        report = run_spmd(_workload, n_pes=3)
        assert report.scope is None     # percentiles need no tracing
        hist = report.metrics.hist.get("put_us.DMA.4KB.1hop")
        assert hist is not None
        assert hist.count == 9  # 3 puts x 3 PEs, all one hop
        assert hist.quantile(0.999) >= hist.quantile(0.5) > 0
        assert "put_us.DMA.4KB.1hop" in report.render_profile()


# ------------------------------------------------------- each fact once
def _mixed_workload(pe):
    sym = yield from pe.malloc(8192)
    ctr = yield from pe.malloc(8)
    src = pe.local_alloc(8192)
    dst = pe.local_alloc(8192)
    yield from pe.barrier_all()
    right = (pe.my_pe() + 1) % pe.num_pes()
    left = (pe.my_pe() - 1) % pe.num_pes()
    for _ in range(pe.my_pe() + 1):
        yield from pe.put_from(sym, src, 4096, right)
    yield from pe.put_from(sym, src, 512, left)      # two hops, fixed-right
    yield from pe.barrier_all()
    yield from pe.get_into(dst, sym, 2048, left)
    yield from pe.atomic_fetch_add(ctr, 1, 0)
    if pe.my_pe() == 2:
        yield from pe.atomic_fetch(ctr, 1)
    yield from pe.barrier_all()


def _partitioned_workload(pe):
    """The mixed traffic, then both of PE 1's routes to PE 2 are cut:
    its last put fails, typed."""
    yield from _mixed_workload(pe)
    sym = yield from pe.malloc(256)
    yield pe.rt.env.timeout(30_000.0)       # past sever + detection
    if pe.my_pe() == 1:
        with pytest.raises(PeerUnreachableError):
            yield from pe.put_from(sym, pe.local_alloc(256), 256, 2)


#: name -> (workload, n_pes, ClusterConfig knobs, ShmemConfig knobs)
_SCENARIOS = {
    "ring-default": (_mixed_workload, 3, {}, {}),
    "ring-fastpath": (_mixed_workload, 3, {},
                      {"fastpath": FastpathConfig()}),
    "mesh2x2": (_mixed_workload, 4, {"topology": "mesh", "dims": (2, 2)},
                {}),
    "sever-failed": (_partitioned_workload, 4, {}, {
        "faults": FaultPlan(events=(SeverCable(20_000.0, 1, 2),
                                    SeverCable(20_000.0, 3, 0))),
        "max_retries": 1, "retry_backoff_us": 100.0}),
}


class TestOneSpine:
    #: op -> the per-PE counter keys ``_op`` increments for it, and the
    #: per-PE lifetime gauge (barriers have none).
    VIEWS = {"put": ("put.*", "puts"), "get": ("get.*", "gets"),
             "amo": ("amo.*", "amos"), "barrier": ("barriers", None)}

    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_every_op_once_per_view(self, scenario):
        """Every op is recorded exactly once per view of it."""
        main, n_pes, cluster, shmem = _SCENARIOS[scenario]
        report = run_spmd(
            main, n_pes=n_pes,
            cluster_config=ClusterConfig(n_hosts=n_pes, **cluster),
            shmem_config=ShmemConfig(trace_spans=True, **shmem),
            finalize="faults" not in shmem, check_heap_consistency=False)
        registry = report.metrics
        spans = Counter((span.track, span.name) for span in report.scope.spans
                        if span.category == "op" and not span.is_open)
        cluster_wide = Counter()
        for key, summary in registry.op_latencies():
            cluster_wide[key.split("_us.")[0]] += summary.count
        for op, (counters, gauge) in self.VIEWS.items():
            total = 0
            for rt in report.runtimes:
                hist = registry.hist.get(f"{rt.name}.{op}_us")
                count = hist.count if hist is not None else 0
                assert count == (registry.value(f"{rt.name}.{counters}")
                                 or 0), (rt.name, op)
                assert count == spans[(rt.name, op)], (rt.name, op)
                if gauge is not None:
                    assert count == registry.value(f"{rt.name}.{gauge}")
                total += count
            assert total == cluster_wide[op] > 0, op
        assert registry.hist.get("pe2.put_us").count == 4
        assert registry.hist.get("pe2.amo_us").count == 2
        if main is _partitioned_workload:   # the put that never left PE 1
            assert registry.hist.get("put_us.DMA.256B.0hop").count == 1

    def test_service_drop_gauges_exist_after_initialize(self):
        registry = run_spmd(lambda pe: iter(()), n_pes=3).metrics
        for pe in range(3):
            assert registry.value(f"pe{pe}.service.dropped_forwards") == 0
            assert registry.value(f"pe{pe}.service.abandoned_responses") == 0
            assert registry.value(f"pe{pe}.service.stale_responses") == 0

    @pytest.mark.parametrize("target", [
        Link, DuplexLink, InterruptController, Host, DmaEngine,
        NtbEndpoint, connect_endpoints, ShmemSan])
    def test_no_layer_takes_a_tracer(self, target):
        assert "tracer" not in inspect.signature(target).parameters

    def test_cluster_config_has_no_trace_knob(self):
        with pytest.raises(TypeError):
            ClusterConfig(trace=True)


# --------------------------------------------------- zero virtual-time cost
class TestGoldenByteIdentity:
    def test_ticker_does_not_perturb_virtual_time(self):
        # The golden guarantee: a metered run (ticker sampling every
        # 100 us) lands on the exact same virtual clock and results as
        # the same run without sampling.
        plain = run_spmd(_workload, n_pes=3)
        metered = run_spmd(_workload, n_pes=3,
                           shmem_config=ShmemConfig(metrics_window_us=100.0))
        assert metered.elapsed_us == plain.elapsed_us
        assert metered.results == plain.results
        assert metered.stats()["puts"] == plain.stats()["puts"]
        # ...and the ticker really did sample.
        assert metered.metrics.samples_taken > 0
        assert plain.metrics.samples_taken == 0

    def test_metered_run_is_deterministic(self):
        a = run_spmd(_workload, n_pes=3,
                     shmem_config=ShmemConfig(metrics_window_us=100.0))
        b = run_spmd(_workload, n_pes=3,
                     shmem_config=ShmemConfig(metrics_window_us=100.0))
        assert a.elapsed_us == b.elapsed_us
        assert a.metrics.snapshot() == b.metrics.snapshot()

    def test_time_series_sampled_on_schedule(self):
        report = run_spmd(_workload, n_pes=3,
                          shmem_config=ShmemConfig(metrics_window_us=50.0))
        series = report.metrics.series("pe0.puts")
        times = [t for t, _v in series.samples()]
        assert len(times) == report.metrics.samples_taken
        assert times == sorted(times)
        # The ticker starts at initialize time, so samples are anchored
        # there — but consecutive samples are exactly one window apart.
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert deltas == pytest.approx([50.0] * len(deltas))
