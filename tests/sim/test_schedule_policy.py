"""The pluggable tie-break seam: default fast path, decision points,
always-0 equivalence, and the scheduled/accessed hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments.topology import _bench_body
from repro.core import FastpathConfig, ShmemConfig
from repro.core.program import make_cluster, run_spmd
from repro.fabric import ClusterConfig
from repro.faults import FaultPlan
from repro.sim import Environment, Resource, SchedulePolicy

from .test_kernel_equivalence import _chaos_main, _quickstart_main, _span_rows


def _race(env, log, name, delay):
    def body():
        yield env.timeout(delay)
        log.append((env.now, name))
    return env.process(body(), name=name)


def _run_three_way_tie(policy=None):
    env = Environment(schedule_policy=policy)
    log = []
    for name in ("a", "b", "c"):
        _race(env, log, name, 5.0)  # all wake at t=5: a genuine tie
    env.run()
    return log


class _Recording(SchedulePolicy):
    def __init__(self, pick=0):
        self.pick = pick
        self.decisions = []
        self.pushes = 0
        self.accesses = []

    def choose(self, now, priority, candidates):
        self.decisions.append((now, len(candidates)))
        return min(self.pick, len(candidates) - 1)

    def scheduled(self, now, priority, event):
        self.pushes += 1

    def accessed(self, key, is_write):
        self.accesses.append((key, is_write))


def test_default_environment_has_no_policy():
    assert Environment().schedule_policy is None


def test_always_zero_policy_matches_default_order():
    assert _run_three_way_tie() == _run_three_way_tie(_Recording(pick=0))


def _dma_main(pe):
    """DMA-heavy: 64 KiB puts to both neighbours at once (two engines on
    one memory port, each port also the target of a neighbour's puts),
    then 96 KiB gets from two hops away."""
    me, n = pe.my_pe(), pe.num_pes()
    size = 64 * 1024
    sym = yield from pe.malloc(2 * size)
    src = pe.local_alloc(size)
    src.write(((np.arange(size) * 7 + me) % 251).astype(np.uint8))
    dst = pe.local_alloc(size + size // 2)
    yield from pe.barrier_all()
    for side, peer in enumerate(((me + 1) % n, (me - 1) % n)):
        pe.put_nbi(sym + side * size, src, size, peer)
    yield from pe.quiet()
    yield from pe.barrier_all()
    yield from pe.get_into(dst, sym, size + size // 2, (me + 2) % n)
    return (me, int(dst.read().astype(np.int64).sum()))


#: name -> (PE body, hosts, cluster config, runtime knobs); all span-traced.
_WHOLE_RUNS = {
    "quickstart": (_quickstart_main, 3, None, {}),
    "torus4x4": (_bench_body, 16,
                 ClusterConfig(n_hosts=16, topology="torus", dims=(4, 4)),
                 {}),
    "chaos": (_chaos_main, 4, None,
              dict(faults=FaultPlan.seeded_severs(
                       4, seed=7, window_us=(2_000.0, 6_000.0)),
                   max_retries=8, retry_backoff_us=200.0)),
    "fastpath": (_quickstart_main, 3, None,
                 dict(fastpath=FastpathConfig())),
    "dma": (_dma_main, 4, None, {}),
}


@pytest.mark.parametrize("name", _WHOLE_RUNS)
def test_always_zero_policy_is_the_reference_for_whole_runs(name):
    """The default ``SchedulePolicy()`` turns off every kernel shortcut
    (Timeout slab, inline grant at a quiet instant) while reproducing the
    default order: what a run computes must not depend on them."""
    main, n_pes, cluster_config, knobs = _WHOLE_RUNS[name]

    def run(policy):
        cluster = make_cluster(n_pes, cluster_config)
        cluster.env.schedule_policy = policy
        return run_spmd(main, n_pes=n_pes, cluster=cluster,
                        shmem_config=ShmemConfig(trace_spans=True, **knobs))

    fast, reference = run(None), run(SchedulePolicy())
    assert repr(fast.results) == repr(reference.results)
    assert repr(fast.elapsed_us) == repr(reference.elapsed_us)
    assert _span_rows(fast.scope) == _span_rows(reference.scope)
    fast_env, reference_env = fast.cluster.env, reference.cluster.env
    assert fast_env.slab_reused > 0 and reference_env.slab_reused == 0
    assert fast_env.dispatched_events < reference_env.dispatched_events


def test_policy_sees_ties_and_controls_order():
    policy = _Recording(pick=1)
    log = _run_three_way_tie(policy)
    assert policy.decisions, "a three-way tie must reach the policy"
    assert all(n >= 2 for _t, n in policy.decisions)
    # Repeatedly taking index 1 runs the default order's second
    # candidate first.
    assert log != _run_three_way_tie()
    assert sorted(log) == sorted(_run_three_way_tie())


def test_scheduled_hook_sees_every_push():
    policy = _Recording()
    _run_three_way_tie(policy)
    assert policy.pushes > 0


def test_resource_probes_reach_accessed_hook():
    policy = _Recording()
    env = Environment(schedule_policy=policy)
    resource = Resource(env, name="nic.server")

    def body():
        request = resource.request()
        yield request
        resource.release(request)

    env.process(body(), name="client")
    env.run()
    assert (("resource", "nic.server"), True) in policy.accesses


def test_policy_can_be_installed_later():
    env = Environment()
    policy = _Recording()
    env.schedule_policy = policy
    log = []
    for name in ("x", "y"):
        _race(env, log, name, 1.0)
    env.run()
    assert [name for _t, name in log] == ["x", "y"]
    assert policy.decisions
