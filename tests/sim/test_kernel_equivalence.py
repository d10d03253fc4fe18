"""Differential kernel-equivalence harness (the PR-8 headline test).

Every scenario below is executed twice — once with the heap event queue
and once with the calendar queue — and the two runs must be **byte
identical**: the same dispatched-event sequence at the same virtual
times, the same per-PE results, the same final clock, and (where spans
are traced) the same span tree.  The queue backend is pure mechanism;
any observable divergence is a scheduler bug, not a tolerance question.

The fingerprint is a byte string built from:

* one line per dispatched event — ``repr(now)`` + event class name —
  captured through ``Environment.step_hooks`` (the kernel calls hooks
  from all four dispatch loops, so nothing escapes the net);
* the per-PE results and the final virtual clock, via ``repr`` so float
  identity is exact, not approximate;
* the span tree, serialized as (id, parent, name, track, start, end)
  rows, when the scenario traces spans.

Scenario coverage maps the repo's feature surface: the quickstart ring
(paper-faithful plane), chaos (seeded cable sever + recovery), the
fastpath data plane, the metered run (DesProfiler + metrics ticker on
the hot loop), and two ShmemCheck protocol models (lock, put-signal)
under their instrumented configs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import FastpathConfig, ShmemConfig
from repro.core.errors import PeerUnreachableError
from repro.core.program import make_cluster, run_spmd
from repro.faults import FaultPlan
from repro.obsv.profiler import DesProfiler
from repro.sim import Environment
from repro.sim.core import set_default_queue
from repro.sim.queues import QUEUE_KINDS


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _quickstart_main(pe):
    """The quickstart ring shift: put/barrier/get/atomics/reduce."""
    me, n = pe.my_pe(), pe.num_pes()
    block = yield from pe.malloc_array(1024, np.int64)
    counter = yield from pe.malloc(8)
    pe.write_symmetric(counter, np.zeros(1, dtype=np.int64))
    yield from pe.barrier_all()

    right = (me + 1) % n
    payload = np.arange(1024, dtype=np.int64) * (me + 1)
    yield from pe.put_array(block, payload, right)
    yield from pe.barrier_all()

    left = (me - 1) % n
    received = pe.read_symmetric_array(block, 1024, np.int64)
    assert np.array_equal(
        received, np.arange(1024, dtype=np.int64) * (left + 1))

    fetched = yield from pe.get_array(block, 8, np.int64, (me + 2) % n)
    old = yield from pe.atomic_fetch_add(counter, 1, 0)
    yield from pe.barrier_all()

    contribution = yield from pe.malloc_array(4, np.float64)
    result = yield from pe.malloc_array(4, np.float64)
    pe.write_symmetric(
        contribution, np.full(4, float(me + 1), dtype=np.float64))
    yield from pe.barrier_all()
    yield from pe.reduce(result, contribution, 4, np.float64, "sum")
    sums = pe.read_symmetric_array(result, 4, np.float64)
    return (me, int(received[1]), int(fetched[1]), int(old), float(sums[0]))


def _chaos_main(pe):
    """Put/barrier rounds that survive a mid-run cable sever."""
    me, n = pe.my_pe(), pe.num_pes()
    block = yield from pe.malloc(4096)
    yield from pe.barrier_all()
    delivered = 0
    for rnd in range(4):
        data = ((np.arange(4096, dtype=np.int64) * 31 + rnd * 7 + me)
                % 251).astype(np.uint8)
        try:
            yield from pe.put(block, data, (me + 1) % n)
            delivered += 1
        except PeerUnreachableError:
            pass
        yield from pe.barrier_all()
    got = pe.read_symmetric_array(block, 4096, np.uint8)
    return (me, delivered, int(got.sum()))


def _metered_main(pe):
    """Mixed traffic for the metered run (puts, gets, AMOs, barriers)."""
    sym = yield from pe.malloc(65536)
    counter = yield from pe.malloc(8)
    src = pe.local_alloc(65536)
    dst = pe.local_alloc(65536)
    yield from pe.barrier_all()
    target = (pe.my_pe() + 1) % pe.num_pes()
    for size in (32, 4096, 65536):
        yield from pe.put_from(sym, src, size, target)
        yield from pe.barrier_all()
    for size in (4096, 65536):
        yield from pe.get_into(dst, sym, size, target)
    yield from pe.barrier_all()
    yield from pe.atomic_add(counter, 1, target)
    yield from pe.barrier_all()
    total = yield from pe.atomic_fetch(counter, pe.my_pe())
    return int(total)


# --------------------------------------------------------------------------
# Scenarios: name -> callable(hook) -> SpmdReport
#
# Each scenario builds its own cluster, installs ``hook`` on the kernel's
# ``step_hooks`` *before* anything runs, and returns the finished report.
# --------------------------------------------------------------------------

def _run(main, n_pes, hook, shmem_config=None, install_profiler=False):
    cluster = make_cluster(n_pes)
    cluster.env.step_hooks.append(hook)
    profiler = DesProfiler(cluster.env) if install_profiler else None
    if profiler is not None:
        profiler.install()
    try:
        return run_spmd(main, n_pes=n_pes, cluster=cluster,
                        shmem_config=shmem_config)
    finally:
        if profiler is not None:
            profiler.uninstall()


def _scenario_quickstart(hook):
    return _run(_quickstart_main, 3, hook)


def _scenario_quickstart_traced(hook):
    return _run(_quickstart_main, 3, hook,
                ShmemConfig(trace_spans=True))


def _scenario_chaos(hook):
    config = ShmemConfig(
        faults=FaultPlan.seeded_severs(4, seed=7,
                                       window_us=(2_000.0, 6_000.0)),
        max_retries=8, retry_backoff_us=200.0,
    )
    return _run(_chaos_main, 4, hook, config)


def _scenario_fastpath(hook):
    return _run(_quickstart_main, 3, hook,
                ShmemConfig(fastpath=FastpathConfig()))


def _scenario_metered(hook):
    return _run(_metered_main, 3, hook,
                ShmemConfig(metrics_window_us=200.0),
                install_profiler=True)


def _check_model(name):
    from repro.check.models import MODELS

    model = MODELS[name]

    def scenario(hook):
        return _run(model.main, model.n_pes, hook, model.make_config())

    return scenario


SCENARIOS = {
    "quickstart": _scenario_quickstart,
    "quickstart-traced": _scenario_quickstart_traced,
    "chaos": _scenario_chaos,
    "fastpath": _scenario_fastpath,
    "metered": _scenario_metered,
    "check-lock": _check_model("lock"),
    "check-put-signal": _check_model("put-signal"),
}


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------

def _span_rows(scope):
    if scope is None:
        return []
    return [
        f"span {s.span_id} {s.parent_id} {s.name} {s.track} "
        f"{s.start!r} {s.end!r}"
        for s in sorted(scope.spans, key=lambda s: s.span_id)
    ]


def _fingerprint(scenario, queue_kind):
    """Run ``scenario`` under ``queue_kind`` and return its trace lines."""
    previous = set_default_queue(queue_kind)
    lines: list[str] = []

    def hook(env, event):
        lines.append(f"{env.now!r} {type(event).__name__}")

    try:
        report = scenario(hook)
    finally:
        set_default_queue(previous)
    lines.append(f"elapsed {report.elapsed_us!r}")
    lines.append(f"results {report.results!r}")
    lines.extend(_span_rows(report.scope))
    return lines


def _first_divergence(a, b):
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            return f"line {i}: heap={la!r} calendar={lb!r}"
    return f"length: heap={len(a)} calendar={len(b)}"


# --------------------------------------------------------------------------
# The differential test
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedulers_byte_identical(name):
    heap_lines = _fingerprint(SCENARIOS[name], "heap")
    cal_lines = _fingerprint(SCENARIOS[name], "calendar")
    heap_bytes = "\n".join(heap_lines).encode()
    cal_bytes = "\n".join(cal_lines).encode()
    assert hashlib.sha256(heap_bytes).hexdigest() == \
        hashlib.sha256(cal_bytes).hexdigest(), (
            f"scenario {name!r} diverged between queue backends: "
            + _first_divergence(heap_lines, cal_lines))
    # sanity: the harness actually observed a non-trivial run
    assert len(heap_lines) > 100


# --------------------------------------------------------------------------
# The bare kernel: one deep queue, three ways to dispatch it
# --------------------------------------------------------------------------

STORM_TIMERS = 1024
STORM_HORIZON_US = 40.0


def _run_until(env):
    env.run(until=STORM_HORIZON_US)


def _step_loop(env):
    while env.peek() <= STORM_HORIZON_US:
        env.step()


def _storm(queue_kind, dispatch):
    """1024 periodic timers (the pending set sits in the thousands, the
    64-host regime); returns the event count and who resumed when."""
    env = Environment(queue=queue_kind)
    resumed = []

    def timer(name, period):
        while True:
            yield env.timeout(period)
            resumed.append((env.now, name))

    for i in range(STORM_TIMERS):
        name = f"storm.{i}"
        env.process(timer(name, 1.0 + (i % 173) * 0.037), name=name)
    dispatch(env)
    return env.dispatched_events, resumed


def test_timer_storm_same_under_heap_calendar_and_step():
    default = _storm(None, _run_until)      # the calendar queue
    assert default[0] > 10 * STORM_TIMERS
    assert _storm("heap", _run_until) == default
    assert _storm(None, _step_loop) == default


def test_all_backends_covered():
    """The harness exercises exactly the kernel's selectable backends."""
    assert set(QUEUE_KINDS) == {"heap", "calendar"}
