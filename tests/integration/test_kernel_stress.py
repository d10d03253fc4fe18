"""16-host ring stress: chaos + tracing at scale.

A seeded cable sever mid-run with span tracing on, then full recovery.
The run's five virtual-time figures are pinned in ``pinned_figures.json``
(section ``stress16``).

Run with ``-m "not slow"`` to skip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PE, PeerUnreachableError, ShmemConfig, run_spmd
from repro.fabric import ClusterConfig
from repro.faults import FaultPlan

from ..conftest import pattern
from .test_pinned_figures import assert_pinned

HOSTS = 16
_ROUNDS = 6
_GAP_US = 2_000.0
_SLOT = 256


def _pattern(rnd: int, sender: int) -> np.ndarray:
    return pattern(_SLOT, seed=rnd * HOSTS + sender)


def _stress_body(pe: PE):
    me, n = pe.my_pe(), pe.num_pes()
    right = (me + 1) % n
    left = (me - 1) % n
    sym = yield from pe.malloc(n * _SLOT)
    ok_rounds = 0
    degraded = 0
    for rnd in range(_ROUNDS):
        put_ok = True
        try:
            yield from pe.put_array(
                sym + me * _SLOT, _pattern(rnd, me), right)
        except PeerUnreachableError:
            put_ok = False
        barrier_ok = True
        try:
            yield from pe.barrier_all()
        except PeerUnreachableError:
            barrier_ok = False
        if put_ok and barrier_ok:
            got = yield from pe.get_array(
                sym + left * _SLOT, _SLOT, np.uint8, me)
            if np.array_equal(got, _pattern(rnd, left)):
                ok_rounds += 1
        else:
            degraded += 1
        yield pe.rt.env.timeout(_GAP_US)
    # Strict final round after recovery: must verify on every PE.
    yield from pe.put_array(sym + me * _SLOT, _pattern(99, me), right)
    yield from pe.barrier_all()
    got = yield from pe.get_array(sym + left * _SLOT, _SLOT, np.uint8, me)
    final_ok = bool(np.array_equal(got, _pattern(99, left)))
    return {"rounds_ok": ok_rounds, "degraded": degraded,
            "final_ok": final_ok}


def run_stress_16host() -> dict[str, float]:
    """The scenario's virtual figures; payloads verified on the way."""
    config = ShmemConfig(
        faults=FaultPlan.seeded_severs(HOSTS, seed=42, count=1),
        trace_spans=True,
        max_retries=8,
        retry_backoff_us=200.0,
    )
    # Degraded rounds skew heap offsets asymmetrically (same reason the
    # chaos demo opts out); payload content is verified directly instead.
    report = run_spmd(
        _stress_body, n_pes=HOSTS,
        cluster_config=ClusterConfig(n_hosts=HOSTS),
        shmem_config=config,
        check_heap_consistency=False,
    )
    assert all(r["final_ok"] for r in report.results), (
        "post-recovery data verification failed on at least one PE")
    return {
        "elapsed_us": report.elapsed_us,
        "events_dispatched": float(report.cluster.env.dispatched_events),
        "spans": float(len(report.scope.spans)),
        "rounds_ok": float(sum(r["rounds_ok"] for r in report.results)),
        "degraded": float(sum(r["degraded"] for r in report.results)),
    }


@pytest.mark.slow
class TestStress16Host:
    def test_stress_matches_reference(self):
        assert_pinned("stress16", run_stress_16host())
