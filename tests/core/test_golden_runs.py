"""Golden byte-identity runs, parametrized over the kernel's event queues.

The ``kernel`` fixture (tests/conftest.py) runs every test here once per
queue backend.  Each test pins a full-stack run — virtual elapsed time,
per-PE results, and span counts where traced — so the suite fails if
*either* backend moves the default protocol's timing by a single virtual
ns.  The numbers live in the ``golden`` section of
``tests/integration/pinned_figures.json`` (written from
:func:`golden_figures` by that file's one writer, compared by
``assert_pinned``).

Three planes cover the configurations that exercise distinct scheduling
shapes — the paper-faithful default, a mid-run cable sever with retries
(chaos), and the fastpath data plane — each also run with span tracing,
which is timing-neutral by design: pinned to the *same* elapsed.
"""

from __future__ import annotations

import numpy as np

from repro import run_spmd
from repro.core import FastpathConfig, ShmemConfig
from repro.faults import FaultPlan

from ..integration.test_pinned_figures import assert_pinned


def _pattern(n, seed=0):
    # The pattern the golden capture used (differs from conftest's).
    return (np.arange(n, dtype=np.int64) * 7 + seed).astype(np.uint8)


def golden_main(pe):
    me, n = pe.my_pe(), pe.num_pes()
    right, left = (me + 1) % n, (me - 1) % n
    sym = yield from pe.malloc(n * 65536)
    yield from pe.barrier_all()
    # small put (inline-eligible size under fastpath)
    yield from pe.put_array(sym + me * 65536, _pattern(32, seed=me), right)
    yield from pe.barrier_all()
    # large put (chaining-eligible)
    yield from pe.put_array(sym + me * 65536, _pattern(65536, seed=me),
                            right)
    yield from pe.barrier_all()
    far = (me + 2) % n
    got = yield from pe.get_array(sym + ((far - 1) % n) * 65536, 4096,
                                  np.uint8, far)
    ctr = yield from pe.malloc(8)
    yield from pe.barrier_all()
    old = yield from pe.atomic_fetch_add(ctr, 1, right)
    buf = pe.local_alloc(2048)
    buf.write(_pattern(2048, seed=100 + me))
    pe.put_nbi(sym + me * 65536 + 4096, buf, 2048, right)
    yield from pe.quiet()
    yield from pe.barrier_all()
    back = pe.read_symmetric_array(sym + left * 65536 + 4096, 2048,
                                   np.uint8)
    return [int(got.sum()), int(old),
            int(back.sum()), float(pe.rt.env.now)]


#: plane -> its ShmemConfig, given the remaining knobs (``trace_spans``).
PLANES = {
    "default": ShmemConfig,
    # cable 1-2 severed at t=800 us, 8 retries with 200 us backoff.
    "chaos": lambda **extra: ShmemConfig(
        faults=FaultPlan.single_sever(1, 2, at_us=800.0),
        max_retries=8, retry_backoff_us=200.0, **extra),
    "fastpath": lambda **extra: ShmemConfig(
        fastpath=FastpathConfig(), **extra),
}


def golden_run(plane: str, trace_spans: bool = False):
    """Run ``golden_main`` on one plane; returns the report."""
    return run_spmd(golden_main, 4,
                    shmem_config=PLANES[plane](trace_spans=trace_spans))


def _figures(plane: str, report) -> dict:
    """A golden run's figures under their ``golden`` keys."""
    figures = {f"{plane}.elapsed_us": report.elapsed_us,
               f"{plane}.results": report.results}
    if report.scope is not None:
        figures[f"{plane}.spans"] = len(report.scope.spans)
    return figures


def golden_figures() -> dict:
    """The whole ``golden`` section: every plane, traced."""
    figures: dict = {}
    for plane in PLANES:
        figures.update(_figures(plane, golden_run(plane, trace_spans=True)))
    return figures


def check_golden(plane: str, trace_spans: bool = False):
    """Run one plane and hold it to its pins; returns the report."""
    report = golden_run(plane, trace_spans)
    assert_pinned("golden", _figures(plane, report), partial=True)
    return report


class TestGoldenRunsPerKernel:
    def test_default_plane(self, kernel):
        check_golden("default")

    def test_traced_is_timing_neutral(self, kernel):
        report = check_golden("default", trace_spans=True)
        assert all(span.end is not None for span in report.scope.spans)

    def test_chaos_plane(self, kernel):
        report = check_golden("chaos")
        assert sorted(report.runtime(0).dead_edges) == [(1, 2)]

    def test_chaos_traced(self, kernel):
        check_golden("chaos", trace_spans=True)

    def test_fastpath_plane(self, kernel):
        check_golden("fastpath")

    def test_fastpath_traced(self, kernel):
        check_golden("fastpath", trace_spans=True)
