"""Golden byte-identity runs, parametrized over the kernel's event queues.

The ``kernel`` fixture (tests/conftest.py) runs every test here once per
queue backend.  Each test pins a full-stack run — virtual elapsed time,
per-PE results, and span counts where traced — against numbers captured
at PR-8 time, so the suite fails if *either* backend moves the default
protocol's timing by a single virtual ns.

Four configurations cover the planes that exercise distinct scheduling
shapes: the paper-faithful default, span tracing (timing-neutral by
design — pinned to the *same* golden elapsed), a mid-run cable sever
with retries (chaos), and the fastpath data plane.
"""

from __future__ import annotations

from repro import run_spmd
from repro.core import FastpathConfig, ShmemConfig

from .test_fastpath import TestDefaultByteIdentity as _Golden
from .test_fastpath import chaos_golden_config as _chaos_config

#: fault-free default plane (same capture as TestDefaultByteIdentity).
DEFAULT_ELAPSED_US = _Golden.GOLDEN_ELAPSED_US
DEFAULT_RESULTS = _Golden.GOLDEN_RESULTS
DEFAULT_SPANS = 716

#: cable 1-2 severed at t=800 us, 8 retries with 200 us backoff.
CHAOS_ELAPSED_US = 5335.967726806272
CHAOS_RESULTS = [
    [522240, 0, 261120, 5158.1514768062725],
    [522240, 0, 261120, 5305.967726806272],
    [522240, 0, 261120, 5035.335226806273],
    [522240, 0, 261120, 5269.559601806272],
]
CHAOS_SPANS = 1197

#: optimized data plane (FastpathConfig defaults).
FASTPATH_ELAPSED_US = 2407.281183292285
FASTPATH_RESULTS = [
    [522240, 0, 261120, 2209.868995792284],
    [522240, 0, 261120, 2265.673058292284],
    [522240, 0, 261120, 2321.4771207922845],
    [522240, 0, 261120, 2377.281183292285],
]
FASTPATH_SPANS = 664


class TestGoldenRunsPerKernel:
    def test_default_plane(self, kernel):
        report = run_spmd(_Golden._golden_main, 4)
        assert report.elapsed_us == DEFAULT_ELAPSED_US
        assert report.results == DEFAULT_RESULTS

    def test_traced_is_timing_neutral(self, kernel):
        report = run_spmd(_Golden._golden_main, 4,
                          shmem_config=ShmemConfig(trace_spans=True))
        assert report.elapsed_us == DEFAULT_ELAPSED_US
        assert report.results == DEFAULT_RESULTS
        assert len(report.scope.spans) == DEFAULT_SPANS
        assert all(span.end is not None for span in report.scope.spans)

    def test_chaos_plane(self, kernel):
        report = run_spmd(_Golden._golden_main, 4,
                          shmem_config=_chaos_config())
        assert report.elapsed_us == CHAOS_ELAPSED_US
        assert report.results == CHAOS_RESULTS
        assert sorted(report.runtime(0).dead_edges) == [(1, 2)]

    def test_chaos_traced(self, kernel):
        report = run_spmd(_Golden._golden_main, 4,
                          shmem_config=_chaos_config(trace_spans=True))
        assert report.elapsed_us == CHAOS_ELAPSED_US
        assert report.results == CHAOS_RESULTS
        assert len(report.scope.spans) == CHAOS_SPANS

    def test_fastpath_plane(self, kernel):
        report = run_spmd(_Golden._golden_main, 4,
                          shmem_config=ShmemConfig(fastpath=FastpathConfig()))
        assert report.elapsed_us == FASTPATH_ELAPSED_US
        assert report.results == FASTPATH_RESULTS

    def test_fastpath_traced(self, kernel):
        report = run_spmd(
            _Golden._golden_main, 4,
            shmem_config=ShmemConfig(fastpath=FastpathConfig(),
                                     trace_spans=True))
        assert report.elapsed_us == FASTPATH_ELAPSED_US
        assert report.results == FASTPATH_RESULTS
        assert len(report.scope.spans) == FASTPATH_SPANS
