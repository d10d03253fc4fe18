"""Observability: span tracing with timeline export, and the always-on
metrics registry that holds every latency histogram.

Spans are opt-in (``ShmemConfig(trace_spans=True)``); the resulting
:class:`~repro.obsv.ShmemScope` lands on ``report.scope`` and can be
exported with :func:`dump_chrome_trace` then opened in ``ui.perfetto.dev``
or dissected with ``python -m repro.obsv trace trace.json``.

Import direction: this package depends only on the stdlib, so the
hardware layers (``pcie``, ``ntb``) may import it without cycles.
"""

from .hist import (HistogramRegistry, HistSummary, LogHistogram,
                   render_histograms)
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsTicker,
    ScopedMetrics,
    TimeSeries,
    wire_cluster_metrics,
)
from .sampler import LinkSample, link_utilisation
from .spans import NULL_SCOPE, NullScope, ShmemScope, Span, \
    instrument_cluster

#: Deferred (PEP 562): the analysis/export/profiling/SLO helpers pull
#: rendering, filesystem or wall-clock machinery that the hot import path
#: (runtime bring-up, the smoke bench) never touches.
_LAZY_SUBMODULE = {
    "TraceNode": "analysis",
    "build_trees": "analysis",
    "render_breakdown": "analysis",
    "render_flamegraph": "analysis",
    "dump_chrome_trace": "export",
    "to_chrome_trace": "export",
    "validate_chrome_trace": "export",
    "DesProfiler": "profiler",
    "SloReport": "slo",
    "SloRule": "slo",
    "SloRuleSet": "slo",
    "DEFAULT_RULES": "slo",
}


def __getattr__(name: str):
    submodule = _LAZY_SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "Span",
    "ShmemScope",
    "NullScope",
    "NULL_SCOPE",
    "instrument_cluster",
    "LogHistogram",
    "HistogramRegistry",
    "HistSummary",
    "render_histograms",
    "LinkSample",
    "link_utilisation",
    "Counter",
    "Gauge",
    "TimeSeries",
    "MetricsRegistry",
    "ScopedMetrics",
    "MetricsTicker",
    "wire_cluster_metrics",
    "to_chrome_trace",
    "dump_chrome_trace",
    "validate_chrome_trace",
    "TraceNode",
    "build_trees",
    "render_breakdown",
    "render_flamegraph",
    "DesProfiler",
    "SloRule",
    "SloRuleSet",
    "SloReport",
    "DEFAULT_RULES",
]
