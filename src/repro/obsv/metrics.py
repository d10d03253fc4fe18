"""ShmemMetrics: the always-on metrics fabric (ISSUE 7).

ShmemScope (spans, :mod:`repro.obsv.spans`) answers "where did this one
put spend its time"; this module answers "how is the system doing".  A
single :class:`MetricsRegistry` per cluster holds typed instruments —

* :class:`Counter` — monotonically increasing event/byte counts, pushed
  from the hot paths (puts by mode, doorbells rung, DMA descriptors);
* :class:`Gauge` — point-in-time values, either pushed (``set``) or
  *pulled* through a bound callable (``bind``), which is how the
  hardware layers' existing lifetime statistics (``dma.completed_bytes``,
  ``doorbell.set_count``, event-heap depth) join the fabric with zero
  per-event overhead;
* distributions — the registry embeds the run's one
  :class:`~repro.obsv.hist.HistogramRegistry` (log-bucketed, p50..p999):
  every op's latency lands there under the key family of
  docs/METRICS.md, traced or not.

Design rules (the same discipline as spans, docs/METRICS.md):

* **Zero virtual-time cost.**  Instruments only ever *read* ``env.now``;
  none of them schedules events, so a metered run is byte-identical in
  virtual time to an unmetered one.  The one component that does
  schedule — :class:`MetricsTicker`, which samples the registry into
  ring-buffered time series — is opt-in
  (``ShmemConfig(metrics_window_us=...)``) and its sampling events carry
  no callbacks into model state, so model event *times* are unchanged
  even with the ticker running (asserted by the golden test).
* **Process-keyed names.**  Keys are dotted paths rooted at the owning
  component: ``pe0.put.dma``, ``host1.ntb.right.dma.bytes``,
  ``sim.events_dispatched``, ``faults.severs``.  :meth:`scoped` returns
  a prefixing facade so a component never spells its own root twice.
* **Stdlib only.**  The hardware layers import this module; it imports
  nothing above :mod:`repro.obsv.hist`.
"""

from __future__ import annotations

from collections import deque
from fnmatch import fnmatchcase
from typing import Any, Callable, Generator, Iterator, Optional

from .hist import HistogramRegistry, HistSummary


def size_label(nbytes: int) -> str:
    """1024 -> '1KB', 524288 -> '512KB' (the paper's x-axis labels).

    Canonical spelling for size-keyed metric names (``put_us.DMA.4KB.1hop``)
    so bench tables and the registry agree.
    """
    if nbytes % 1024 == 0 and 0 < nbytes < (1 << 20):
        return f"{nbytes // 1024}KB"
    if nbytes % (1 << 20) == 0 and nbytes > 0:
        return f"{nbytes >> 20}MB"
    return f"{nbytes}B"

__all__ = [
    "Counter",
    "Gauge",
    "TimeSeries",
    "MetricsRegistry",
    "ScopedMetrics",
    "MetricsTicker",
    "wire_cluster_metrics",
    "size_label",
]


class Counter:
    """Monotonically increasing count (optionally with byte accounting)."""

    __slots__ = ("name", "value", "bytes")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.bytes = 0

    def inc(self, n: int = 1, nbytes: int = 0) -> None:
        self.value += n
        self.bytes += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Point-in-time value: pushed with :meth:`set` or pulled via a
    bound callable (:meth:`bind`) at read time.

    Pull gauges are the fabric's bulk wiring mechanism: a component that
    already keeps a lifetime statistic as a plain attribute joins the
    registry with one ``bind`` and pays nothing on its hot path.
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def bind(self, fn: Callable[[], float]) -> "Gauge":
        self._fn = fn
        return self

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class TimeSeries:
    """Ring-buffered ``(virtual_time, value)`` samples for one metric."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, maxlen: int = 256):
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=maxlen)

    def append(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def samples(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def values(self) -> list[float]:
        return [v for _t, v in self._samples]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeSeries {self.name} n={len(self._samples)}>"


class MetricsRegistry:
    """All instruments of one simulation, keyed by dotted path.

    Created unconditionally by :class:`~repro.fabric.cluster.Cluster`
    (``cluster.metrics``) — the fabric is always on; only the ticker
    (time-series sampling) is opt-in.  Instruments are created on first
    use; iteration is sorted for deterministic output.
    """

    def __init__(self, env, series_maxlen: int = 256):
        self.env = env
        self.series_maxlen = series_maxlen
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        #: log-bucketed latency/size distributions (p50..p999).
        self.hist = HistogramRegistry()
        self._series: dict[str, TimeSeries] = {}
        #: ticks taken by a MetricsTicker (diagnostics).
        self.samples_taken = 0
        #: cached ``(series.append, value_reader)`` pairs for sample();
        #: rebuilt lazily after any instrument is created.
        self._sample_plan: Optional[list] = None

    # ------------------------------------------------------------ factories
    def counter(self, key: str) -> Counter:
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(key)
            self._sample_plan = None
        return counter

    def gauge(self, key: str) -> Gauge:
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(key)
            self._sample_plan = None
        return gauge

    # ---------------------------------------------------------- conveniences
    def inc(self, key: str, n: int = 1, nbytes: int = 0) -> None:
        self.counter(key).inc(n, nbytes)

    def observe(self, key: str, value_us: float) -> None:
        self.hist.observe(key, value_us)

    def op_latencies(self) -> Iterator[tuple[str, HistSummary]]:
        """Summaries of the cluster-wide op family
        ``{op}_us.{detail}[.{size}][.{hops}hop]`` (docs/METRICS.md), sorted
        by key; the per-PE ``peN.{op}_us`` histograms are not part of it."""
        for key, hist in self.hist.items():
            if key.startswith(("put_us.", "get_us.", "amo_us.",
                               "barrier_us.")):
                yield key, hist.summary()

    def scoped(self, prefix: str) -> "ScopedMetrics":
        """A facade that prefixes every key with ``prefix.``."""
        return ScopedMetrics(self, prefix)

    # ------------------------------------------------------------- resolution
    def value(self, key: str) -> Optional[float]:
        """Resolve ``key`` to its current value (counter, then gauge).

        A ``*`` glob sums every matching counter/gauge; an unknown
        key returns ``None``, so a caller can tell "zero" from "never
        registered".
        """
        if "*" in key or "?" in key:
            names = [k for k in self.keys() if fnmatchcase(k, key)]
            if not names:
                return None
            return float(sum(self._resolve_exact(k) or 0.0 for k in names))
        return self._resolve_exact(key)

    def _resolve_exact(self, key: str) -> Optional[float]:
        counter = self._counters.get(key)
        if counter is not None:
            return float(counter.value)
        gauge = self._gauges.get(key)
        if gauge is not None:
            return float(gauge.value)
        return None

    def keys(self) -> list[str]:
        return sorted(set(self._counters) | set(self._gauges))

    def counters(self) -> Iterator[tuple[str, Counter]]:
        for key in sorted(self._counters):
            yield key, self._counters[key]

    def gauges(self) -> Iterator[tuple[str, Gauge]]:
        for key in sorted(self._gauges):
            yield key, self._gauges[key]

    # ------------------------------------------------------------- sampling
    def series(self, key: str) -> TimeSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(
                key, maxlen=self.series_maxlen)
        return series

    def all_series(self) -> Iterator[tuple[str, TimeSeries]]:
        for key in sorted(self._series):
            yield key, self._series[key]

    def _build_sample_plan(self) -> list:
        """Bind each instrument to its series once, not once per tick.

        The plan is a list of ``(series.append, read)`` pairs; it is
        dropped whenever a new instrument is created and rebuilt on the
        next :meth:`sample`, so a tick costs one callable pair per
        instrument with no key lookups.
        """
        plan: list = []
        for key, counter in self._counters.items():
            plan.append((self.series(key).append,
                         lambda c=counter: float(c.value)))
        for key, gauge in self._gauges.items():
            plan.append((self.series(key).append,
                         lambda g=gauge: float(g.value)))
        self._sample_plan = plan
        return plan

    def sample(self) -> None:
        """Append every instrument's current value to its time series.

        Called by the ticker at virtual-time intervals; reads only —
        never schedules — so sampling cannot perturb model state.
        """
        plan = self._sample_plan
        if plan is None:
            plan = self._build_sample_plan()
        now = self.env.now
        for append, read in plan:
            append(now, read())
        self.samples_taken += 1

    # --------------------------------------------------------------- export
    def snapshot(self) -> dict[str, float]:
        """Flat ``{key: value}`` of every counter and gauge."""
        out: dict[str, float] = {}
        for key, counter in self.counters():
            out[key] = float(counter.value)
            if counter.bytes:
                out[f"{key}:bytes"] = float(counter.bytes)
        for key, gauge in self.gauges():
            out[key] = float(gauge.value)
        return out

    def to_json(self) -> dict[str, Any]:
        """JSON-ready snapshot: values, histogram summaries, time series."""
        return {
            "schema": "repro-metrics/v1",
            "now_us": self.env.now,
            "metrics": self.snapshot(),
            "histograms": {key: hist.summary().to_json()
                           for key, hist in self.hist.items()},
            "series": {
                key: [[t, v] for t, v in series.samples()]
                for key, series in self.all_series()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} hists={len(self.hist)}>")


class ScopedMetrics:
    """Key-prefixing facade over a registry (``pe0.`` + ``put.dma``)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def gauge(self, key: str) -> Gauge:
        return self._registry.gauge(self._prefix + key)

    def inc(self, key: str, n: int = 1, nbytes: int = 0) -> None:
        self._registry.inc(self._prefix + key, n, nbytes)

    def observe(self, key: str, value_us: float) -> None:
        self._registry.observe(self._prefix + key, value_us)


class MetricsTicker:
    """Virtual-time sampler: snapshots the registry every ``period_us``.

    The tick process only reads instrument values — it never touches
    model state — so model event *times* are unchanged by sampling (the
    golden test pins this).  The ticker must be stopped (or the run
    bounded by a horizon) for quiescence-style ``env.run()`` calls to
    terminate; :meth:`~repro.core.runtime.ShmemRuntime.finalize` stops
    the cluster's ticker automatically.
    """

    def __init__(self, env, registry: MetricsRegistry, period_us: float):
        if period_us <= 0:
            raise ValueError(f"period_us must be positive, got {period_us}")
        self.env = env
        self.registry = registry
        self.period_us = period_us
        self._proc = None
        self._stopping = False

    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            return
        self._stopping = False
        self._proc = self.env.process(self._run(), name="metrics.ticker")

    def stop(self) -> None:
        """Stop ticking; takes effect at the next tick boundary."""
        self._stopping = True

    @property
    def is_running(self) -> bool:
        return (self._proc is not None and self._proc.is_alive
                and not self._stopping)

    def _run(self) -> Generator:
        while not self._stopping:
            yield self.env.timeout(self.period_us)
            if self._stopping:
                return
            self.registry.sample()


def wire_cluster_metrics(cluster) -> MetricsRegistry:
    """Bind the hardware layers' lifetime statistics into pull gauges.

    Duck-typed like :func:`~repro.obsv.spans.instrument_cluster`: the
    cluster builder calls this once after cabling, so every run — tests,
    benches, examples — has the fabric live without opting in.  All the
    wiring here is pull (``Gauge.bind``): the hot paths keep their plain
    integer statistics and pay nothing extra.
    """
    registry: MetricsRegistry = cluster.metrics
    env = cluster.env
    # -- sim kernel ---------------------------------------------------------
    registry.gauge("sim.events_scheduled").bind(
        lambda: env.scheduled_events)
    registry.gauge("sim.events_dispatched").bind(
        lambda: env.dispatched_events)
    registry.gauge("sim.heap_depth").bind(lambda: len(env._queue))
    registry.gauge("sim.slab_reused").bind(lambda: env.slab_reused)
    registry.gauge("sim.slab_recycled").bind(lambda: env.slab_recycled)
    # -- NTB drivers / DMA / doorbells --------------------------------------
    for (_host_id, _side), driver in sorted(cluster._drivers.items()):
        endpoint = driver.endpoint
        scoped = registry.scoped(endpoint.name)
        dma = endpoint.dma
        scoped.gauge("dma.requests").bind(
            lambda d=dma: d.completed_requests)
        scoped.gauge("dma.bytes").bind(lambda d=dma: d.completed_bytes)
        scoped.gauge("dma.failed").bind(lambda d=dma: d.failed_requests)
        scoped.gauge("dma.descriptors").bind(
            lambda d=dma: d.descriptors_processed)
        scoped.gauge("dma.descriptors_chained").bind(
            lambda d=dma: d.descriptors_chained)
        scoped.gauge("dma.queue_depth").bind(lambda d=dma: d.queue_depth)
        doorbell = endpoint.doorbell
        scoped.gauge("db.rung").bind(lambda r=doorbell: r.set_count)
        scoped.gauge("db.irqs").bind(lambda r=doorbell: r.interrupt_count)
        scoped.gauge("db.dropped").bind(
            lambda e=endpoint: e.dropped_doorbells)
        scoped.gauge("pio.master_aborts").bind(
            lambda d=driver: d.master_aborts)
    # -- PCIe cables --------------------------------------------------------
    for _key, cable in sorted(cluster.cables.items()):
        for link in (cable.a_to_b, cable.b_to_a):
            scoped = registry.scoped(link.name)
            scoped.gauge("bytes").bind(lambda li=link: li.payload_bytes)
            scoped.gauge("dropped_bytes").bind(
                lambda li=link: li.dropped_bytes)
    return registry
