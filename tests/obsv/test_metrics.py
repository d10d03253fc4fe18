"""Metrics fabric unit tests: instruments, registry, ticker, exports."""

from __future__ import annotations

import json

from repro.obsv import MetricsRegistry, MetricsTicker
from repro.obsv.metrics import Counter, Gauge, TimeSeries
from repro.sim import Environment


# ----------------------------------------------------------- instruments
def test_counter_counts_and_carries_bytes():
    counter = Counter("puts")
    counter.inc()
    counter.inc(3, nbytes=4096)
    assert counter.value == 4
    assert counter.bytes == 4096


def test_gauge_set_vs_bind():
    gauge = Gauge("depth")
    gauge.set(7)
    assert gauge.value == 7
    box = {"depth": 0}
    gauge.bind(lambda: box["depth"])
    box["depth"] = 42
    assert gauge.value == 42
    # A later set() unbinds again.
    gauge.set(1)
    box["depth"] = 99
    assert gauge.value == 1


def test_timeseries_is_bounded():
    series = TimeSeries("x", maxlen=4)
    for i in range(10):
        series.append(float(i), float(i * i))
    assert len(series.samples()) == 4
    assert series.values() == [36.0, 49.0, 64.0, 81.0]


# -------------------------------------------------------------- registry
def test_registry_factories_are_idempotent():
    registry = MetricsRegistry(Environment())
    a = registry.counter("pe0.puts")
    b = registry.counter("pe0.puts")
    assert a is b
    g = registry.gauge("depth")
    assert registry.gauge("depth") is g


def test_registry_value_resolves_and_globs():
    registry = MetricsRegistry(Environment())
    registry.inc("pe0.retries", 2)
    registry.inc("pe1.retries", 3)
    registry.gauge("pe0.depth").set(7)
    assert registry.value("pe0.retries") == 2
    assert registry.value("pe*.retries") == 5
    assert registry.value("pe0.depth") == 7
    assert registry.value("no.such.key") is None
    assert registry.value("no.*.glob") is None


def test_scoped_metrics_prefixes_keys():
    registry = MetricsRegistry(Environment())
    scoped = registry.scoped("pe3")
    scoped.inc("puts", nbytes=64)
    assert registry.value("pe3.puts") == 1
    assert registry.counter("pe3.puts").bytes == 64


def test_registry_observe_feeds_histograms():
    registry = MetricsRegistry(Environment())
    for value in (10.0, 20.0, 30.0):
        registry.observe("put_us.32B.1hop", value)
    hist = registry.hist.get("put_us.32B.1hop")
    assert hist is not None and hist.count == 3


def test_sample_records_series_at_env_now():
    env = Environment()
    registry = MetricsRegistry(env)
    registry.inc("ops")
    registry.sample()
    env._now = 500.0  # direct clock poke: unit test, no processes
    registry.inc("ops")
    registry.sample()
    assert registry.samples_taken == 2
    assert registry.series("ops").samples() == [(0.0, 1), (500.0, 2)]


# ---------------------------------------------------------------- ticker
def test_ticker_samples_then_stops_for_quiescence():
    env = Environment()
    registry = MetricsRegistry(env)
    registry.gauge("depth").bind(lambda: len(env._queue))
    ticker = MetricsTicker(env, registry, period_us=100.0)
    ticker.start()

    def workload():
        yield env.timeout(450.0)
        ticker.stop()

    env.process(workload())
    env.run()
    # Samples at 100/200/300/400; the stop lands before the 500 tick.
    assert registry.samples_taken == 4
    assert not ticker.is_running


def test_ticker_start_is_idempotent():
    env = Environment()
    ticker = MetricsTicker(env, MetricsRegistry(env), period_us=50.0)
    ticker.start()
    ticker.start()
    ticker.stop()
    env.run()
    assert not ticker.is_running


# --------------------------------------------------------------- exports
def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(Environment())
    registry.inc("pe0.puts", 3, nbytes=96)
    registry.gauge("sim.heap_depth").set(5)
    registry.observe("put_us.32B.1hop", 12.5)
    registry.sample()
    return registry


def test_to_json_schema_and_roundtrip():
    payload = _populated_registry().to_json()
    assert payload["schema"] == "repro-metrics/v1"
    assert payload["metrics"]["pe0.puts"] == 3
    assert payload["histograms"]["put_us.32B.1hop"]["count"] == 1
    assert "p999" in payload["histograms"]["put_us.32B.1hop"]
    assert payload["series"]["pe0.puts"] == [[0.0, 3]]
    json.dumps(payload)  # must be serializable as-is


def test_to_prometheus_families():
    text = _populated_registry().to_prometheus()
    assert "# TYPE repro_pe0_puts counter" in text
    assert "repro_pe0_puts 3" in text
    assert "# TYPE repro_sim_heap_depth gauge" in text
    assert 'quantile="0.99"' in text


def test_snapshot_exposes_counter_bytes():
    snapshot = _populated_registry().snapshot()
    assert snapshot["pe0.puts"] == 3
    assert snapshot["pe0.puts:bytes"] == 96
