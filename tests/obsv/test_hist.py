"""Log-bucketed histogram unit tests: bucketing, quantiles, registry."""

from __future__ import annotations

from repro.obsv import (HistogramRegistry, HistSummary, LogHistogram,
                        render_histograms)
from repro.obsv.hist import _SUB_COUNT, _bucket_index, _bucket_low


def test_bucket_low_is_inverse_floor_of_index():
    for value in list(range(0, 200)) + [255, 256, 1000, 12345, 1 << 20]:
        index = _bucket_index(value)
        assert _bucket_low(index) <= value
        assert _bucket_index(_bucket_low(index)) == index


def test_small_values_bin_exactly():
    # Below the sub-bucket threshold the mapping is identity.
    for value in range(_SUB_COUNT):
        assert _bucket_index(value) == value


def test_single_sample_reports_itself_everywhere():
    hist = LogHistogram("x")
    hist.observe(123.4)
    summary = hist.summary()
    assert summary.count == 1
    assert summary.mean == 123.4
    assert summary.p50 == summary.p90 == summary.p99
    assert summary.minimum <= summary.p50 <= summary.maximum
    assert summary.minimum == summary.maximum == 123.4


def test_quantiles_bounded_relative_error():
    hist = LogHistogram("sweep")
    for value in range(1, 1001):
        hist.observe(float(value))
    summary = hist.summary()
    assert summary.count == 1000
    assert abs(summary.mean - 500.5) < 1e-9  # exact, not bucketed
    assert abs(summary.p50 - 500.0) / 500.0 < 0.02
    assert abs(summary.p99 - 990.0) / 990.0 < 0.02
    assert summary.minimum == 1.0
    assert summary.maximum == 1000.0


def test_quantile_clamped_into_observed_range():
    hist = LogHistogram("two")
    hist.observe(10.0)
    hist.observe(10.0)
    assert hist.quantile(0.01) >= 10.0
    assert hist.quantile(1.0) <= 10.0


def test_negative_observation_clamps_to_zero():
    hist = LogHistogram("neg")
    hist.observe(-5.0)
    assert hist.minimum == 0.0
    assert hist.quantile(0.5) == 0.0


def test_empty_histogram_summary():
    summary = LogHistogram("empty").summary()
    assert summary.count == 0
    assert summary.p50 == 0.0
    assert summary.mean == 0.0


def test_registry_creates_sorts_and_renders():
    registry = HistogramRegistry()
    registry.observe("put_us.DMA.1KB.2hop", 40.0)
    registry.observe("get_us.DMA.1KB.1hop", 160.0)
    registry.observe("put_us.DMA.1KB.2hop", 44.0)
    assert len(registry) == 2
    keys = [key for key, _hist in registry.items()]
    assert keys == sorted(keys)
    assert registry.get("put_us.DMA.1KB.2hop").count == 2
    assert registry.get("missing") is None
    rendered = render_histograms(
        (key, hist.summary()) for key, hist in registry.items())
    assert "put_us.DMA.1KB.2hop" in rendered
    assert "p99" in rendered


def test_empty_registry_render():
    assert "(no observations)" in render_histograms([])


def test_summary_json_round_trips():
    hist = LogHistogram("k")
    for value in (1.0, 2.0, 400.0):
        hist.observe(value)
    entry = hist.summary().to_json()
    assert (entry["count"], entry["min"], entry["max"]) == (3, 1.0, 400.0)
    assert HistSummary.from_json(entry) == hist.summary()
