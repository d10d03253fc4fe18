"""Perfetto export, hand-rolled validation, offline analysis and the
link-utilisation sampler."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import ShmemConfig, run_spmd
from repro.obsv import (
    ShmemScope,
    build_trees,
    dump_chrome_trace,
    link_utilisation,
    render_breakdown,
    render_flamegraph,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obsv.__main__ import main as obsv_main
from repro.obsv.export import _FABRIC_PID, _track_pid
from repro.sim import Environment


def _traced_report():
    def main(pe):
        sym = yield from pe.malloc_array(64, np.int64)
        if pe.my_pe() == 0:
            yield from pe.put_array(sym, np.arange(64, dtype=np.int64), 2)
        yield from pe.barrier_all()
        return True

    return run_spmd(main, n_pes=3,
                    shmem_config=ShmemConfig(trace_spans=True))


# ----------------------------------------------------------------- exporter
class TestExport:
    def test_track_pid_mapping(self):
        assert _track_pid("pe0") == 0
        assert _track_pid("pe2.service") == 2
        assert _track_pid("host1.ntb.right.dma") == 1
        assert _track_pid("host0.ntb.right<->host1.ntb.left.a2b") == 0
        assert _track_pid("weird") == _FABRIC_PID

    def test_export_validates_and_maps_lanes(self):
        report = _traced_report()
        trace = to_chrome_trace(report.scope)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        # PE op lanes land in the PE's process.
        put = next(e for e in events
                   if e.get("name") == "put" and e["ph"] == "X")
        assert put["pid"] == 0
        assert put["args"]["span_id"] > 0
        # Hardware lanes land in host processes; cable tracks exist.
        dma = next(e for e in events if e.get("name") == "dma")
        assert dma["pid"] == 0  # host0's right-side engine
        thread_names = {e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any("<->" in name for name in thread_names)
        # Link utilisation counters are emitted.
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        assert all(0.0 <= e["args"]["busy_fraction"] <= 1.0
                   for e in counters)
        # The whole object is JSON-serializable as-is.
        json.dumps(trace)

    def test_export_is_deterministic(self):
        a = to_chrome_trace(_traced_report().scope)
        b = to_chrome_trace(_traced_report().scope)
        assert json.dumps(a) == json.dumps(b)

    def test_validator_catches_structural_problems(self):
        assert validate_chrome_trace([]) == ["top level: expected a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents: expected a list"]
        bad = {"traceEvents": [
            {"ph": "Q", "name": "x", "pid": 0, "tid": 0},
            {"ph": "X", "name": "y", "pid": 0, "tid": 0, "ts": -1.0,
             "args": {}},
            {"ph": "X", "name": "z", "pid": 0, "tid": 0, "ts": 0.0,
             "args": {}},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unknown phase" in p for p in problems)
        assert any("negative ts" in p for p in problems)
        assert any("missing 'dur'" in p for p in problems)
        assert any("thread_name" in p for p in problems)


# ------------------------------------------------------------------ analysis
class TestAnalysis:
    def test_build_trees_round_trips_causality(self):
        report = _traced_report()
        trace = to_chrome_trace(report.scope)
        roots = build_trees(trace)
        put_roots = [r for r in roots if r.name == "put"]
        assert len(put_roots) == 1
        names = {node.name for node in put_roots[0].walk()}
        assert {"bypass_forward", "dma", "deliver_put"} <= names

    def test_renderers_and_cli(self, tmp_path):
        report = _traced_report()
        path = tmp_path / "trace.json"
        dump_chrome_trace(report.scope, str(path))

        trace = json.loads(path.read_text())
        roots = build_trees(trace)
        breakdown = render_breakdown(roots)
        assert "put" in breakdown
        flame = render_flamegraph(roots)
        assert "#" in flame and "put@pe0" in flame

        assert obsv_main(["trace", str(path), "--validate"]) == 0
        assert obsv_main(["trace", str(path)]) == 0

    def test_cli_rejects_invalid_trace(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "Q"}]}')
        assert obsv_main(["trace", str(path)]) == 1


# ------------------------------------------------------------------- sampler
class TestSampler:
    def _scope_with_transit(self, start, end, nbytes):
        env = Environment()
        scope = ShmemScope(env)
        span = scope.span_open("link_transit", "link", "cableA", None,
                               {"nbytes": nbytes})
        span.start = start
        span.end = end
        return scope

    def test_busy_split_across_windows(self):
        scope = self._scope_with_transit(5.0, 15.0, 1000)
        samples = list(link_utilisation(scope, window_us=10.0))
        assert [s.window_start for s in samples] == [0.0, 10.0]
        assert samples[0].busy_us == pytest.approx(5.0)
        assert samples[1].busy_us == pytest.approx(5.0)
        assert samples[0].busy_fraction == pytest.approx(0.5)
        # Bytes are apportioned by overlap.
        assert samples[0].nbytes + samples[1].nbytes == 1000

    def test_rejects_bad_window(self):
        scope = ShmemScope(Environment())
        with pytest.raises(ValueError):
            list(link_utilisation(scope, window_us=0.0))

    def test_ignores_other_spans(self):
        env = Environment()
        scope = ShmemScope(env)
        with scope.span("put", track="pe0"):
            pass
        assert list(link_utilisation(scope, window_us=10.0)) == []
