"""Tests for the `python -m repro.obsv` CLI: trace + metrics subcommands."""

from __future__ import annotations

import json

import pytest

from repro.obsv.__main__ import main as obsv_main
from repro.obsv.__main__ import sparkline


def _exit_code(excinfo) -> int:
    code = excinfo.value.code
    return code if isinstance(code, int) else 1


# ------------------------------------------------- graceful input errors
def test_missing_file_one_line_error_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        obsv_main(["trace", "/no/such/file.json"])
    assert _exit_code(excinfo) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read /no/such/file.json")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_non_json_file_one_line_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        obsv_main(["metrics", str(bad)])
    assert _exit_code(excinfo) == 2
    err = capsys.readouterr().err
    assert "is not valid JSON" in err
    assert len(err.strip().splitlines()) == 1


def test_legacy_bare_path_spelling_still_errors_gracefully(capsys):
    # PR-2 era spelling without the 'trace' subcommand: no longer
    # rewritten, so argparse names the subcommands and exits 2.
    with pytest.raises(SystemExit) as excinfo:
        obsv_main(["/no/such/trace.json", "--validate"])
    assert _exit_code(excinfo) == 2
    err = capsys.readouterr().err
    assert "choose from 'trace', 'metrics'" in err
    assert "Traceback" not in err


def test_no_arguments_prints_help(capsys):
    assert obsv_main([]) == 2
    assert "metrics" in capsys.readouterr().out


def test_wrong_shape_snapshot_exit_2(tmp_path, capsys):
    snap = tmp_path / "list.json"
    snap.write_text("[1, 2, 3]")
    with pytest.raises(SystemExit) as excinfo:
        obsv_main(["metrics", str(snap)])
    assert _exit_code(excinfo) == 2
    assert "not a metrics snapshot object" in capsys.readouterr().err


# --------------------------------------------------- metrics subcommand
def _snapshot() -> dict:
    return {
        "schema": "repro-metrics/v1",
        "now_us": 1234.5,
        "metrics": {"pe0.puts": 12, "sim.heap_depth": 3},
        "histograms": {
            "put_us.DMA.32B.1hop": {"count": 4, "mean": 11.0, "p50": 10.0,
                                    "p90": 12.0, "p99": 13.0, "p999": 13.0,
                                    "min": 10.0, "max": 13.0},
        },
        "series": {"pe0.puts": [[100.0, 4], [200.0, 8], [300.0, 12]]},
    }


def test_metrics_dashboard_renders_tables_and_sparklines(tmp_path, capsys):
    snap = tmp_path / "metrics.json"
    snap.write_text(json.dumps(_snapshot()))
    assert obsv_main(["metrics", str(snap)]) == 0
    out = capsys.readouterr().out
    assert "t=1234.5" in out
    assert "pe0.puts" in out
    assert "put_us.DMA.32B.1hop" in out
    assert "p999" in out
    assert "[4 → 12]" in out
    assert any(ch in out for ch in "▁▂▃▄▅▆▇█")


def test_metrics_dashboard_empty_snapshot(tmp_path, capsys):
    snap = tmp_path / "empty.json"
    snap.write_text("{}")
    assert obsv_main(["metrics", str(snap)]) == 0
    assert "(empty snapshot)" in capsys.readouterr().out


# ------------------------------------------------------------- sparkline
def test_sparkline_scales_min_to_max():
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert len(line) == 4


def test_sparkline_flat_series_stays_low():
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"


def test_sparkline_downsamples_to_width():
    assert len(sparkline([float(i) for i in range(1000)], width=32)) == 32


def test_sparkline_empty():
    assert sparkline([]) == ""
