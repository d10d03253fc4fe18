"""Tests for the `python -m repro.bench` CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main as bench_main


class TestBenchCli:
    def test_quick_run_exits_zero(self, capsys):
        assert bench_main([]) == 0
        out = capsys.readouterr().out
        assert "Fig 9(a)" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_json_export(self, tmp_path, capsys):
        out_file = tmp_path / "rows.json"
        assert bench_main(["--json", str(out_file)]) == 0
        rows = json.loads(out_file.read_text())
        assert len(rows) > 50
        sample = rows[0]
        assert {"experiment", "series", "size", "value", "unit"} <= \
            set(sample)

    def test_help_mentions_full_sweep(self, capsys):
        with pytest.raises(SystemExit):
            bench_main(["--help"])
        out = capsys.readouterr().out
        assert "--full" in out
        assert "--ablations" in out

    @pytest.mark.parametrize("argv, shows", [
        (["--compare-fastpath"], "acceptance targets"),
        (["--metrics"], "SLO report"),
        (["--topology"], "torus4x4"),
    ])
    def test_display_entries_print_and_write_nothing(
            self, argv, shows, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert bench_main(argv) == 0
        assert shows in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_metrics_snapshot_feeds_the_dashboard(self, tmp_path, capsys):
        from repro.obsv.__main__ import main as obsv_main

        snapshot = tmp_path / "m.json"
        assert bench_main(["--metrics", "--snapshot", str(snapshot)]) == 0
        assert obsv_main(["metrics", str(snapshot)]) == 0
        assert "sim.events_dispatched" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--check", "--out", "--kernel"])
    def test_second_gate_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--metrics", flag, "x.json"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
