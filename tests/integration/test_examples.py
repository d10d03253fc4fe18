"""Smoke tests: every shipped example runs clean end to end."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str]) -> None:
    saved_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved_argv


class TestExamples:
    @pytest.mark.parametrize("argv", [
        [], ["--sever"], ["--fastpath"], ["--fastpath", "--sever"],
    ], ids=lambda argv: "+".join(flag.lstrip("-") for flag in argv) or "plain")
    def test_quickstart(self, capsys, argv):
        run_example("quickstart.py", argv)
        out = capsys.readouterr().out
        assert "3-host PCIe NTB ring" in out
        assert ("fastpath data plane" in out) == ("--fastpath" in argv)
        assert ("severed cable survived" in out) == ("--sever" in argv)

    def test_halo_exchange_small(self, capsys):
        run_example("halo_exchange.py", ["3", "32", "10"])
        out = capsys.readouterr().out
        assert "MATCHES serial reference" in out

    def test_work_stealing_queue(self, capsys):
        run_example("work_stealing_queue.py", ["3", "12"])
        out = capsys.readouterr().out
        assert "consistent on every PE" in out

    def test_ring_allreduce(self, capsys):
        run_example("ring_allreduce.py", ["4", "8192"])
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_integer_sort(self, capsys):
        run_example("integer_sort.py", ["3", "1024"])
        out = capsys.readouterr().out
        assert "no keys lost" in out

    def test_failover_watchdog(self, capsys):
        run_example("failover_watchdog.py", [])
        out = capsys.readouterr().out
        assert "detected the cut" in out

    def test_paper_figures_quick(self, capsys):
        run_example_expecting_exit("paper_figures.py", [])
        out = capsys.readouterr().out
        assert "every figure reproduces" in out


def run_example_expecting_exit(name: str, argv: list[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        run_example(name, argv)
    assert excinfo.value.code in (0, None)
