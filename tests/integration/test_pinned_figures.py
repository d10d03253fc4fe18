"""Every deterministic figure the repo publishes, pinned ``==``.

Virtual time is a pure function of the source tree, so a figure either
equals its pin or something changed it; there is no tolerance.  The pins
live in ``pinned_figures.json`` beside this module, one section per
experiment of ``python -m repro.bench`` (which only displays them) plus
the ``golden`` full-stack runs of ``tests/core/test_golden_runs.py``, and
:func:`assert_pinned` is the only comparison against a stored number
anywhere in the repo.  Wall clock is never compared here — that is
``BENCHMARK.json`` + ``benchmarks/trajectory/`` (docs/SIMULATOR.md,
"Where a figure is pinned").

After a change that is *meant* to move virtual time, re-pin with::

    PYTHONPATH=src python -m tests.integration.test_pinned_figures

and explain the diff of ``pinned_figures.json`` per key in the PR.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.experiments.fastpath import run_fastpath_compare
from repro.bench.experiments.metrics import run_metrics_smoke
from repro.bench.experiments.topology import (
    SCENARIOS,
    SLOW_SCENARIOS,
    run_fault_scenario,
    run_scenario,
)
from repro.bench.harness import run_all

PIN_FILE = Path(__file__).with_name("pinned_figures.json")


def assert_pinned(section: str, figures: dict, partial: bool = False) -> None:
    """``figures`` must equal the pinned ``section`` key for key;
    ``partial``: the test reproduced only ``figures``' keys of it."""
    pinned = json.loads(PIN_FILE.read_text())[section]
    got = json.loads(json.dumps(figures))   # as the writer would store them
    keys = got.keys() if partial else pinned.keys() | got.keys()
    wrong = [f"{section}.{key}: pinned {pinned.get(key)}, got {got.get(key)}"
             for key in sorted(keys) if pinned.get(key) != got.get(key)]
    assert not wrong, "\n".join(wrong)


def _fastpath() -> dict:
    result = run_fastpath_compare()
    return {f"{plane}.{key}": value
            for plane in ("baseline", "fastpath")
            for key, value in getattr(result, plane).items()}


def _metrics_smoke() -> dict:
    result = run_metrics_smoke()
    assert result.ok, result.render()
    return result.virtual_figures()


def _paper() -> dict:
    """Figs. 8a-d, 9a-d, 10 and Table I on the paper's full 1 KB-512 KB
    grid: every row ``python -m repro.bench`` prints, not just its shape."""
    return {f"{row.experiment}.{row.series}.{row.size}": row.value
            for row in run_all().rows}


def _stress16() -> dict:
    # Deferred: test_kernel_stress imports assert_pinned from this module.
    from .test_kernel_stress import run_stress_16host

    return run_stress_16host()


def _golden() -> dict:
    # Deferred: test_golden_runs imports assert_pinned from this module.
    from ..core.test_golden_runs import golden_figures

    return golden_figures()


def _topology(scenarios: tuple = SCENARIOS) -> dict:
    figures = {}
    for scenario in scenarios:
        run = run_scenario(*scenario)
        assert run["ok"], f"{run['name']}: payload verification failed"
        figures.update({f"{run['name']}.{key}": value
                        for key, value in run["virtual"].items()})
    return figures


def _topology_fault() -> dict:
    run = run_fault_scenario()
    assert run["final_ok"], "final round failed to verify after the sever"
    return run["virtual"]


SECTIONS = {
    "fastpath": _fastpath,
    "golden": _golden,          # asserted per backend in test_golden_runs
    "metrics_smoke": _metrics_smoke,
    "paper": _paper,
    "stress16": _stress16,      # asserted per backend in test_kernel_stress
    "topology": _topology,
    "topology_fault": _topology_fault,
    "topology64": lambda: _topology(SLOW_SCENARIOS),
}


@pytest.mark.parametrize(
    "section",
    ["fastpath", "metrics_smoke", "paper", "topology", "topology_fault"])
def test_pinned(section):
    assert_pinned(section, SECTIONS[section]())


def test_every_pinned_section_has_a_producer():
    assert set(json.loads(PIN_FILE.read_text())) == set(SECTIONS)


@pytest.fixture(scope="module")
def tier64() -> dict:
    return SECTIONS["topology64"]()


@pytest.mark.slow
def test_pinned_64_hosts(tier64):
    assert_pinned("topology64", tier64)


@pytest.mark.slow
def test_torus_beats_ring_at_64_hosts(tier64):
    """README's headline ratios, from the runs pinned above."""
    assert (tier64["ring64.put_round_us"]
            / tier64["torus4x4x4.put_round_us"]) >= 4.5
    assert (tier64["torus4x4x4.bisection_bytes_per_us"]
            / tier64["ring64.bisection_bytes_per_us"]) >= 3.5


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps(
        {name: produce() for name, produce in SECTIONS.items()},
        indent=2, sort_keys=True) + "\n")
