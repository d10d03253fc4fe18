"""Metered smoke run + SLO report (``python -m repro.bench --metrics``).

Runs a small mixed workload (puts at three sizes, gets, AMOs, barriers)
with the metrics ticker sampling and a :class:`~repro.obsv.DesProfiler`
hooked on the dispatch loop, then:

* evaluates the bundled SLO ruleset (:data:`repro.obsv.slo.DEFAULT_RULES`)
  against the run's metrics — a clean run must pass every rule;
* packages the registry snapshot (``repro-metrics/v1``) for
  ``python -m repro.obsv metrics`` and the CI artifact upload
  (``--snapshot PATH``, the only file this entry writes);
* prints the op-latency histogram table and the profiler's events/sec,
  for the eye only.

Display only: the exit code is :attr:`MetricsSmokeResult.ok`.
:meth:`MetricsSmokeResult.virtual_figures` is pinned ``==`` by
``tests/integration/test_pinned_figures.py`` (docs/SIMULATOR.md, "Where a
figure is pinned").

This module never reads the host clock itself — the determinism lint
bans ``time`` here; the events/sec line comes from the profiler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from ...core import ShmemConfig, run_spmd
from ...core.program import SpmdReport, make_cluster
from ...fabric import ClusterConfig
from ...obsv.hist import render_histograms
from ...obsv.profiler import DesProfiler
from ...obsv.slo import SloReport, SloRuleSet

__all__ = ["MetricsSmokeResult", "run_metrics_smoke"]

#: sizes exercised by the smoke workload (bytes).
PUT_SIZES = [32, 4 * 1024, 64 * 1024]
GET_SIZES = [4 * 1024, 64 * 1024]
_MAX_SIZE = max(PUT_SIZES + GET_SIZES)
_ROUNDS = 4

#: ticker period for the smoke run: fine enough for real sparklines.
SAMPLE_WINDOW_US = 200.0


def _workload(pe):
    """Mixed traffic from every PE: puts, gets, AMOs, barriers."""
    sym = yield from pe.malloc(_MAX_SIZE)
    counter = yield from pe.malloc(8)
    src = pe.local_alloc(_MAX_SIZE)
    dst = pe.local_alloc(_MAX_SIZE)
    yield from pe.barrier_all()
    target = (pe.my_pe() + 1) % pe.num_pes()
    for size in PUT_SIZES:
        for _ in range(_ROUNDS):
            yield from pe.put_from(sym, src, size, target)
        yield from pe.barrier_all()
    for size in GET_SIZES:
        for _ in range(_ROUNDS):
            yield from pe.get_into(dst, sym, size, target)
        yield from pe.barrier_all()
    for _ in range(_ROUNDS):
        yield from pe.atomic_add(counter, 1, target)
    yield from pe.barrier_all()
    total = yield from pe.atomic_fetch(counter, pe.my_pe())
    return int(total)


@dataclass
class MetricsSmokeResult:
    """Everything the report, the artifact and the dashboard need."""

    report: SpmdReport
    snapshot: dict[str, Any]
    slo: SloReport
    profile: dict[str, Any]

    @property
    def ok(self) -> bool:
        return self.slo.ok and all(
            count == _ROUNDS for count in self.report.results
        )

    def virtual_figures(self) -> dict[str, float]:
        """The deterministic figures tier-1 pins (virtual time only)."""
        stats = self.report.stats()
        registry = self.report.metrics
        out = {
            "elapsed_us": self.report.elapsed_us,
            "puts": float(stats["puts"]),
            "gets": float(stats["gets"]),
            "amos": float(stats["amos"]),
            "events_dispatched": float(
                registry.value("sim.events_dispatched") or 0.0),
            "samples_taken": float(registry.samples_taken),
        }
        for key, summary in registry.op_latencies():
            out[f"p50({key})"] = summary.p50
            out[f"p99({key})"] = summary.p99
        return out

    def write_snapshot(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        figures = self.virtual_figures()
        lines = [
            f"metered smoke: {figures['puts']:.0f} puts, "
            f"{figures['gets']:.0f} gets, {figures['amos']:.0f} AMOs in "
            f"{figures['elapsed_us']:.1f} virtual us "
            f"({figures['samples_taken']:.0f} ticker samples)",
            f"kernel: {self.profile['events']} events in "
            f"{self.profile['wall_s']:.3f} s wall "
            f"({self.profile['events_per_sec']:,.0f} events/sec, "
            f"informational)",
            "",
            render_histograms(self.report.metrics.op_latencies()),
            "",
            self.slo.render(),
        ]
        return "\n".join(lines)


def run_metrics_smoke(n_pes: int = 3,
                      rules: Optional[SloRuleSet] = None
                      ) -> MetricsSmokeResult:
    """Run the metered workload and judge it against the SLO rules."""
    cluster = make_cluster(n_pes, ClusterConfig(n_hosts=n_pes))
    profiler = DesProfiler(cluster.env)
    profiler.install()
    try:
        report = run_spmd(
            _workload, n_pes=n_pes, cluster=cluster,
            shmem_config=ShmemConfig(
                metrics_window_us=SAMPLE_WINDOW_US),
        )
    finally:
        profiler.uninstall()
    ruleset = rules or SloRuleSet.default()
    slo = ruleset.evaluate(report.metrics)
    return MetricsSmokeResult(
        report=report,
        snapshot=report.metrics.to_json(),
        slo=slo,
        profile=profiler.to_json(),
    )
