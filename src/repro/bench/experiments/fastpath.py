"""Baseline-vs-fastpath comparison grid (``--compare-fastpath``).

Runs the same Put/Get/barrier workload twice — paper-faithful config and
``ShmemConfig(fastpath=FastpathConfig())`` — and reports virtual-time
latency/throughput side by side at {4 KB, 64 KB, 512 KB} × {1, 2 hops},
plus the 32 B inline point, barrier latency, and the wall-clock cost of
each grid run (non-gating; machine-dependent).

The result serializes to ``BENCH_PR5.json``; :func:`check_against` gates
CI on it — any *fastpath virtual-time* metric regressing more than
``tolerance`` (default 10%) against the checked-in numbers fails the
build.  Baseline metrics are recorded for the ratios but not gated here
(the byte-identity regression test pins them exactly).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ...core import FastpathConfig, Mode, ShmemConfig, run_spmd
from ...fabric import ClusterConfig
from ..reporting import Row, size_label

__all__ = ["FastpathCompareResult", "run_fastpath_compare",
           "check_against", "SIZES", "HOPS", "INLINE_SIZE"]

SCHEMA = "bench-pr5/v1"
SIZES = [4 * 1024, 64 * 1024, 512 * 1024]
HOPS = [1, 2]
INLINE_SIZE = 32

#: Acceptance targets from the PR issue (fastpath relative to baseline).
TARGETS = {
    # metric key                      ratio key      bound   direction
    "put_throughput_512KB_1hop": ("put_MBps.512KB.1hop", 3.0, "min"),
    "get_latency_64KB_2hop": ("get_us.64KB.2hop", 0.6, "max"),
    "put_latency_32B_2hop": ("put_us.32B.2hop", 0.5, "max"),
}


@dataclass
class FastpathCompareResult:
    """Both grids' metrics + derived ratios, JSON-serializable."""

    baseline: dict[str, float]
    fastpath: dict[str, float]
    wall_clock_s: dict[str, float]
    tolerance: float = 0.10

    @property
    def ratios(self) -> dict[str, float]:
        """fastpath / baseline per shared metric."""
        out = {}
        for key, base in self.baseline.items():
            fast = self.fastpath.get(key)
            if fast is not None and base > 0:
                out[key] = fast / base
        return out

    def target_results(self) -> dict[str, dict[str, Any]]:
        ratios = self.ratios
        out = {}
        for name, (key, bound, direction) in TARGETS.items():
            ratio = ratios.get(key)
            ok = ratio is not None and (
                ratio >= bound if direction == "min" else ratio <= bound
            )
            out[name] = {"metric": key, "ratio": ratio, "bound": bound,
                         "direction": direction, "pass": ok}
        return out

    @property
    def targets_pass(self) -> bool:
        return all(t["pass"] for t in self.target_results().values())

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "tolerance": self.tolerance,
            "virtual": {
                "baseline": self.baseline,
                "fastpath": self.fastpath,
                "ratios": self.ratios,
            },
            "targets": self.target_results(),
            # Machine-dependent; recorded for the log, never gated.
            "wall_clock_s": self.wall_clock_s,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def rows(self) -> list[Row]:
        """Figure-shaped rows for ``render_table`` (latency, by op/hops)."""
        out = []
        for op in ("put", "get"):
            sizes = SIZES + ([INLINE_SIZE] if op == "put" else [])
            for hops in HOPS:
                for size in sorted(sizes):
                    key = f"{op}_us.{size_label(size)}.{hops}hop"
                    for series, grid in (("baseline", self.baseline),
                                         ("fastpath", self.fastpath)):
                        value = grid.get(key)
                        if value is not None:
                            out.append(Row(f"fastpath_{op}",
                                           f"{series} {hops} hop", size,
                                           value, "us"))
        return out

    def render(self) -> str:
        from ..reporting import render_table

        lines = [
            render_table([r for r in self.rows()
                          if r.experiment == "fastpath_put"],
                         "Put latency, baseline vs fastpath [us]"),
            "",
            render_table([r for r in self.rows()
                          if r.experiment == "fastpath_get"],
                         "Get latency, baseline vs fastpath [us]"),
            "",
            "acceptance targets (fastpath/baseline ratios):",
        ]
        for name, t in self.target_results().items():
            op = ">=" if t["direction"] == "min" else "<="
            shown = "-" if t["ratio"] is None else f"{t['ratio']:.3f}"
            verdict = "PASS" if t["pass"] else "FAIL"
            lines.append(f"  {verdict}  {name}: {shown} {op} {t['bound']}"
                         f"  ({t['metric']})")
        bar = self.baseline.get("barrier_us")
        far = self.fastpath.get("barrier_us")
        if bar and far:
            lines.append(f"  barrier_all: base {bar:.1f}us  "
                         f"fast {far:.1f}us")
        lines.append(
            "  wall clock: " + "  ".join(
                f"{k}={v:.2f}s" for k, v in self.wall_clock_s.items())
            + "  (informational, not gated)")
        return "\n".join(lines)


def _measure_grid(config: ShmemConfig, n_pes: int = 3) -> dict[str, float]:
    """One config's virtual-time metric grid.

    PE 0 measures; barriers between points keep the ring quiet so each
    measurement sees an idle fabric (same discipline as fig9).
    """
    max_size = max(SIZES)
    metrics: dict[str, float] = {}

    def main(pe):
        sym = yield from pe.malloc(max_size)
        src = pe.local_alloc(max_size)
        dst = pe.local_alloc(max_size)
        yield from pe.barrier_all()
        for hops in HOPS:
            target = (pe.my_pe() + hops) % pe.num_pes()
            for size in SIZES + [INLINE_SIZE]:
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.put_from(sym, src, size, target,
                                           mode=Mode.DMA)
                    lat = pe.rt.env.now - start
                    key = f"put_us.{size_label(size)}.{hops}hop"
                    metrics[key] = lat
                    metrics[f"put_MBps.{size_label(size)}.{hops}hop"] = \
                        size / lat
                yield from pe.barrier_all()
            for size in SIZES:
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.get_into(dst, sym, size, target,
                                           mode=Mode.DMA)
                    lat = pe.rt.env.now - start
                    key = f"get_us.{size_label(size)}.{hops}hop"
                    metrics[key] = lat
                    metrics[f"get_MBps.{size_label(size)}.{hops}hop"] = \
                        size / lat
                yield from pe.barrier_all()
        start = pe.rt.env.now
        yield from pe.barrier_all()
        if pe.my_pe() == 0:
            metrics["barrier_us"] = pe.rt.env.now - start
        return True

    run_spmd(main, n_pes=n_pes,
             cluster_config=ClusterConfig(n_hosts=n_pes),
             shmem_config=config)
    return metrics


def run_fastpath_compare(
        fastpath_config: Optional[FastpathConfig] = None,
        n_pes: int = 3) -> FastpathCompareResult:
    """Measure both grids and package the comparison."""
    fp = fastpath_config or FastpathConfig()
    wall: dict[str, float] = {}
    t0 = time.perf_counter()
    baseline = _measure_grid(ShmemConfig(), n_pes=n_pes)
    wall["baseline_grid"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    fastpath = _measure_grid(ShmemConfig(fastpath=fp), n_pes=n_pes)
    wall["fastpath_grid"] = time.perf_counter() - t0
    # The CI smoke workload's wall clock (the satellite perf lever):
    # recorded for the log, machine-dependent, never gated.
    from .fig9 import run_fig9

    t0 = time.perf_counter()
    run_fig9(sizes=[1 << 10, 1 << 13])
    wall["smoke"] = time.perf_counter() - t0
    return FastpathCompareResult(baseline=baseline, fastpath=fastpath,
                                 wall_clock_s=wall)


@dataclass
class CheckResult:
    """Outcome of gating a fresh run against a checked-in BENCH_PR5.json."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = []
        for note in self.notes:
            lines.append(f"  note: {note}")
        for failure in self.failures:
            lines.append(f"  REGRESSION: {failure}")
        lines.append("perf gate: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def check_against(result: FastpathCompareResult, path: str,
                  tolerance: Optional[float] = None) -> CheckResult:
    """Gate ``result`` on the checked-in reference at ``path``.

    Only *fastpath virtual-time* metrics gate: ``*_us`` keys may not grow,
    and ``*_MBps`` keys may not shrink, by more than ``tolerance``
    (default: the reference file's recorded tolerance).  Wall-clock
    numbers are machine-dependent and only reported.
    """
    with open(path) as fh:
        reference = json.load(fh)
    if reference.get("schema") != SCHEMA:
        return CheckResult(ok=False, failures=[
            f"{path}: unknown schema {reference.get('schema')!r} "
            f"(expected {SCHEMA})"
        ])
    tol = tolerance if tolerance is not None \
        else float(reference.get("tolerance", 0.10))
    ref_fast = reference["virtual"]["fastpath"]
    failures: list[str] = []
    notes: list[str] = []
    for key, ref_value in sorted(ref_fast.items()):
        current = result.fastpath.get(key)
        if current is None:
            failures.append(f"{key}: metric disappeared from the grid")
            continue
        if ref_value <= 0:
            continue
        if key.startswith(("put_us", "get_us")) or key.endswith("_us"):
            worse = (current - ref_value) / ref_value
        else:  # throughput: lower is worse
            worse = (ref_value - current) / ref_value
        if worse > tol:
            failures.append(
                f"{key}: {ref_value:.2f} -> {current:.2f} "
                f"({worse * 100:+.1f}% worse, tolerance {tol * 100:.0f}%)"
            )
    if not result.targets_pass:
        for name, t in result.target_results().items():
            if not t["pass"]:
                failures.append(
                    f"acceptance target {name} failed: ratio "
                    f"{t['ratio']} vs bound {t['bound']} ({t['direction']})"
                )
    ref_wall = reference.get("wall_clock_s", {})
    for key, value in result.wall_clock_s.items():
        ref_value = ref_wall.get(key)
        if ref_value:
            notes.append(
                f"wall clock {key}: {ref_value:.2f}s -> {value:.2f}s "
                f"(not gated)"
            )
    return CheckResult(ok=not failures, failures=failures, notes=notes)
