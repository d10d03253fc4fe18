"""Baseline-vs-fastpath comparison grid (``--compare-fastpath``).

Runs the same Put/Get/barrier workload twice — paper-faithful config and
``ShmemConfig(fastpath=FastpathConfig())`` — and reports virtual-time
latency/throughput side by side at {4 KB, 64 KB, 512 KB} × {1, 2 hops},
plus the 32 B inline point and barrier latency.

Display only: the exit code is :attr:`FastpathCompareResult.targets_pass`.
Both grids are pinned ``==`` by ``tests/integration/test_pinned_figures.py``
(docs/SIMULATOR.md, "Where a figure is pinned").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...core import FastpathConfig, Mode, ShmemConfig, run_spmd
from ...fabric import ClusterConfig
from ..reporting import Row, size_label

__all__ = ["FastpathCompareResult", "run_fastpath_compare",
           "SIZES", "HOPS", "INLINE_SIZE"]

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
    """Both grids' metrics + derived ratios."""

    baseline: dict[str, float]
    fastpath: dict[str, float]

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
    return FastpathCompareResult(
        baseline=_measure_grid(ShmemConfig(), n_pes=n_pes),
        fastpath=_measure_grid(ShmemConfig(fastpath=fp), n_pes=n_pes))
