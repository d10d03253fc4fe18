"""Figure 9: OpenSHMEM Put/Get latency and throughput.

Four configurations per the paper — {RDMA(DMA), memcpy} x {1 hop, 2 hops}
— swept over request sizes 1 KB..512 KB on the 3-host ring.  Latency is
virtual time around the blocking call on PE 0 (Put: until the local buffer
is reusable; Get: until the data is in hand); throughput is size/latency,
matching how the paper derives (c)/(d) from (a)/(b).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ...core import Mode, ShmemConfig, run_spmd
from ...fabric import ClusterConfig
from ..reporting import PAPER_SIZES, Row

__all__ = ["Fig9Result", "run_fig9", "CONFIGS"]

#: The paper's four series, in its legend order.
CONFIGS = [
    ("DMA 1 hop", Mode.DMA, 1),
    ("DMA 2 hops", Mode.DMA, 2),
    ("memcpy 1 hop", Mode.MEMCPY, 1),
    ("memcpy 2 hops", Mode.MEMCPY, 2),
]


@dataclass
class Fig9Result:
    rows: list[Row]
    #: the span scope when the sweep ran with tracing (None otherwise).
    scope: Optional[Any] = None

    def series(self, experiment: str, name: str) -> dict[int, float]:
        return {
            r.size: r.value
            for r in self.rows
            if r.series == name and r.experiment == experiment
        }


def run_fig9(sizes: Optional[list[int]] = None,
             shmem_config: Optional[ShmemConfig] = None,
             n_pes: int = 3, trace: bool = False) -> Fig9Result:
    """Regenerate Fig. 9(a)–(d); rows land in experiments ``fig9a``
    (put latency), ``fig9b`` (get latency), ``fig9c``/``fig9d``
    (derived throughputs).

    ``trace=True`` turns on span tracing for the sweep: the scope lands
    in ``Fig9Result.scope`` (export it with
    :func:`repro.obsv.dump_chrome_trace`).  Tracing never consumes
    virtual time, so the measured values are identical either way.
    """
    sizes = sizes or PAPER_SIZES
    if trace:
        shmem_config = dataclasses.replace(
            shmem_config or ShmemConfig(), trace_spans=True
        )
    max_size = max(sizes)
    measurements: dict[tuple[str, str, int], float] = {}

    def main(pe):
        sym = yield from pe.malloc(max_size)
        src = pe.local_alloc(max_size)
        yield from pe.barrier_all()
        for series, mode, hops in CONFIGS:
            target = (pe.my_pe() + hops) % pe.num_pes()
            for size in sizes:
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.put_from(sym, src, size, target,
                                           mode=mode)
                    measurements[("put", series, size)] = \
                        pe.rt.env.now - start
                yield from pe.barrier_all()
            for size in sizes:
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.get(sym, size, target, mode=mode)
                    measurements[("get", series, size)] = \
                        pe.rt.env.now - start
                yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=n_pes,
                      cluster_config=ClusterConfig(n_hosts=n_pes),
                      shmem_config=shmem_config)
    rows: list[Row] = []
    for (op, series, size), latency in measurements.items():
        lat_exp = "fig9a" if op == "put" else "fig9b"
        thr_exp = "fig9c" if op == "put" else "fig9d"
        rows.append(Row(lat_exp, series, size, latency, "us"))
        rows.append(Row(thr_exp, series, size, size / latency, "MB/s"))
    return Fig9Result(rows, scope=report.scope)
