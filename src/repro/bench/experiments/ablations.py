"""Ablation experiments for the design choices flagged in DESIGN.md §6.

Each function sweeps one knob and returns :class:`Row` records so the
benches can print figure-style tables:

* :func:`run_routing_ablation` — FIXED_RIGHT (paper) vs SHORTEST.
* :func:`run_chunk_ablation` — bypass forward-chunk size.
* :func:`run_get_chunk_ablation` — get-response chunk size.
* :func:`run_dma_page_ablation` — DMA per-descriptor cost / pinned vs paged.
* :func:`run_barrier_ablation` — ring sweep vs token rounds vs
  dissemination vs centralized.
* :func:`run_scaling_ablation` — ring size 2..8 (total throughput + barrier).
* :func:`run_irq_ablation` — interrupt-path latency sensitivity.
"""

from __future__ import annotations

from typing import Optional

from ...core import Mode, ShmemConfig, run_spmd
from ...fabric import ClusterConfig, Direction, RoutingPolicy
from ...host import CostModel
from ...ntb import DmaConfig, NtbPortConfig
from ..reporting import Row
from .fig8 import run_fig8

__all__ = [
    "run_dma_channel_ablation",
    "run_routing_ablation",
    "run_chunk_ablation",
    "run_get_chunk_ablation",
    "run_dma_page_ablation",
    "run_barrier_ablation",
    "run_scaling_ablation",
    "run_irq_ablation",
]


def _timed_put_program(size: int, hops: int, mode: Mode = Mode.DMA,
                       use_barrier: bool = True):
    """PE0 puts `size` bytes `hops` away; returns (put_us, barrier_us)."""

    def main(pe):
        sym = yield from pe.malloc(size)
        src = pe.local_alloc(size)
        yield from pe.barrier_all()
        put_us = None
        target = (pe.my_pe() + hops) % pe.num_pes()
        if pe.my_pe() == 0:
            start = pe.rt.env.now
            yield from pe.put_from(sym, src, size, target, mode=mode)
            put_us = pe.rt.env.now - start
        start = pe.rt.env.now
        if use_barrier:
            yield from pe.barrier_all()
        return (put_us, pe.rt.env.now - start)

    return main


def run_routing_ablation(size: int = 128 * 1024,
                         n_pes: int = 5) -> list[Row]:
    """Put latency + delivery time to every distance under both policies.

    SHORTEST should roughly halve worst-case delivery distance on odd
    rings; the paper's FIXED_RIGHT pays the full circumference.
    """
    rows: list[Row] = []
    for policy in (RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST):
        for hops in range(1, n_pes):
            report = run_spmd(
                _timed_put_program(size, hops),
                n_pes=n_pes,
                cluster_config=ClusterConfig(n_hosts=n_pes),
                shmem_config=ShmemConfig(routing=policy),
            )
            put_us, barrier_us = report.results[0]
            rows.append(Row("ablation_routing", policy.value,
                            hops, put_us, "us",
                            extra={"metric": "put_latency"}))
            rows.append(Row("ablation_routing",
                            f"{policy.value}+flush",
                            hops, put_us + barrier_us, "us",
                            extra={"metric": "delivered_latency"}))
    return rows


def run_chunk_ablation(size: int = 512 * 1024,
                       chunks: Optional[list[int]] = None) -> list[Row]:
    """2-hop put latency vs bypass chunk size (store-and-forward grain)."""
    chunks = chunks or [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]
    rows: list[Row] = []
    for chunk in chunks:
        for slots in (1, 2, 4):
            config = ShmemConfig(fwd_chunk=chunk, bypass_slots=slots)
            report = run_spmd(
                _timed_put_program(size, hops=2),
                n_pes=3, shmem_config=config,
            )
            put_us, barrier_us = report.results[0]
            rows.append(Row("ablation_chunks", f"{slots} slot(s)",
                            chunk, put_us + barrier_us, "us",
                            extra={"put_us": put_us}))
    return rows


def run_get_chunk_ablation(size: int = 256 * 1024,
                           chunks: Optional[list[int]] = None) -> list[Row]:
    """Get throughput vs response chunk size — the knob that trades
    per-chunk interrupt overhead against buffer footprint."""
    chunks = chunks or [2048, 4096, 8192, 16 * 1024, 32 * 1024]
    rows: list[Row] = []
    for chunk in chunks:
        measurements = {}

        def main(pe, _chunk=chunk):
            sym = yield from pe.malloc(size)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                start = pe.rt.env.now
                yield from pe.get(sym, size, 1)
                measurements["us"] = pe.rt.env.now - start
            yield from pe.barrier_all()

        run_spmd(main, n_pes=3,
                 shmem_config=ShmemConfig(get_chunk=chunk))
        rows.append(Row("ablation_get_chunk", "get 1 hop", chunk,
                        size / measurements["us"], "MB/s"))
    return rows


def run_dma_page_ablation(size: int = 512 * 1024) -> list[Row]:
    """Put throughput vs per-descriptor cost — quantifies how much of the
    OpenSHMEM Put ceiling is the paged-memory SG walk (DESIGN.md §5)."""
    rows: list[Row] = []
    for per_descriptor_us in (0.0, 3.0, 9.0, 18.0):
        dma = DmaConfig(per_descriptor_us=per_descriptor_us)
        config = ClusterConfig(n_hosts=3, ntb=NtbPortConfig(dma=dma))
        report = run_spmd(
            _timed_put_program(size, hops=1),
            n_pes=3, cluster_config=config,
        )
        put_us, _barrier = report.results[0]
        rows.append(Row("ablation_dma_pages", "put DMA 1 hop",
                        int(per_descriptor_us * 10), size / put_us,
                        "MB/s",
                        extra={"per_descriptor_us": per_descriptor_us}))
    return rows


def run_barrier_ablation(n_pes_list: Optional[list[int]] = None,
                         repeats: int = 5) -> list[Row]:
    """Mean empty-barrier latency per strategy per ring size.

    ``ring`` is the Fig. 6 sweep (FIXED_RIGHT rings); ``token rounds`` is
    the same doorbell-token barrier on a SHORTEST ring, where it runs
    ``n // 2`` neighbour rounds (``TokenBarrier._schedule``).
    """
    n_pes_list = n_pes_list or [2, 3, 4, 6, 8]
    rows: list[Row] = []
    for series, strategy, routing in (
            ("ring", "ring", None),
            ("token rounds", "ring", RoutingPolicy.SHORTEST),
            ("dissemination", "dissemination", None),
            ("centralized", "centralized", None)):
        for n_pes in n_pes_list:
            measurements = {}

            def main(pe):
                yield from pe.barrier_all()  # warm-up / allocation
                start = pe.rt.env.now
                for _ in range(repeats):
                    yield from pe.barrier_all()
                if pe.my_pe() == 0:
                    measurements["us"] = (pe.rt.env.now - start) / repeats

            run_spmd(main, n_pes=n_pes,
                     cluster_config=ClusterConfig(n_hosts=n_pes),
                     shmem_config=ShmemConfig(barrier=strategy,
                                              routing=routing))
            rows.append(Row("ablation_barrier", series, n_pes,
                            measurements["us"], "us"))
    return rows


def run_scaling_ablation(n_pes_list: Optional[list[int]] = None,
                         size: int = 256 * 1024) -> list[Row]:
    """Fig. 8(d)-style total network throughput as the ring grows."""
    n_pes_list = n_pes_list or [2, 3, 4, 6, 8]
    rows: list[Row] = []
    for n_pes in n_pes_list:
        result = run_fig8(sizes=[size], n_hosts=n_pes, repeats=2)
        totals = {
            row.series: row.value
            for row in result.rows if row.experiment == "fig8d"
        }
        rows.append(Row("ablation_scaling", "Ring total", n_pes,
                        totals["Ring"], "MB/s"))
        rows.append(Row("ablation_scaling", "Independent total", n_pes,
                        totals["Independent"], "MB/s"))
    return rows


def run_dma_channel_ablation(size: int = 64 * 1024,
                             n_streams: int = 4) -> list[Row]:
    """DMA channel count: raw driver concurrency vs OpenSHMEM puts.

    Two series per channel count:

    * ``raw`` — n_streams concurrent driver-level DMA requests on one
      adapter: channels overlap per-request overheads, so throughput
      rises (until the shared pump saturates).
    * ``shmem`` — n_streams NBI puts to the same neighbor: **flat**, and
      that flatness is the finding.  The mailbox protocol allows one
      outstanding data-window message per direction, so the runtime can
      never keep a second channel busy — consistent with the paper's
      prototype driving a single DMA channel.
    """
    from ...fabric import Cluster
    from ...ntb.device import DATA_WINDOW

    rows: list[Row] = []
    for channels in (1, 2, 4):
        dma = DmaConfig(channels=channels)
        config = ClusterConfig(n_hosts=3, ntb=NtbPortConfig(dma=dma))

        # -- raw driver concurrency -------------------------------------
        cluster = Cluster(config)
        cluster.run_probe()
        env = cluster.env
        src_drv = cluster.driver(0, Direction.RIGHT)
        dst_drv = cluster.driver(1, Direction.LEFT)
        rx = cluster.host(1).alloc_pinned(size * n_streams)
        dst_drv.endpoint.program_incoming(DATA_WINDOW, rx.phys, rx.nbytes)
        dst_drv.endpoint.lut.add(src_drv.requester_id, 1)
        src_drv.endpoint.lut.add(dst_drv.requester_id, 0)
        buffers = [cluster.host(0).alloc_pinned(size)
                   for _ in range(n_streams)]

        def raw_burst():
            start = env.now
            requests = [
                src_drv.endpoint.dma_write(
                    DATA_WINDOW, index * size, [tx.segment]
                )
                for index, tx in enumerate(buffers)
            ]
            yield env.all_of([r.done for r in requests])
            return n_streams * size / (env.now - start)

        process = env.process(raw_burst())
        env.run(until=process)
        rows.append(Row("ablation_dma_channels", "raw", channels,
                        process.value, "MB/s"))

        # -- OpenSHMEM NBI puts -------------------------------------------
        measurements = {}

        def main(pe):
            dest = yield from pe.malloc(size * n_streams)
            srcs = [pe.local_alloc(size) for _ in range(n_streams)]
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                start = pe.rt.env.now
                for index, src in enumerate(srcs):
                    pe.put_nbi(dest + index * size, src, size, 1)
                yield from pe.quiet()
                measurements["us"] = pe.rt.env.now - start
            yield from pe.barrier_all()

        run_spmd(main, n_pes=3,
                 cluster_config=ClusterConfig(
                     n_hosts=3, ntb=NtbPortConfig(dma=dma)))
        rows.append(Row("ablation_dma_channels", "shmem", channels,
                        n_streams * size / measurements["us"], "MB/s"))
    return rows


def run_irq_ablation(size: int = 8192) -> list[Row]:
    """Small-put latency & get throughput vs interrupt-path costs."""
    rows: list[Row] = []
    for label, msi_us, wake_us in [
        ("fast irq", 5.0, 5.0),
        ("default", 20.0, 30.0),
        ("slow irq", 60.0, 90.0),
    ]:
        cost = CostModel(msi_delivery_us=msi_us, thread_wake_us=wake_us)
        config = ClusterConfig(n_hosts=3, cost_model=cost)
        measurements = {}

        def main(pe):
            sym = yield from pe.malloc(size)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                start = pe.rt.env.now
                yield from pe.get(sym, size, 1)
                measurements["get_us"] = pe.rt.env.now - start
            yield from pe.barrier_all()

        run_spmd(main, n_pes=3, cluster_config=config)
        rows.append(Row("ablation_irq", label, size,
                        size / measurements["get_us"], "MB/s",
                        extra={"msi_us": msi_us, "wake_us": wake_us}))
    return rows
