"""Figure 8: raw NTB transfer rate — independent link vs ring-simultaneous.

The paper's first experiment bypasses OpenSHMEM entirely: block DMA
transfers between pinned buffers over a single NTB connection, measured
(a–c) per link with only that link active ("Independent") and with all
three links transferring at once ("Ring"), plus (d) the network total.

Mechanically: host *i*'s right adapter DMAs blocks into host *i+1*'s
incoming data window.  The ring-simultaneous dip comes from each host's
memory/root-complex port serving both its outgoing stream (DMA source
reads) and its incoming stream (peer writes) at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...fabric import Cluster, ClusterConfig, Direction
from ...ntb.device import DATA_WINDOW
from ..reporting import PAPER_SIZES, Row

__all__ = ["Fig8Result", "run_fig8"]

#: Transfers averaged per measured point.
REPEATS = 4


@dataclass
class Fig8Result:
    rows: list[Row]


def _prepare_links(cluster: Cluster, buffer_bytes: int):
    """Program every link for raw pinned-buffer DMA; returns per-link
    (src_driver, tx_pinned) handles keyed by (src_host, dst_host)."""
    handles = {}
    for src, dst in cluster.topology.links():
        src_driver = cluster.driver(src, Direction.RIGHT)
        dst_driver = cluster.driver(dst, Direction.LEFT)
        rx = cluster.host(dst).alloc_pinned(buffer_bytes)
        dst_driver.endpoint.program_incoming(DATA_WINDOW, rx.phys, rx.nbytes)
        dst_driver.endpoint.lut.add(src_driver.requester_id, dst)
        src_driver.endpoint.lut.add(dst_driver.requester_id, src)
        tx = cluster.host(src).alloc_pinned(buffer_bytes)
        handles[(src, dst)] = (src_driver, tx)
    return handles


def _burst(env, driver, tx, size: int, repeats: int):
    """Process generator: `repeats` back-to-back DMA block transfers;
    returns achieved MB/s (virtual time)."""
    start = env.now
    for _ in range(repeats):
        request = yield from driver.dma_write_segments(
            DATA_WINDOW, 0, [tx.segment]
        )
        yield request.done
    elapsed = env.now - start
    return repeats * size / elapsed


def run_fig8(sizes: Optional[list[int]] = None, n_hosts: int = 3,
             repeats: int = REPEATS,
             cluster_config: Optional[ClusterConfig] = None) -> Fig8Result:
    """Regenerate Fig. 8(a)–(d).

    Returns rows with series ``"Independent"`` / ``"Ring"`` per link
    experiment (``fig8a``..``fig8c`` for the 3-host case, generically
    ``link i->j``) and the totals in ``fig8d``.
    """
    sizes = sizes or PAPER_SIZES
    rows: list[Row] = []
    max_size = max(sizes)

    link_ids = None
    for size in sizes:
        # A fresh cluster per size keeps measurements independent and the
        # event queue small.
        cluster = Cluster(cluster_config or ClusterConfig(n_hosts=n_hosts))
        cluster.run_probe()
        env = cluster.env
        handles = _prepare_links(cluster, max(size, 4096))
        link_ids = list(handles)

        # Independent: one link at a time, nothing else moving.
        independent = {}
        for link, (driver, tx) in handles.items():
            process = env.process(_burst(env, driver, tx, size, repeats))
            env.run(until=process)
            independent[link] = process.value

        # Ring-simultaneous: all links at once.
        processes = {
            link: env.process(_burst(env, driver, tx, size, repeats))
            for link, (driver, tx) in handles.items()
        }
        env.run(until=env.all_of(list(processes.values())))
        simultaneous = {link: p.value for link, p in processes.items()}

        for index, link in enumerate(link_ids):
            sub = chr(ord("a") + index) if n_hosts == 3 else f"link{index}"
            experiment = f"fig8{sub}"
            rows.append(Row(experiment, "Independent", size,
                            independent[link], "MB/s",
                            extra={"link": link}))
            rows.append(Row(experiment, "Ring", size,
                            simultaneous[link], "MB/s",
                            extra={"link": link}))
        rows.append(Row("fig8d", "Independent", size,
                        sum(independent.values()), "MB/s"))
        rows.append(Row("fig8d", "Ring", size,
                        sum(simultaneous.values()), "MB/s"))
    return Fig8Result(rows)
