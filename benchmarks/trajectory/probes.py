"""Isolated layer probes: a timed loop of direct calls into each layer's
public functions, nothing else running.  Each probe repeats its unit of
work until ``loop_s`` of host time has passed, three times, and reports
the median rate — so a change to one layer has a number that moves
before any workload's ``wall_s`` does.

Run as a script (run.py does, under its watchdog) it prints one JSON
object ``{metric: value}`` on the last line.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Callable

from workloads import PAPER_SIZES

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src"))

STORM_TIMERS = 1024
STORM_SLICE_US = 200.0


def rate(unit_of_work: Callable[[], float], loop_s: float,
         repeats: int = 3) -> float:
    """Median over ``repeats`` of (work done / host seconds); each repeat
    calls ``unit_of_work`` (which returns how much it did) for at least
    ``loop_s`` seconds."""
    rates = []
    for _ in range(repeats):
        done = 0.0
        start = time.perf_counter()
        while True:
            done += unit_of_work()
            elapsed = time.perf_counter() - start
            if elapsed >= loop_s:
                break
        rates.append(done / elapsed)
    return statistics.median(rates)


def _storm_probe(queue, loop_s: float) -> float:
    """1024 periodic timers through Environment.process/timeout/run."""
    from repro.sim import Environment

    def timer(env, period):
        while True:
            yield env.timeout(period)

    env = Environment() if queue is None else Environment(queue=queue)
    for i in range(STORM_TIMERS):
        env.process(timer(env, 1.0 + (i % 173) * 0.037), name=f"storm.{i}")
    horizon = [0.0]

    def unit() -> float:
        before = env.dispatched_events
        horizon[0] += STORM_SLICE_US
        env.run(until=horizon[0])
        return env.dispatched_events - before

    return rate(unit, loop_s)


def _pcie_probe(loop_s: float) -> float:
    from repro.pcie import LinkConfig, transfer_wire_bytes

    config = LinkConfig()
    mps = config.max_payload

    def unit() -> float:
        for size in PAPER_SIZES:
            config.serialization_time_us(size)
            transfer_wire_bytes(64, size, mps)
        return 2.0 * len(PAPER_SIZES)

    return rate(unit, loop_s)


def _memory_probe(loop_s: float) -> float:
    import numpy as np

    from repro.memory import PhysicalMemory, VirtualAddressSpace

    nbytes, fragment, base = 64 * 1024, 16 * 1024, 0x1000_0000
    vas = VirtualAddressSpace(PhysicalMemory(1 << 20))
    # physically scattered like a user mmap: fragments in reverse order
    for index in range(nbytes // fragment):
        vas.map(base + index * fragment,
                (nbytes // fragment - 1 - index) * fragment, fragment)
    data = np.arange(nbytes, dtype=np.uint32).astype(np.uint8)

    def unit() -> float:
        vas.write(base, data)
        vas.read(base, nbytes)
        return 2.0 * nbytes / 1e6

    return rate(unit, loop_s)


def _fabric_probe(loop_s: float) -> float:
    from repro.fabric import TorusTopology, make_router

    topology = TorusTopology((4, 4, 4))
    ordered = make_router(topology, name="dimension_order")
    adaptive = make_router(topology, name="adaptive")
    live: frozenset = frozenset()
    dead = frozenset({topology.edge_for(21, "x+"), topology.edge_for(42, "y+")})
    pairs = [(src, dst) for src in range(64) for dst in range(64)
             if src != dst]
    # adaptive routing around a hole runs a BFS per call (~4 ms): sample it
    far = [(src, (src + 42) % 64) for src in range(64)]
    mix = [(ordered, live, pairs), (ordered, dead, pairs),
           (adaptive, live, pairs), (adaptive, dead, far)]

    def unit() -> float:
        for router, edges, some in mix:
            for src, dst in some:
                router.resolve(src, dst, edges)
        return float(sum(len(some) for _, _, some in mix))

    return rate(unit, loop_s)


def _ntb_probe(loop_s: float) -> tuple[float, float]:
    """Raw DMA bursts on a 2-host cluster (the Fig. 8 protocol): host-side
    requests per second at 4 KiB, virtual link rate at 512 KiB."""
    from repro.fabric import Cluster, ClusterConfig, Direction
    from repro.ntb.device import DATA_WINDOW

    big = PAPER_SIZES[-1]
    cluster = Cluster(ClusterConfig(n_hosts=2))
    cluster.run_probe()
    env = cluster.env
    src = cluster.driver(0, Direction.RIGHT)
    dst = cluster.driver(1, Direction.LEFT)
    rx = cluster.host(1).alloc_pinned(big)
    dst.endpoint.program_incoming(DATA_WINDOW, rx.phys, rx.nbytes)
    dst.endpoint.lut.add(src.requester_id, 1)
    src.endpoint.lut.add(dst.requester_id, 0)
    small_tx = cluster.host(0).alloc_pinned(4096)
    big_tx = cluster.host(0).alloc_pinned(big)

    def burst(tx, count):
        for _ in range(count):
            request = yield from src.dma_write_segments(
                DATA_WINDOW, 0, [tx.segment])
            yield request.done

    def unit() -> float:
        env.run(until=env.process(burst(small_tx, 64)))
        return 64.0

    reqs_per_s = rate(unit, loop_s)
    start = env.now
    env.run(until=env.process(burst(big_tx, 4)))
    v_link_mb_s = 4 * big / (env.now - start)
    return reqs_per_s, v_link_mb_s


def _obsv_probe(loop_s: float) -> float:
    from repro.obsv import ShmemScope
    from repro.sim import Environment

    def unit() -> float:
        scope = ShmemScope(Environment())   # fresh: the span list is kept
        for _ in range(2000):
            with scope.span("probe", category="op", track="probe"):
                pass
        return 2000.0

    return rate(unit, loop_s)


def run_probes(loop_s: float = 1.0) -> dict[str, float]:
    reqs_per_s, v_link_mb_s = _ntb_probe(loop_s)
    return {
        "sim.probe.storm_events_per_s": _storm_probe(None, loop_s),
        "sim.probe.storm_heap_events_per_s": _storm_probe("heap", loop_s),
        "pcie.probe.cost_calls_per_s": _pcie_probe(loop_s),
        "memory.probe.copy_mb_per_s": _memory_probe(loop_s),
        "fabric.probe.resolve_calls_per_s": _fabric_probe(loop_s),
        "ntb.probe.dma_reqs_per_s": reqs_per_s,
        "ntb.probe.v_link_mb_s": v_link_mb_s,
        "obsv.probe.span_pairs_per_s": _obsv_probe(loop_s),
    }


if __name__ == "__main__":
    sys.path.insert(0, _SRC)
    print(json.dumps(run_probes(float(sys.argv[1]) if len(sys.argv) > 1
                                else 1.0)))
