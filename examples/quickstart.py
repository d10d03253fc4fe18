#!/usr/bin/env python
"""Quickstart: the essential OpenSHMEM APIs on the simulated NTB ring.

Runs the canonical SHMEM "ring shift" — every PE puts a block into its
right neighbor's symmetric heap, barriers, and reads what its left
neighbor sent — then shows gets, atomics and a reduction.

Usage::

    python examples/quickstart.py
    python examples/quickstart.py --trace trace.json   # span-traced run
    python examples/quickstart.py --sever              # cut a cable mid-run
    python examples/quickstart.py --fastpath           # optimized data plane
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import Mode, run_spmd
from repro.core import ShmemConfig


def main(pe):
    me, n = pe.my_pe(), pe.num_pes()

    # --- shmem_malloc: symmetric allocation (same offset on every PE) ----
    block = yield from pe.malloc_array(1024, np.int64)
    counter = yield from pe.malloc(8)
    pe.write_symmetric(counter, np.zeros(1, dtype=np.int64))
    yield from pe.barrier_all()

    # --- one-sided put to the right neighbor ------------------------------
    right = (me + 1) % n
    payload = np.arange(1024, dtype=np.int64) * (me + 1)
    yield from pe.put_array(block, payload, right)

    # Put is locally blocking: our buffer is reusable now, but remote
    # visibility needs a barrier (Fig. 6 ring barrier underneath).
    yield from pe.barrier_all()

    left = (me - 1) % n
    received = pe.read_symmetric_array(block, 1024, np.int64)
    assert np.array_equal(received, np.arange(1024, dtype=np.int64) * (left + 1))

    # --- one-sided get from two PEs away (store-and-forward under the hood)
    two_away = (me + 2) % n
    fetched = yield from pe.get_array(block, 8, np.int64, two_away)

    # --- remote atomics: everyone bumps PE 0's counter --------------------
    old = yield from pe.atomic_fetch_add(counter, 1, 0)
    yield from pe.barrier_all()
    total = yield from pe.atomic_fetch(counter, 0)
    assert total == n

    # --- a reduction built on puts + the ring barrier ----------------------
    contribution = yield from pe.malloc_array(4, np.float64)
    result = yield from pe.malloc_array(4, np.float64)
    pe.write_symmetric(
        contribution, np.full(4, float(me + 1), dtype=np.float64)
    )
    yield from pe.barrier_all()
    yield from pe.reduce(result, contribution, 4, np.float64, "sum")
    sums = pe.read_symmetric_array(result, 4, np.float64)

    # Try the explicit memcpy data path too (the paper's slow path).
    yield from pe.put_array(block, payload, right, mode=Mode.MEMCPY)
    yield from pe.barrier_all()

    return {
        "pe": me,
        "left_block_head": int(received[1]),  # == left neighbor id + 1
        "fetched_head": int(fetched[1]),
        "atomic_order": int(old),
        "reduced": float(sums[0]),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH",
                        help="record causal spans and export a Chrome "
                             "trace-event (Perfetto) JSON")
    parser.add_argument("--sever", action="store_true",
                        help="unplug the cable between hosts 1 and 2 "
                             "mid-run: the heartbeat detector marks the "
                             "edge DEAD, traffic re-routes the long way "
                             "around, and every assert still holds")
    parser.add_argument("--fastpath", action="store_true",
                        help="opt into the optimized data plane (interrupt "
                             "coalescing, chained DMA, cut-through "
                             "forwarding, inline small messages); the "
                             "default run stays paper-faithful — see "
                             "docs/FASTPATH.md")
    args = parser.parse_args()

    fastpath = None
    if args.fastpath:
        from repro.core import FastpathConfig

        fastpath = FastpathConfig()
    config = None
    if args.sever:
        from repro.faults import FaultPlan

        config = ShmemConfig(
            faults=FaultPlan.single_sever(1, 2, at_us=800.0),
            max_retries=8, retry_backoff_us=200.0,
            trace_spans=bool(args.trace), fastpath=fastpath,
        )
    elif args.trace or args.fastpath:
        config = ShmemConfig(trace_spans=bool(args.trace),
                             fastpath=fastpath)
    report = run_spmd(main, n_pes=3, shmem_config=config)
    plane = "fastpath" if args.fastpath else "paper-faithful"
    print(f"simulated {report.elapsed_us / 1000:.2f} virtual ms "
          f"on a 3-host PCIe NTB ring ({plane} data plane)\n")
    for result in report.results:
        print(f"  PE {result['pe']}: left sent {result['left_block_head']}, "
              f"got head {result['fetched_head']} from 2 hops away, "
              f"was #{result['atomic_order'] + 1} at the counter, "
              f"sum-reduce gave {result['reduced']:.0f}")
    stats = report.stats()
    print(f"\ntotals: {stats['puts']} puts, {stats['gets']} gets, "
          f"{stats['amos']} atomics")

    if args.sever:
        dead = sorted(report.runtime(0).dead_edges)
        reroutes = sum(rt.reroutes for rt in report.runtimes)
        retries = sum(rt.retries for rt in report.runtimes)
        print(f"severed cable survived: dead edges {dead}, "
              f"{reroutes} reroutes, {retries} send retries — "
              f"all data verified")

    if args.trace:
        from repro.obsv import dump_chrome_trace

        dump_chrome_trace(report.scope, args.trace)
        print(f"wrote {len(report.scope.spans)} spans to {args.trace} "
              f"(open in https://ui.perfetto.dev or run "
              f"'python -m repro.obsv trace {args.trace}')")
