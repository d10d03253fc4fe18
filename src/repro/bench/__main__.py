"""CLI entry point: ``python -m repro.bench`` regenerates the evaluation.

Options::

    python -m repro.bench                 # quick 4-point sweep
    python -m repro.bench --full          # the paper's 10-size grid
    python -m repro.bench --ablations     # also run the ablation suite
    python -m repro.bench --json out.json # dump rows as JSON
    python -m repro.bench --trace t.json  # span-trace fig9, export Perfetto
    python -m repro.bench --smoke         # fig9-only small sizes (CI)
    python -m repro.bench --chaos         # sever-a-cable fault demo
    python -m repro.bench --chaos --chaos-seed 7   # different cut point
    python -m repro.bench --compare-fastpath   # baseline-vs-fastpath grid
    python -m repro.bench --metrics       # metered smoke + SLO evaluation
    python -m repro.bench --metrics --snapshot m.json  # + registry snapshot
    python -m repro.bench --topology      # ring/mesh/torus scaling sweep
    python -m repro.bench --topology --topology-full        # + 64 hosts

Every entry prints; only ``--json``, ``--trace`` and ``--snapshot`` write
a file, and nothing here compares against a stored number — see
docs/SIMULATOR.md, "Where a figure is pinned".
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .reporting import render_table


def _run_ablations() -> None:
    from .experiments import (
        run_barrier_ablation,
        run_chunk_ablation,
        run_dma_channel_ablation,
        run_dma_page_ablation,
        run_get_chunk_ablation,
        run_irq_ablation,
        run_routing_ablation,
        run_scaling_ablation,
    )

    suites = [
        ("routing policy (x = hop distance)", run_routing_ablation),
        ("bypass chunking (x = chunk bytes)", run_chunk_ablation),
        ("get chunk (x = chunk bytes)", run_get_chunk_ablation),
        ("DMA descriptor cost", run_dma_page_ablation),
        ("DMA channels (x = channel count)", run_dma_channel_ablation),
        ("barrier strategy (x = ring size)", run_barrier_ablation),
        ("ring scaling (x = ring size)", run_scaling_ablation),
        ("interrupt path", run_irq_ablation),
    ]
    for title, runner in suites:
        rows = runner()
        print()
        print(render_table(rows, f"ablation: {title}"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation (Figs. 8-10, "
                    "Table I) on the simulated NTB ring.",
    )
    parser.add_argument("--full", action="store_true",
                        help="sweep the paper's full 1KB-512KB grid")
    parser.add_argument("--ablations", action="store_true",
                        help="also run the DESIGN.md §6 ablation suite")
    parser.add_argument("--json", metavar="PATH",
                        help="write all measured rows to a JSON file")
    parser.add_argument("--trace", metavar="PATH",
                        help="enable span tracing on the fig9 sweep and "
                             "write a Chrome trace-event (Perfetto) JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="fig9-only 1KB/8KB smoke run (fast; skips "
                             "shape checks — sizes are off-grid)")
    parser.add_argument("--chaos", action="store_true",
                        help="4-host fault demo: sever one ring cable at "
                             "a seeded virtual time; the workload must "
                             "re-route and finish with correct data")
    parser.add_argument("--chaos-seed", type=int, default=42,
                        metavar="N",
                        help="seed for the chaos fault plan (default 42)")
    parser.add_argument("--compare-fastpath", action="store_true",
                        help="baseline-vs-fastpath grid (Put/Get latency "
                             "and throughput at 4KB/64KB/512KB x 1/2 hops, "
                             "inline 32B, barrier) and its acceptance "
                             "ratios")
    parser.add_argument("--metrics", action="store_true",
                        help="metered smoke run: mixed workload with the "
                             "metrics ticker + DES profiler, evaluated "
                             "against the bundled SLO ruleset")
    parser.add_argument("--topology", action="store_true",
                        help="ring/mesh/torus scaling sweep: antipodal "
                             "put/get/barrier latency + bisection "
                             "throughput at N=4/16 plus a fault-injected "
                             "mesh reroute scenario")
    parser.add_argument("--topology-full", action="store_true",
                        help="with --topology: include the slow 64-host "
                             "tier (ring64/mesh8x8/torus4x4x4)")
    parser.add_argument("--snapshot", metavar="PATH",
                        help="with --metrics: also write the registry "
                             "snapshot JSON (repro-metrics/v1) for "
                             "'python -m repro.obsv metrics'")
    args = parser.parse_args(argv)

    if args.topology or args.metrics or args.compare_fastpath:
        t0 = time.perf_counter()
        if args.topology:
            from .experiments.topology import run_topology_bench

            result = run_topology_bench(include_slow=args.topology_full)
            ok = result.targets_pass
        elif args.metrics:
            from .experiments.metrics import run_metrics_smoke

            result = run_metrics_smoke()
            ok = result.ok
            if args.snapshot:
                result.write_snapshot(args.snapshot)
                print(f"wrote metrics snapshot to {args.snapshot} "
                      f"(inspect with 'python -m repro.obsv metrics "
                      f"{args.snapshot}')\n")
        else:
            from .experiments.fastpath import run_fastpath_compare

            result = run_fastpath_compare()
            ok = result.targets_pass
        print(result.render())
        print(f"\nwall time: {time.perf_counter() - t0:.1f}s; "
              "latencies/throughputs are virtual-time measurements")
        return 0 if ok else 1

    if args.chaos:
        from .experiments.chaos import run_chaos_demo

        t0 = time.perf_counter()
        result = run_chaos_demo(seed=args.chaos_seed)
        print(result.summary())
        print(f"\nwall time: {time.perf_counter() - t0:.1f}s; "
              "all values are virtual-time measurements")
        return 0 if result.ok else 1

    t0 = time.perf_counter()
    scope = None
    if args.smoke:
        from .experiments.fig9 import run_fig9

        fig9 = run_fig9(sizes=[1 << 10, 1 << 13],
                        trace=args.trace is not None)
        rows = fig9.rows
        scope = fig9.scope
        print(render_table(
            [r for r in rows if r.experiment == "fig9a"],
            "Fig 9(a) Put latency, smoke sizes [us]"))
        print()
        print(render_table(
            [r for r in rows if r.experiment == "fig9b"],
            "Fig 9(b) Get latency, smoke sizes [us]"))
        report = None
    else:
        from .harness import run_all

        report = run_all(quick=not args.full,
                         trace=args.trace is not None)
        rows = report.rows
        scope = report.scope
        print(report.render())

    if args.ablations:
        _run_ablations()

    if args.trace:
        if scope is None:
            print("--trace: no scope produced (nothing to export)",
                  file=sys.stderr)
            return 1
        from ..obsv import dump_chrome_trace

        dump_chrome_trace(scope, args.trace)
        print(f"\nwrote {len(scope.spans)} spans to {args.trace} "
              f"(open in https://ui.perfetto.dev or inspect with "
              f"'python -m repro.obsv trace {args.trace}')")

    if args.json:
        payload = [
            {
                "experiment": row.experiment,
                "series": row.series,
                "size": row.size,
                "value": row.value,
                "unit": row.unit,
                **row.extra,
            }
            for row in rows
        ]
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {len(payload)} rows to {args.json}")

    print(f"\nwall time: {time.perf_counter() - t0:.1f}s; "
          "all values are virtual-time measurements")
    if report is not None and not report.all_shapes_pass:
        print("SOME SHAPE CHECKS FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
