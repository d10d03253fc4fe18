"""One run of one workload in a fresh interpreter.

The parent (run.py) pipes a job ``{"plan": ..., "mode": ...}`` to stdin and
reads one JSON result from the last line of stdout.  Modes:

* ``run``     untraced; end-to-end metrics and the exact counters
* ``setup``   stop after the warm-up barrier; set-up time only
* ``spans``   ``trace_spans=True``; the virtual-time ledger and the Chrome
              trace (written when the run has ended)
* ``profile`` ``cProfile`` around the measured phase; the host-time ledger
"""

import time

_ENTRY = time.thread_time()     # set-up is timed from child entry, on
                                # workloads.Recorder.clock

import json
import os
import resource
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src"))


def _shape_checks(rows):
    """Re-assert the paper's Fig. 9/10 shapes on this run's own rows."""
    from repro.bench.harness import fig9_shape_checks, fig10_shape_checks
    from repro.bench.reporting import Row, check_shapes

    put = [r for r in rows if r[0] == "put"]
    get = [r for r in rows if r[0] == "get"]
    tables = {
        "fig9a": [Row("fig9a", s, nom, lat, "us") for _, s, nom, _, lat, _ in put],
        "fig9b": [Row("fig9b", s, nom, lat, "us") for _, s, nom, _, lat, _ in get],
        "fig9c": [Row("fig9c", s, nom, size / lat, "MB/s")
                  for _, s, nom, size, lat, _ in put],
        "fig9d": [Row("fig9d", s, nom, size / lat, "MB/s")
                  for _, s, nom, size, lat, _ in get],
        "fig10": [Row("fig10", s, nom, bar, "us") for _, s, nom, _, _, bar in put],
    }
    checks = dict(fig9_shape_checks(), fig10=fig10_shape_checks())
    return [[experiment, description, bool(passed)]
            for experiment, table in tables.items()
            for description, passed in check_shapes(table, checks[experiment])]


def main() -> int:
    job = json.load(sys.stdin)
    plan, mode = job["plan"], job["mode"]
    sys.path.insert(0, _SRC)

    from repro.core import make_cluster, run_spmd

    import ledger
    import workloads

    profiler = None
    snapshots = {}
    cluster = None

    def on_start():
        snapshots["before"] = cluster.metrics.snapshot()
        if profiler is not None:
            profiler.enable()

    def on_end():
        if profiler is not None:
            profiler.disable()
        snapshots["after"] = cluster.metrics.snapshot()

    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    rec = workloads.Recorder(plan["n_pes"], setup_only=(mode == "setup"),
                             on_start=on_start, on_end=on_end)
    body, cluster_config, shmem_config = workloads.build(
        plan, rec, trace_spans=(mode == "spans"))
    cluster = make_cluster(plan["n_pes"], cluster_config)
    report = run_spmd(body, n_pes=plan["n_pes"], cluster=cluster,
                      shmem_config=shmem_config)

    out = {"mode": mode, "setup_s": rec.ticks[0] - _ENTRY}
    if mode != "setup":
        v_elapsed = rec.v_end - rec.v_start
        out.update({
            "wall_s": rec.ticks[-1] - rec.ticks[0],
            "elapsed_s": rec.wall_end - rec.wall_start,
            "segments": ledger.segment_times(rec.ticks),
            "attempted": rec.attempted,
            "failed": rec.failed,
            "errors": rec.errors,
            "samples": {op: len(lat) for op, lat in rec.lat.items()},
            "virtual": dict(
                ledger.latency_metrics(rec.lat),
                v_elapsed_us=v_elapsed,
                v_goodput_mb_s=rec.bytes_ok / v_elapsed),
            "counters": ledger.counter_metrics(
                snapshots["before"], snapshots["after"],
                rec.attempted, rec.bytes_ok),
        })
        if rec.rows:
            out["shape_checks"] = _shape_checks(rec.rows)
    if mode == "profile":
        out["host_ledger"] = ledger.rollup_profile(profiler.getstats())
    if mode == "spans":
        from repro.obsv import dump_chrome_trace

        out["virtual_ledger"] = ledger.virtual_ledger(
            report.scope.spans, since=rec.v_start)
        os.makedirs(os.path.dirname(job["trace_path"]), exist_ok=True)
        dump_chrome_trace(report.scope, job["trace_path"])
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
