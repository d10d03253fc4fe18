"""Every metric the trajectory reports: name, unit, clock, direction, and
what it is expected to move.  BENCHMARK.json is this table with the
columns the driver's contract allows (test_ledger.py keeps them equal);
README.md carries the prose.
"""

from __future__ import annotations

from ledger import LAYERS

#: (name, unit, clock, better, bound, definition).  ``bound`` is the share
#: of the parent's median by which the metric may worsen.  Virtual metrics
#: repeat exactly for one seed; their bounds cover the spread between
#: seeds, and the host-clock bounds this machine's minutes-long slow
#: episodes, both of which the contract measures (README, "Bounds").
#: Clock ``cpu`` is the CPU clock of the child's main thread: what a
#: single-threaded program without I/O spends on an undisturbed core
#: (README, "Process model").
END_TO_END = [
    ("setup_s", "s", "cpu", "lower", 0.25,
     "child entry -> import repro -> make_cluster -> shmem_init on every PE "
     "-> last PE past the warm-up barrier_all; median of the children"),
    ("wall_s", "s", "cpu", "lower", 0.25,
     "host seconds of the measured phase (last PE past the warm-up barrier "
     "to last PE's return) on an undisturbed core: the phase is cut into 32 "
     "segments at the same ops in every repeat, and each segment counts "
     "with its fastest repeat (ledger.quiet_total)"),
    ("peak_rss_mb", "MiB", "host", "lower", 0.05,
     "ru_maxrss of the child"),
    ("v_elapsed_us", "us", "virtual", "lower", 0.05,
     "virtual time of the measured phase (time to solution of the "
     "modelled design)"),
    ("v_goodput_mb_s", "MB/s", "virtual", "higher", 0.05,
     "verified payload bytes delivered / v_elapsed_us"),
    ("v_put_p50_us", "us", "virtual", "lower", 0.10,
     "issue -> local return of put* (incl. put_signal), median"),
    ("v_put_p99_us", "us", "virtual", "lower", 0.25, "same, 99th percentile"),
    ("v_get_p50_us", "us", "virtual", "lower", 0.10,
     "issue -> data returned, median"),
    ("v_get_p99_us", "us", "virtual", "lower", 0.25, "same, 99th percentile"),
    ("v_amo_p50_us", "us", "virtual", "lower", 0.20,
     "fetching AMO round trip, median"),
    ("v_barrier_p50_us", "us", "virtual", "lower", 0.10,
     "per-PE barrier_all entry -> exit, median"),
    ("v_barrier_p99_us", "us", "virtual", "lower", 0.25,
     "same, 99th percentile"),
]

_HOST_MOVES = {
    "sim": "wall_s on every workload (largest share on ring3_sweep)",
    "pcie": "wall_s on ring3_sweep",
    "memory": "wall_s on torus64_antipodal; flat on ring3_sweep",
    "host": "wall_s on the ring8_mixed pair",
    "ntb": "wall_s on ring3_sweep and the ring8_mixed pair",
    "fabric": "wall_s on torus64_antipodal; flat on ring3_sweep",
    "faults": "wall_s on mesh16_sever; zero elsewhere (asserted)",
    "obsv": "wall_s everywhere (always-on metrics; spans when traced)",
    "core.runtime": "wall_s on the ring8_mixed pair",
    "core.transfer": "wall_s on the ring8_mixed pair",
    "core.service": "wall_s on torus64_antipodal",
    "core.barrier": "wall_s on torus64_antipodal and mesh16_sever",
    "core.fastpath": "wall_s on ring8_mixed_fastpath; zero elsewhere "
                     "(asserted)",
    "other": "wall_s (numpy, stdlib, the benchmark's own body)",
}

#: (name, unit, better, source, moves).
PER_LAYER = []
for _layer in LAYERS:
    PER_LAYER += [
        (f"{_layer}.host_self_s", "s", "lower", "host ledger",
         _HOST_MOVES[_layer]),
        (f"{_layer}.host_self_share", "ratio", "lower", "host ledger",
         _HOST_MOVES[_layer]),
        (f"{_layer}.py_calls", "count", "lower", "host ledger",
         _HOST_MOVES[_layer] + "; repeats exactly"),
    ]
PER_LAYER += [
    # virtual-time ledger (spans)
    ("core.runtime.v_self_us", "us", "lower", "virtual ledger",
     "op spans' own time (mostly waiting for a remote reply): "
     "v_get_p50_us, v_amo_p50_us"),
    ("core.transfer.v_self_us", "us", "lower", "virtual ledger",
     "v_put_p50_us, v_amo_p50_us on the ring8_mixed pair"),
    ("core.transfer.slot_wait_us", "us", "lower", "virtual ledger",
     "v_put_p99_us, v_amo_p50_us on the ring8_mixed pair"),
    ("core.transfer.tx_wait_us", "us", "lower", "virtual ledger",
     "v_put_p99_us on the ring8_mixed pair"),
    ("core.service.v_self_us", "us", "lower", "virtual ledger",
     "v_put_p50_us, v_amo_p50_us on the ring8_mixed pair"),
    ("core.service.relay_v_us", "us", "lower", "virtual ledger",
     "v_get_p50_us, v_barrier_p50_us on torus64_antipodal"),
    ("ntb.driver.v_self_us", "us", "lower", "virtual ledger",
     "PIO: v_put_p99_us on ring3_sweep; doorbell: v_put_p50_us on the "
     "ring8_mixed pair"),
    ("ntb.dma.v_self_us", "us", "lower", "virtual ledger",
     "v_put_p99_us, v_get_p99_us, v_goodput_mb_s on ring3_sweep; and, "
     "through its ~31 us per request, v_put_p50_us on every workload"),
    ("pcie.link.v_self_us", "us", "lower", "virtual ledger",
     "v_goodput_mb_s on ring3_sweep; nothing on ring8_mixed"),
    ("pcie.link.fc_stall_us", "us", "lower", "virtual ledger",
     "v_goodput_mb_s on ring3_sweep"),
    ("ledger.v_op_total_us", "us", "lower", "virtual ledger",
     "sum of root op spans; the base of every ledger share"),
    ("ledger.v_unattributed_us", "us", "lower", "virtual ledger",
     "root-op time no descendant span covers (ISR + service wake today)"),
    ("obsv.spans", "count", "lower", "virtual ledger",
     "obsv.trace_overhead_ratio"),
    ("obsv.trace_overhead_ratio", "ratio", "lower", "traced / untraced wall",
     "cost of trace_spans=True; must not move any v_* metric"),
    # exact counters (MetricsRegistry, measured phase only)
    ("sim.events_dispatched", "count", "lower", "counter",
     "wall_s everywhere"),
    ("sim.events_scheduled", "count", "lower", "counter", "wall_s everywhere"),
    ("sim.events_per_s", "1/s", "higher", "counter / wall_s",
     "wall_s; not end-to-end (fewer events is also a win)"),
    ("sim.events_per_op", "count", "lower", "counter",
     "x host us per event = wall_s"),
    ("sim.slab_reused", "count", "higher", "counter", "wall_s, peak_rss_mb"),
    ("ntb.dma.requests", "count", "lower", "counter",
     "v_put_p50_us on the ring8_mixed pair"),
    ("ntb.dma.bytes", "count", "lower", "counter",
     "v_goodput_mb_s on ring3_sweep"),
    ("ntb.dma.descriptors", "count", "lower", "counter",
     "v_put_p99_us on ring3_sweep"),
    ("ntb.dma.descriptors_chained", "count", "higher", "counter",
     "v_put_p99_us on ring8_mixed_fastpath; zero on the default plane"),
    ("ntb.db.rung", "count", "lower", "counter",
     "v_put_p50_us on the ring8_mixed pair"),
    ("ntb.db.irqs", "count", "lower", "counter",
     "v_put_p50_us, v_amo_p50_us on the ring8_mixed pair"),
    ("ntb.db.dropped", "count", "lower", "counter",
     "failed ops on mesh16_sever"),
    ("ntb.pio.master_aborts", "count", "lower", "counter",
     "failed ops on mesh16_sever"),
    ("pcie.link.bytes", "count", "lower", "counter",
     "v_goodput_mb_s on ring3_sweep"),
    ("pcie.link.dropped_bytes", "count", "lower", "counter",
     "failed ops on mesh16_sever"),
    ("pcie.wire_efficiency", "ratio", "higher", "counter",
     "verified payload bytes / link bytes: v_goodput_mb_s"),
    ("core.mailbox.sent", "count", "lower", "counter",
     "v_elapsed_us on the ring8_mixed pair"),
    ("core.mailbox.inline", "count", "higher", "counter",
     "v_amo_p50_us, v_elapsed_us on ring8_mixed_fastpath; zero on the "
     "default plane"),
    ("core.mailbox.failed", "count", "lower", "counter",
     "failed ops on mesh16_sever"),
    ("core.service.cut_throughs", "count", "higher", "counter",
     "v_get_p50_us on ring8_mixed_fastpath"),
    ("core.service.coalesced_wakes", "count", "higher", "counter",
     "v_amo_p50_us on ring8_mixed_fastpath"),
    ("core.service.dropped_forwards", "count", "lower", "counter",
     "failed ops on mesh16_sever"),
    ("core.retries", "count", "lower", "counter",
     "zero everywhere at baseline (asserted outside mesh16_sever): the "
     "cuts fall where no op is in flight"),
    ("core.reroutes", "count", "lower", "counter",
     "v_amo_p50_us, v_barrier_p50_us on mesh16_sever; zero elsewhere"),
    ("core.wait_timeouts", "count", "lower", "counter",
     "v_barrier_p99_us on mesh16_sever"),
    ("fabric.relay_msgs_per_op", "ratio", "lower", "counter",
     "v_get_p50_us, v_barrier_p50_us on torus64_antipodal"),
    ("fabric.heartbeat.misses", "count", "lower", "counter",
     "time to detect a cut on mesh16_sever; zero elsewhere"),
    ("faults.severs", "count", "lower", "counter",
     "2 on mesh16_sever, zero elsewhere (asserted)"),
    # isolated probes
    ("sim.probe.storm_events_per_s", "1/s", "higher", "probe",
     "sim.host_self_s -> wall_s everywhere"),
    ("sim.probe.storm_heap_events_per_s", "1/s", "higher", "probe",
     "the heap queue kept as oracle; compare with the line above"),
    ("pcie.probe.cost_calls_per_s", "1/s", "higher", "probe",
     "pcie.host_self_s -> wall_s on ring3_sweep"),
    ("memory.probe.copy_mb_per_s", "MB/s", "higher", "probe",
     "memory.host_self_s -> wall_s on torus64_antipodal"),
    ("fabric.probe.resolve_calls_per_s", "1/s", "higher", "probe",
     "fabric.host_self_s -> wall_s on torus64_antipodal, mesh16_sever"),
    ("ntb.probe.dma_reqs_per_s", "1/s", "higher", "probe",
     "ntb.host_self_s -> wall_s on the ring8_mixed pair"),
    ("ntb.probe.v_link_mb_s", "MB/s", "higher", "probe",
     "virtual raw link rate; must stay in the paper's 20-30 Gbps band"),
    ("obsv.probe.span_pairs_per_s", "1/s", "higher", "probe",
     "obsv.trace_overhead_ratio"),
]

E2E_NAMES = [row[0] for row in END_TO_END]
PER_LAYER_NAMES = [row[0] for row in PER_LAYER]
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
CLOCKS = {row[0]: row[2] for row in END_TO_END}
VIRTUAL_E2E = [name for name, clock in CLOCKS.items() if clock == "virtual"]
BOUNDS = {row[0]: row[4] for row in END_TO_END}
BETTER = {row[0]: row[3] for row in END_TO_END}


def benchmark_json(workloads: dict, run_seconds: int) -> dict:
    """The contract's BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/trajectory/run.py"],
        "paths": ["benchmarks/trajectory"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, _clock, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _source, _moves in PER_LAYER],
    }
