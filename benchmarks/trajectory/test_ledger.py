"""Unit tests for the benchmark's own arithmetic.

    PYTHONPATH=src python -m pytest benchmarks/trajectory -q

Outside tier-1's ``testpaths`` on purpose: these test the instrument, not
the program.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@dataclass
class FakeSpan:
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    track: str
    start: float
    end: Optional[float]


# ------------------------------------------------------------------ self time

def test_self_time_subtracts_children_on_other_tracks():
    # put@pe0 -> payload_write@mailbox -> dma@engine -> link_transit@cable:
    # the shape of every op in this program, each layer on its own track
    spans = [
        FakeSpan(1, None, "put", "op", "pe0", 0.0, 40.0),
        FakeSpan(2, 1, "payload_write", "mailbox", "pe0.right.data", 0.0, 36.0),
        FakeSpan(3, 2, "dma", "dma", "host0.dma", 3.0, 36.0),
        FakeSpan(4, 3, "link_transit", "link", "cable.a2b", 35.0, 35.5),
        FakeSpan(5, 1, "doorbell_ring", "driver", "host0.ntb", 36.0, 37.0),
    ]
    own = ledger.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 32.5, 4: 0.5, 5: 1.0}
    assert sum(own.values()) == 40.0    # nested tree: the ledger adds up


def test_self_time_clips_a_child_that_outlives_its_parent():
    # remote delivery is parented on the put but ends after it returned
    spans = [
        FakeSpan(1, None, "put", "op", "pe0", 0.0, 10.0),
        FakeSpan(2, 1, "svc_put_data", "service", "pe1.service", 8.0, 30.0),
        FakeSpan(3, 1, "deliver_put", "service", "pe2.service", 50.0, 60.0),
    ]
    own = ledger.self_times(spans)
    assert own[1] == 8.0        # only [8, 10] of child 2 lies inside
    assert own[2] == 22.0 and own[3] == 10.0


def test_self_time_merges_overlapping_siblings():
    spans = [
        FakeSpan(1, None, "get", "op", "pe0", 0.0, 100.0),
        FakeSpan(2, 1, "a", "service", "t1", 10.0, 50.0),
        FakeSpan(3, 1, "b", "service", "t2", 30.0, 70.0),     # overlaps a
        FakeSpan(4, 1, "c", "service", "t3", 40.0, 45.0),     # inside both
        FakeSpan(5, 1, "d", "service", "t4", 90.0, 95.0),
    ]
    assert ledger.self_times(spans)[1] == 100.0 - (60.0 + 5.0)


def test_open_spans_are_ignored():
    spans = [FakeSpan(1, None, "put", "op", "pe0", 0.0, 10.0),
             FakeSpan(2, 1, "dma", "dma", "d", 1.0, None)]
    assert ledger.self_times(spans) == {1: 10.0}


def test_virtual_ledger_categories_and_unattributed():
    spans = [
        FakeSpan(1, None, "warmup", "op", "pe0", 0.0, 5.0),       # set-up
        FakeSpan(2, None, "get", "op", "pe0", 10.0, 110.0),
        FakeSpan(3, 2, "slot_wait", "mailbox", "mb", 10.0, 14.0),
        FakeSpan(4, 2, "header_write", "mailbox", "mb", 14.0, 16.0),
        FakeSpan(5, 4, "pio_copy", "driver", "drv", 14.0, 15.0),
        # the reply is served later, by a span whose parent already ended
        FakeSpan(6, 4, "onward_send", "service", "svc", 60.0, 100.0),
        FakeSpan(7, 6, "dma", "dma", "eng", 62.0, 92.0),
        FakeSpan(8, 7, "fc_stall", "link", "cable", 62.0, 64.0),
        FakeSpan(9, 7, "link_transit", "link", "cable", 90.0, 92.0),
        FakeSpan(10, None, "barrier", "op", "pe1", 20.0, 30.0),
    ]
    out = ledger.virtual_ledger(spans, since=10.0)
    assert out["obsv.spans"] == 9
    assert out["core.transfer.slot_wait_us"] == 4.0
    assert out["core.transfer.v_self_us"] == 4.0 + 1.0     # header minus pio
    assert out["ntb.driver.v_self_us"] == 1.0
    assert out["core.service.v_self_us"] == 10.0           # 40 minus dma 30
    assert out["core.service.relay_v_us"] == 40.0
    assert out["ntb.dma.v_self_us"] == 26.0                # 30 - stall - transit
    assert out["pcie.link.v_self_us"] == 2.0
    assert out["pcie.link.fc_stall_us"] == 2.0
    assert out["ledger.v_op_total_us"] == 110.0            # get + barrier
    # get: [10,16] and [60,100] covered by descendants; barrier: nothing
    assert out["ledger.v_unattributed_us"] == (100.0 - 46.0) + 10.0
    assert out["core.runtime.v_self_us"] == (100.0 - 6.0) + 10.0


# ---------------------------------------------------------------- percentiles

def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert ledger.percentile(values, 50) == 500
    assert ledger.percentile(values, 99) == 990     # ten samples beyond it
    assert ledger.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        ledger.percentile([], 50)


def test_p99_needs_a_thousand_samples():
    lat = {"put": [1.0] * 1000, "get": [2.0] * 1000, "barrier": [3.0] * 1000,
           "amo": [4.0] * 10}
    out = ledger.latency_metrics(lat)
    assert out["v_put_p99_us"] == 1.0 and out["v_amo_p50_us"] == 4.0
    assert "v_amo_p99_us" not in out       # AMOs report the median only
    lat["get"] = [2.0] * 999
    with pytest.raises(ValueError, match="p99 from 999 samples"):
        ledger.latency_metrics(lat)


def test_summarize_matches_the_contract_quartiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = ledger.summarize(values)
    assert (summary["q1"], summary["q3"], summary["n"]) == (q1, q3, 10)
    assert summary["value"] == summary["median"] == statistics.median(values)
    assert ledger.summarize([2.0]) == {"value": 2.0, "median": 2.0,
                                       "q1": 2.0, "q3": 2.0, "n": 1}
    assert ledger.summarize(values, 0.5)["value"] == 0.5


def test_segments_cut_every_repeat_at_the_same_ops():
    ticks = [10.0 + 0.5 * i for i in range(101)]       # 100 ops, 50 s
    segments = ledger.segment_times(ticks, 4)
    assert segments == [12.5] * 4 and sum(segments) == ticks[-1] - ticks[0]
    # uneven division: every tick interval lands in exactly one segment
    ticks = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]
    assert sum(ledger.segment_times(ticks, 3)) == 28.0
    assert ledger.segment_times(ticks, 100) == [1, 2, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        ledger.segment_times([1.0])


def test_quiet_total_is_blind_to_a_slow_episode_and_sees_a_slow_program():
    work = [1.0, 2.0, 3.0, 4.0]
    first = [1.0, 2.0 * 1.5, 3.0 * 1.5, 4.0]    # a neighbour, mid-run
    second = [1.0 * 1.3, 2.0, 3.0, 4.0 * 1.3]   # and at both ends
    assert ledger.quiet_total([first, second]) == sum(work)
    assert ledger.quiet_total([first]) == sum(first)
    slower = [[2 * s for s in first], [2 * s for s in second]]
    assert ledger.quiet_total(slower) == 2 * sum(work)
    with pytest.raises(ValueError, match="segment count"):
        ledger.quiet_total([work, work[:3]])


# ------------------------------------------------------------------- layering

def test_every_source_file_maps_to_exactly_one_layer():
    seen = set()
    for folder, _dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                layer = ledger.layer_of(os.path.join(folder, name))
                assert layer in ledger.LAYERS, (folder, name, layer)
                seen.add(layer)
    # every layer owns a file; the catch-all has bench, analysis and check
    assert seen == set(ledger.LAYERS)


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/core.py", "sim"),
    ("/x/src/repro/ntb/dma.py", "ntb"),
    ("/x/src/repro/fabric/router.py", "fabric"),
    ("/x/src/repro/core/runtime.py", "core.runtime"),
    ("/x/src/repro/core/api.py", "core.runtime"),
    ("/x/src/repro/core/transfer.py", "core.transfer"),
    ("/x/src/repro/core/service.py", "core.service"),
    ("/x/src/repro/core/barrier.py", "core.barrier"),
    ("/x/src/repro/core/fastpath.py", "core.fastpath"),
    ("/x/src/repro/bench/harness.py", "other"),
    ("/x/src/repro/__init__.py", "other"),
    ("/usr/lib/python3/site-packages/numpy/core/numeric.py", "other"),
    ("/x/benchmarks/trajectory/workloads.py", "other"),
    ("~", "other"),
])
def test_layer_of(path, layer):
    assert ledger.layer_of(path) == layer


@dataclass
class FakeEntry:
    code: object
    callcount: int
    inlinetime: float


def test_profile_rollup_shares_sum_to_one():
    def code(filename):
        return compile("pass", filename, "exec")

    entries = [
        FakeEntry(code("/r/src/repro/sim/core.py"), 10, 2.0),
        FakeEntry(code("/r/src/repro/sim/queues.py"), 8, 1.0),
        FakeEntry(code("/r/src/repro/core/fastpath.py"), 1, 0.5),
        # two generated functions that share one (file, line, name) label
        FakeEntry(code("<string>"), 7, 0.25),
        FakeEntry(code("<string>"), 93, 0.25),
        FakeEntry("<built-in method builtins.len>", 100, 0.5),
    ]
    out = ledger.rollup_profile(entries)
    assert out["sim.host_self_s"] == 3.0 and out["sim.py_calls"] == 18
    assert out["core.fastpath.py_calls"] == 1 and out["other.py_calls"] == 200
    assert out["faults.py_calls"] == 0
    shares = sum(out[f"{layer}.host_self_share"] for layer in ledger.LAYERS)
    assert abs(shares - 1.0) < 1e-12


def test_counter_totals_sum_the_right_keys():
    snapshot = {
        "sim.events_dispatched": 10.0,
        "host0.ntb.right.dma.requests": 2.0, "host1.ntb.x+.dma.requests": 3.0,
        "host0.ntb.right.dma.descriptors": 5.0,
        "host0.ntb.right.dma.descriptors_chained": 1.0,
        "host0.ntb.right<->host1.ntb.left.a2b.bytes": 100.0,
        "host0.ntb.right<->host1.ntb.left.b2a.dropped_bytes": 7.0,
        "pe0.right.data.sent": 4.0, "pe0.right.bypass.sent": 6.0,
        "pe3.retries": 1.0, "pe3.service.cut_throughs": 9.0,
        "faults.severs": 2.0, "pe0.puts": 99.0,
    }
    totals = ledger.counter_totals(snapshot)
    assert totals["ntb.dma.requests"] == 5.0
    assert totals["ntb.dma.descriptors"] == 5.0
    assert totals["ntb.dma.descriptors_chained"] == 1.0
    assert totals["pcie.link.bytes"] == 100.0
    assert totals["pcie.link.dropped_bytes"] == 7.0
    assert totals["core.mailbox.sent"] == 10.0
    assert totals["core.mailbox.relayed"] == 6.0
    assert totals["core.retries"] == 1.0 and totals["faults.severs"] == 2.0
    after = dict(snapshot, **{"pe0.right.bypass.sent": 16.0,
                              "sim.events_dispatched": 110.0})
    delta = ledger.counter_metrics(snapshot, after, attempted=20, bytes_ok=0)
    assert delta["sim.events_dispatched"] == 100.0
    assert delta["sim.events_per_op"] == 5.0
    assert delta["fabric.relay_msgs_per_op"] == 0.5
    assert delta["faults.severs"] == 0.0


# ---------------------------------------------------------------------- plans

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_seed_makes_one_plan(name):
    first = workloads.make_plan(name, 7)
    assert first == workloads.make_plan(name, 7)
    assert first != workloads.make_plan(name, 8)
    assert json.loads(json.dumps(first)) == first       # plain data only


def test_fastpath_twin_runs_the_same_plan():
    base = workloads.make_plan("ring8_mixed", 3)
    fast = workloads.make_plan("ring8_mixed_fastpath", 3)
    assert base["ops"] == fast["ops"]
    assert base["shmem"].pop("fastpath") is False
    assert fast["shmem"].pop("fastpath") is True
    for plan in (base, fast):
        plan.pop("workload")
    assert base == fast


def test_seeds_issue_the_same_work():
    # the order, peers and sizes classes are the workload; a seed moves
    # payload bytes, tails and compute times only
    a, b = (workloads.make_plan("ring8_mixed", seed) for seed in (1, 2))
    assert [[(op["kind"], op["peer"]) for op in pe] for pe in a["ops"]] == \
        [[(op["kind"], op["peer"]) for op in pe] for pe in b["ops"]]
    for pe in a["ops"]:
        puts = [op for op in pe if op["kind"] in ("put", "put_signal")]
        inline = [op for op in puts if op["kind"] == "put"
                  and op["size"] <= 48]
        assert len(puts) == 275 and len(inline) == 120


def test_ring8_puts_of_one_segment_never_overlap():
    plan = workloads.make_plan("ring8_mixed", 5)
    segment = plan["segment"]
    for start in range(0, len(plan["ops"][0]), segment):
        taken: dict[int, list[tuple[int, int]]] = {}
        for pe in plan["ops"]:
            for op in pe[start:start + segment]:
                if op["kind"] in ("put", "put_signal"):
                    taken.setdefault(op["peer"], []).append(
                        (op["off"], op["off"] + op["size"]))
        for spans in taken.values():
            spans.sort()
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
            assert spans[-1][1] <= plan["put_region"]


def test_mesh_severs_fall_in_the_pauses():
    plan = workloads.make_plan("mesh16_sever", 1)
    starts = [rnd["start_us"] for rnd in plan["rounds"]]
    assert starts == sorted(starts)
    for at_us, _a, _b in plan["shmem"]["severs"]:
        before = max(s for s in starts if s < at_us)
        after = min(s for s in starts if s > at_us)
        # detection takes 3 heartbeat periods of 500 us
        assert after - at_us >= 3000.0 and at_us - before >= 2000.0


def test_torus_antipode_is_six_hops_away():
    for pe in range(64):
        other = workloads._torus_antipode(pe)
        assert workloads._torus_antipode(other) == pe
        assert all(((pe // s) % 4 + 2) % 4 == (other // s) % 4
                   for s in (1, 4, 16))


def test_pattern_tells_slots_apart():
    whole = workloads.pattern(11, 4096)
    assert not (whole[:1024] == whole[1024:2048]).all()
    assert (workloads.pattern(11, 100) == whole[:100]).all()


# ------------------------------------------------------------------- watchdog

def test_watchdog_kills_a_sleeping_child():
    start = time.monotonic()
    code, out, _err = run.spawn(
        [sys.executable, "-c",
         "import time; print('started', flush=True); time.sleep(60)"],
        "", limit_s=1.0)
    assert code is None and "started" in out
    assert time.monotonic() - start < 10.0


def test_a_finished_child_keeps_its_exit_code():
    code, out, _err = run.spawn(
        [sys.executable, "-c", "import sys; print(sys.stdin.read()); "
                               "sys.exit(4)"], "hello", limit_s=30.0)
    assert code == 4 and out.strip() == "hello"


# ------------------------------------------------------------- BENCHMARK.json

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        recorded = json.load(fh)
    assert recorded == catalogue.benchmark_json(
        workloads.WORKLOADS, recorded["run_seconds"])


def test_catalogue_fits_the_contract():
    spec = catalogue.benchmark_json(workloads.WORKLOADS, 10)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher")
               for m in spec["end_to_end"] + spec["per_layer"])
