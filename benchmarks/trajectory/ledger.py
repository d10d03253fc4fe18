"""The benchmark's own arithmetic: percentiles, run summaries and the three
outside-in ledgers (host time by layer, virtual time by span category,
exact counters).  Pure functions over plain data — nothing here imports
the program, so test_ledger.py exercises it on synthetic inputs.
"""

from __future__ import annotations

import math
import os
import re
import statistics
from typing import Any, Iterable, Mapping, Optional, Sequence

#: a p99 needs ten samples beyond it.
MIN_P99_SAMPLES = 1000

#: layers of the host-time ledger, in print order.
LAYERS = ("sim", "pcie", "memory", "host", "ntb", "fabric", "faults", "obsv",
          "core.runtime", "core.transfer", "core.service", "core.barrier",
          "core.fastpath", "other")

#: packages under src/repro that are layers in their own right.
_PACKAGE_LAYERS = ("sim", "pcie", "memory", "host", "ntb", "fabric", "faults",
                   "obsv")
#: core is split by module (ROADMAP item 2 targets these files); the rest
#: of core is the app-facing runtime.
_CORE_MODULES = {"transfer.py": "core.transfer", "service.py": "core.service",
                 "barrier.py": "core.barrier", "fastpath.py": "core.fastpath"}

#: span category -> metric that carries its self time.
CATEGORY_METRICS = {
    "op": "core.runtime.v_self_us",
    "mailbox": "core.transfer.v_self_us",
    "service": "core.service.v_self_us",
    "driver": "ntb.driver.v_self_us",
    "dma": "ntb.dma.v_self_us",
    "link": "pcie.link.v_self_us",
}
_RELAY_SPANS = ("bypass_forward", "onward_send")
_ROOT_OPS = ("put", "get", "amo", "barrier")


# ---------------------------------------------------------------- statistics

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always one of the samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_metrics(lat: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """``v_<op>_p50_us`` / ``v_<op>_p99_us`` per op class; AMOs report the
    median only.  A p99 from fewer than 1000 samples is an error: the
    workload is mis-sized, not the percentile."""
    out: dict[str, float] = {}
    for op in ("put", "get", "amo", "barrier"):
        samples = lat.get(op, ())
        if not samples:
            continue
        out[f"v_{op}_p50_us"] = percentile(samples, 50)
        if op == "amo":
            continue
        if len(samples) < MIN_P99_SAMPLES:
            raise ValueError(
                f"{op}: p99 from {len(samples)} samples "
                f"(needs >= {MIN_P99_SAMPLES})")
        out[f"v_{op}_p99_us"] = percentile(samples, 99)
    return out


def summarize(values: Sequence[float],
              value: Optional[float] = None) -> dict[str, float]:
    """Median, quartiles and n of one metric over repeated runs, and the
    ``value`` the metric reports: the median unless the caller has a
    better estimate (``quiet_total`` for ``wall_s``)."""
    n = len(values)
    if n == 0:
        raise ValueError("summary of no runs")
    if n == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"value": median if value is None else value,
            "median": median, "q1": q1, "q3": q3, "n": n}


#: pieces a run's measured phase is cut into for ``quiet_total``.
SEGMENTS = 32


def segment_times(ticks: Sequence[float], n: int = SEGMENTS) -> list[float]:
    """Cut one run into ``n`` segments of (nearly) equal op count.

    ``ticks`` are clock readings at the start of the measured phase, at
    each completed op and at its end.  The simulation is deterministic,
    so tick ``i`` is the same point of the same work in every repeat of
    one plan and segment ``k`` of one run can be compared with segment
    ``k`` of another."""
    if len(ticks) < 2:
        raise ValueError("a run needs a start and an end tick")
    n = min(n, len(ticks) - 1)
    cuts = [round(k * (len(ticks) - 1) / n) for k in range(n + 1)]
    return [ticks[b] - ticks[a] for a, b in zip(cuts, cuts[1:])]


def quiet_total(runs: Sequence[Sequence[float]]) -> float:
    """Seconds the measured phase takes when nothing disturbs it: each
    segment's fastest time over the repeats, summed.

    A busy neighbour on a shared host slows a run for seconds at a time
    (README, "Process model"): it can only add time, never take it away,
    so the fastest of several readings of the same work is the reading
    least disturbed, and a segment is short enough that every one of them
    meets a quiet moment in some repeat.  A slower program is slower in
    every repeat and still shows."""
    if len({len(run) for run in runs}) != 1:
        raise ValueError("repeats of one plan differ in segment count")
    return sum(min(column) for column in zip(*runs))


# ----------------------------------------------------------- host-time ledger

def layer_of(path: str) -> str:
    """Source path -> layer.  Every file under ``src/repro`` maps to exactly
    one layer; everything else (numpy, stdlib, builtins, the benchmark's
    own body) is ``other``."""
    parts = path.replace(os.sep, "/").split("/")
    for index in range(len(parts) - 1, 0, -1):
        if parts[index] == "repro" and parts[index - 1] == "src":
            rest = parts[index + 1:]
            break
    else:
        return "other"
    if len(rest) >= 2 and rest[0] in _PACKAGE_LAYERS:
        return rest[0]
    if len(rest) >= 2 and rest[0] == "core":
        return _CORE_MODULES.get(rest[1], "core.runtime")
    return "other"      # analysis, bench, check, package __init__


def rollup_profile(entries: Iterable[Any]) -> dict[str, float]:
    """``cProfile.Profile.getstats()`` entries -> ``<layer>.host_self_s`` /
    ``.host_self_share`` / ``.py_calls``.

    Not through ``pstats``: it keys functions by (file, line, name), under
    which every dataclass-generated ``__init__`` is ``<string>:2:__init__``
    and all but one of them are dropped — which one depends on the hash
    seed, so the counts would not repeat."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in entries:
        code = entry.code       # a code object, or a str for a builtin
        layer = layer_of(getattr(code, "co_filename", "~"))
        calls[layer] += entry.callcount
        self_s[layer] += entry.inlinetime
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = self_s[layer]
        out[f"{layer}.host_self_share"] = \
            self_s[layer] / total if total else 0.0
        out[f"{layer}.py_calls"] = calls[layer]
    return out


# -------------------------------------------------------- virtual-time ledger

def _covered(intervals: Iterable[tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Any]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    that its children cover.

    Children count whatever track they ran on: in this program every
    layer has a track of its own (op lane, mailbox, driver, DMA engine,
    cable), so a same-track rule would subtract nothing.  A child is
    clipped to its parent's interval (remote delivery outlives the put
    that caused it) and overlapping siblings are merged, not summed.
    """
    kids: dict[Optional[int], list[tuple[float, float]]] = {}
    for span in spans:
        if span.end is not None:
            kids.setdefault(span.parent_id, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start) - _covered(
            kids.get(span.span_id, ()), span.start, span.end)
        for span in spans if span.end is not None
    }


def virtual_ledger(spans: Sequence[Any], since: float) -> dict[str, float]:
    """Roll the span tree up by category for spans opened at or after
    virtual time ``since`` (the end of set-up)."""
    spans = [s for s in spans if s.end is not None and s.start >= since]
    own = self_times(spans)
    out = dict.fromkeys(CATEGORY_METRICS.values(), 0.0)
    out.update({"core.transfer.slot_wait_us": 0.0,
                "core.transfer.tx_wait_us": 0.0,
                "core.service.relay_v_us": 0.0,
                "pcie.link.fc_stall_us": 0.0})
    # spans arrive in id order and a parent opens before its children, so
    # one pass resolves every span's root op
    root_of: dict[int, int] = {}
    subtree: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        duration = span.end - span.start
        metric = CATEGORY_METRICS.get(span.category)
        if span.name == "fc_stall":
            out["pcie.link.fc_stall_us"] += duration
        elif metric is not None:
            out[metric] += own[span.span_id]
        if span.name in ("slot_wait", "tx_wait"):
            out[f"core.transfer.{span.name}_us"] += duration
        elif span.name in _RELAY_SPANS or span.name.startswith("cut_through"):
            out["core.service.relay_v_us"] += duration
        root = root_of.get(span.parent_id)
        if root is None:
            root_of[span.span_id] = span.span_id
        else:
            root_of[span.span_id] = root
            subtree.setdefault(root, []).append((span.start, span.end))
    op_total = unattributed = 0.0
    for span in spans:
        if span.parent_id is None and span.category == "op" \
                and span.name in _ROOT_OPS:
            duration = span.end - span.start
            op_total += duration
            unattributed += duration - _covered(
                subtree.get(span.span_id, ()), span.start, span.end)
    out["ledger.v_op_total_us"] = op_total
    out["ledger.v_unattributed_us"] = unattributed
    out["obsv.spans"] = len(spans)
    return out


# ------------------------------------------------------------- exact counters

#: metric -> registry keys summed into it.
_COUNTER_KEYS = {
    "sim.events_dispatched": r"sim\.events_dispatched",
    "sim.events_scheduled": r"sim\.events_scheduled",
    "sim.slab_reused": r"sim\.slab_reused",
    "ntb.dma.requests": r"host\d+\.ntb\.[^.]+\.dma\.requests",
    "ntb.dma.bytes": r"host\d+\.ntb\.[^.]+\.dma\.bytes",
    "ntb.dma.descriptors": r"host\d+\.ntb\.[^.]+\.dma\.descriptors",
    "ntb.dma.descriptors_chained":
        r"host\d+\.ntb\.[^.]+\.dma\.descriptors_chained",
    "ntb.db.rung": r"host\d+\.ntb\.[^.]+\.db\.rung",
    "ntb.db.irqs": r"host\d+\.ntb\.[^.]+\.db\.irqs",
    "ntb.db.dropped": r"host\d+\.ntb\.[^.]+\.db\.dropped",
    "ntb.pio.master_aborts": r"host\d+\.ntb\.[^.]+\.pio\.master_aborts",
    "pcie.link.bytes": r".*<->.*\.(a2b|b2a)\.bytes",
    "pcie.link.dropped_bytes": r".*<->.*\.(a2b|b2a)\.dropped_bytes",
    "core.mailbox.sent": r"pe\d+\.[^.]+\.(data|bypass)\.sent",
    "core.mailbox.inline": r"pe\d+\.[^.]+\.(data|bypass)\.inline",
    "core.mailbox.failed": r"pe\d+\.[^.]+\.(data|bypass)\.failed",
    "core.mailbox.relayed": r"pe\d+\.[^.]+\.bypass\.sent",
    "core.service.cut_throughs": r"pe\d+\.service\.cut_throughs",
    "core.service.coalesced_wakes": r"pe\d+\.service\.coalesced_wakes",
    "core.service.dropped_forwards": r"pe\d+\.service\.dropped_forwards",
    "core.retries": r"pe\d+\.retries",
    "core.reroutes": r"pe\d+\.reroutes",
    "core.wait_timeouts": r"pe\d+\.wait_timeouts",
    "fabric.heartbeat.misses": r"heartbeat\.misses",
    "faults.severs": r"faults\.severs",
}
_COUNTER_RES = {name: re.compile(rx) for name, rx in _COUNTER_KEYS.items()}


def counter_totals(snapshot: Mapping[str, float]) -> dict[str, float]:
    """Sum a ``MetricsRegistry.snapshot()`` into per-layer counters."""
    out = dict.fromkeys(_COUNTER_RES, 0.0)
    for key, value in snapshot.items():
        for name, rx in _COUNTER_RES.items():
            if rx.fullmatch(key):
                out[name] += value
    return out


def counter_metrics(before: Mapping[str, float], after: Mapping[str, float],
                    attempted: int, bytes_ok: int) -> dict[str, float]:
    """Counters of the measured phase (after minus before) plus the ratios
    derived from them.  ``sim.events_per_s`` needs the wall clock and is
    added by the caller."""
    start, end = counter_totals(before), counter_totals(after)
    out = {name: end[name] - start[name] for name in end}
    relayed = out.pop("core.mailbox.relayed")
    ops = max(1, attempted)
    out["sim.events_per_op"] = out["sim.events_dispatched"] / ops
    out["fabric.relay_msgs_per_op"] = relayed / ops
    out["pcie.wire_efficiency"] = \
        bytes_ok / out["pcie.link.bytes"] if out["pcie.link.bytes"] else 0.0
    return out
