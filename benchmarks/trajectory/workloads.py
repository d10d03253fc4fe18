"""The five trajectory workloads: seed -> plan (plain data) -> SPMD body.

``make_plan(name, seed)`` runs in the parent and returns JSON-serialisable
data only; ``build(plan, ...)`` runs in the child and turns that data into
the cluster/runtime configuration and the per-PE generator body.  The
program under test never sees the seed, only the generated inputs.

Every workload issues all four op classes (put, get, fetching AMO,
barrier) so the same end-to-end metric names exist everywhere, and is
sized so that each of put / get / barrier has at least 1000 timed samples
(the p99 rule).  Every payload is checked against its pattern; an op that
raises a typed error or fails its check counts in ``Recorder.failed``.

The shape of a workload (order of the work, op mix, peers, derangements,
size classes) is fixed.  A seed decides the payload bytes, a compute time
of a few microseconds before each op (PEs of a real program do not issue
in lockstep) and a tail of under 64 bytes taken off each nominal payload
size.  So every seed issues the same work, seeds differ by fractions of a
percent in the steady metrics, and a commit is compared with its parent
on equal inputs.

Why each workload exists (the layer it loads, the layer it bypasses) is
recorded in ``WORKLOADS[name]`` and, at length, in README.md.
"""

from __future__ import annotations

import random
import time
from typing import Any, Generator

import numpy as np

PAPER_SIZES = [1 << k for k in range(10, 20)]

#: name -> why it exists (one line; README.md has the long form).
WORKLOADS: dict[str, str] = {
    "ring3_sweep":
        "paper testbed, 1 KiB-512 KiB put/get sweep: virtual time is "
        "PCIe serialization, DMA descriptors and PIO copies; routing, "
        "relays and barriers do almost nothing",
    "torus64_antipodal":
        "4x4x4 torus, 4 KiB ops over up to 6 hops on 64 hosts: "
        "routing, service relays, dissemination barrier and a deep "
        "event queue do the work; PCIe serialization is negligible",
    "ring8_mixed":
        "8-ring, seeded mix of small put/get/AMO/put_signal on the "
        "default plane: per-op fixed costs (slot wait, header PIO, "
        "doorbell, ISR, service wake) dominate; bytes barely matter",
    "ring8_mixed_fastpath":
        "the same plan as ring8_mixed on the fastpath plane (inline, "
        "coalesced wakes, chained DMA, cut-through): the pair shows "
        "whether a change moved either plane",
    "mesh16_sever":
        "4x4 mesh with two cables severed mid-run: the only workload "
        "where fault injection, heartbeat, BFS detours and the "
        "fault-aware barrier run at all",
}


def pattern(base: int, nbytes: int) -> np.ndarray:
    """Deterministic payload; differs between any two 256-byte-aligned
    slices of one buffer, so a misplaced slot fails its check."""
    idx = np.arange(nbytes, dtype=np.uint32)
    return ((idx * 7 + (idx >> 8) * 13 + base) & 0xFF).astype(np.uint8)


# --------------------------------------------------------------------- plans

#: ring3_sweep: timed ops per (engine, hops) series at each paper size;
#: falls with size so the 512 KiB points do not dominate the run.
#: 4 series x sum(reps) = 1024 puts and as many gets.
_SWEEP_REPS = {1 << 10: 56, 1 << 11: 48, 1 << 12: 40, 1 << 13: 32,
               1 << 14: 28, 1 << 15: 20, 1 << 16: 14, 1 << 17: 10,
               1 << 18: 5, 1 << 19: 3}
_SWEEP_BARRIER_ROUNDS = 256      # + 80 sweep barriers, x 3 PEs >= 1000
_SWEEP_AMOS = 96                 # per PE
_SWEEP_STREAM_ROUNDS = 4
_THINK_US = 4                    # per-op compute time is below this

_TORUS_DIMS = (4, 4, 4)
_TORUS_ROUNDS = 16
_TORUS_AMO_ROUNDS = 2
_TORUS_BARRIER_ROUNDS = 8
_SLOT = 4096
_BISECTION_BYTES = 32 * 1024

_MIX_OPS = 500
_MIX_SEGMENT = 32
#: closing bare barriers so barrier percentiles rest on >= 1000 samples
#: (16 segment barriers + 112 rounds, x 8 PEs = 1024).
_MIX_BARRIER_ROUNDS = 112
_MIX_KINDS = (("put", 250), ("get", 125), ("amo", 100), ("put_signal", 25))
#: nominal payload sizes per kind, weighted to small; the first three fit
#: the fastpath's 48-byte inline limit.  120 of the 275 put-class ops are
#: inline-sized, so the median put is a 256-byte-class one on both planes
#: and moves with its payload size (an inline put costs the same for any
#: size, which would make the median a constant).
_MIX_SIZES = {
    "put": ((8, 50), (32, 40), (48, 30), (256, 65), (4096, 45), (65536, 20)),
    "get": ((8, 30), (32, 25), (48, 20), (256, 25), (4096, 20), (65536, 5)),
    "put_signal": ((8, 5), (32, 5), (48, 5), (256, 5), (4096, 5)),
}
_MIX_GET_REGION = 128 * 1024

_MESH_DIMS = (4, 4)
_MESH_ROUNDS = 64
_MESH_GETS = 64                  # per PE, all before the first cable goes
#: fault-phase schedule in absolute virtual time: a fault plan is fixed
#: before the run, so the rounds are pinned to the same clock
#: (``_mesh_round_start``); each sever falls 500 us into a PAUSE in which
#: every PE computes, long enough for
#: the heartbeat detector (3 x 500 us) to mark the cable dead.  Traffic
#: that crosses a cut cable before it is marked is dropped without an
#: error (README, "known bad inputs"), and a workload may not fail.
_MESH_ROUND0_US = 80_000.0
#: a round is a put, every fourth round an AMO, and a barrier; the period
#: leaves every PE idle before the next round starts, so puts never queue
#: behind relayed traffic of the round before (that made v_put_p99_us sit
#: on a cliff between 70 and 90 us, depending on the seed).
_MESH_PERIOD_US = 1_500.0
_MESH_AMO_EVERY = 4
_MESH_AMO_PERIOD_US = 3_500.0
_MESH_PAUSE_US = 4_000.0
#: (cut before round, host_a, host_b); the mesh stays connected.
_MESH_SEVERS = ((4, 5, 6), (16, 9, 10))


def _tail(rng: random.Random, nominal: int) -> int:
    """Payload size for a nominal size: a seeded tail of under 64 bytes
    comes off anything that does not fit an inline header."""
    return nominal - rng.randrange(64) if nominal >= 256 else nominal


def _think(rng: random.Random, count: int = 0):
    """Seeded compute time(s) in virtual us, below ``_THINK_US``."""
    if count:
        return [_think(rng) for _ in range(count)]
    return round(rng.uniform(0.0, _THINK_US), 3)


def _plan_ring3(shape: random.Random, rng: random.Random) -> dict[str, Any]:
    n = 3
    points = [{"mode": mode, "hops": hops, "nominal": size,
               "reps": _SWEEP_REPS[size]}
              for mode in ("DMA", "MEMCPY") for hops in (1, 2)
              for size in PAPER_SIZES]
    shape.shuffle(points)
    for point in points:
        point["size"] = _tail(rng, point["nominal"])
        point["pat"] = rng.randrange(256)
        point["think_us"] = _think(rng, 2 * point["reps"])
    return {
        "n_pes": n,
        "cluster": {"topology": "ring"},
        "shmem": {},
        "points": points,
        "region": max(p["reps"] * p["nominal"] for p in points),
        # [peer, value, think] per PE: all three PEs at once, so the
        # owners' service threads are contended; two in three go one hop
        "amos": [[[peer, rng.randrange(1, 10), _think(rng)]
                  for peer in _shuffled_multiset(
                      shape, [((me + 1) % n, 2 * _SWEEP_AMOS // 3),
                              ((me + 2) % n, _SWEEP_AMOS // 3)])]
                 for me in range(n)],
        "barrier_think_us": [_think(rng, n)
                             for _ in range(_SWEEP_BARRIER_ROUNDS)],
        "stream": [{"pat": rng.randrange(256),
                    "size": _tail(rng, PAPER_SIZES[-1]),
                    "think_us": _think(rng, n)}
                   for _ in range(_SWEEP_STREAM_ROUNDS)],
    }


def _derangement(rng: random.Random, n: int) -> list[int]:
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n)):
            return perm


def _torus_antipode(pe: int) -> int:
    out, stride = 0, 1
    for dim in _TORUS_DIMS:
        coord = (pe // stride) % dim
        out += ((coord + dim // 2) % dim) * stride
        stride *= dim
    return out


def _plan_torus64(shape: random.Random, rng: random.Random) -> dict[str, Any]:
    n = 64
    antipodal = [_torus_antipode(pe) for pe in range(n)]
    return {
        "n_pes": n,
        "cluster": {"topology": "torus", "dims": list(_TORUS_DIMS)},
        "shmem": {},
        # even rounds: the antipode (6 hops); odd rounds: anyone else
        "rounds": [{"partners": antipodal if rnd % 2 == 0
                    else _derangement(shape, n),
                    "pat": rng.randrange(256),
                    "size": _tail(rng, _SLOT),
                    "put_think_us": _think(rng, n),
                    "get_think_us": _think(rng, n)}
                   for rnd in range(_TORUS_ROUNDS)],
        "amo_rounds": _TORUS_AMO_ROUNDS,
        "barrier_think_us": [_think(rng, n)
                             for _ in range(_TORUS_BARRIER_ROUNDS)],
        "bisection": {"pat": rng.randrange(256),
                      "size": _tail(rng, _BISECTION_BYTES)},
    }


def _shuffled_multiset(rng: random.Random, counts) -> list:
    items = [value for value, count in counts for _ in range(count)]
    rng.shuffle(items)
    return items


def _plan_ring8(shape: random.Random, rng: random.Random,
                fastpath: bool) -> dict[str, Any]:
    """A fixed multiset of (kind, nominal size) per PE in seeded order with
    seeded peers, so every seed issues the same work and only its
    interleaving differs."""
    n = 8
    ops: list[list[dict[str, Any]]] = []
    for me in range(n):
        kinds = _shuffled_multiset(shape, _MIX_KINDS)
        sizes = {kind: _shuffled_multiset(shape, counts)
                 for kind, counts in _MIX_SIZES.items()}
        others = [pe for pe in range(n) if pe != me]
        peers = _shuffled_multiset(
            shape, [(pe, -(-_MIX_OPS // len(others))) for pe in others])
        mine = []
        for index, kind in enumerate(kinds):
            op: dict[str, Any] = {"kind": kind, "peer": peers[index],
                                  "think_us": _think(rng)}
            if kind == "amo":
                op["value"] = rng.randrange(1, 10)
            else:
                op["size"] = size = _tail(rng, sizes[kind].pop())
                op["pat"] = rng.randrange(256)
                if kind == "get":
                    op["off"] = 8 * shape.randrange(
                        (_MIX_GET_REGION - size) // 8)
            mine.append(op)
        ops.append(mine)
    # Pack each segment's incoming puts per target so none overlap and
    # every one of them can be checked after the segment's barrier.
    put_region = 0
    for start in range(0, _MIX_OPS, _MIX_SEGMENT):
        cursor = [0] * n
        for me in range(n):
            for op in ops[me][start:start + _MIX_SEGMENT]:
                if op["kind"] in ("put", "put_signal"):
                    op["off"] = cursor[op["peer"]]
                    cursor[op["peer"]] += -(-op["size"] // 8) * 8
        put_region = max(put_region, *cursor)
    return {
        "n_pes": n,
        "cluster": {"topology": "ring"},
        "shmem": {"routing": "SHORTEST", "fastpath": fastpath},
        "ops": ops,
        "segment": _MIX_SEGMENT,
        "put_region": put_region,
        "get_region": _MIX_GET_REGION,
        "get_pats": [rng.randrange(256) for _ in range(n)],
        "barrier_think_us": [_think(rng, n)
                             for _ in range(_MIX_BARRIER_ROUNDS)],
    }


def _mesh_round_start(rnd: int) -> float:
    pauses = sum(1 for before, _, _ in _MESH_SEVERS if before <= rnd)
    amo_rounds = -(-rnd // _MESH_AMO_EVERY)
    return (_MESH_ROUND0_US + pauses * _MESH_PAUSE_US
            + amo_rounds * _MESH_AMO_PERIOD_US
            + (rnd - amo_rounds) * _MESH_PERIOD_US)


def _plan_mesh16(rng: random.Random) -> dict[str, Any]:
    n = 16
    severs = [[_mesh_round_start(before) - _MESH_PAUSE_US + 500.0, a, b]
              for before, a, b in _MESH_SEVERS]
    return {
        "n_pes": n,
        "cluster": {"topology": "mesh", "dims": list(_MESH_DIMS)},
        "shmem": {"max_retries": 8, "retry_backoff_us": 200.0,
                  "severs": severs},
        "get_pat": rng.randrange(256),
        "get_size": _tail(rng, _SLOT),
        "get_think_us": [_think(rng, n) for _ in range(_MESH_GETS)],
        "amo_every": _MESH_AMO_EVERY,
        "rounds": [{"pat": rng.randrange(256),
                    "size": _tail(rng, _SLOT),
                    "start_us": _mesh_round_start(rnd)}
                   for rnd in range(_MESH_ROUNDS)],
    }


def make_plan(name: str, seed: int) -> dict[str, Any]:
    """Generate the inputs of workload ``name`` from ``seed`` (parent side)."""
    # the fastpath twin shares its sibling's stream: byte-identical plans.
    stream = "ring8_mixed" if name == "ring8_mixed_fastpath" else name
    shape = random.Random(stream)
    rng = random.Random(f"{stream}:{seed}")
    if name == "ring3_sweep":
        plan = _plan_ring3(shape, rng)
    elif name == "torus64_antipodal":
        plan = _plan_torus64(shape, rng)
    elif name in ("ring8_mixed", "ring8_mixed_fastpath"):
        plan = _plan_ring8(shape, rng, fastpath=name.endswith("_fastpath"))
    elif name == "mesh16_sever":
        plan = _plan_mesh16(rng)
    else:
        raise ValueError(f"unknown workload {name!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    plan["workload"] = name
    plan["seed"] = seed
    return plan


# ------------------------------------------------------------------ recorder

class Recorder:
    """What one run measured, filled in by the bodies of all PEs (they
    share one interpreter, so plain attributes do)."""

    OPS = ("put", "get", "amo", "barrier")
    #: the host clock of ``setup_s`` and ``wall_s``: CPU seconds of the
    #: thread the simulator runs on.  It is one thread and does no I/O, so
    #: on a quiet machine this reads within 1 % of ``perf_counter``
    #: (child.py reports that too, as ``elapsed_s``); unlike it, it does
    #: not count time a neighbour held the core (README, "Process model").
    #: Not ``process_time``: that adds the spinning of the BLAS worker
    #: threads numpy starts on import, 0.06-0.16 s of a 0.12 s set-up.
    clock = staticmethod(time.thread_time)

    def __init__(self, n_pes: int, setup_only: bool = False, on_start=None,
                 on_end=None):
        self.n_pes = n_pes
        self.setup_only = setup_only
        self.lat: dict[str, list[float]] = {op: [] for op in self.OPS}
        self.attempted = 0
        self.failed = 0
        self.bytes_ok = 0
        self.errors: list[str] = []
        #: ring3_sweep only: one row per sweep half point (see its body).
        self.rows: list[list] = []
        self._on_start = on_start
        self._on_end = on_end
        self._past_warmup = 0
        self._returned = 0
        #: host clock at the start of the measured phase, at each completed
        #: op (of any PE) and at its end: what ``ledger.segment_times`` cuts.
        self.ticks: list[float] = []
        self.wall_start = self.wall_end = None
        self.v_start = self.v_end = None

    # -- phase marks ---------------------------------------------------------
    def warmup(self, pe) -> Generator:
        """Warm-up barrier; set-up ends when the last PE is past it."""
        yield from pe.barrier_all()
        self._past_warmup += 1
        if self._past_warmup == self.n_pes:
            self.v_start = pe.rt.env.now
            if self._on_start is not None:
                self._on_start()
            self.wall_start = time.perf_counter()
            self.ticks.append(self.clock())

    def done(self, pe) -> None:
        self._returned += 1
        if self._returned == self.n_pes:
            self.ticks.append(self.clock())
            self.wall_end = time.perf_counter()
            self.v_end = pe.rt.env.now
            if self._on_end is not None:
                self._on_end()

    # -- timed ops -----------------------------------------------------------
    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 8:
            self.errors.append(what)

    def timed(self, kind: str, pe, op: Generator,
              think_us: float = 0) -> Generator:
        """Compute for ``think_us``, then run ``op`` as one attempted op of
        class ``kind``; returns ``(ok, value)``.  A typed runtime error is
        a failed op."""
        from repro.core import ShmemError

        env = pe.rt.env
        if think_us:
            yield env.timeout(think_us)
        self.attempted += 1
        start = env.now
        try:
            value = yield from op
        except ShmemError as exc:
            self.fail(f"pe{pe.my_pe()} {kind}: {type(exc).__name__}: {exc}")
            self.ticks.append(self.clock())
            return False, None
        self.lat[kind].append(env.now - start)
        self.ticks.append(self.clock())
        return True, value

    def barrier(self, pe, think_us: float = 0) -> Generator:
        ok, _ = yield from self.timed("barrier", pe, pe.barrier_all(),
                                      think_us)
        return ok

    def check(self, what: str, got: np.ndarray, want: np.ndarray) -> bool:
        """One transferred payload against its pattern."""
        if np.array_equal(got, want):
            self.bytes_ok += want.size
            return True
        self.fail(f"{what}: payload mismatch")
        return False


# -------------------------------------------------------------------- bodies

def _series(point: dict[str, Any]) -> str:
    """The paper's legend spelling (repro.bench.harness shape checks)."""
    engine = "DMA" if point["mode"] == "DMA" else "memcpy"
    return f"{engine} {point['hops']} hop{'s' if point['hops'] > 1 else ''}"


def _body_ring3(plan: dict[str, Any], rec: Recorder):
    from repro.core import Mode

    #: [op, series, nominal size, bytes, mean latency, barrier-after
    #: latency] per point: what the Fig. 9/10 shape checks are run on.
    rows = rec.rows

    def body(pe) -> Generator:
        me, n = pe.my_pe(), pe.num_pes()
        env = pe.rt.env
        region = yield from pe.malloc(plan["region"])
        stream = yield from pe.malloc(PAPER_SIZES[-1])
        ctr = yield from pe.malloc(8)
        src = pe.local_alloc(plan["region"])
        yield from rec.warmup(pe)
        if rec.setup_only:
            return

        # sweep: PE 0 is the single initiator (the paper's Fig. 9 protocol)
        for point in plan["points"]:
            mode, size, reps = Mode[point["mode"]], point["size"], point["reps"]
            target, think = point["hops"] % n, point["think_us"]
            if me in (0, target):
                want = pattern(point["pat"], reps * size)
            if me == 0:
                src.write(want)
                first = len(rec.lat["put"])
                for i in range(reps):
                    yield from rec.timed("put", pe, pe.put_from(
                        region + i * size, src, size, target, mode=mode,
                        src_offset=i * size), think[i])
                lat = rec.lat["put"][first:]
                put_mean = sum(lat) / max(1, len(lat))
                start = env.now
            yield from rec.barrier(pe)
            if me == 0:
                rows.append(["put", _series(point), point["nominal"], size,
                             put_mean, env.now - start])
            if me == target:
                got = pe.read_symmetric(region, reps * size)
                for i in range(reps):
                    rec.check(f"sweep put {_series(point)} {size}B #{i}",
                              got[i * size:(i + 1) * size],
                              want[i * size:(i + 1) * size])
            if me == 0:
                first = len(rec.lat["get"])
                for i in range(reps):
                    ok, got = yield from rec.timed("get", pe, pe.get(
                        region + i * size, size, target, mode=mode),
                        think[reps + i])
                    if ok:
                        rec.check(f"sweep get {_series(point)} {size}B #{i}",
                                  got, want[i * size:(i + 1) * size])
                lat = rec.lat["get"][first:]
                rows.append(["get", _series(point), point["nominal"], size,
                             sum(lat) / max(1, len(lat)), None])
            yield from rec.barrier(pe)

        # Table I: fetching AMO and the bare barrier, all PEs at once
        for peer, value, think_us in plan["amos"][me]:
            yield from rec.timed("amo", pe, pe.atomic_fetch_add(
                ctr, value, peer), think_us)
        for think in plan["barrier_think_us"]:
            yield from rec.barrier(pe, think[me])
        mine = [value for amos in plan["amos"] for peer, value, _ in amos
                if peer == me]
        if int(pe.read_symmetric_array(ctr, 1, np.int64)[0]) != sum(mine):
            rec.fail(f"pe{me}: AMO counter mismatch", len(mine))

        # Fig. 8(d) shape: every PE streams 512 KiB to its right neighbour
        for rnd, shot in enumerate(plan["stream"]):
            src.write(pattern(shot["pat"] + me, shot["size"]))
            yield from rec.timed("put", pe, pe.put_from(
                stream, src, shot["size"], (me + 1) % n), shot["think_us"][me])
            yield from rec.barrier(pe)
            rec.check(f"pe{me} stream round {rnd}",
                      pe.read_symmetric(stream, shot["size"]),
                      pattern(shot["pat"] + (me - 1) % n, shot["size"]))
        rec.done(pe)

    return body


def _body_torus64(plan: dict[str, Any], rec: Recorder):
    rounds = plan["rounds"]
    writers = [{dst: src for src, dst in enumerate(rnd["partners"])}
               for rnd in rounds]
    final = len(rounds) - 1

    def body(pe) -> Generator:
        me = pe.my_pe()
        # two slots, used in turn: a PE that leaves the barrier early may
        # put round r+1 before its target has checked round r
        slots = yield from pe.malloc(2 * _SLOT)
        big = yield from pe.malloc(_BISECTION_BYTES)
        ctr = yield from pe.malloc(8)
        yield from rec.warmup(pe)
        if rec.setup_only:
            return

        for index, rnd in enumerate(rounds):
            sym, size = slots + (index % 2) * _SLOT, rnd["size"]
            partner = rnd["partners"][me]
            yield from rec.timed("put", pe, pe.put(
                sym, pattern(rnd["pat"] + me, size), partner),
                rnd["put_think_us"][me])
            if index < plan["amo_rounds"]:
                yield from rec.timed("amo", pe, pe.atomic_fetch_add(
                    ctr, index + 1, partner))
            yield from rec.barrier(pe)
            rec.check(f"pe{me} put round {index}", pe.read_symmetric(sym, size),
                      pattern(rnd["pat"] + writers[index][me], size))
        # ``sym`` still holds what the final round's writer put there
        for index, rnd in enumerate(rounds):
            peer = rnd["partners"][me]
            ok, got = yield from rec.timed("get", pe, pe.get(sym, size, peer),
                                           rnd["get_think_us"][me])
            if ok:
                rec.check(f"pe{me} get round {index}", got, pattern(
                    rounds[final]["pat"] + writers[final][peer], size))
        for think in plan["barrier_think_us"]:
            yield from rec.barrier(pe, think[me])
        want = sum(range(1, plan["amo_rounds"] + 1))
        if int(pe.read_symmetric_array(ctr, 1, np.int64)[0]) != want:
            rec.fail(f"pe{me}: AMO counter mismatch", plan["amo_rounds"])

        # bisection: every PE streams 32 KiB to its antipode at once
        shot = plan["bisection"]
        yield from rec.timed("put", pe, pe.put(
            big, pattern(shot["pat"] + me, shot["size"]),
            rounds[0]["partners"][me]))
        yield from rec.barrier(pe)
        rec.check(f"pe{me} bisection", pe.read_symmetric(big, shot["size"]),
                  pattern(shot["pat"] + writers[0][me], shot["size"]))
        rec.done(pe)

    return body


def _body_ring8(plan: dict[str, Any], rec: Recorder):
    n = plan["n_pes"]
    ops, segment = plan["ops"], plan["segment"]
    n_ops = len(ops[0])
    get_want = [pattern(pat, plan["get_region"]) for pat in plan["get_pats"]]
    # what lands on each PE per segment, and the totals it must end with
    incoming = [[[] for _ in range(0, n_ops, segment)] for _ in range(n)]
    amos = [[] for _ in range(n)]
    signals = [[0] * n for _ in range(n)]       # [target][source] -> count
    for src in range(n):
        for index, op in enumerate(ops[src]):
            if op["kind"] in ("put", "put_signal"):
                incoming[op["peer"]][index // segment].append(op)
            if op["kind"] == "put_signal":
                signals[op["peer"]][src] += 1
            elif op["kind"] == "amo":
                amos[op["peer"]].append(op["value"])

    def body(pe) -> Generator:
        me = pe.my_pe()
        # two halves, used by alternate segments (see torus64 slots)
        put_halves = yield from pe.malloc(2 * plan["put_region"])
        get_region = yield from pe.malloc(plan["get_region"])
        sig = yield from pe.malloc(8 * n)
        ctr = yield from pe.malloc(8)
        pe.write_symmetric(get_region, get_want[me])
        yield from rec.warmup(pe)
        if rec.setup_only:
            return

        signalled = [0] * n
        for start in range(0, n_ops, segment):
            put_region = put_halves + \
                (start // segment % 2) * plan["put_region"]
            for op in ops[me][start:start + segment]:
                kind, peer, think_us = op["kind"], op["peer"], op["think_us"]
                if kind == "put":
                    yield from rec.timed("put", pe, pe.put(
                        put_region + op["off"],
                        pattern(op["pat"], op["size"]), peer), think_us)
                elif kind == "put_signal":
                    # the signal word carries this source's running count,
                    # so no PE ever blocks on a random peer
                    signalled[peer] += 1
                    yield from rec.timed("put", pe, pe.put_signal(
                        put_region + op["off"],
                        pattern(op["pat"], op["size"]), peer,
                        sig + 8 * me, signalled[peer]), think_us)
                elif kind == "get":
                    ok, got = yield from rec.timed("get", pe, pe.get(
                        get_region + op["off"], op["size"], peer), think_us)
                    if ok:
                        rec.check(f"pe{me} get from pe{peer}", got,
                                  get_want[peer][op["off"]:
                                                 op["off"] + op["size"]])
                else:
                    yield from rec.timed("amo", pe, pe.atomic_fetch_add(
                        ctr, op["value"], peer), think_us)
            yield from rec.barrier(pe)
            for op in incoming[me][start // segment]:
                rec.check(f"pe{me} incoming put", pe.read_symmetric(
                    put_region + op["off"], op["size"]),
                    pattern(op["pat"], op["size"]))
        for think in plan["barrier_think_us"]:
            yield from rec.barrier(pe, think[me])
        if int(pe.read_symmetric_array(ctr, 1, np.int64)[0]) != sum(amos[me]):
            rec.fail(f"pe{me}: AMO counter mismatch", len(amos[me]))
        got = pe.read_symmetric_array(sig, n, np.int64).tolist()
        if got != signals[me]:
            rec.fail(f"pe{me}: signal words {got} != {signals[me]}",
                     sum(a != b for a, b in zip(got, signals[me])))
        rec.done(pe)

    return body


def _body_mesh16(plan: dict[str, Any], rec: Recorder):
    n = plan["n_pes"]
    amos_ok = [0] * n   # per initiator; its partner's counter must match

    def body(pe) -> Generator:
        me = pe.my_pe()
        env = pe.rt.env
        partner = n - 1 - me        # point reflection: 2, 4 or 6 hops
        slots = yield from pe.malloc(2 * _SLOT)
        src = yield from pe.malloc(_SLOT)
        ctr = yield from pe.malloc(8)
        pe.write_symmetric(src, pattern(plan["get_pat"] + me, _SLOT))
        yield from rec.warmup(pe)
        if rec.setup_only:
            return

        # healthy mesh: gets only (a get over a detour may never return)
        size = plan["get_size"]
        want = pattern(plan["get_pat"] + partner, size)
        for think in plan["get_think_us"]:
            ok, got = yield from rec.timed("get", pe, pe.get(
                src, size, partner), think[me])
            if ok:
                rec.check(f"pe{me} get", got, want)
        yield from rec.barrier(pe)

        for index, rnd in enumerate(plan["rounds"]):
            start = rnd["start_us"]
            if env.now < start:
                yield env.timeout(start - env.now)      # compute
            elif index == 0:
                rec.fail(f"pe{me}: get phase overran the fault schedule")
            sym, size = slots + (index % 2) * _SLOT, rnd["size"]
            yield from rec.timed("put", pe, pe.put(
                sym, pattern(rnd["pat"] + me, size), partner))
            if index % plan["amo_every"] == 0:
                ok, _ = yield from rec.timed(
                    "amo", pe, pe.atomic_fetch_add(ctr, 1, partner))
                amos_ok[me] += ok
            yield from rec.barrier(pe)
            rec.check(f"pe{me} put round {index}", pe.read_symmetric(sym, size),
                      pattern(rnd["pat"] + partner, size))
        yield from rec.barrier(pe)
        # an AMO applied twice, or lost, shows here
        got = int(pe.read_symmetric_array(ctr, 1, np.int64)[0])
        if got != amos_ok[partner]:
            rec.fail(f"pe{me}: AMO counter {got} != {amos_ok[partner]}",
                     abs(got - amos_ok[partner]))
        rec.done(pe)

    return body


_BODIES = {
    "ring3_sweep": _body_ring3,
    "torus64_antipodal": _body_torus64,
    "ring8_mixed": _body_ring8,
    "ring8_mixed_fastpath": _body_ring8,
    "mesh16_sever": _body_mesh16,
}


def build(plan: dict[str, Any], rec: Recorder, trace_spans: bool = False):
    """Plan -> ``(body, ClusterConfig, ShmemConfig)`` (child side)."""
    from repro.core import FastpathConfig, ShmemConfig
    from repro.fabric import ClusterConfig, RoutingPolicy

    cluster = plan["cluster"]
    knobs = dict(plan["shmem"])
    shmem: dict[str, Any] = {"trace_spans": trace_spans}
    if "routing" in knobs:
        shmem["routing"] = RoutingPolicy[knobs.pop("routing")]
    if knobs.pop("fastpath", False):
        shmem["fastpath"] = FastpathConfig()
    if "severs" in knobs:
        from repro.faults import FaultPlan, SeverCable

        shmem["faults"] = FaultPlan([
            SeverCable(at_us, a, b) for at_us, a, b in knobs.pop("severs")])
    shmem.update(knobs)
    return (
        _BODIES[plan["workload"]](plan, rec),
        ClusterConfig(
            n_hosts=plan["n_pes"], topology=cluster["topology"],
            dims=tuple(cluster["dims"]) if "dims" in cluster else None),
        ShmemConfig(**shmem),
    )
