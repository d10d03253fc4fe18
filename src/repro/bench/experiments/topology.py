"""Topology scaling bench (``python -m repro.bench --topology``).

The same SPMD workload measured across ring x mesh x torus at
N = 4 / 16 / 64 hosts.

Per (topology, N) scenario the workload measures, in virtual time:

* ``put_round_us`` — mean wall of a round of concurrent 4 KiB puts,
  every PE targeting its antipodal partner (the worst-distance pairing
  that makes diameter differences visible: N/2 hops on a ring, |x|+|y|
  on a mesh, wrapped halves on a torus);
* ``get_round_us`` — the same pairing for Gets (request + response both
  traverse the fabric, so Get amplifies diameter 2x);
* ``barrier_us`` — mean of several back-to-back ``barrier_all`` rounds
  (ring token vs dissemination rounds);
* ``bisection_bytes_per_us`` — aggregate throughput with every PE
  streaming 32 KiB across the bisection at once — the figure where the
  torus's extra cables pay off over the ring's two.

A separate fault scenario runs a 4x4 mesh with a cable severed mid-run:
traffic must reroute around the hole (``reroutes > 0``) and the strict
final round must verify on every PE — the end-to-end proof that
dimension-order routing, the BFS detour and the relay plane compose.

The 64-host sweep triples the runtime; it is included only with
``include_slow=True``.  Display only: the exit code is
:attr:`TopologyBenchResult.targets_pass`.  Every figure is a deterministic
virtual-time measurement, pinned ``==`` (all three tiers and the fault
scenario) by ``tests/integration/test_pinned_figures.py``
(docs/SIMULATOR.md, "Where a figure is pinned").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ...core import PE, PeerUnreachableError, ShmemConfig, run_spmd
from ...fabric import ClusterConfig, RoutingPolicy
from ...faults import FaultPlan

__all__ = ["TopologyBenchResult", "run_topology_bench", "run_scenario",
           "run_fault_scenario", "SCENARIOS", "SLOW_SCENARIOS"]

#: latency-phase payload per put/get (bytes).
_SLOT = 4096
#: bisection-phase payload per PE (bytes).
_BISECTION_BYTES = 32 * 1024
#: rounds per latency phase / barrier phase.
_ROUNDS = 4
_BARRIER_ROUNDS = 4

#: (name, topology, n_hosts, dims) — the quick sweep (N = 4 and 16).
SCENARIOS: tuple = (
    ("ring4", "ring", 4, None),
    ("mesh2x2", "mesh", 4, (2, 2)),
    ("torus4", "torus", 4, (4,)),
    ("ring16", "ring", 16, None),
    ("mesh4x4", "mesh", 16, (4, 4)),
    ("torus4x4", "torus", 16, (4, 4)),
)

#: the 64-host tier (slow: ~3x the quick sweep's wall time).
SLOW_SCENARIOS: tuple = (
    ("ring64", "ring", 64, None),
    ("mesh8x8", "mesh", 64, (8, 8)),
    ("torus4x4x4", "torus", 64, (4, 4, 4)),
)

#: fault scenario shape: 4x4 mesh, one interior x-cable severed mid-run.
_FAULT_EDGE = (5, 6)
_FAULT_AT_US = 3_000.0
_FAULT_ROUNDS = 6
_FAULT_GAP_US = 1_500.0


def _pattern(rnd: int, sender: int, nbytes: int = _SLOT) -> np.ndarray:
    base = (rnd * 37 + sender * 11 + 1) & 0xFF
    return (np.arange(nbytes, dtype=np.uint16) * 7 + base).astype(np.uint8)


def _bench_body(pe: PE):
    """The per-PE workload: antipodal puts, gets, barriers, bisection."""
    me, n = pe.my_pe(), pe.num_pes()
    partner = (me + n // 2) % n
    writer = (me - n // 2) % n  # who puts into *my* slot
    sym = yield from pe.malloc(_SLOT)
    big = yield from pe.malloc(_BISECTION_BYTES)
    env = pe.rt.env
    timings: dict[str, float] = {}

    yield from pe.barrier_all()  # warm-up: spread of init costs ends here

    t0 = env.now
    for rnd in range(_ROUNDS):
        yield from pe.put_array(sym, _pattern(rnd, me), partner)
        yield from pe.barrier_all()
    timings["put_round_us"] = (env.now - t0) / _ROUNDS
    ok = bool(np.array_equal(pe.read_symmetric(sym, _SLOT),
                             _pattern(_ROUNDS - 1, writer)))

    t0 = env.now
    for rnd in range(_ROUNDS):
        got = yield from pe.get(sym, _SLOT, partner)
        ok = ok and bool(np.array_equal(
            got, _pattern(_ROUNDS - 1, (partner - n // 2) % n)))
    timings["get_round_us"] = (env.now - t0) / _ROUNDS

    yield from pe.barrier_all()
    t0 = env.now
    for _ in range(_BARRIER_ROUNDS):
        yield from pe.barrier_all()
    timings["barrier_us"] = (env.now - t0) / _BARRIER_ROUNDS

    t0 = env.now
    yield from pe.put_array(
        big, _pattern(99, me, _BISECTION_BYTES), partner)
    yield from pe.barrier_all()
    timings["bisection_us"] = env.now - t0
    ok = ok and bool(np.array_equal(
        pe.read_symmetric(big, _BISECTION_BYTES),
        _pattern(99, writer, _BISECTION_BYTES)))
    return {"ok": ok, **timings}


def run_scenario(name: str, topology: str, n: int,
                 dims: Optional[tuple] = None,
                 routing: Optional[RoutingPolicy] = None) -> dict[str, Any]:
    """One (topology, N) point of the sweep; all figures virtual-time."""
    config = ClusterConfig(n_hosts=n, topology=topology, dims=dims)
    report = run_spmd(_bench_body, n_pes=n, cluster_config=config,
                      shmem_config=ShmemConfig(routing=routing))
    ok = all(r["ok"] for r in report.results)
    # Concurrent phases: the slowest PE defines the round wall.
    phase = {key: max(r[key] for r in report.results)
             for key in ("put_round_us", "get_round_us", "barrier_us",
                         "bisection_us")}
    aggregate = n * _BISECTION_BYTES
    return {
        "name": name,
        "topology": topology,
        "n_hosts": n,
        "dims": list(dims) if dims else None,
        "router": report.runtimes[0].router.name,
        "cables": len(report.cluster.cables),
        "ok": ok,
        "virtual": {
            "elapsed_us": report.elapsed_us,
            "put_round_us": phase["put_round_us"],
            "get_round_us": phase["get_round_us"],
            "barrier_us": phase["barrier_us"],
            "bisection_bytes_per_us":
                aggregate / phase["bisection_us"],
            "events_dispatched":
                float(report.cluster.env.dispatched_events),
        },
    }


def _fault_body(pe: PE):
    """Rounds of antipodal traffic across a mid-run cable sever."""
    me, n = pe.my_pe(), pe.num_pes()
    partner = (me + n // 2) % n
    writer = (me - n // 2) % n
    sym = yield from pe.malloc(_SLOT)
    degraded = 0
    for rnd in range(_FAULT_ROUNDS):
        try:
            yield from pe.put_array(sym, _pattern(rnd, me), partner)
            yield from pe.barrier_all()
        except PeerUnreachableError:
            degraded += 1
        yield pe.rt.env.timeout(_FAULT_GAP_US)
    # Strict final round: by now every host has learned the dead edge and
    # must route around it.
    yield from pe.put_array(sym, _pattern(99, me), partner)
    yield from pe.barrier_all()
    final_ok = bool(np.array_equal(pe.read_symmetric(sym, _SLOT),
                                   _pattern(99, writer)))
    return {"final_ok": final_ok, "degraded": degraded}


def run_fault_scenario() -> dict[str, Any]:
    """4x4 mesh, interior cable severed mid-run; traffic must reroute."""
    plan = FaultPlan.single_sever(*_FAULT_EDGE, at_us=_FAULT_AT_US)
    config = ShmemConfig(faults=plan, max_retries=8,
                         retry_backoff_us=200.0)
    report = run_spmd(
        _fault_body, n_pes=16,
        cluster_config=ClusterConfig(n_hosts=16, topology="mesh",
                                     dims=(4, 4)),
        shmem_config=config,
        # degraded rounds skew per-PE allocation logs; payloads are
        # verified directly instead (same opt-out as the chaos demo).
        check_heap_consistency=False,
    )
    reroutes = sum(rt.reroutes for rt in report.runtimes)
    dropped = sum(rt.service.dropped_forwards for rt in report.runtimes
                  if rt.service is not None)
    return {
        "edge": list(_FAULT_EDGE),
        "sever_at_us": _FAULT_AT_US,
        "final_ok": all(r["final_ok"] for r in report.results),
        "virtual": {
            "elapsed_us": report.elapsed_us,
            "reroutes": float(reroutes),
            "degraded_rounds": float(
                sum(r["degraded"] for r in report.results)),
            "dropped_forwards": float(dropped),
        },
    }


@dataclass
class TopologyBenchResult:
    """The sweep's scenarios + fault scenario, and how to print them."""

    scenarios: list[dict[str, Any]]
    fault: dict[str, Any]
    include_slow: bool

    @property
    def targets_pass(self) -> bool:
        return (all(s["ok"] for s in self.scenarios)
                and self.fault["final_ok"]
                and self.fault["virtual"]["reroutes"] > 0)

    def render(self) -> str:
        lines = [
            f"{'scenario':<12} {'n':>3} {'router':<16} {'cables':>6} "
            f"{'put_us':>9} {'get_us':>9} {'barrier_us':>10} "
            f"{'bisect B/us':>11} {'ok':>3}"
        ]
        for s in self.scenarios:
            v = s["virtual"]
            lines.append(
                f"{s['name']:<12} {s['n_hosts']:>3} {s['router']:<16} "
                f"{s['cables']:>6} {v['put_round_us']:>9.1f} "
                f"{v['get_round_us']:>9.1f} {v['barrier_us']:>10.1f} "
                f"{v['bisection_bytes_per_us']:>11.1f} "
                f"{'ok' if s['ok'] else 'NO':>3}"
            )
        f = self.fault
        lines.append(
            f"fault (mesh4x4, sever {tuple(f['edge'])} at "
            f"{f['sever_at_us']:.0f}us): reroutes="
            f"{f['virtual']['reroutes']:.0f} degraded_rounds="
            f"{f['virtual']['degraded_rounds']:.0f} "
            f"final_ok={f['final_ok']}"
        )
        if not self.include_slow:
            lines.append("(64-host tier skipped; run with --topology-full "
                         "to include it)")
        return "\n".join(lines)


def run_topology_bench(include_slow: bool = False) -> TopologyBenchResult:
    """The full sweep (quick tiers; 64-host tier with ``include_slow``)."""
    sweep = SCENARIOS + (SLOW_SCENARIOS if include_slow else ())
    scenarios = [run_scenario(name, topology, n, dims)
                 for name, topology, n, dims in sweep]
    fault = run_fault_scenario()
    return TopologyBenchResult(scenarios=scenarios, fault=fault,
                               include_slow=include_slow)
