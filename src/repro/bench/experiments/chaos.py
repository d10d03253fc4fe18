"""Chaos demo: sever a ring cable mid-run and watch the fabric survive.

``python -m repro.bench --chaos [--chaos-seed N]`` runs a 4-host ring
through a put/barrier/verify workload while a :class:`repro.faults`
plan severs one cable at a seeded virtual time.  The expected story:

1. the send path hits the dead cable (master abort) and retries with
   backoff while the heartbeat monitors count silent periods;
2. within ``miss_threshold`` periods both endpoints declare the edge
   DEAD and send LINK_DOWN to every other host;
3. traffic re-routes in the opposite direction, barriers fall back to
   dissemination over the surviving path, and the workload completes
   with correct data.

Rounds that were cut mid-flight surface as typed
``PeerUnreachableError`` on the affected PEs (never a hang); the final
round runs strictly after recovery and must verify on every PE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core import PE, PeerUnreachableError, ShmemConfig, run_spmd
from ...faults import FaultPlan
from ..reporting import Row

__all__ = ["ChaosResult", "run_chaos_demo"]

#: virtual µs between workload rounds (long enough that the sweep spans
#: the whole sever window of FaultPlan.seeded_severs).
_ROUND_GAP_US = 2_500.0
_ROUNDS = 12
_SLOT = 256  # bytes each PE writes into its right neighbor


def _pattern(rnd: int, sender: int) -> np.ndarray:
    base = (rnd * 31 + sender * 7 + 1) & 0xFF
    return (np.arange(_SLOT, dtype=np.uint16) * 13 + base).astype(np.uint8)


@dataclass
class ChaosResult:
    rows: list[Row]
    seed: int
    plan: FaultPlan
    per_pe: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(stats["final_ok"] for stats in self.per_pe)

    def summary(self) -> str:
        lines = [f"chaos demo (seed={self.seed}): plan={self.plan}"]
        for pe_id, stats in enumerate(self.per_pe):
            lines.append(
                f"  pe{pe_id}: rounds_ok={stats['rounds_ok']} "
                f"degraded={stats['rounds_degraded']} "
                f"reroutes={stats['reroutes']} retries={stats['retries']} "
                f"dead_edges={stats['dead_edges']} "
                f"final_ok={stats['final_ok']}"
            )
        lines.append("  VERDICT: " + ("SURVIVED" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_chaos_demo(seed: int = 42, n_pes: int = 4) -> ChaosResult:
    """The ``--chaos`` workload; deterministic for a given seed."""
    plan = FaultPlan.seeded_severs(n_pes, seed, count=1)
    config = ShmemConfig(
        faults=plan,
        # Generous retry budget: the backoff sequence must outlast the
        # heartbeat detection window so mid-round severs re-route
        # instead of raising.
        max_retries=8,
        retry_backoff_us=200.0,
    )

    def body(pe: PE):
        me, n = pe.my_pe(), pe.num_pes()
        right = (me + 1) % n
        left = (me - 1) % n
        sym = yield from pe.malloc(n * _SLOT)
        stats = {"rounds_ok": 0, "rounds_degraded": 0, "rounds_dirty": 0,
                 "final_ok": False}
        last_seen_round = -1
        for rnd in range(_ROUNDS):
            # Every PE makes exactly one put attempt and one barrier
            # attempt per round, whatever fails: skipping a barrier call
            # would skew episode counts across PEs for good.
            put_ok = True
            try:
                yield from pe.put_array(
                    sym + me * _SLOT, _pattern(rnd, me), right)
            except PeerUnreachableError:
                put_ok = False
            barrier_ok = True
            try:
                yield from pe.barrier_all()
            except PeerUnreachableError:
                barrier_ok = False
            if put_ok and barrier_ok:
                got = yield from pe.get_array(
                    sym + left * _SLOT, _SLOT, np.uint8, me)
                if np.array_equal(got, _pattern(rnd, left)):
                    stats["rounds_ok"] += 1
                    last_seen_round = rnd
                else:
                    # My round survived but the left neighbor's put was
                    # cut: stale data, counted, not fatal mid-chaos.
                    stats["rounds_dirty"] += 1
            else:
                # The round was cut mid-flight: typed error, no hang.
                stats["rounds_degraded"] += 1
            yield pe.rt.env.timeout(_ROUND_GAP_US)
        # Strict final round: by now every PE routes around the dead
        # edge and barriers run the dissemination recovery.
        yield from pe.put_array(sym + me * _SLOT, _pattern(99, me), right)
        yield from pe.barrier_all()
        got = yield from pe.get_array(sym + left * _SLOT, _SLOT,
                                      np.uint8, me)
        stats["final_ok"] = bool(np.array_equal(got, _pattern(99, left)))
        stats["reroutes"] = pe.rt.reroutes
        stats["retries"] = pe.rt.retries
        stats["dead_edges"] = sorted(pe.rt.dead_edges)
        stats["last_clean_round"] = last_seen_round
        return stats

    # Heap offsets diverge across PEs when rounds degrade asymmetrically;
    # the demo verifies payload content itself.
    report = run_spmd(body, n_pes, shmem_config=config,
                      check_heap_consistency=False)
    per_pe = list(report.results)
    rows = [
        Row(experiment="chaos", series=f"pe{pe_id}", size=_SLOT,
            value=float(stats["rounds_ok"]), unit="rounds",
            extra={"degraded": stats["rounds_degraded"],
                   "reroutes": stats["reroutes"],
                   "final_ok": stats["final_ok"]})
        for pe_id, stats in enumerate(per_pe)
    ]
    return ChaosResult(rows=rows, seed=seed, plan=plan, per_pe=per_pe)
