"""AMO at-most-once across a dying link, on both data planes.

A remote atomic is not idempotent, so the runtime retries only the
*request hand-off*: a send that failed never rang the doorbell and the
owner never saw it.  Once the doorbell has rung the owner may have
applied the operation — a reply lost after that point must surface as a
typed error, never as a second application.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.core import FastpathConfig, PeerUnreachableError, ShmemConfig
from repro.fabric import HeartbeatConfig

OWNER = 2          # two hops right of PE 0 on the 4-ring (0 -> 1 -> 2)


def _config(plane: str) -> ShmemConfig:
    # The backoff budget outlasts heartbeat detection (3 x 500 us), so a
    # hand-off that hit the dead cable lives to see the reroute.
    return ShmemConfig(
        heartbeat=HeartbeatConfig(), max_retries=8, retry_backoff_us=200.0,
        fastpath=FastpathConfig() if plane == "fastpath" else None)


def _run(main, plane: str):
    return run_spmd(main, 4, shmem_config=_config(plane),
                    check_heap_consistency=False, finalize=False)


@pytest.mark.parametrize("plane", ["default", "fastpath"])
class TestAmoAtMostOnce:
    def test_reply_lost_after_apply_is_final(self, plane):
        def main(pe):
            me = pe.my_pe()
            cell = yield from pe.malloc(8)
            cable = pe.rt.cluster.cable_between(0, 1)
            if me == OWNER:
                apply = pe.rt.service.apply_amo_local

                def apply_then_cut(*args):
                    old = yield from apply(*args)
                    cable.sever()       # AMO_RESP has not left yet
                    return old

                pe.rt.service.apply_amo_local = apply_then_cut
            yield from pe.barrier_all()
            outcome = None
            if me == 0:
                retries = pe.rt.retries
                try:
                    yield from pe.atomic_fetch_add(cell, 5, OWNER)
                    outcome = "returned"
                except PeerUnreachableError:
                    outcome = "typed"
                outcome = (outcome, pe.rt.retries - retries,
                           len(pe.rt.pending))
            else:
                yield pe.rt.env.timeout(10_000.0)   # past detection
            return outcome, int(pe.read_symmetric_array(cell, 1, np.int64)[0])

        report = _run(main, plane)
        assert report.results[0][0] == ("typed", 0, 0)
        assert report.results[OWNER][1] == 5        # applied exactly once
        assert (0, 1) in report.runtime(0).dead_edges
        inline = sum(link.bypass_mailbox.inline_count
                     for link in report.runtime(0).links.values())
        assert (inline > 0) == (plane == "fastpath")

    def test_dead_before_doorbell_retries_and_applies_once(self, plane):
        def main(pe):
            me = pe.my_pe()
            cell = yield from pe.malloc(8)
            yield from pe.barrier_all()
            outcome = None
            if me == 0:
                # Nobody has noticed yet: the first hand-offs go into the
                # dead cable, the later ones reroute 0 -> 3 -> 2.
                pe.rt.cluster.cable_between(0, 1).sever()
                old = yield from pe.atomic_fetch_add(cell, 5, OWNER)
                outcome = (old, pe.rt.retries, pe.rt.reroutes > 0,
                           len(pe.rt.pending))
            else:
                yield pe.rt.env.timeout(10_000.0)
            return outcome, int(pe.read_symmetric_array(cell, 1, np.int64)[0])

        report = _run(main, plane)
        old, retries, rerouted, pending = report.results[0][0]
        assert (old, rerouted, pending) == (0, True, 0)
        assert retries >= 1
        assert report.results[OWNER][1] == 5        # applied exactly once
        failed = sum(m.failed_count
                     for link in report.runtime(0).links.values()
                     for m in (link.data_mailbox, link.bypass_mailbox))
        assert failed >= retries
