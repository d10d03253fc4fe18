"""AMO exactly-once across a dying link, on both data planes.

A remote atomic is not idempotent, so a retry must never apply it twice.
The requester retries the whole round trip under one request id: a
request the owner never saw (the hand-off failed, or a relay lost it) is
applied by the retry, and a request whose *reply* was lost is answered
from the owner's reply cache, keyed by (requester PE, request id),
without being applied again.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro import run_spmd
from repro.check.mutations import MUTATIONS
from repro.core import FastpathConfig, ShmemConfig
from repro.core.transfer import MsgKind
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


def _record_inline_sends(pe, sent: list) -> None:
    """Log ``(kind, bytes)`` of every inline bypass send ``pe`` makes."""
    for link in pe.rt.links.values():
        mailbox = link.bypass_mailbox

        def send_inline(msg, data, relay=False, _send=mailbox.send_inline):
            sent.append((msg.kind, int(data.nbytes)))
            return _send(msg, data, relay)

        mailbox.send_inline = send_inline


def _cut_after_apply(pe, cable, applies: int = 1) -> None:
    """Make the owner sever ``cable`` right after its ``applies``-th
    atomic: the replies it has not sent yet are lost."""
    apply = pe.rt.service.apply_amo_local
    seen = [0]

    def apply_then_cut(*args):
        old = yield from apply(*args)
        seen[0] += 1
        if seen[0] == applies:
            cable.sever()
        return old

    pe.rt.service.apply_amo_local = apply_then_cut


@pytest.mark.parametrize("plane", ["default", "fastpath"])
class TestAmoAtMostOnce:
    @pytest.mark.parametrize("mutation", [None, "amo-reapply"])
    def test_reply_lost_after_apply_is_replayed(self, plane, mutation):
        """The owner applies, then the cut eats its reply: the requester
        retries the same request id by the other way round and the owner
        answers from its cache.  Under the seeded ``amo-reapply`` bug
        (no cache) the retry adds 5 a second time."""
        sent: list = []

        def main(pe):
            me = pe.my_pe()
            cell = yield from pe.malloc(8)
            if me == OWNER:
                _cut_after_apply(pe, pe.rt.cluster.cable_between(0, 1))
            elif me == 0:
                _record_inline_sends(pe, sent)
            yield from pe.barrier_all()
            outcome = None
            if me == 0:
                retries = pe.rt.retries
                old = yield from pe.atomic_fetch_add(cell, 5, OWNER)
                outcome = ("returned", pe.rt.retries - retries,
                           len(pe.rt.pending)), old
            else:
                yield pe.rt.env.timeout(10_000.0)   # past detection
            return outcome, int(pe.read_symmetric_array(cell, 1, np.int64)[0])

        with MUTATIONS[mutation]() if mutation else nullcontext():
            report = _run(main, plane)
        outcome, old = report.results[0][0]
        assert outcome == ("returned", 1, 0)
        assert (old, report.results[OWNER][1]) == ((5, 10) if mutation
                                                   else (0, 5))
        assert (0, 1) in report.runtime(0).dead_edges
        # The operand rides its slot header on the fastpath only; the
        # default plane's inline sends are header-only control messages.
        assert (MsgKind.AMO_REQ in {kind for kind, _ in sent}) == (
            plane == "fastpath")
        assert all(nbytes == 0 for kind, nbytes in sent
                   if kind is not MsgKind.AMO_REQ)

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

    def test_request_lost_at_a_relay_retries_and_applies_once(self, plane):
        """Relay PE 1 cuts cable (1, 2) as the request reaches it, so the
        owner never sees it; the requester's wait fails once the cut is
        known and the retry, by 0 -> 3 -> 2, is applied."""
        def main(pe):
            me = pe.my_pe()
            cell = yield from pe.malloc(8)
            if me == 1:
                service = pe.rt.service
                forward = service._forward
                cable = pe.rt.cluster.cable_between(1, 2)

                def cut_then_forward(msg, *args):
                    if msg.kind is MsgKind.AMO_REQ:
                        cable.sever()
                    yield from forward(msg, *args)

                service._forward = cut_then_forward
            yield from pe.barrier_all()
            outcome = None
            if me == 0:
                old = yield from pe.atomic_fetch_add(cell, 5, OWNER)
                outcome = (old, pe.rt.retries, len(pe.rt.pending))
            else:
                yield pe.rt.env.timeout(10_000.0)
            return outcome, int(pe.read_symmetric_array(cell, 1, np.int64)[0])

        report = _run(main, plane)
        assert report.results[0][0] == (0, 1, 0)
        assert report.results[OWNER][1] == 5        # applied exactly once
        assert report.runtime(1).service.dropped_forwards + sum(
            m.failed_count for link in report.runtime(1).links.values()
            for m in (link.data_mailbox, link.bypass_mailbox)) >= 1

    def test_two_concurrent_amos_across_a_cut_each_apply_once(self, plane):
        """One PE has two AMOs in flight to the owner, and the cable dies
        after the owner applied both: each is retried under its own id and
        answered from the cache."""
        def main(pe):
            me = pe.my_pe()
            cell = yield from pe.malloc(8)
            if me == OWNER:
                _cut_after_apply(pe, pe.rt.cluster.cable_between(0, 1),
                                 applies=2)
            yield from pe.barrier_all()
            olds = None
            if me == 0:
                env = pe.rt.env
                first = env.process(pe.atomic_fetch_add(cell, 5, OWNER))
                second = env.process(pe.atomic_fetch_add(cell, 7, OWNER))
                olds = [(yield first), (yield second)]
            else:
                yield pe.rt.env.timeout(10_000.0)
            return olds, int(pe.read_symmetric_array(cell, 1, np.int64)[0])

        report = _run(main, plane)
        olds = report.results[0][0]
        assert sorted(olds) in ([0, 5], [0, 7])     # one order of the two
        assert report.results[OWNER][1] == 12       # each applied once
        # Both were still waiting when the cut was detected: each retried
        # once, and the owner answered both retries from its cache.
        assert report.runtime(0).retries == 2
        assert len(report.runtime(0).pending) == 0
