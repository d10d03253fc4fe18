"""Fastpath data plane (``ShmemConfig.fastpath``): its mechanisms + safety.

Covers, per the PR issue:

* the default config stays **byte-identical** in virtual time — pinned
  in the ``golden`` section of ``tests/integration/pinned_figures.json``
  (numbers captured before the fastpath landed);
* acceptance ratios: large-Put throughput >= 3x, 2-hop 64 KB Get latency
  <= 0.6x, <= 32 B Put latency <= 0.5x baseline;
* functional correctness of inline messages, staged chained DMA and
  cut-through forwarding (contents verified end to end);
* the engine choice: a put or get with no ``mode`` takes the engine the
  closed form (``transfer.cheaper_mode``) names, and AMO replies and small
  Get responses ride inline;
* ordering: quiet()/fence and put_signal semantics hold under fastpath,
  and a get never overtakes an earlier put on its path;
* the fastpath runs sanitizer-clean and span-traced;
* config validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Mode, run_spmd
from repro.core import FastpathConfig, ShmemConfig
from repro.core.transfer import (
    FLAG_INLINE,
    INLINE_MAX_BYTES,
    KIND_FACTS,
    STAGED_ABOVE_BYTES,
    BypassMailbox,
    DataMailbox,
    cheaper_mode,
)
from repro.host import CostModel
from repro.ntb import DmaConfig

from ..conftest import pattern
from .test_golden_runs import check_golden, golden_run

FP = FastpathConfig()


def _fp_config(**kwargs) -> ShmemConfig:
    return ShmemConfig(fastpath=FastpathConfig(), **kwargs)


class TestDefaultByteIdentity:
    """The paper-faithful stack must not move by a single virtual ns."""

    def test_default_config_is_byte_identical(self):
        check_golden("default")

    def test_fastpath_same_results_different_timing(self):
        base, fast = golden_run("default"), golden_run("fastpath")
        # Functional values identical; the timing column strictly faster.
        for got, want in zip(fast.results, base.results):
            assert got[:3] == want[:3]
        assert fast.elapsed_us < base.elapsed_us


class TestDefaultPlane:
    """``fastpath=None`` is a property of the run, not of the import
    graph: the one service class takes none of its fastpath branches."""

    @staticmethod
    def _relayed_main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        sym = yield from pe.malloc(16 * 1024)
        ctr = yield from pe.malloc(8)
        yield from pe.barrier_all()
        yield from pe.put_array(sym, np.full(16 * 1024, me, np.uint8),
                                (me + 2) % n)
        yield from pe.atomic_fetch_add(ctr, 1, (me + 2) % n)
        yield from pe.barrier_all()
        got = yield from pe.get_array(sym, 16, np.uint8, (me + 2) % n)
        return int(got[0])

    @pytest.mark.parametrize("scenario", ["ring3", "chaos"])
    def test_default_plane_takes_no_fastpath_branch(self, scenario):
        # Both run through finalize: the teardown path is part of the claim.
        if scenario == "ring3":
            report = run_spmd(self._relayed_main, 3,
                              shmem_config=ShmemConfig(trace_spans=True))
            assert report.results == [0, 1, 2]  # my own bytes, relayed back
        else:
            report = check_golden("chaos", trace_spans=True)
        assert [span for span in report.scope.spans
                if span.name == "bypass_forward"]  # relays did happen
        for rt in report.runtimes:
            svc = rt.service
            assert not svc._fastpath
            assert (svc.cut_throughs, svc.cut_through_fallbacks,
                    svc.coalesced_wakes, svc.active_acks) == (0, 0, 0, 0)
            assert svc._ack_tail == {} and not svc._poll_idle
        # finalize cleared rt.links; the mailboxes' bound gauges outlive it.
        inline = {key: value for key, value
                  in report.metrics.snapshot().items()
                  if key.endswith((".data.inline", ".bypass.inline"))}
        assert len(inline) == 4 * len(report.runtimes)
        assert not any(value for key, value in inline.items()
                       if key.endswith(".data.inline"))
        # The default plane sends no inline bytes: its only inline sends
        # are header-only messages in transit (Fig. 5's bypass legs).
        header_only = [span for span in report.scope.spans
                       if span.name == "inline_write"]
        assert header_only and sum(inline.values()) == len(header_only)
        assert {span.args["nbytes"] for span in header_only} == {0}
        assert {span.args["kind"] for span in header_only} <= {
            kind.name for kind, facts in KIND_FACTS.items()
            if not facts.payload}
        assert not [span.name for span in report.scope.spans
                    if span.name.startswith("cut_through")]
        lever_keys = ("cut_throughs", "cut_through_fallbacks",
                      "coalesced_wakes")
        assert not [key for key in report.metrics.snapshot()
                    if ".service." in key and key.endswith(lever_keys)]


class TestAcceptanceRatios:
    """The PR's quantitative bar, measured by the --compare-fastpath grid."""

    @pytest.fixture(scope="class")
    def compare(self):
        from repro.bench.experiments.fastpath import run_fastpath_compare

        return run_fastpath_compare()

    def test_large_put_throughput_3x(self, compare):
        assert compare.ratios["put_MBps.512KB.1hop"] >= 3.0

    def test_two_hop_get_latency(self, compare):
        assert compare.ratios["get_us.64KB.2hop"] <= 0.6

    def test_inline_put_latency(self, compare):
        assert compare.ratios["put_us.32B.2hop"] <= 0.5
        assert compare.ratios["put_us.32B.1hop"] <= 0.5

    def test_all_targets_recorded(self, compare):
        assert compare.targets_pass


class TestInlineMessages:
    def test_inline_sizes_batch(self):
        """Every size 1..INLINE_MAX_BYTES arrives intact, 1 and 2 hops."""
        sizes = [1, 7, 8, 24, 32, INLINE_MAX_BYTES]

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            for hops in (1, 2):
                target = (me + hops) % n
                for i, size in enumerate(sizes):
                    yield from pe.put_array(
                        sym + (hops * 1024) + i * 64,
                        pattern(size, seed=me * 100 + hops * 10 + i),
                        target)
            yield from pe.barrier_all()
            ok = True
            for hops in (1, 2):
                src = (me - hops) % n
                for i, size in enumerate(sizes):
                    got = pe.read_symmetric_array(
                        sym + (hops * 1024) + i * 64, size, np.uint8)
                    want = pattern(size, seed=src * 100 + hops * 10 + i)
                    ok = ok and bool(np.array_equal(got, want))
            yield from pe.barrier_all()
            return ok

        report = run_spmd(main, 4, shmem_config=_fp_config())
        assert all(report.results)

    def test_inline_boundary_goes_regular(self):
        """INLINE_MAX_BYTES + 1 bytes must take the regular (non-inline)
        path."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            nbytes = INLINE_MAX_BYTES + 1
            yield from pe.put_array(sym, pattern(nbytes, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, nbytes, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(
                got, pattern(nbytes, seed=(me - 1) % n)))

        report = run_spmd(main, 3, shmem_config=_fp_config())
        assert all(report.results)

    def test_amo_rides_inline(self):
        """Remote atomics use the inline path (bypass mailbox traffic)."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            ctr = yield from pe.malloc(8)
            yield from pe.barrier_all()
            old = yield from pe.atomic_fetch_add(ctr, me + 1, (me + 1) % n)
            yield from pe.barrier_all()
            return int(old)

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert report.results == [0, 0, 0]
        bypass_sends = sum(
            link.bypass_mailbox.sent_count
            for rt in report.runtimes for link in rt.links.values())
        assert bypass_sends >= 3  # one inline AMO_REQ per PE


def _dma_requests(rt) -> int:
    """DMA requests the adapters of ``rt``'s host have completed."""
    return sum(link.driver.endpoint.dma.completed_requests
               for link in rt.links.values())


def _inline_sends(rt, side: str) -> int:
    return rt.links[side].bypass_mailbox.inline_count


class TestEngineChoice:
    """A fastpath put with no ``mode`` takes the engine the closed form
    charges less for its size and source pages; it is then that engine's
    explicit-mode put, event for event."""

    #: a source offset 96 B before a page end: 3 000 B from it span two.
    SPANNING = 4096 - 96

    @staticmethod
    def _put(config: ShmemConfig, size: int, offset: int,
             mode: Mode | None):
        """One 1-hop put on an idle fastpath 3-ring, timed to ``quiet``:
        (latency, DMA requests PE 0 issued, source page segments, the
        engine's counter key)."""
        def main(pe):
            sym = yield from pe.malloc(8192)
            src = pe.local_alloc(8192)
            src.write(pattern(8192, seed=5))
            yield from pe.barrier_all()
            out = None
            if pe.my_pe() == 0:
                yield pe.rt.env.timeout(1000.0)
                dma = _dma_requests(pe.rt)
                start = pe.rt.env.now
                yield from pe.put_from(sym, src, size, 1, mode=mode,
                                       src_offset=offset)
                yield from pe.quiet()
                out = (pe.rt.env.now - start, _dma_requests(pe.rt) - dma,
                       len(pe.rt.host.user_segments(src.virt + offset,
                                                    size)))
            yield from pe.barrier_all()
            if pe.my_pe() == 1:
                got = pe.read_symmetric_array(sym, size, np.uint8)
                assert np.array_equal(got,
                                      pattern(8192, seed=5)[offset:][:size])
            return out

        report = run_spmd(main, 3, shmem_config=config, finalize=False)
        engines = [key for key in report.metrics.snapshot()
                   if key in ("pe0.put.DMA", "pe0.put.MEMCPY")]
        return report.results[0] + (engines,)

    @pytest.mark.parametrize("size,offset", [
        (256, 0), (3000, 0), (3000, SPANNING), (3705, 0), (3706, 0),
        (4096, 0),
    ], ids=["256B", "3000B", "3000B-spanning", "3705B", "3706B", "4096B"])
    def test_unspecified_put_takes_the_named_engine(self, size, offset):
        took, dma, segments, engines = self._put(_fp_config(), size,
                                                 offset, None)
        named = cheaper_mode(size, CostModel(), DmaConfig(),
                             segments=segments,
                             staged=size > STAGED_ABOVE_BYTES)
        assert dma == (1 if named is Mode.DMA else 0)
        assert engines == [f"pe0.put.{named.name}"]
        explicit = self._put(_fp_config(), size, offset, named)
        assert took == explicit[0]
        assert explicit[1] == dma

    def test_the_page_boundary_moves_the_choice(self):
        # Around the crossover a second descriptor tips DMA over.
        aligned = cheaper_mode(3800, CostModel(), DmaConfig(), segments=1)
        spanning = cheaper_mode(3800, CostModel(), DmaConfig(), segments=2)
        assert (aligned, spanning) == (Mode.DMA, Mode.MEMCPY)
        assert self._put(_fp_config(), 3800, 0, None)[1] == 1
        assert self._put(_fp_config(), 3800, self.SPANNING, None)[1] == 0

    @pytest.mark.parametrize("config,mode", [
        (_fp_config(), Mode.DMA),
        (_fp_config(default_mode=Mode.DMA), None),
    ], ids=["mode", "default_mode"])
    def test_an_explicit_dma_still_forces_dma(self, config, mode):
        took, dma, _segments, engines = self._put(config, 256, 0, mode)
        assert dma == 1 and engines == ["pe0.put.DMA"]
        assert took > self._put(_fp_config(), 256, 0, None)[0]

    def test_gets_keep_dma(self):
        def main(pe):
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield from pe.get(sym, 1024, 1)
            yield from pe.barrier_all()

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert _dma_requests(report.runtimes[1]) == 1
        assert report.metrics.snapshot()["pe0.get.DMA"] == 1

    @pytest.mark.parametrize("size", [49, 695, 696, 1024, 64 * 1024])
    def test_unspecified_get_takes_the_named_engine(self, size):
        """A get with no ``mode`` takes the engine the closed form names
        for one response chunk read back uncached (memcpy below 696 B),
        and then costs what that engine's explicit-mode get costs."""
        def run(mode):
            def main(pe):
                sym = yield from pe.malloc(64 * 1024)
                yield from pe.barrier_all()
                took = None
                if pe.my_pe() == 0:
                    start = pe.rt.env.now
                    yield from pe.get(sym, size, 1, mode=mode)
                    took = pe.rt.env.now - start
                yield from pe.barrier_all()
                return took

            report = run_spmd(main, 3, shmem_config=_fp_config(),
                              finalize=False)
            engines = [key for key in report.metrics.snapshot()
                       if key in ("pe0.get.DMA", "pe0.get.MEMCPY")]
            return (report.results[0], _dma_requests(report.runtimes[1]),
                    engines)

        named = cheaper_mode(min(size, 8 * 1024), CostModel(), DmaConfig(),
                             uncached_drain=True)
        assert named is (Mode.MEMCPY if size < 696 else Mode.DMA)
        took, dma, engines = run(None)
        assert engines == [f"pe0.get.{named.name}"]
        # One DMA request per response chunk (none rides inline here).
        chunks = -(-size // (8 * 1024))
        assert dma == (chunks if named is Mode.DMA else 0)
        assert (took, dma) == run(named)[:2]


class TestInlineReplies:
    """On the fastpath an AMO reply and a Get response chunk of at most
    ``INLINE_MAX_BYTES`` ride their slot header, on every hop."""

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_fetch_add_reply_is_inline_on_every_hop(self, hops):
        def main(pe):
            me = pe.my_pe()
            ctr = yield from pe.malloc(8)
            if me == hops:
                pe.write_symmetric(ctr, np.array([100 * hops], np.int64))
            yield from pe.barrier_all()
            olds = None
            if me == 0:
                olds = [(yield from pe.atomic_fetch_add(ctr, 5, hops)),
                        (yield from pe.atomic_fetch_add(ctr, 7, hops))]
            yield from pe.barrier_all()
            return olds

        # A FIXED_RIGHT 4-ring: requests travel right, replies come back
        # left through PEs hops-1 .. 1.
        report = run_spmd(main, 4, shmem_config=_fp_config(),
                          finalize=False)
        assert report.results[0] == [100 * hops, 100 * hops + 5]
        replies = [_inline_sends(rt, "left") for rt in report.runtimes]
        assert replies == [0] + [2] * hops + [0] * (3 - hops)
        requests = [_inline_sends(rt, "right") for rt in report.runtimes]
        assert requests == [2] * hops + [0] * (4 - hops)

    def test_small_gets_ride_inline_and_issue_no_dma(self):
        sizes = (8, 32, INLINE_MAX_BYTES)

        def main(pe):
            me = pe.my_pe()
            sym = yield from pe.malloc(256)
            pe.write_symmetric(sym, pattern(256, seed=me))
            yield from pe.barrier_all()
            ok = True
            if me == 0:
                for hops in (1, 2):
                    for size in sizes:
                        got = yield from pe.get(sym + 64, size, hops)
                        ok = ok and bool(np.array_equal(
                            got, pattern(256, seed=hops)[64:64 + size]))
            yield from pe.barrier_all()
            return ok

        report = run_spmd(main, 4, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        # No DMA anywhere: not at the owners, not at relay PE 1.
        assert [_dma_requests(rt) for rt in report.runtimes] == [0] * 4
        # PE 1 answered three gets and relayed PE 2's three responses.
        assert _inline_sends(report.runtimes[1], "left") == 6
        assert _inline_sends(report.runtimes[2], "left") == 3

    # With no ``mode`` the get picks memcpy: 49 B is below the 696 B
    # crossover of a chunk read back through the uncached window.
    @pytest.mark.parametrize("mode,dma", [(None, 0), (Mode.MEMCPY, 0),
                                          (Mode.DMA, 1)])
    def test_a_49_byte_get_uses_the_callers_engine(self, mode, dma):
        size = INLINE_MAX_BYTES + 1

        def main(pe):
            sym = yield from pe.malloc(256)
            pe.write_symmetric(sym, pattern(256, seed=pe.my_pe()))
            yield from pe.barrier_all()
            ok = True
            if pe.my_pe() == 0:
                got = yield from pe.get(sym, size, 1, mode=mode)
                ok = bool(np.array_equal(got, pattern(256, seed=1)[:size]))
            yield from pe.barrier_all()
            return ok

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        owner = report.runtimes[1]
        assert _dma_requests(owner) == dma
        assert _inline_sends(owner, "left") == 0

    def test_a_streaming_get_ends_with_an_inline_chunk(self):
        size = 8 * 1024 + 16     # one full get_chunk, then 16 B

        def main(pe):
            sym = yield from pe.malloc(size)
            pe.write_symmetric(sym, pattern(size, seed=pe.my_pe()))
            yield from pe.barrier_all()
            ok = True
            if pe.my_pe() == 0:
                got = yield from pe.get(sym, size, 1)
                ok = bool(np.array_equal(got, pattern(size, seed=1)))
            yield from pe.barrier_all()
            return ok

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        owner = report.runtimes[1]
        assert _dma_requests(owner) == 1          # the 8 KiB chunk
        assert _inline_sends(owner, "left") == 1  # the 16 B tail


class TestStagedChainedDma:
    def test_large_put_content_and_counter(self):
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(512 * 1024)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(512 * 1024, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, 512 * 1024, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(
                got, pattern(512 * 1024, seed=(me - 1) % n)))

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        staged = sum(
            link.data_mailbox.staged_sends
            for rt in report.runtimes for link in rt.links.values())
        assert staged >= 3  # every PE staged its big neighbor put

    def test_single_page_not_staged(self):
        """<= 4 KiB payloads skip staging (one descriptor either way)."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(4096, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            return True

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        staged = sum(
            link.data_mailbox.staged_sends
            for rt in report.runtimes for link in rt.links.values())
        assert staged == 0

    def test_memcpy_mode_unaffected(self):
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(64 * 1024)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(64 * 1024, seed=me),
                                    (me + 1) % n, mode=Mode.MEMCPY)
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, 64 * 1024, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(
                got, pattern(64 * 1024, seed=(me - 1) % n)))

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        staged = sum(
            link.data_mailbox.staged_sends
            for rt in report.runtimes for link in rt.links.values())
        assert staged == 0


class TestCutThroughForwarding:
    def test_two_hop_streams_and_counts(self):
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256 * 1024)
            yield from pe.barrier_all()
            if me == 0:
                yield from pe.put_array(sym, pattern(256 * 1024, seed=9), 2)
            yield from pe.barrier_all()
            got = True
            if me == 2:
                got = bool(np.array_equal(
                    pe.read_symmetric_array(sym, 256 * 1024, np.uint8),
                    pattern(256 * 1024, seed=9)))
            yield from pe.barrier_all()
            return got

        report = run_spmd(main, 4, shmem_config=_fp_config(),
                          finalize=False)
        assert all(report.results)
        svc = report.runtimes[1].service  # the transit hop
        assert svc._fastpath
        assert svc.cut_throughs >= 1
        assert svc.active_acks == 0  # ordered-ack chain fully drained
        assert svc.dropped_forwards == 0

    def test_single_credit_falls_back_not_deadlocks(self):
        """bypass_slots=1 forces the fallback path; the transfer still
        completes with correct data (no hold-and-wait cycle)."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256 * 1024)
            yield from pe.barrier_all()
            if me == 0:
                yield from pe.put_array(sym, pattern(256 * 1024, seed=4), 2)
            yield from pe.barrier_all()
            got = True
            if me == 2:
                got = bool(np.array_equal(
                    pe.read_symmetric_array(sym, 256 * 1024, np.uint8),
                    pattern(256 * 1024, seed=4)))
            yield from pe.barrier_all()
            return got

        report = run_spmd(
            main, 4, shmem_config=_fp_config(bypass_slots=1),
            finalize=False)
        assert all(report.results)

    def test_coalescing_counter_moves(self):
        """Back-to-back chunk trains keep the thread in its poll window."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(512 * 1024)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(512 * 1024, seed=me),
                                    (me + 2) % n)
            yield from pe.barrier_all()
            return True

        report = run_spmd(main, 4, shmem_config=_fp_config(),
                          finalize=False)
        assert sum(rt.service.coalesced_wakes
                   for rt in report.runtimes) > 0


class TestOrderingUnderFastpath:
    def test_put_signal_never_overtakes_data(self):
        """The signal must land after the 2-hop data even though a bare
        8-byte put would have taken the inline bypass channel."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            data = yield from pe.malloc(64 * 1024)
            flag = yield from pe.malloc(8)
            yield from pe.barrier_all()
            if me == 0:
                yield from pe.put_signal(data, pattern(64 * 1024, seed=3),
                                         2, flag, 1)
            ok = True
            if me == 2:
                yield from pe.wait_until(flag, "==", 1)
                ok = bool(np.array_equal(
                    pe.read_symmetric_array(data, 64 * 1024, np.uint8),
                    pattern(64 * 1024, seed=3)))
            yield from pe.barrier_all()
            return ok

        report = run_spmd(main, 4, shmem_config=_fp_config())
        assert all(report.results)

    def test_quiet_covers_inline_nbi(self):
        """quiet() fences inline traffic: after it, the remote heap holds
        the bytes (ACK-complete), observable after a barrier."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256)
            yield from pe.barrier_all()
            buf = pe.local_alloc(32)
            buf.write(pattern(32, seed=50 + me))
            pe.put_nbi(sym, buf, 32, (me + 1) % n)
            yield from pe.quiet()
            for link in pe.rt.links.values():
                assert link.bypass_mailbox.idle
                assert link.data_mailbox.idle
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, 32, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(got,
                                       pattern(32, seed=50 + (me - 1) % n)))

        report = run_spmd(main, 3, shmem_config=_fp_config())
        assert all(report.results)

    def test_fence_then_get_sees_put(self):
        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(8192)
            yield from pe.barrier_all()
            if me == 0:
                yield from pe.put_array(sym, pattern(8192, seed=7), 1)
                yield from pe.fence()
                got = yield from pe.get_array(sym, 8192, np.uint8, 1)
                assert np.array_equal(got, pattern(8192, seed=7))
            yield from pe.barrier_all()
            return True

        report = run_spmd(main, 3, shmem_config=_fp_config())
        assert all(report.results)


class TestPerPathFifo:
    """A put and then a get of the same bytes from the same PE, with no
    quiet between them, reads the put's bytes: on both planes the
    request follows the put's chunks down one channel on every hop (a
    PE's own first hop aside, where the put's doorbell has rung before
    the request is posted), so it cannot overtake them at a relay."""

    SIZES = (8, 48, 49, 700, 3000, 4096, 70 * 1024)
    FABRICS = pytest.mark.parametrize("n,routing", [
        (3, None), (4, "shortest"), (8, "shortest"),
    ], ids=["ring3-default", "ring4-shortest", "ring8-shortest"])

    def _get_after_put(self, n, routing, config):
        size = max(self.SIZES)
        # The default ring route goes right, so every PE is a destination.
        dests = range(1, n if routing is None else n // 2 + 1)

        def main(pe):
            sym = yield from pe.malloc(size)
            yield from pe.barrier_all()
            stale = []
            if pe.my_pe() == 0:
                for dest in dests:
                    for nbytes in self.SIZES:
                        data = pattern(nbytes, seed=dest * 100 + nbytes % 97)
                        yield from pe.put(sym, data, dest)
                        got = yield from pe.get(sym, nbytes, dest)
                        if not np.array_equal(got, data):
                            stale.append((dest, nbytes))
            yield from pe.barrier_all()
            return stale

        report = run_spmd(main, n, shmem_config=config, finalize=False)
        assert report.results[0] == []
        assert max(report.runtimes[0].route_to(pe).hops for pe in dests) \
            == (2 if routing is None else n // 2)

    @FABRICS
    def test_a_get_reads_the_put_it_follows(self, n, routing):
        self._get_after_put(n, routing, _fp_config(routing=routing))

    @FABRICS
    def test_a_get_reads_the_put_it_follows_on_the_default_plane(
            self, n, routing):
        """A header-only request in transit rides a bypass slot, as the
        put's chunks do; on the last leg both take the data window."""
        self._get_after_put(n, routing, ShmemConfig(routing=routing))

    @pytest.mark.parametrize("n,plane", [
        (8, "fastpath"),
        (3, "default"),
        pytest.param(8, "default", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "an AMO word takes the data window on every hop and "
                "overtakes the put chunks still in transit; fence is "
                "first-hop quiet (ROADMAP: end-to-end delivery)"))),
    ], ids=["ring8-fastpath", "ring3-default", "ring8-default"])
    def test_fence_orders_an_amo_behind_a_put(self, n, plane):
        """Put 64 KiB, put 100·dest into a cell, fence, then fetch-add
        the cell: the AMO must read the put's value, at every distance
        of a SHORTEST ring."""
        dests = range(1, n // 2 + 1)

        def main(pe):
            sym = yield from pe.malloc(64 * 1024)
            cell = yield from pe.malloc(8)
            yield from pe.barrier_all()
            old = {}
            if pe.my_pe() == 0:
                for dest in dests:
                    yield from pe.put(sym, pattern(64 * 1024, seed=dest),
                                      dest)
                    yield from pe.p(cell, 100 * dest, dest)
                    yield from pe.fence()
                    old[dest] = yield from pe.atomic_fetch_add(cell, 1, dest)
            yield from pe.barrier_all()
            return old

        config = (_fp_config if plane == "fastpath" else ShmemConfig)(
            routing="shortest")
        report = run_spmd(main, n, shmem_config=config, finalize=False)
        assert report.results[0] == {dest: 100 * dest for dest in dests}


class TestObservability:
    def test_sanitizer_clean_and_spans_present(self):
        cfg = ShmemConfig(fastpath=FastpathConfig(), sanitize="strict",
                          trace_spans=True)

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256 * 1024)
            yield from pe.barrier_all()
            yield from pe.put_array(sym + me * 64, pattern(32, seed=me),
                                    (me + 2) % n)
            yield from pe.put_array(sym + 1024 + me * 4096,
                                    pattern(64 * 1024, seed=me),
                                    (me + 2) % n)
            yield from pe.barrier_all()
            return True

        report = run_spmd(main, 4, shmem_config=cfg)
        assert all(report.results)
        assert report.races == []
        names = {span.name for span in report.scope.spans}
        assert "inline_write" in names   # inline messages
        assert "cut_through" in names    # cut-through forwarding
        assert "stage_copy" in names     # staged chained DMA

    def test_streaming_get_single_request(self):
        """The streaming Get collapses the per-chunk request round
        trips."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(64 * 1024)
            yield from pe.barrier_all()
            if me == 0:
                got = yield from pe.get_array(sym, 64 * 1024, np.uint8, 1)
                assert got.nbytes == 64 * 1024
            yield from pe.barrier_all()
            return True

        fast = run_spmd(main, 3, shmem_config=_fp_config(),
                        finalize=False)
        # One GET_REQ total (aux ids start at 1; a chunked baseline get
        # would burn 8 request ids for 64KB at the 8KB default chunk).
        assert fast.runtimes[0]._next_req_id == 2


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShmemConfig(fastpath=FP, bypass_slots=0)
        with pytest.raises(ValueError):
            ShmemConfig(fastpath="yes")  # type: ignore[arg-type]

    def test_mailbox_types_selected(self):
        """The fastpath shapes the two ordinary mailboxes: a staging
        buffer each, a deeper credit pool, and staged sends ride
        chained descriptors; the default plane has none of them."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(512 * 1024)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(512 * 1024, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            return True

        def chained(report):
            return sum(value for key, value
                       in report.metrics.snapshot().items()
                       if key.endswith(".dma.descriptors_chained"))

        report = run_spmd(main, 3, shmem_config=_fp_config(),
                          finalize=False)
        for rt in report.runtimes:
            assert rt.service._fastpath
            for link in rt.links.values():
                assert type(link.data_mailbox) is DataMailbox
                assert type(link.bypass_mailbox) is BypassMailbox
                assert link.data_mailbox.staging.nbytes \
                    == rt.config.rx_data_size
                assert link.bypass_mailbox.staging.nbytes \
                    == rt.config.fwd_chunk
                assert link.bypass_mailbox.slots == 8
            assert rt.links["right"].data_mailbox.staged_sends == 1
        # 512 KiB in 128 KiB descriptors: 3 prefetched behind the first.
        assert chained(report) == 3 * 3

        plain = run_spmd(main, 3, finalize=False)
        for rt in plain.runtimes:
            assert not rt.service._fastpath
            for link in rt.links.values():
                assert link.data_mailbox.staging is None
                assert link.bypass_mailbox.staging is None
                assert link.bypass_mailbox.slots == rt.config.bypass_slots
                assert link.data_mailbox.staged_sends == 0
        assert chained(plain) == 0

    def test_flag_inline_wire_roundtrip(self):
        from repro.core.transfer import (
            Message, MsgKind, pack_header_bytes, unpack_header_bytes,
        )

        msg = Message(kind=MsgKind.PUT_DATA, mode=Mode.MEMCPY, src_pe=1,
                      dest_pe=2, offset=64, size=8, seq=3,
                      flags=FLAG_INLINE)
        raw = pack_header_bytes(msg, inline_data=b"\x01" * 8)
        back = unpack_header_bytes(np.frombuffer(raw, dtype=np.uint8))
        assert back == msg
        assert back.flags & FLAG_INLINE
