"""Fastpath data plane (``ShmemConfig.fastpath``): the four levers + safety.

Covers, per the PR issue:

* the default config stays **byte-identical** in virtual time — pinned
  in the ``golden`` section of ``tests/integration/pinned_figures.json``
  (numbers captured before the fastpath landed);
* acceptance ratios: large-Put throughput >= 3x, 2-hop 64 KB Get latency
  <= 0.6x, <= 32 B Put latency <= 0.5x baseline;
* functional correctness of inline messages, staged chained DMA and
  cut-through forwarding (contents verified end to end);
* ordering: quiet()/fence and put_signal semantics hold under fastpath;
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
    BypassMailbox,
    DataMailbox,
)

from ..conftest import pattern
from .test_golden_runs import check_golden, golden_run

FP = FastpathConfig()


def _fp_config(**kwargs) -> ShmemConfig:
    fp_kwargs = kwargs.pop("fp", {})
    return ShmemConfig(fastpath=FastpathConfig(**fp_kwargs), **kwargs)


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
    graph: the one service class takes none of its lever branches."""

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
            assert svc._fp is None and not svc._cut_through
            assert (svc.cut_throughs, svc.cut_through_fallbacks,
                    svc.coalesced_wakes, svc.active_acks) == (0, 0, 0, 0)
            assert svc._ack_tail == {} and not svc._poll_idle
        # finalize cleared rt.links; the mailboxes' bound gauges outlive it.
        inline = {key: value for key, value
                  in report.metrics.snapshot().items()
                  if key.endswith((".data.inline", ".bypass.inline"))}
        assert len(inline) == 4 * len(report.runtimes)
        assert not any(inline.values())
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
        """inline_max + 1 bytes must take the regular (non-inline) path."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(4096)
            yield from pe.barrier_all()
            nbytes = FP.inline_max + 1
            yield from pe.put_array(sym, pattern(nbytes, seed=me),
                                    (me + 1) % n)
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, nbytes, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(
                got, pattern(nbytes, seed=(me - 1) % n)))

        report = run_spmd(main, 3, shmem_config=_fp_config())
        assert all(report.results)

    def test_inline_disabled_by_config(self):
        """inline_max=0 keeps small puts on the regular path (slower but
        allowed) — and they still deliver."""

        def main(pe):
            me, n = pe.my_pe(), pe.num_pes()
            sym = yield from pe.malloc(256)
            yield from pe.barrier_all()
            yield from pe.put_array(sym, pattern(16, seed=me), (me + 1) % n)
            yield from pe.barrier_all()
            got = pe.read_symmetric_array(sym, 16, np.uint8)
            yield from pe.barrier_all()
            return bool(np.array_equal(got, pattern(16, seed=(me - 1) % n)))

        report = run_spmd(
            main, 3, shmem_config=_fp_config(fp={"inline_max": 0}))
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
        assert svc._cut_through
        assert svc.cut_throughs >= 1
        assert svc.active_acks == 0  # ordered-ack chain fully drained
        assert svc.dropped_forwards == 0

    def test_single_credit_falls_back_not_deadlocks(self):
        """credit_slots=1 forces the fallback path; the transfer still
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
            main, 4, shmem_config=_fp_config(fp={"credit_slots": 1}),
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


class TestSingleLeverOff:
    """Each boolean lever off alone (and ``inline_max=0``): payloads still
    verify, that lever's counter stays zero, every other lever's moves."""

    GET_BYTES = 64 * 1024

    @staticmethod
    def _main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        big, far = 512 * 1024, (me + 2) % n
        sym = yield from pe.malloc(big)
        small = yield from pe.malloc(64)
        yield from pe.barrier_all()
        # inline + inline relay; staged chain + cut-through + poll window
        yield from pe.put_array(small, pattern(32, seed=me), far)
        yield from pe.put_array(sym, pattern(big, seed=me), far)
        yield from pe.barrier_all()
        src = (me - 2) % n
        ok = (np.array_equal(pe.read_symmetric_array(small, 32, np.uint8),
                             pattern(32, seed=src))
              and np.array_equal(pe.read_symmetric_array(sym, big, np.uint8),
                                 pattern(big, seed=src)))
        if me == 0:  # the only request ids this PE ever burns
            got = yield from pe.get_array(
                sym, TestSingleLeverOff.GET_BYTES, np.uint8, 1)
            ok = ok and np.array_equal(
                got, pattern(big, seed=3)[:TestSingleLeverOff.GET_BYTES])
        yield from pe.barrier_all()
        return bool(ok)

    @pytest.mark.parametrize("lever", [
        "coalesce", "chain_dma", "cut_through", "streaming_get",
        "inline_max"])
    def test_single_lever_off(self, lever):
        config = _fp_config(
            fp={lever: 0 if lever == "inline_max" else False})
        report = run_spmd(self._main, 4, shmem_config=config,
                          finalize=False)
        assert all(report.results)
        mailboxes = [mailbox for rt in report.runtimes
                     for link in rt.links.values()
                     for mailbox in (link.data_mailbox, link.bypass_mailbox)]
        get_reqs = report.runtimes[0]._next_req_id - 1
        get_chunks = self.GET_BYTES // config.get_chunk
        activity = {
            "coalesce": sum(rt.service.coalesced_wakes
                            for rt in report.runtimes),
            "chain_dma": sum(
                value for key, value in report.metrics.snapshot().items()
                if key.endswith(".dma.descriptors_chained"))
            + sum(mailbox.staged_sends for mailbox in mailboxes),
            "cut_through": sum(rt.service.cut_throughs
                               for rt in report.runtimes),
            "streaming_get": get_chunks - get_reqs,  # round trips saved
            "inline_max": sum(mailbox.inline_count for mailbox in mailboxes),
        }
        assert activity.pop(lever) == 0
        assert all(count > 0 for count in activity.values()), activity
        assert get_reqs == (get_chunks if lever == "streaming_get" else 1)
        slots = (config.bypass_slots if lever == "cut_through"
                 else config.fastpath.credit_slots)
        assert all(link.bypass_mailbox.slots == slots
                   for rt in report.runtimes for link in rt.links.values())


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
        assert "inline_write" in names   # lever 4
        assert "cut_through" in names    # lever 3
        assert "stage_copy" in names     # lever 2

    def test_streaming_get_single_request(self):
        """streaming_get collapses the per-chunk request round trips."""

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
            FastpathConfig(credit_slots=0)
        with pytest.raises(ValueError):
            FastpathConfig(inline_max=INLINE_MAX_BYTES + 1)
        with pytest.raises(ValueError):
            ShmemConfig(fastpath="yes")  # type: ignore[arg-type]

    def test_mailbox_types_selected(self):
        """The levers shape the two ordinary mailboxes: a staging
        buffer each, a deeper credit pool, and staged sends ride
        chained descriptors."""

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
            assert rt.service._fp.coalesce and rt.service._cut_through
            for link in rt.links.values():
                assert type(link.data_mailbox) is DataMailbox
                assert type(link.bypass_mailbox) is BypassMailbox
                assert link.data_mailbox.staging.nbytes \
                    == rt.config.rx_data_size
                assert link.bypass_mailbox.staging.nbytes \
                    == rt.config.fwd_chunk
                assert link.bypass_mailbox.slots == FP.credit_slots
            assert rt.links["right"].data_mailbox.staged_sends == 1
        # 512 KiB in 128 KiB descriptors: 3 prefetched behind the first.
        assert chained(report) == 3 * 3

        plain = run_spmd(main, 3, shmem_config=_fp_config(
            fp={"chain_dma": False, "cut_through": False}), finalize=False)
        for rt in plain.runtimes:
            assert rt.service._fp.coalesce and not rt.service._cut_through
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
