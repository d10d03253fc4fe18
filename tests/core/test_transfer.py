"""Unit tests for the wire protocol: message codec and payload sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.core import (
    FastpathConfig,
    Mode,
    MsgKind,
    ProtocolError,
    ShmemConfig,
    TransferError,
)
from repro.core.transfer import (
    INLINE_MAX_BYTES,
    INLINE_PAYLOAD_OFFSET,
    PATH_MAX_PORTS,
    STAGED_ABOVE_BYTES,
    BypassMailbox,
    DataMailbox,
    DOORBELL_ACK_BYPASS,
    DOORBELL_ACK_DATA,
    DOORBELL_AMO,
    DOORBELL_DMAGET,
    DOORBELL_DMAPUT,
    FLAG_INLINE,
    FLAG_PATH,
    KIND_FACTS,
    Message,
    PayloadSource,
    SLOT_HEADER_BYTES,
    cheaper_mode,
    chunk_ranges,
    engine_costs,
    inline_room,
    pack_header_bytes,
    pack_message,
    unpack_header_bytes,
    unpack_message,
)
from repro.fabric import Cluster, ClusterConfig
from repro.host import CostModel, Host
from repro.ntb import DmaConfig, LinkDownError
from repro.ntb.device import BYPASS_WINDOW, DATA_WINDOW

from ..conftest import pattern, run_to_completion


class TestMessageCodec:
    def test_roundtrip_all_fields(self):
        msg = Message(
            kind=MsgKind.PUT_DATA, mode=Mode.MEMCPY,
            src_pe=3, dest_pe=7, offset=0x1234_5678,
            size=0xABCD_EF01, aux=0xDEAD_BEEF, seq=200,
        )
        assert unpack_message(pack_message(msg)) == msg

    @pytest.mark.parametrize("kind", list(MsgKind))
    def test_roundtrip_every_kind(self, kind):
        msg = Message(kind=kind, mode=Mode.DMA, src_pe=0, dest_pe=1,
                      offset=0, size=64, aux=1, seq=1)
        assert unpack_message(pack_message(msg)).kind is kind

    def test_header_bytes_roundtrip(self):
        msg = Message(kind=MsgKind.PUT_FWD, mode=Mode.DMA, src_pe=1,
                      dest_pe=2, offset=99, size=1000, aux=5, seq=9)
        raw = pack_header_bytes(msg)
        assert len(raw) == SLOT_HEADER_BYTES
        assert unpack_header_bytes(np.frombuffer(raw, np.uint8)) == msg

    def test_a_path_rides_the_slot_header_tail(self):
        # The longest path a header holds, beside the largest inline
        # payload that fits with it: 40 bytes, where one with no path
        # keeps 48.
        path = tuple(i % 6 for i in range(PATH_MAX_PORTS))
        msg = Message(kind=MsgKind.PUT_FWD, mode=Mode.MEMCPY, src_pe=1,
                      dest_pe=2, offset=99, size=40, aux=5, seq=9,
                      flags=FLAG_INLINE, path=path)
        data = bytes(range(1, 41))
        raw = pack_header_bytes(msg, data)
        assert len(raw) == SLOT_HEADER_BYTES
        assert (pack_message(msg)[0] >> 24) & FLAG_PATH
        assert raw[INLINE_PAYLOAD_OFFSET:INLINE_PAYLOAD_OFFSET + 40] == data
        assert unpack_header_bytes(np.frombuffer(raw, np.uint8)) == msg
        assert (inline_room(path), inline_room(())) == (40, INLINE_MAX_BYTES)
        with pytest.raises(ProtocolError, match="exceeds 40 bytes"):
            pack_header_bytes(msg, bytes(41))

    def test_a_path_the_header_cannot_hold_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="path fits"):
            Message(kind=MsgKind.GET_REQ, mode=Mode.DMA, src_pe=0,
                    dest_pe=1, offset=0, size=8,
                    path=(0,) * (PATH_MAX_PORTS + 1))
        # The ScratchPads carry no path, so they cannot carry its flag.
        msg = Message(kind=MsgKind.GET_REQ, mode=Mode.DMA, src_pe=0,
                      dest_pe=1, offset=0, size=8, path=(1,))
        with pytest.raises(ProtocolError, match="FLAG_PATH"):
            unpack_message(pack_message(msg))

    def test_bad_kind_rejected_on_unpack(self):
        with pytest.raises(ProtocolError):
            unpack_message((0xF << 28, 0, 0, 0))

    def test_wrong_reg_count_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_message((0, 0, 0))

    def test_field_limits_enforced(self):
        with pytest.raises(ProtocolError):
            Message(kind=MsgKind.PUT_DATA, mode=Mode.DMA, src_pe=256,
                    dest_pe=0, offset=0, size=1)
        with pytest.raises(ProtocolError):
            Message(kind=MsgKind.PUT_DATA, mode=Mode.DMA, src_pe=0,
                    dest_pe=0, offset=2**32, size=1)

    def test_doorbell_bit_mapping(self):
        assert set(KIND_FACTS) == set(MsgKind)
        assert KIND_FACTS[MsgKind.PUT_DATA].doorbell == DOORBELL_DMAPUT
        assert KIND_FACTS[MsgKind.PUT_FWD].doorbell == DOORBELL_DMAPUT
        assert KIND_FACTS[MsgKind.GET_REQ].doorbell == DOORBELL_DMAGET
        assert KIND_FACTS[MsgKind.GET_RESP].doorbell == DOORBELL_DMAGET
        assert KIND_FACTS[MsgKind.AMO_REQ].doorbell == DOORBELL_AMO

    def test_payload_classification(self):
        assert KIND_FACTS[MsgKind.PUT_DATA].payload
        assert KIND_FACTS[MsgKind.GET_RESP].payload
        assert not KIND_FACTS[MsgKind.GET_REQ].payload
        assert not KIND_FACTS[MsgKind.BARRIER_MSG].payload


class TestPayloadSource:
    def test_user_payload_segments_per_page(self, env):
        host = Host(env, 0)
        buffer = host.mmap(16 * 1024)
        payload = PayloadSource.from_user(host, buffer.virt, 16 * 1024)
        assert len(payload.segments()) == 4

    def test_pinned_payload_single_segment(self, env):
        host = Host(env, 0)
        pinned = host.alloc_pinned(16 * 1024)
        payload = PayloadSource.from_pinned(host, pinned, 0, 16 * 1024)
        assert len(payload.segments()) == 1

    def test_data_reads_bytes(self, env):
        host = Host(env, 0)
        buffer = host.mmap(4096)
        data = pattern(4096)
        host.write_user(buffer.virt, data)
        payload = PayloadSource.from_user(host, buffer.virt, 4096)
        assert np.array_equal(payload.data(), data)

    def test_pinned_offset_window(self, env):
        host = Host(env, 0)
        pinned = host.alloc_pinned(4096)
        data = pattern(4096, seed=4)
        host.memory.write(pinned.phys, data)
        payload = PayloadSource.from_pinned(host, pinned, 100, 200)
        assert np.array_equal(payload.data(), data[100:300])

    def test_overrun_rejected(self, env):
        host = Host(env, 0)
        pinned = host.alloc_pinned(1024)
        # DRAM granularity rounds the allocation up to a page.
        with pytest.raises(TransferError):
            PayloadSource.from_pinned(host, pinned, pinned.nbytes - 50, 100)

    def test_requires_exactly_one_source(self, env):
        host = Host(env, 0)
        with pytest.raises(TransferError):
            PayloadSource(host, nbytes=10)

    def test_zero_size_rejected(self, env):
        host = Host(env, 0)
        with pytest.raises(TransferError):
            PayloadSource.from_user(host, 0, 0)


class TestChunkRanges:
    def test_exact_division(self):
        assert list(chunk_ranges(100, 25)) == [
            (0, 25), (25, 25), (50, 25), (75, 25)
        ]

    def test_remainder(self):
        assert list(chunk_ranges(10, 4)) == [(0, 4), (4, 4), (8, 2)]

    def test_single_chunk(self):
        assert list(chunk_ranges(3, 100)) == [(0, 3)]

    def test_zero_total(self):
        assert list(chunk_ranges(0, 8)) == []

    def test_invalid_chunk(self):
        with pytest.raises(TransferError):
            list(chunk_ranges(10, 0))


class TestMailboxSendPath:
    """The one ``_transmit`` path, seen through its three public faces."""

    STAGING = 16 * 1024
    SLOT = 64 * 1024

    def _link(self, variant, staged):
        """Host 0's outgoing mailbox to host 1 on a bare 2-host line,
        with the peer's windows programmed and our ACK doorbell wired."""
        cluster = Cluster(ClusterConfig(n_hosts=2, topology="mesh", dims=(2,)))
        cluster.run_probe()
        env, host = cluster.env, cluster.host(0)
        tx, rx = cluster.driver(0, "x+"), cluster.driver(1, "x-")
        staging = host.alloc_pinned(self.STAGING) if staged else None
        if variant == "data":
            mailbox = DataMailbox(env, tx, spad_block=0, name="mb",
                                  staging=staging)
            ack_bit = DOORBELL_ACK_DATA
        else:
            mailbox = BypassMailbox(env, tx, slot_payload=self.SLOT, slots=1,
                                    name="mb", staging=staging)
            ack_bit = DOORBELL_ACK_BYPASS
        landing = self.landing = cluster.host(1).alloc_pinned(2 * self.SLOT)
        run_to_completion(
            env,
            rx.program_incoming(DATA_WINDOW, landing.phys, landing.nbytes),
            rx.program_incoming(BYPASS_WINDOW, landing.phys, landing.nbytes),
            rx.add_lut_entry((0 << 8) | 1, 1))
        tx.request_irq(ack_bit, lambda _bit: mailbox.on_ack())
        progress = []
        mailbox.on_progress = lambda: progress.append(env.now)

        def ack():
            run_to_completion(env, rx.ring_doorbell(ack_bit))
            env.run(until=env.now + 100.0)      # MSI + ISR

        return cluster, mailbox, ack, progress

    def _send(self, cluster, mailbox, variant, nbytes=256, relay=False,
              mode=Mode.DMA, pinned=False):
        host = cluster.host(0)
        inline = variant == "inline"
        nbytes = 32 if inline else nbytes
        msg = Message(kind=MsgKind.PUT_DATA, mode=mode, src_pe=0, dest_pe=1,
                      offset=0, size=nbytes, seq=mailbox.next_seq(),
                      flags=FLAG_INLINE if inline else 0)
        if inline:
            return mailbox.send_inline(msg, pattern(nbytes), relay=relay)
        if pinned:
            payload = PayloadSource.from_pinned(
                host, host.alloc_pinned(nbytes), 0, nbytes)
        else:
            mapping = host.mmap(nbytes)
            host.write_user(mapping.virt, pattern(nbytes))
            payload = PayloadSource.from_user(host, mapping.virt, nbytes)
        return mailbox.send(msg, payload, relay=relay)

    @pytest.mark.parametrize("variant", ["data", "bypass", "inline"])
    def test_slot_relay_reclaim_and_staging(self, variant):
        cluster, mailbox, ack, progress = self._link(variant, staged=True)
        env = cluster.env

        # The slot is held from the hand-off until the ACK doorbell.
        run_to_completion(env, self._send(cluster, mailbox, variant))
        assert (mailbox.sent_count, mailbox.in_flight,
                mailbox.free_slots) == (1, 1, 0)
        assert mailbox.inline_count == (variant == "inline")
        queued = env.process(
            self._send(cluster, mailbox, variant, relay=True))
        env.run(until=env.now + 1_000.0)
        assert queued.is_alive and mailbox.sent_count == 1
        assert not mailbox.idle and not mailbox.local_idle
        ack()
        env.run(until=queued)
        assert (mailbox.sent_count, mailbox.acked_count) == (2, 1)

        # A relay send is invisible to local_idle, but not to idle.
        assert mailbox.in_flight == 1
        assert mailbox.local_idle and not mailbox.idle
        ack()
        assert mailbox.idle and progress

        # Staged iff staging buffer, DMA, paged source, one page < n <= buf.
        if variant != "inline":
            for kwargs, staged in (
                    (dict(nbytes=8192), True),
                    (dict(nbytes=self.STAGING), True),
                    (dict(nbytes=4096), False),
                    (dict(nbytes=2 * self.STAGING), False),
                    (dict(nbytes=8192, pinned=True), False),
                    (dict(nbytes=8192, mode=Mode.MEMCPY), False)):
                before = mailbox.staged_sends
                run_to_completion(
                    env, self._send(cluster, mailbox, variant, **kwargs))
                assert mailbox.staged_sends - before == staged, kwargs
                ack()
            bare_cluster, bare, bare_ack, _ = self._link(variant, staged=False)
            run_to_completion(bare_cluster.env, self._send(
                bare_cluster, bare, variant, nbytes=8192))
            assert bare.staged_sends == 0

        # A hand-off into a severed cable takes its slot back.
        cluster.cable_between(0, 1).sever()
        sent, notified = mailbox.sent_count, len(progress)
        with pytest.raises(LinkDownError):
            run_to_completion(env, self._send(cluster, mailbox, variant))
        assert (mailbox.failed_count, mailbox.in_flight) == (1, 0)
        assert mailbox.sent_count == sent and mailbox.idle
        assert len(progress) == notified + 1

    def test_a_header_only_message_rides_a_slot_header(self):
        """A kind without payload goes inline with no bytes, and its
        ``size`` word (a Get's length) is its own; a payload kind's
        ``size`` must still match its inline bytes."""
        cluster, mailbox, _ack, _ = self._link("bypass", staged=False)
        request = Message(kind=MsgKind.GET_REQ, mode=Mode.DMA, src_pe=0,
                          dest_pe=1, offset=64, size=8192, aux=3,
                          seq=mailbox.next_seq(), flags=FLAG_INLINE)
        run_to_completion(cluster.env, mailbox.send_inline(
            request, np.zeros(0, np.uint8)))
        assert (mailbox.sent_count, mailbox.inline_count) == (1, 1)
        slot0 = cluster.host(1).memory.read(self.landing.phys, 16)
        assert unpack_header_bytes(slot0) == request
        put = Message(kind=MsgKind.PUT_DATA, mode=Mode.MEMCPY, src_pe=0,
                      dest_pe=1, offset=0, size=32, flags=FLAG_INLINE)
        with pytest.raises(ProtocolError, match="header size 32"):
            mailbox.send_inline(put, pattern(8))



class TestHeaderBlockUnderSever:
    """The four header registers are charged one by one but written, and
    read, at one instant — when the last charge ends: a cable cut
    anywhere inside the block behaves as a cut just before it, never
    half a header."""

    MSG = Message(kind=MsgKind.GET_REQ, mode=Mode.DMA, src_pe=0, dest_pe=1,
                  offset=64, size=128, aux=7, seq=1)

    @staticmethod
    def _pair():
        cluster = Cluster(ClusterConfig(n_hosts=2, topology="mesh", dims=(2,)))
        cluster.run_probe()
        tx, rx = cluster.driver(0, "x+"), cluster.driver(1, "x-")
        return (cluster, tx, rx,
                DataMailbox(cluster.env, tx, spad_block=0, name="tx"),
                DataMailbox(cluster.env, rx, spad_block=4, name="rx"))

    def _write_outcome(self, sever_after_us):
        cluster, tx, rx, sender, _receiver = self._pair()
        env, cable = cluster.env, cluster.cable_between(0, 1)
        env.timeout(sever_after_us).callbacks.append(
            lambda _evt: cable.sever())
        run_to_completion(env, sender.send(self.MSG))   # posted: no error
        env.run(until=env.now + 100.0)
        return (tx.endpoint.spad_file().read_block(0, 4),
                sender.sent_count, tx.master_aborts,
                cable.a_to_b.dropped_bytes, rx.endpoint.doorbell.pending)

    def test_sever_inside_a_header_write_drops_the_whole_header(self):
        write_us = CostModel().mmio_reg_write_us
        before = self._write_outcome(0.0)
        between_2nd_and_3rd = self._write_outcome(2.5 * write_us)
        assert between_2nd_and_3rd == before
        assert before[0] == (0, 0, 0, 0) and before[3] > 0

    def _read_outcome(self, sever_after_us):
        cluster, _tx, rx, sender, receiver = self._pair()
        env, cable = cluster.env, cluster.cable_between(0, 1)
        run_to_completion(env, sender.send(self.MSG))
        env.run(until=env.now + 100.0)
        assert rx.endpoint.spad_file().read_block(0, 4) \
            == pack_message(self.MSG)
        env.timeout(sever_after_us).callbacks.append(
            lambda _evt: cable.sever())
        with pytest.raises(ProtocolError) as caught:
            run_to_completion(env, receiver.recv_header(0))
        return str(caught.value), rx.master_aborts

    def test_sever_inside_a_header_read_aborts_the_whole_header(self):
        read_us = CostModel().mmio_reg_read_us
        before = self._read_outcome(0.0)
        between_2nd_and_3rd = self._read_outcome(2.5 * read_us)
        assert between_2nd_and_3rd == before
        assert before[1] == 4


class TestCheaperMode:
    """The runtime sends its own words (AMO operand and reply,
    ``put_signal``'s signal) by memcpy, and a fastpath put with no
    explicit ``mode`` takes the engine ``transfer.cheaper_mode`` names.
    The closed form (``transfer.engine_costs``) says memcpy is the cheaper
    engine for the words, and on an idle fabric it names the engine the
    simulator finds faster for a put of any size."""

    COST, DMA = CostModel(), DmaConfig()

    @classmethod
    def crossover(cls, uncached_drain: bool = False) -> int:
        """Smallest page-aligned put size for which DMA is named."""
        return next(
            n for n in range(1, 64 * 1024)
            if cheaper_mode(n, cls.COST, cls.DMA, segments=-(-n // 4096),
                            uncached_drain=uncached_drain) is Mode.DMA)

    def test_crossovers_at_the_default_calibration(self):
        # Put (cached drain either way): about 3.7 KB, Fig. 9's "memcpy
        # beats DMA below ~4 KB".  A Get chunk or AMO word read back
        # through the uncached window pays the PIO read rate as well.
        assert self.crossover() == 3705
        assert self.crossover(uncached_drain=True) == 696

    @pytest.mark.parametrize("dma", [
        DmaConfig(), DmaConfig(per_descriptor_us=0.0),
    ], ids=["default", "free-descriptor"])
    def test_the_runtimes_words_go_by_memcpy(self, dma):
        # The AMO operand (24 B) and reply (8 B) are drained from the
        # uncached window; the signal word (8 B) is put like user data.
        for word, uncached in ((24, True), (8, True), (8, False)):
            assert cheaper_mode(word, self.COST, dma,
                                uncached_drain=uncached) is Mode.MEMCPY

    #: a source that starts this far into a page: a put of 97 B to 4 KiB
    #: from it spans two pages, so its DMA pays two descriptors.
    UNALIGNED = 4000

    def _measure(self, config: ShmemConfig, hops: tuple, sizes: list):
        """Idle 3-ring, one put per explicit engine, per hop count and per
        source offset (page-aligned and :attr:`UNALIGNED`), timed to
        ``quiet`` (hand-off, the receiver's drain, its ACK).  Returns the
        latencies and each put's source page segments."""
        measured: dict[tuple[int, int, int, Mode], float] = {}
        segments: dict[tuple[int, int], int] = {}

        def main(pe):
            sym = yield from pe.malloc(max(sizes))
            src = pe.local_alloc(max(sizes) + self.UNALIGNED)
            yield from pe.barrier_all()
            for hop in hops:
                for size in sizes:
                    for offset in (0, self.UNALIGNED):
                        for mode in Mode:
                            if pe.my_pe() == 0:
                                # Let the barrier's last tokens settle: the
                                # fabric is idle when the clock starts.
                                yield pe.rt.env.timeout(1000.0)
                                start = pe.rt.env.now
                                yield from pe.put_from(sym, src, size, hop,
                                                       mode=mode,
                                                       src_offset=offset)
                                yield from pe.quiet()
                                measured[hop, size, offset, mode] = \
                                    pe.rt.env.now - start
                                segments[size, offset] = len(
                                    pe.rt.host.user_segments(
                                        src.virt + offset, size))
                            yield from pe.barrier_all()

        run_spmd(main, n_pes=3, shmem_config=config)
        assert {size for _hop, size, _off, _mode in measured} == set(sizes)
        return measured, segments

    def _check(self, measured, segments, fastpath: bool) -> None:
        """The DMA-memcpy gap exceeds the closed form's by 0 to 0.51 µs
        per exposed descriptor, and wherever the closed form's margin is
        wider than that, the engine it names is the faster one."""
        wrong, off = [], []
        for (hop, size, offset, mode), took in sorted(measured.items()):
            if mode is not Mode.DMA:
                continue
            staged = fastpath and size > STAGED_ABOVE_BYTES
            segs = segments[size, offset]
            exposed = 1 if staged else segs
            gap = took - measured[hop, size, offset, Mode.MEMCPY]
            costs = engine_costs(size, self.COST, self.DMA, segments=segs,
                                 staged=staged)
            closed = costs[Mode.DMA] - costs[Mode.MEMCPY]
            if not 0 <= gap - closed <= 0.51 * exposed:
                off.append((hop, size, offset, gap, closed))
            if abs(closed) <= 0.51 * exposed:
                continue
            faster = (Mode.MEMCPY
                      if measured[hop, size, offset, Mode.MEMCPY] < took
                      else Mode.DMA)
            named = cheaper_mode(size, self.COST, self.DMA, segments=segs,
                                 staged=staged)
            if named is not faster:
                wrong.append((hop, size, offset, named.name, faster.name))
        assert wrong == []
        assert off == []

    def test_agrees_with_the_simulated_put(self):
        """The paper-faithful plane at 1 and 2 hops; every size from a
        page-aligned and from an unaligned source."""
        sizes = sorted({1 << k for k in range(17)}
                       | {1000, 3000, 3300, 4100, 4500, 6000})
        measured, segments = self._measure(ShmemConfig(), (1, 2), sizes)
        # The unaligned source makes DMA pay two descriptors.
        assert segments[3000, 0] == 1 and segments[3000, self.UNALIGNED] == 2
        self._check(measured, segments, fastpath=False)

    def test_agrees_with_the_simulated_put_on_the_fastpath(self):
        """The fastpath stages DMA sends above one page into a chained
        ring: a cached copy, then one exposed descriptor.  One hop only:
        a fastpath relay returns the sender's credit once its cut-through
        has sent on in the same engine, so at two hops ``quiet`` pays the
        engine twice.  Inline sizes ignore the engine and are left out."""
        sizes = sorted({1 << k for k in range(6, 17)}
                       | {1000, 3000, 3300, 4100, 4500, 6000})
        assert min(sizes) > INLINE_MAX_BYTES
        measured, segments = self._measure(
            ShmemConfig(fastpath=FastpathConfig()), (1,), sizes)
        self._check(measured, segments, fastpath=True)
