"""Unit tests for the wire protocol: message codec and payload sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Mode, MsgKind, ProtocolError, TransferError
from repro.core.transfer import (
    BypassMailbox,
    DataMailbox,
    DOORBELL_ACK_BYPASS,
    DOORBELL_ACK_DATA,
    DOORBELL_AMO,
    DOORBELL_DMAGET,
    DOORBELL_DMAPUT,
    FLAG_INLINE,
    KIND_FACTS,
    Message,
    PayloadSource,
    SLOT_HEADER_BYTES,
    chunk_ranges,
    pack_header_bytes,
    pack_message,
    unpack_header_bytes,
    unpack_message,
)
from repro.fabric import Cluster, ClusterConfig
from repro.host import CostModel, Host
from repro.ntb import LinkDownError
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
        landing = cluster.host(1).alloc_pinned(2 * self.SLOT)
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
