"""The DMA engine's wire stage on the two wire paths no workload runs.

An open :class:`~repro.faults.DelayTlp` window adds a wait before the
wire.  It is walked here by concurrent DMA writes and reads in both
directions of one cable, and must give the figures the engine gave when
every pipeline stage was a spawned process joined by an ``AllOf``: the
pinned completion instants and byte counts below were produced by that
engine on this very scenario.  A cable severed inside that wait drops
the chunk on the wire (``Link.stage``'s drop path).
"""

from __future__ import annotations

import numpy as np

from repro.host import Host
from repro.ntb import (
    DATA_WINDOW,
    LinkDownError,
    NtbEndpoint,
    connect_endpoints,
)
from repro.sim import Environment

from ..conftest import pattern


def _scenario(delay_window=None):
    """Two hosts, one cable; host 0 writes 3 x 48 KiB and reads 40 KiB
    while host 1 writes 2 x 64 KiB back.  ``delay_window = (open, close,
    extra_us)`` opens a DelayTlp window on both directions, as the fault
    injector does.  Returns every completion instant, the bytes and busy
    time of both directions and the payload check."""
    env = Environment()
    h0, h1 = Host(env, 0), Host(env, 1)
    e0 = NtbEndpoint(env, "h0.right")
    e1 = NtbEndpoint(env, "h1.left")
    e0.attach_host(h0.memory, h0.memory_port, 0x000)
    e1.attach_host(h1.memory, h1.memory_port, 0x101)
    cable = connect_endpoints(e0, e1)
    e0.lut.add(e1.requester_id, 1)
    e1.lut.add(e0.requester_id, 0)
    rx0, rx1 = h0.alloc_pinned(1 << 18), h1.alloc_pinned(1 << 18)
    e0.program_incoming(DATA_WINDOW, rx0.phys, rx0.nbytes)
    e1.program_incoming(DATA_WINDOW, rx1.phys, rx1.nbytes)
    h1.memory.write(rx1.phys + (1 << 17), pattern(40 * 1024, seed=7))
    done = []

    def stream(endpoint, host, tag, count, size, offset, read=False):
        buffer = host.alloc_pinned(count * size)
        host.memory.write(buffer.phys, pattern(count * size, seed=count))
        for index in range(count):
            segment = buffer.segment
            segment = type(segment)(segment.phys_addr + index * size, size)
            submit = endpoint.dma_read if read else endpoint.dma_write
            request = submit(DATA_WINDOW, offset + index * size, [segment])
            yield request.done
            done.append((tag, index, request.completed_at))
        return buffer

    def delay():
        opened, closed, extra = delay_window
        yield env.timeout(opened)
        for link in (cable.a_to_b, cable.b_to_a):
            link.fault_extra_delay_us += extra
        yield env.timeout(closed - opened)
        for link in (cable.a_to_b, cable.b_to_a):
            link.fault_extra_delay_us -= extra

    if delay_window is not None:
        env.process(delay())
    writes = env.process(stream(e0, h0, "w0", 3, 48 * 1024, 0))
    env.process(stream(e1, h1, "w1", 2, 64 * 1024, 0))
    reads = env.process(stream(e0, h0, "r0", 1, 40 * 1024, 1 << 17,
                               read=True))
    env.run()
    sent = h0.memory.read(writes.value.phys, 3 * 48 * 1024)
    read_ok = np.array_equal(h0.memory.read(reads.value.phys, 40 * 1024),
                             pattern(40 * 1024, seed=7))
    links = [(link.payload_bytes, link.busy_time_us, link.dropped_bytes)
             for link in (cable.a_to_b, cable.b_to_a)]
    return {
        "done": sorted(done, key=lambda entry: (entry[2], entry[0])),
        "links": links,
        "payload_ok": bool(np.array_equal(
            h1.memory.read(rx1.phys, 3 * 48 * 1024), sent)) and read_ok,
        "now": env.now,
    }


def test_delay_tlp_window_gives_the_process_pumps_figures():
    figures = _scenario(delay_window=(30.0, 90.0, 6.0))
    assert figures["payload_ok"]
    assert repr(figures) == repr(PINNED["delay_tlp"])


def severed_in_flight(sever_at_us, nbytes=48 * 1024, extra_us=6.0):
    """One DMA write of three 16 KiB pipeline chunks across a cable whose
    DelayTlp wait (``extra_us``) holds each chunk before the wire, severed
    at ``sever_at_us``: a cut inside a chunk's wait drops that chunk on
    the wire (``Link.stage``'s drop path).  Returns the request's outcome,
    the link's dropped / carried bytes, and whether each chunk's bytes
    are in the receiver's window."""
    env = Environment()
    h0, h1 = Host(env, 0), Host(env, 1)
    e0, e1 = NtbEndpoint(env, "h0.right"), NtbEndpoint(env, "h1.left")
    e0.attach_host(h0.memory, h0.memory_port, 0x000)
    e1.attach_host(h1.memory, h1.memory_port, 0x101)
    cable = connect_endpoints(e0, e1)
    e0.lut.add(e1.requester_id, 1)
    e1.lut.add(e0.requester_id, 0)
    rx = h1.alloc_pinned(1 << 17)
    e1.program_incoming(DATA_WINDOW, rx.phys, rx.nbytes)
    source = h0.alloc_pinned(nbytes)
    h0.memory.write(source.phys, pattern(nbytes, seed=3))
    cable.a_to_b.fault_extra_delay_us = extra_us
    env.timeout(sever_at_us).callbacks.append(lambda _evt: cable.sever())
    request = e0.dma_write(DATA_WINDOW, 0, [source.segment])
    outcome = []

    def waiter():
        try:
            yield request.done
            outcome.append("completed")
        except LinkDownError:
            outcome.append("LinkDownError")

    env.process(waiter())
    env.run()
    landed, want = h1.memory.read(rx.phys, nbytes), pattern(nbytes, seed=3)
    chunk = 16 * 1024
    return {
        "outcome": outcome,
        "dropped": cable.a_to_b.dropped_bytes,
        "carried": cable.a_to_b.payload_bytes,
        "landed": [bool(np.array_equal(landed[i:i + chunk], want[i:i + chunk]))
                   for i in range(0, nbytes, chunk)],
    }


def test_chunk_into_a_severed_cable_fails_the_request_typed():
    """The first chunk waits out its DelayTlp, finds the cable cut and is
    dropped on the wire; the next chunk sees the dead link and the
    engine fails the request with its typed error."""
    figures = severed_in_flight(sever_at_us=32.0)
    assert figures["outcome"] == ["LinkDownError"]
    assert (figures["dropped"], figures["carried"]) == (16 * 1024, 0)
    assert figures["landed"][1:] == [False, False]


#: Produced by the engine whose every stage was a spawned process.
PINNED = {'delay_tlp': {'done': [('w0', 0, 53.69965517241379),
                                 ('w1', 0, 62.62653846153845),
                                 ('r0', 0, 107.15102122015914),
                                 ('w1', 1, 116.7251591511936),
                                 ('w0', 1, 155.59998673740049),
                                 ('w0', 2, 204.04895225464185)],
                        'links': [(147456, 20.474999999999998, 0),
                                  (172032, 23.887499999999996, 0)],
                        'payload_ok': True,
                        'now': 204.04895225464185}}
