"""Property-based tests (hypothesis) on core data structures & invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Mode, MsgKind
from repro.core.heap import HeapConfig, SymmetricHeap
from repro.core.transfer import (
    Message,
    chunk_ranges,
    pack_header_bytes,
    pack_message,
    unpack_header_bytes,
    unpack_message,
)
from repro.fabric import (
    Direction,
    PolicyRouter,
    RingTopology,
    RoutingPolicy,
)
from repro.host import Host
from repro.memory import (
    AllocationError,
    PhysicalMemory,
    RegionAllocator,
    VirtualAddressSpace,
)
from repro.pcie import LinkConfig, tlp_wire_bytes
from repro.sim import Environment

# Some strategies build Hosts (nontrivial setup); relax the health checks.
_SETTINGS = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


class TestAllocatorProperties:
    @_SETTINGS
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 5000)),
            st.tuples(st.just("free"), st.integers(0, 30)),
        ),
        max_size=80,
    ))
    def test_invariants_hold_under_any_op_sequence(self, ops):
        """Free-list stays sorted/coalesced and bytes are conserved under
        arbitrary interleavings of allocs and frees."""
        alloc = RegionAllocator(0, 1 << 16, granularity=16)
        live = []
        for op, arg in ops:
            if op == "alloc":
                try:
                    live.append(alloc.alloc(arg))
                except AllocationError:
                    pass
            elif live:
                block = live.pop(arg % len(live))
                alloc.free(block)
            alloc.check_invariants()

    @_SETTINGS
    @given(st.lists(st.integers(1, 4000), min_size=1, max_size=40),
           st.data())
    def test_no_live_blocks_overlap(self, sizes, data):
        alloc = RegionAllocator(0, 1 << 18, granularity=16)
        blocks = []
        for size in sizes:
            try:
                blocks.append(alloc.alloc(size))
            except AllocationError:
                break
        spans = sorted((b.base, b.end) for b in blocks)
        for (base_a, end_a), (base_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= base_b

    @_SETTINGS
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=30))
    def test_determinism(self, sizes):
        """Two allocators fed the same sequence give identical layouts —
        the root of the symmetric-heap same-offset invariant."""
        layout = []
        for _ in range(2):
            alloc = RegionAllocator(0, 1 << 18, granularity=64)
            layout.append([
                (blk.base, blk.size)
                for blk in (alloc.alloc(size) for size in sizes)
            ])
        assert layout[0] == layout[1]


class TestMmuProperties:
    @_SETTINGS
    @given(st.integers(1, 200_000), st.integers(0, 5000))
    def test_segments_tile_the_range_exactly(self, nbytes, start_offset):
        memory = PhysicalMemory(1 << 20)
        vas = VirtualAddressSpace(memory, page_size=4096)
        # Three discontiguous mappings forming one virtual range.
        bases = [0x0000, 0x4_0000, 0x9_0000]
        virt = 0x100000
        for base in bases:
            vas.map(virt, base, 0x40000)
            virt += 0x40000
        nbytes = min(nbytes, 3 * 0x40000 - start_offset)
        if nbytes <= 0:
            return
        segments = list(vas.phys_segments(0x100000 + start_offset, nbytes))
        assert sum(s.nbytes for s in segments) == nbytes
        for segment in segments:
            page_end = (segment.phys_addr // 4096 + 1) * 4096
            assert segment.phys_addr + segment.nbytes <= page_end or \
                segment.nbytes <= 4096

    @_SETTINGS
    @given(st.binary(min_size=1, max_size=30_000), st.integers(0, 60_000))
    def test_write_read_roundtrip_anywhere(self, payload, offset):
        memory = PhysicalMemory(1 << 20)
        vas = VirtualAddressSpace(memory)
        vas.map(0, 0x800, 0x40000)
        vas.map(0x40000, 0x80000, 0x40000)
        offset = offset % (0x80000 - len(payload))
        vas.write(offset, np.frombuffer(payload, dtype=np.uint8))
        assert vas.read(offset, len(payload)).tobytes() == payload


class TestCodecProperties:
    message_strategy = st.builds(
        Message,
        kind=st.sampled_from(list(MsgKind)),
        mode=st.sampled_from(list(Mode)),
        src_pe=st.integers(0, 255),
        dest_pe=st.integers(0, 255),
        offset=st.integers(0, 2**32 - 1),
        size=st.integers(0, 2**32 - 1),
        aux=st.integers(0, 2**32 - 1),
        seq=st.integers(0, 255),
    )

    @_SETTINGS
    @given(message_strategy)
    def test_spad_roundtrip(self, msg):
        assert unpack_message(pack_message(msg)) == msg

    @_SETTINGS
    @given(message_strategy)
    def test_slot_header_roundtrip(self, msg):
        raw = np.frombuffer(pack_header_bytes(msg), dtype=np.uint8)
        assert unpack_header_bytes(raw) == msg

    @_SETTINGS
    @given(message_strategy)
    def test_registers_fit_32_bits(self, msg):
        assert all(0 <= reg < 2**32 for reg in pack_message(msg))


class TestChunkingProperties:
    @_SETTINGS
    @given(st.integers(0, 10_000_000), st.integers(1, 1 << 20))
    def test_chunks_partition_exactly(self, total, chunk):
        pieces = list(chunk_ranges(total, chunk))
        assert sum(size for _off, size in pieces) == total
        cursor = 0
        for offset, size in pieces:
            assert offset == cursor
            assert 0 < size <= chunk
            cursor += size


class TestTopologyProperties:
    @_SETTINGS
    @given(st.integers(2, 16), st.data())
    def test_hops_sum_to_ring_size(self, n, data):
        ring = RingTopology(n)
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        if src == dst:
            return
        # Leftward hops: what FIXED_RIGHT detours to once the source's
        # rightward cable is dead.
        router = PolicyRouter(ring, RoutingPolicy.FIXED_RIGHT)
        right = router.resolve(src, dst)
        left = router.resolve(
            src, dst, {ring.edge_for(src, Direction.RIGHT)})
        assert (right.direction, left.direction) == (
            Direction.RIGHT, Direction.LEFT)
        assert right.hops + left.hops == n

    @_SETTINGS
    @given(st.integers(2, 16), st.data())
    def test_shortest_never_longer_than_fixed(self, n, data):
        ring = RingTopology(n)
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        if src == dst:
            return
        fixed = PolicyRouter(
            ring, RoutingPolicy.FIXED_RIGHT).resolve(src, dst)
        short = PolicyRouter(ring, RoutingPolicy.SHORTEST).resolve(src, dst)
        assert short.hops <= fixed.hops
        assert short.hops <= n // 2

    @_SETTINGS
    @given(st.integers(2, 16), st.data())
    def test_walking_the_route_reaches_destination(self, n, data):
        ring = RingTopology(n)
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        if src == dst:
            return
        for policy in (RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST):
            route = PolicyRouter(ring, policy).resolve(src, dst)
            node = src
            for _hop in range(route.hops):
                node = ring.neighbor(node, route.direction)
            assert node == dst


class TestHeapProperties:
    @_SETTINGS
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 100_000)),
            st.tuples(st.just("free"), st.integers(0, 10)),
        ),
        min_size=1, max_size=30,
    ))
    def test_same_offsets_across_pes(self, ops):
        """Arbitrary SPMD alloc/free sequences produce identical offsets
        on every PE (Fig. 3(b))."""
        env = Environment()
        heaps = [
            SymmetricHeap(Host(env, host_id),
                          HeapConfig(chunk_size=1 << 20, max_chunks=8))
            for host_id in range(2)
        ]
        logs = [[], []]
        lives = [[], []]
        for op, arg in ops:
            for index, heap in enumerate(heaps):
                if op == "alloc":
                    try:
                        addr = heap.malloc(arg)
                        lives[index].append(addr)
                        logs[index].append(("a", addr.offset))
                    except Exception as exc:
                        logs[index].append(("err", type(exc).__name__))
                elif lives[index]:
                    addr = lives[index].pop(arg % len(lives[index]))
                    heap.free(addr)
                    logs[index].append(("f", addr.offset))
        assert logs[0] == logs[1]


class TestLinkProperties:
    @_SETTINGS
    @given(st.integers(1, 1 << 22))
    def test_serialization_time_monotonic_and_superlinear_floor(self, n):
        config = LinkConfig()
        t = config.serialization_time_us(n)
        assert t > 0
        assert t >= n / config.raw_rate_mbps  # overhead only adds
        assert config.serialization_time_us(n + 4096) >= t

    @_SETTINGS
    @given(st.integers(1, 1 << 22), st.sampled_from([128, 256, 512]))
    def test_wire_bytes_bounds(self, n, mps):
        wire = tlp_wire_bytes(n, mps)
        n_tlps = -(-n // mps)
        assert n < wire <= n + n_tlps * 64
