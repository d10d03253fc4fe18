"""Unit tests for NTB register blocks: scratchpads, doorbells, LUT, BARs."""

from __future__ import annotations

import pytest

from repro.ntb import (
    DOORBELL_BITS,
    DoorbellError,
    DoorbellRegister,
    IncomingTranslation,
    LookupTable,
    LutError,
    NUM_SCRATCHPADS,
    OutgoingWindow,
    ScratchpadError,
    ScratchpadFile,
    WindowError,
)
from repro.pcie import BarKind, BarRegister


class TestScratchpads:
    def test_shared_visibility(self, env):
        """A value written by one side is readable by the other — both
        endpoints hold the same file (the NTB sharing semantics)."""
        spad = ScratchpadFile(env)
        spad.write(3, 0xCAFE)
        assert spad.read(3) == 0xCAFE

    def test_values_truncate_to_32_bits(self, env):
        spad = ScratchpadFile(env)
        spad.write(0, 0x1_2345_6789)
        assert spad.read(0) == 0x2345_6789

    def test_register_count(self, env):
        spad = ScratchpadFile(env)
        assert spad.count == NUM_SCRATCHPADS == 8

    def test_index_bounds(self, env):
        spad = ScratchpadFile(env)
        with pytest.raises(ScratchpadError):
            spad.read(8)
        with pytest.raises(ScratchpadError):
            spad.write(-1, 0)

    def test_block_roundtrip(self, env):
        spad = ScratchpadFile(env)
        spad.write_block(4, [1, 2, 3, 4])
        assert spad.read_block(4, 4) == (1, 2, 3, 4)

    def test_block_bounds(self, env):
        spad = ScratchpadFile(env)
        with pytest.raises(ScratchpadError):
            spad.write_block(6, [1, 2, 3])

    def test_change_signal_fires(self, env):
        spad = ScratchpadFile(env)
        seen = []

        def watcher():
            payload = yield spad.changed.wait()
            seen.append(payload)

        env.process(watcher())
        env.run(until=1.0)
        spad.write(2, 42)
        env.run()
        assert seen == [(2, 42)]

    def test_unobserved_write_schedules_nothing(self, env):
        """No waiter, no pulse: the register changes, the queue does not."""
        spad = ScratchpadFile(env)
        spad.write(2, 42)
        spad.write_block(4, [1, 2, 3, 4])
        spad.clear()
        assert (spad.write_count, env.scheduled_events) == (5, 0)
        assert spad.changed.fire_count == 0

    def test_clear(self, env):
        spad = ScratchpadFile(env)
        spad.write(0, 5)
        spad.clear()
        assert spad.read_all() == (0,) * 8

    def test_non_integer_rejected(self, env):
        spad = ScratchpadFile(env)
        with pytest.raises(ScratchpadError):
            spad.write(0, "nope")  # type: ignore[arg-type]


class TestDoorbells:
    def test_latch_fires_sink(self, env):
        db = DoorbellRegister(env)
        fired = []
        db.interrupt_sink = fired.append
        db.latch(5)
        assert fired == [5]
        assert db.is_pending(5)

    def test_edge_per_ring_fires_every_time(self, env):
        db = DoorbellRegister(env, edge_per_ring=True)
        fired = []
        db.interrupt_sink = fired.append
        db.latch(0)
        db.latch(0)
        assert fired == [0, 0]

    def test_level_mode_coalesces(self, env):
        db = DoorbellRegister(env, edge_per_ring=False)
        fired = []
        db.interrupt_sink = fired.append
        db.latch(0)
        db.latch(0)  # already pending: silent
        assert fired == [0]
        db.clear(0)
        db.latch(0)
        assert fired == [0, 0]

    def test_mask_suppresses_interrupt_but_latches(self, env):
        db = DoorbellRegister(env)
        fired = []
        db.interrupt_sink = fired.append
        db.set_mask(3)
        db.latch(3)
        assert fired == []
        assert db.is_pending(3)

    def test_unmask_fires_pending_level(self, env):
        db = DoorbellRegister(env)
        fired = []
        db.interrupt_sink = fired.append
        db.set_mask(3)
        db.latch(3)
        db.clear_mask(3)
        assert fired == [3]

    def test_drain_reads_and_clears(self, env):
        db = DoorbellRegister(env)
        db.latch(0)
        db.latch(7)
        assert db.drain() == (1 << 0) | (1 << 7)
        assert db.pending == 0

    def test_clear_bits(self, env):
        db = DoorbellRegister(env)
        db.latch(1)
        db.latch(2)
        db.clear_bits(1 << 1)
        assert db.pending == 1 << 2

    def test_bit_bounds(self, env):
        db = DoorbellRegister(env)
        with pytest.raises(DoorbellError):
            db.latch(DOORBELL_BITS)
        with pytest.raises(DoorbellError):
            db.clear(-1)


class TestLut:
    def test_add_lookup(self):
        lut = LookupTable()
        lut.add(0x100, 1)
        assert lut.lookup(0x100) == 1
        assert lut.contains(0x100)

    def test_idempotent_reregistration(self):
        lut = LookupTable()
        lut.add(0x100, 1)
        lut.add(0x100, 1)  # same mapping: fine
        assert len(lut) == 1

    def test_conflicting_mapping_rejected(self):
        lut = LookupTable()
        lut.add(0x100, 1)
        with pytest.raises(LutError):
            lut.add(0x100, 2)

    def test_miss_raises(self):
        with pytest.raises(LutError):
            LookupTable().lookup(0xBEEF)

    def test_capacity(self):
        lut = LookupTable(capacity=2)
        lut.add(1, 1)
        lut.add(2, 2)
        with pytest.raises(LutError):
            lut.add(3, 3)

    def test_remove(self):
        lut = LookupTable()
        lut.add(1, 1)
        lut.remove(1)
        assert not lut.contains(1)
        with pytest.raises(LutError):
            lut.remove(1)


class TestTranslationWindows:
    def test_translate_within_limit(self):
        xlat = IncomingTranslation(0)
        xlat.program(0x10000, 0x1000)
        assert xlat.translate(0x100, 0x100) == 0x10100

    def test_disabled_window_faults(self):
        xlat = IncomingTranslation(0)
        with pytest.raises(WindowError):
            xlat.translate(0, 4)

    def test_limit_enforced(self):
        """The Fig. 1 'Translation Size' register bounds the window."""
        xlat = IncomingTranslation(0)
        xlat.program(0x10000, 0x1000)
        with pytest.raises(WindowError):
            xlat.translate(0xFFF, 2)

    def test_disable(self):
        xlat = IncomingTranslation(0)
        xlat.program(0, 0x1000)
        xlat.disable()
        with pytest.raises(WindowError):
            xlat.translate(0, 1)

    def test_outgoing_aperture_checked(self):
        bar = BarRegister(2, BarKind.MEM64, size=4096)
        window = OutgoingWindow(0, bar)
        window.check_access(0, 4096)
        with pytest.raises(WindowError):
            window.check_access(1, 4096)

    def test_outgoing_requires_memory_bar(self):
        with pytest.raises(WindowError):
            OutgoingWindow(0, BarRegister(1, BarKind.IO, size=256))
