"""Unit tests for the PCIe link timing model."""

from __future__ import annotations

import pytest

from repro.pcie import DuplexLink, Link, LinkConfig
from repro.sim import Environment, Interrupt, Join

from ..conftest import run_to_completion


class TestLinkConfig:
    def test_gen3_x8_raw_rate(self):
        config = LinkConfig(generation=3, lanes=8)
        # 8 GT/s * 8 lanes * 128/130 / 8 bits = ~7877 MB/s
        assert config.raw_rate_mbps == pytest.approx(7876.92, abs=0.1)

    def test_gen1_x1_rate(self):
        config = LinkConfig(generation=1, lanes=1, max_payload=128)
        assert config.raw_rate_mbps == pytest.approx(250.0)

    def test_gen2_doubles_gen1(self):
        g1 = LinkConfig(generation=1, lanes=4)
        g2 = LinkConfig(generation=2, lanes=4)
        assert g2.raw_rate_mbps == pytest.approx(2 * g1.raw_rate_mbps)

    def test_effective_rate_below_raw(self):
        config = LinkConfig()
        assert config.effective_rate_mbps < config.raw_rate_mbps

    def test_serialization_time_scales(self):
        config = LinkConfig()
        t1 = config.serialization_time_us(64 * 1024)
        t2 = config.serialization_time_us(128 * 1024)
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_invalid_generation(self):
        with pytest.raises(ValueError):
            LinkConfig(generation=7)

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            LinkConfig(lanes=3)

    def test_invalid_mps(self):
        with pytest.raises(ValueError):
            LinkConfig(max_payload=100)

    def test_describe(self):
        assert "Gen3 x8" in LinkConfig().describe()


class TestLinkTransfers:
    def test_transfer_charges_serialization_plus_propagation(self, env):
        config = LinkConfig(propagation_delay_us=1.0)
        link = Link(env, config)

        def xfer():
            yield from link.transfer(64 * 1024)
            return env.now

        [end] = run_to_completion(env, xfer())
        expected = config.serialization_time_us(64 * 1024) + 1.0
        assert end == pytest.approx(expected)

    def test_transfer_without_propagation(self, env):
        """The DMA wire stage crosses without the propagation delay (its
        stream pays it once) and with the same byte accounting."""
        config = LinkConfig(propagation_delay_us=1.0)
        link = Link(env, config)

        def xfer():
            done = Join(env, 1)
            link.stage(4096, None, done.arrive)
            yield done
            return env.now

        [end] = run_to_completion(env, xfer())
        assert end == config.serialization_time_us(4096)
        assert link.payload_bytes == 4096 and link.busy_time_us == end

    def test_concurrent_transfers_serialize(self, env):
        link = Link(env, LinkConfig(propagation_delay_us=0.0))
        finish = {}

        def xfer(tag):
            yield from link.transfer(1 << 20)
            finish[tag] = env.now

        run_to_completion(env, xfer("a"), xfer("b"))
        single = LinkConfig().serialization_time_us(1 << 20)
        assert finish["b"] == pytest.approx(2 * single, rel=0.01)

    def test_byte_accounting_and_utilization(self, env):
        link = Link(env, LinkConfig(propagation_delay_us=0.0))

        def xfer():
            yield from link.transfer(8192)

        run_to_completion(env, xfer())
        assert link.payload_bytes == 8192
        assert link.utilization() == pytest.approx(1.0, rel=0.01)

    def test_interrupted_transfer_frees_the_wire(self, env):
        link = Link(env, LinkConfig(propagation_delay_us=0.0))
        single = link.config.serialization_time_us(1 << 20)
        finish = {}

        def xfer(tag):
            try:
                yield from link.transfer(1 << 20)
            except Interrupt:
                finish[tag] = "interrupted"
                return
            finish[tag] = env.now

        first = env.process(xfer("first"))
        env.process(xfer("second"))

        def cut():
            yield env.timeout(single / 2)
            first.interrupt()

        env.process(cut())
        env.run()
        assert finish == {"first": "interrupted", "second": single * 1.5}
        assert link.payload_bytes == 1 << 20 and link.queue_length == 0

    def test_negative_size_rejected(self, env):
        link = Link(env, LinkConfig())

        def bad():
            yield from link.transfer(-1)

        with pytest.raises(ValueError):
            run_to_completion(env, bad())

    def test_zero_byte_transfer(self, env):
        link = Link(env, LinkConfig(propagation_delay_us=0.5))

        def xfer():
            yield from link.transfer(0)
            return env.now

        [end] = run_to_completion(env, xfer())
        assert end == pytest.approx(0.5)


class TestDuplexLink:
    def test_directions_are_independent(self, env):
        duplex = DuplexLink(env, LinkConfig(propagation_delay_us=0.0))
        finish = {}

        def xfer(link, tag):
            yield from link.transfer(1 << 20)
            finish[tag] = env.now

        run_to_completion(
            env,
            xfer(duplex.a_to_b, "fwd"),
            xfer(duplex.b_to_a, "rev"),
        )
        single = LinkConfig().serialization_time_us(1 << 20)
        # Full duplex: both finish in one serialization time.
        assert finish["fwd"] == pytest.approx(single, rel=0.01)
        assert finish["rev"] == pytest.approx(single, rel=0.01)

    def test_direction_selector(self, env):
        duplex = DuplexLink(env, LinkConfig())
        assert duplex.direction(True) is duplex.a_to_b
        assert duplex.direction(False) is duplex.b_to_a
