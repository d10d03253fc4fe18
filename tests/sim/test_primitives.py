"""Unit tests for composite events and synchronization primitives."""

from __future__ import annotations

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    CountdownLatch,
    Environment,
    Gate,
    Signal,
)


class TestAllOf:
    def test_waits_for_every_event(self, env):
        t1, t2, t3 = env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)
        done = AllOf(env, [t1, t2, t3])
        env.run(until=done)
        assert env.now == 3.0

    def test_empty_all_of_triggers_immediately(self, env):
        done = AllOf(env, [])
        env.run(until=done)
        assert env.now == 0.0

    def test_value_maps_events_to_values(self, env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        result = env.run(until=AllOf(env, [t1, t2]))
        assert result == {t1: "a", t2: "b"}

    def test_failure_fails_the_condition(self, env):
        evt = env.event()
        t1 = env.timeout(5.0)
        done = AllOf(env, [t1, evt])
        evt.fail(RuntimeError("part failed"))
        with pytest.raises(RuntimeError, match="part failed"):
            env.run(until=done)

    def test_already_triggered_constituents(self, env):
        evt = env.event()
        evt.succeed("x")
        env.run()  # process it
        done = AllOf(env, [evt])
        assert env.run(until=done) == {evt: "x"}


class TestAnyOf:
    def test_first_event_wins(self, env):
        t1, t2 = env.timeout(5.0), env.timeout(2.0, value="fast")
        result = env.run(until=AnyOf(env, [t1, t2]))
        assert env.now == 2.0
        assert result == {t2: "fast"}

    def test_mixed_env_rejected(self, env):
        other = Environment()
        with pytest.raises(Exception):
            AnyOf(env, [env.timeout(1.0), other.timeout(1.0)])


class TestSignal:
    def test_fire_wakes_all_waiters(self, env):
        signal = Signal(env)
        woken = []

        def waiter(tag):
            payload = yield signal.wait()
            woken.append((tag, payload))

        for tag in range(3):
            env.process(waiter(tag))

        def firer():
            yield env.timeout(1.0)
            signal.fire("ping")

        env.process(firer())
        env.run()
        assert sorted(woken) == [(0, "ping"), (1, "ping"), (2, "ping")]

    def test_signal_rearms_after_fire(self, env):
        signal = Signal(env)
        count = []

        def repeat_waiter():
            for _ in range(3):
                yield signal.wait()
                count.append(env.now)

        env.process(repeat_waiter())

        def firer():
            for _ in range(3):
                yield env.timeout(10.0)
                signal.fire()

        env.process(firer())
        env.run()
        assert count == [10.0, 20.0, 30.0]
        assert signal.fire_count == 3

    def test_has_waiters_tracks_subscriptions(self, env):
        signal = Signal(env)
        assert not signal.has_waiters
        signal.wait()                       # obtained, not yet yielded
        assert not signal.has_waiters

        def waiter():
            yield signal.wait()

        env.process(waiter())
        env.run()
        assert signal.has_waiters
        signal.fire()
        assert not signal.has_waiters       # re-armed for the next pulse
        env.run()

    def test_wait_after_fire_misses_pulse(self, env):
        """Edge semantics: a pulse is not latched."""
        signal = Signal(env)
        signal.fire()
        hits = []

        def late_waiter():
            yield signal.wait()
            hits.append(env.now)

        env.process(late_waiter())
        env.run()
        assert hits == []  # waiter still blocked; run() drained


class TestGate:
    def test_closed_gate_blocks(self, env):
        gate = Gate(env)
        log = []

        def waiter():
            yield gate.wait()
            log.append(env.now)

        env.process(waiter())

        def opener():
            yield env.timeout(4.0)
            gate.open()

        env.process(opener())
        env.run()
        assert log == [4.0]

    def test_open_gate_passes_immediately(self, env):
        gate = Gate(env, open_=True)

        def waiter():
            yield gate.wait()
            return env.now

        assert env.run(until=env.process(waiter())) == 0.0

    def test_reclose(self, env):
        gate = Gate(env, open_=True)
        gate.close()
        assert not gate.is_open
        hits = []

        def waiter():
            yield gate.wait()
            hits.append(True)

        env.process(waiter())
        env.run()
        assert hits == []


class TestCountdownLatch:
    def test_latch_releases_at_zero(self, env):
        latch = CountdownLatch(env, 3)

        def waiter():
            yield latch.wait()
            return env.now

        process = env.process(waiter())

        def counter():
            for _ in range(3):
                yield env.timeout(2.0)
                latch.count_down()

        env.process(counter())
        assert env.run(until=process) == 6.0

    def test_zero_count_releases_immediately(self, env):
        latch = CountdownLatch(env, 0)

        def waiter():
            yield latch.wait()
            return "through"

        assert env.run(until=env.process(waiter())) == "through"

    def test_negative_count_rejected(self, env):
        with pytest.raises(ValueError):
            CountdownLatch(env, -1)

    def test_overdrain_is_safe(self, env):
        latch = CountdownLatch(env, 1)
        latch.count_down()
        latch.count_down()  # no error
        assert latch.remaining == 0

    def test_bulk_count_down(self, env):
        latch = CountdownLatch(env, 5)
        latch.count_down(5)
        assert latch.remaining == 0
