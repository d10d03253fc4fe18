"""Unit tests for composite events and synchronization primitives."""

from __future__ import annotations

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    CountdownLatch,
    Environment,
    Gate,
    Join,
    SchedulePolicy,
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


class TestJoin:
    """One test per clause of the last arrival, on both queue backends.
    Two stages end on timers at t=1 and t=2 and arrive from the timers'
    callbacks; each log entry carries ``dispatched_events`` at the time,
    so the waiter's entry shows how many events the join cost after the
    last stage's timer."""

    @staticmethod
    def _run(policy=None, rival=None, second_callback=False):
        env = Environment(schedule_policy=policy)
        log = []
        join = Join(env, 2)

        def note(what):
            log.append((what, env.now, env.dispatched_events))

        def waiter():
            yield join
            note("joined")

        def stage(delay):
            def done(_timer):
                note("stage")
                join.arrive()
            timer = env.timeout(delay)
            timer.callbacks.append(done)
            return timer

        env.process(waiter())
        stage(1.0)
        last = stage(2.0)
        if second_callback:
            last.callbacks.append(lambda _timer: note("second"))
        if rival is not None:
            rival(env, note)
        env.run()
        return log

    def test_quiet_instant_resumes_in_place(self, kernel):
        log = self._run()
        assert log == [("stage", 1.0, 2), ("stage", 2.0, 3),
                       ("joined", 2.0, 3)]

    def test_entry_due_takes_the_hop(self, kernel):
        def rival(env, note):
            env.timeout(2.0).callbacks.append(lambda _t: note("rival"))

        # The rival runs between the last stage and the join, as it ran
        # between the last process's termination and AllOf; the hop's
        # own dispatch is quiet, so the join needs no second event.
        assert self._run(rival=rival) == [
            ("stage", 1.0, 2), ("stage", 2.0, 3), ("rival", 2.0, 4),
            ("joined", 2.0, 5)]

    def test_entry_due_at_the_hop_takes_the_join_event(self, kernel):
        def rival(env, note):
            def late(_t):
                note("rival")
                behind_the_hop = env.event()
                behind_the_hop.callbacks.append(lambda _e: note("behind"))
                behind_the_hop.succeed()
            env.timeout(2.0).callbacks.append(late)

        # hop (5), then the join's own event (7) behind that entry (6):
        # the termination and AllOf, one for one.
        assert self._run(rival=rival) == [
            ("stage", 1.0, 2), ("stage", 2.0, 3), ("rival", 2.0, 4),
            ("behind", 2.0, 6), ("joined", 2.0, 7)]

    def test_policy_installed_takes_both_events(self, kernel):
        assert self._run(policy=SchedulePolicy()) == [
            ("stage", 1.0, 2), ("stage", 2.0, 3), ("joined", 2.0, 5)]

    def test_two_callback_dispatch_takes_the_hop(self, kernel):
        # The timer's second callback runs before the join, as it would
        # before the last process's termination.
        assert self._run(second_callback=True) == [
            ("stage", 1.0, 2), ("stage", 2.0, 3), ("second", 2.0, 3),
            ("joined", 2.0, 4)]

    def test_join_before_anyone_waits_is_born_processed(self, kernel):
        env = Environment()
        join = Join(env, 1)
        env.timeout(1.0).callbacks.append(lambda _t: join.arrive())
        env.run()
        assert join.processed and env.dispatched_events == 1


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
