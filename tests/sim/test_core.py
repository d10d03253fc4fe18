"""Unit tests for the discrete-event kernel: events, processes, time."""

from __future__ import annotations

import pytest

from repro.sim import (
    Environment,
    Event,
    EventLifecycleError,
    Interrupt,
    SchedulingError,
    SimulationError,
    StopProcess,
    Timeout,
)


class TestEnvironmentBasics:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_run_until_number_advances_time(self, env):
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_past_raises(self, env):
        env.run(until=50.0)
        with pytest.raises(SchedulingError):
            env.run(until=10.0)

    def test_step_on_empty_schedule_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(7.0)
        assert env.peek() == 7.0


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        timeout = env.timeout(5.0, value="done")
        result = env.run(until=timeout)
        assert result == "done"
        assert env.now == 5.0

    def test_zero_delay_timeout(self, env):
        timeout = env.timeout(0.0)
        env.run(until=timeout)
        assert env.now == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SchedulingError):
            env.timeout(-1.0)

    def test_timeouts_fire_in_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay).callbacks.append(
                lambda _evt, d=delay: order.append(d)
            )
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, env):
        """Events at the same instant process in schedule order."""
        order = []
        for tag in range(5):
            env.timeout(1.0).callbacks.append(
                lambda _evt, t=tag: order.append(t)
            )
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestTimeoutAt:
    def test_fires_at_the_absolute_instant(self, env):
        fired = []

        def proc():
            yield env.timeout(0.1)
            when = 0.7999999999999999
            yield env.timeout_at(when)
            fired.append(env.now)
            yield env.timeout_at(env.now)     # "now" is still reachable
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [0.7999999999999999, 0.7999999999999999]

    def test_orders_like_any_timeout_pushed_now(self, env):
        order = []
        for tag, make in (("a", lambda: env.timeout(2.0)),
                          ("b", lambda: env.timeout_at(2.0)),
                          ("c", lambda: env.timeout(2.0))):
            make().callbacks.append(lambda _e, tag=tag: order.append(tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_past_instant_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(SchedulingError):
            env.timeout_at(4.0)


class TestPushedAt:
    def test_timeout_and_triggered_event(self, env):
        seen = []

        def proc():
            yield env.timeout(3.0)              # pushed at 0.0
            seen.append(env.pushed_at)
            gate = env.event()
            gate.succeed()                      # pushed at 3.0
            yield gate
            seen.append(env.pushed_at)
            yield env.timeout(1.5)
            yield env.timeout_at(7.0)           # pushed at 4.5
            seen.append(env.pushed_at)

        env.process(proc())
        env.run()
        assert seen == [0.0, 3.0, 4.5]

    def test_plain_callback_context(self, env):
        # Not only inside processes: ISR bottom halves are bare callbacks.
        seen = []
        env.timeout(2.5).callbacks.append(
            lambda _e: seen.append(env.pushed_at))
        env.run()
        assert seen == [0.0]


class TestEventLifecycle:
    def test_succeed_delivers_value(self, env):
        evt = env.event()
        evt.succeed(123)
        assert env.run(until=evt) == 123

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(EventLifecycleError):
            _ = env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(EventLifecycleError):
            _ = env.event().ok

    def test_double_succeed_raises(self, env):
        evt = env.event()
        evt.succeed()
        with pytest.raises(EventLifecycleError):
            evt.succeed()

    def test_succeed_after_fail_raises(self, env):
        evt = env.event()
        evt.fail(ValueError("x")).defuse()
        with pytest.raises(EventLifecycleError):
            evt.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_unhandled_failure_propagates(self, env):
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        env.event().fail(RuntimeError("boom")).defuse()
        env.run()  # no raise

    def test_trigger_mirrors_outcome(self, env):
        src, dst = env.event(), env.event()
        src.callbacks.append(dst.trigger)
        src.succeed("payload")
        assert env.run(until=dst) == "payload"


class TestProcesses:
    def test_process_returns_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "result"

        assert env.run(until=env.process(proc())) == "result"

    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_nested_yield_from(self, env):
        def inner():
            yield env.timeout(2.0)
            return 10

        def outer():
            value = yield from inner()
            yield env.timeout(3.0)
            return value * 2

        assert env.run(until=env.process(outer())) == 20
        assert env.now == 5.0

    def test_yield_completed_event_resumes_immediately(self, env):
        evt = env.event()
        evt.succeed("early")

        def proc():
            # Let the event process first.
            yield env.timeout(1.0)
            value = yield evt
            return value

        assert env.run(until=env.process(proc())) == "early"

    def test_exception_in_process_fails_event(self, env):
        def proc():
            yield env.timeout(1.0)
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            env.run(until=env.process(proc()))

    def test_failed_event_raises_inside_process(self, env):
        evt = env.event()

        def proc():
            try:
                yield evt
            except RuntimeError as exc:
                return f"caught {exc}"

        process = env.process(proc())
        evt.fail(RuntimeError("remote"))
        assert env.run(until=process) == "caught remote"

    def test_yield_non_event_raises_at_yield_site(self, env):
        def proc():
            try:
                yield 42  # type: ignore[misc]
            except SimulationError:
                return "caught"

        assert env.run(until=env.process(proc())) == "caught"

    def test_process_is_joinable_event(self, env):
        def child():
            yield env.timeout(5.0)
            return "child-done"

        def parent():
            result = yield env.process(child())
            return result

        assert env.run(until=env.process(parent())) == "child-done"

    def test_stop_process_early_return(self, env):
        def proc():
            yield env.timeout(1.0)
            raise StopProcess("early-exit")
            yield env.timeout(100.0)  # pragma: no cover

        assert env.run(until=env.process(proc())) == "early-exit"
        assert env.now == 1.0

    def test_is_alive_transitions(self, env):
        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                return f"interrupted: {intr.cause}"

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(5.0)
            process.interrupt("wakeup")

        env.process(interrupter())
        assert env.run(until=process) == "interrupted: wakeup"
        assert env.now == 5.0

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1.0)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_can_rewait_target(self, env):
        timeout = env.timeout(10.0)

        def sleeper():
            try:
                yield timeout
            except Interrupt:
                pass
            yield timeout  # original event still valid
            return env.now

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(2.0)
            process.interrupt()

        env.process(interrupter())
        assert env.run(until=process) == 10.0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            log = []

            def worker(tag, delay):
                for step in range(5):
                    yield env.timeout(delay)
                    log.append((round(env.now, 9), tag, step))

            for tag, delay in (("a", 1.5), ("b", 2.0), ("c", 1.5)):
                env.process(worker(tag, delay))
            env.run()
            return log

        assert build_and_run() == build_and_run()

    def test_run_until_event_deadlock_detected(self, env):
        evt = env.event()  # never triggered
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=evt)


def test_queue_keyword_accepts_only_heap():
    # The keyword survives for the trajectory's storm probe only.
    assert Environment(queue="heap").peek() == float("inf")
    with pytest.raises(ValueError, match="calendar"):
        Environment(queue="calendar")


# --------------------------------------------------------------------------
# One deep queue, two ways to dispatch it
# --------------------------------------------------------------------------

STORM_TIMERS = 1024
STORM_HORIZON_US = 40.0


def _storm(dispatch):
    """1024 periodic timers (the pending set sits in the thousands, the
    64-host regime); returns the event count and who resumed when."""
    env = Environment()
    resumed = []

    def timer(name, period):
        while True:
            yield env.timeout(period)
            resumed.append((env.now, name))

    for i in range(STORM_TIMERS):
        name = f"storm.{i}"
        env.process(timer(name, 1.0 + (i % 173) * 0.037), name=name)
    dispatch(env)
    return env.dispatched_events, resumed


def _run_until(env):
    env.run(until=STORM_HORIZON_US)


def _step_loop(env):
    while env.peek() <= STORM_HORIZON_US:
        env.step()


def test_timer_storm_same_under_run_and_step():
    by_run = _storm(_run_until)
    assert by_run[0] > 10 * STORM_TIMERS
    assert _storm(_step_loop) == by_run
