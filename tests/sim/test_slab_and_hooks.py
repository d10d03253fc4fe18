"""Unit tests for the Timeout slab and the step-hook fast path.

The slab recycles a processed :class:`~repro.sim.core.Timeout` only when
its refcount proves nothing else can observe it; the dispatch loops must
skip hook dispatch entirely while ``step_hooks`` is empty.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment, SchedulingError
from repro.sim.core import SchedulePolicy, Timeout


# --------------------------------------------------------------------------
# Timeout slab
# --------------------------------------------------------------------------

def _timeout_chain(env, hops):
    for _ in range(hops):
        yield env.timeout(1.0)


class TestTimeoutSlab:
    def test_recycles_and_reuses(self):
        env = Environment()
        env.process(_timeout_chain(env, 200))
        env.run()
        assert env.dispatched_events >= 200
        assert env.slab_recycled >= 100
        assert env.slab_reused >= 100
        # Reuse really is reuse: the slab cycles a bounded object set.
        assert env.slab_reused <= env.slab_recycled

    def test_slab_disabled_under_schedule_policy(self):
        env = Environment()
        env.schedule_policy = SchedulePolicy()
        env.process(_timeout_chain(env, 50))
        env.run()
        assert env.slab_recycled == 0
        assert env.slab_reused == 0

    def test_held_timeout_is_not_recycled(self):
        env = Environment()
        held = []

        def holder():
            t = env.timeout(1.0)
            held.append(t)  # extra reference: refcount gate must refuse
            yield t

        env.process(holder())
        env.run()
        assert env.slab_recycled == 0
        assert held[0].ok

    def test_reused_timeout_is_fresh(self):
        env = Environment()
        values = []

        def body():
            yield env.timeout(1.0, "first")
            second = env.timeout(2.0, "second")
            values.append(second._value is not None)
            got = yield second
            values.append(second.value)

        env.process(body())
        env.run()
        assert values == [True, "second"]
        assert env.now == 3.0

    def test_timeout_at_draws_from_the_slab_too(self):
        env = Environment()
        seen = []

        def body():
            yield env.timeout(1.0)              # recycled once processed
            yield env.timeout_at(1.5)           # "now" first, slab filled
            before = env.slab_reused
            tick = env.timeout_at(4.0, "tick")
            seen.append((env.slab_reused - before, tick.delay))
            seen.append((yield tick))
            with pytest.raises(SchedulingError, match="already at 4.0"):
                env.timeout_at(3.0)
            with pytest.raises(SchedulingError, match="negative"):
                env.timeout(-1.0)

        env.process(body())
        env.run()
        assert seen == [(1, 2.5), "tick"] and env.now == 4.0


# --------------------------------------------------------------------------
# step_hooks zero-overhead guarantee
# --------------------------------------------------------------------------

class _NoIterList(list):
    """A list that forbids iteration — the no-hook regression tripwire."""

    def __iter__(self):
        raise AssertionError(
            "dispatch loop iterated step_hooks while it was empty — the "
            "no-hook fast path lost its emptiness guard")


def test_empty_step_hooks_invoke_nothing():
    # Both dispatch bodies — step(), and run()'s one loop entered to
    # quiescence, until an event and until a time — must skip hook
    # dispatch entirely when the list is empty: no iterator, no callable
    # invocation, per event.
    env = Environment()
    env.step_hooks = _NoIterList()
    env.process(_timeout_chain(env, 20))
    env.run()  # to quiescence

    env2 = Environment()
    env2.step_hooks = _NoIterList()
    proc = env2.process(_timeout_chain(env2, 5))
    env2.run(until=proc)  # until an event

    env3 = Environment()
    env3.step_hooks = _NoIterList()
    env3.process(_timeout_chain(env3, 20))
    env3.run(until=10.0)  # until a time
    while env3.peek() != float("inf"):
        env3.step()  # step() path
    assert env3.now >= 20.0


def test_installed_hook_fires_per_event():
    env = Environment()
    seen = []
    env.step_hooks.append(lambda e, ev: seen.append((e.now, type(ev))))
    env.process(_timeout_chain(env, 3))
    env.run()
    assert len(seen) >= 3
    assert any(cls is Timeout for _, cls in seen)
