"""Unit tests for the event-queue backends and the Timeout slab.

The calendar queue's correctness argument has several load-bearing
details — lazy today-sort, same-day insort above the cursor, demotion on
push-behind-cursor, stale day-heap entries, slot nulling for the slab
recycler — and each gets a dedicated test here.  The differential
harness (`test_kernel_equivalence.py`) and the hypothesis property test
cover whole-kernel equivalence; these pin the mechanisms.
"""

from __future__ import annotations

import random
import weakref

import pytest

from repro.sim import Environment, SchedulingError
from repro.sim.core import NORMAL, SchedulePolicy, Timeout, URGENT
from repro.sim.queues import (
    QUEUE_KINDS,
    CalendarQueue,
    HeapQueue,
    make_queue,
)


def _entry(t, seq, prio=NORMAL):
    return (t, prio, seq, f"ev{seq}")


def _drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


class TestCalendarQueueOrdering:
    def test_pops_in_time_order_across_days(self):
        q = CalendarQueue()
        times = [13.5, 0.2, 99.9, 0.3, 42.0, 13.4, 7.0]
        for seq, t in enumerate(times):
            q.push(_entry(t, seq))
        assert [e[0] for e in _drain(q)] == sorted(times)

    def test_same_time_ties_resolve_by_sequence(self):
        q = CalendarQueue()
        for seq in (5, 1, 9, 3):
            q.push(_entry(2.25, seq))
        assert [e[2] for e in _drain(q)] == [1, 3, 5, 9]

    def test_priority_beats_sequence_at_same_time(self):
        q = CalendarQueue()
        q.push(_entry(1.5, 0, NORMAL))
        q.push(_entry(1.5, 1, URGENT))
        assert q.pop()[2] == 1  # urgent first despite later sequence

    def test_same_day_push_lands_in_sorted_position(self):
        # Start draining a day, then push more entries into that same day:
        # they must slot into the unpopped suffix in time order.
        q = CalendarQueue(width=10.0)
        for seq, t in enumerate((1.0, 3.0, 5.0, 7.0)):
            q.push(_entry(t, seq))
        assert q.pop()[0] == 1.0  # cursor now inside the day
        q.push(_entry(4.0, 50))
        q.push(_entry(2.9, 51))
        assert [e[0] for e in _drain(q)] == [2.9, 3.0, 4.0, 5.0, 7.0]

    def test_push_behind_cursor_demotes_today(self):
        # Generic-structure legality: pushing an earlier day while a later
        # day is being drained must still pop globally in order.
        q = CalendarQueue(width=1.0)
        q.push(_entry(10.5, 0))
        q.push(_entry(10.7, 1))
        assert q.pop()[0] == 10.5  # today = day 10, partially drained
        q.push(_entry(3.2, 2))     # behind the cursor
        q.push(_entry(10.6, 3))    # lands back in (demoted) day 10
        assert [e[0] for e in _drain(q)] == [3.2, 10.6, 10.7]
        assert len(q) == 0

    def test_stale_day_heap_entries_are_skipped(self):
        # Drain day 5 fully, re-create it, drain again: the day heap now
        # holds a duplicate 5 whose map slot is consumed on first load.
        q = CalendarQueue(width=1.0)
        q.push(_entry(5.1, 0))
        assert q.pop()[0] == 5.1
        q.push(_entry(5.2, 1))
        q.push(_entry(9.0, 2))
        assert [e[0] for e in _drain(q)] == [5.2, 9.0]
        with pytest.raises(IndexError):
            q.pop()

    def test_interleaved_push_pop_matches_heap(self):
        rng = random.Random(20260807)
        heap, cal = HeapQueue(), CalendarQueue()
        seq = 0
        popped_h, popped_c = [], []
        for _ in range(3000):
            if heap and rng.random() < 0.45:
                popped_h.append(heap.pop())
                popped_c.append(cal.pop())
            else:
                t = round(rng.random() * rng.choice((1.0, 50.0, 2000.0)), 6)
                entry = _entry(t, seq, rng.choice((NORMAL, URGENT)))
                seq += 1
                heap.push(entry)
                cal.push(entry)
        popped_h.extend(_drain(heap))
        popped_c.extend(_drain(cal))
        assert popped_h == popped_c
        assert len(popped_h) == seq


class TestCalendarQueueApi:
    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CalendarQueue().pop()

    def test_bad_width_rejected(self):
        for width in (0.0, -1.0):
            with pytest.raises(ValueError):
                CalendarQueue(width=width)

    def test_tiny_width_clamped_to_floor(self):
        q = CalendarQueue(width=1e-12)
        assert q.width == CalendarQueue.MIN_WIDTH

    def test_peek_does_not_commit(self):
        q = CalendarQueue()
        q.push(_entry(4.0, 0))
        q.push(_entry(2.0, 1))
        assert q.peek_time() == 2.0
        assert q.peek_entry()[2] == 1
        assert len(q) == 2
        assert q.pop()[0] == 2.0

    def test_peek_empty(self):
        q = CalendarQueue()
        assert q.peek_entry() is None
        assert q.peek_time() == float("inf")

    def test_pop_le_respects_horizon(self):
        q = CalendarQueue()
        q.push(_entry(1.0, 0))
        q.push(_entry(5.0, 1))
        assert q.pop_le(0.5) is None
        assert q.pop_le(1.0)[0] == 1.0
        assert q.pop_le(4.999) is None
        assert q.pop_le(5.0)[0] == 5.0
        assert q.pop_le(1e9) is None  # empty

    def test_entries_lists_pending_in_pop_order(self):
        q = CalendarQueue()
        times = [9.0, 1.0, 5.0, 1.0]
        for seq, t in enumerate(times):
            q.push(_entry(t, seq))
        q.pop()
        assert [e[0] for e in q.entries()] == [1.0, 5.0, 9.0]
        assert len(q) == 3

    def test_n_days_diagnostic(self):
        q = CalendarQueue(width=1.0)
        q.push(_entry(0.5, 0))
        q.push(_entry(0.6, 1))
        q.push(_entry(7.5, 2))
        assert q.n_days == 2
        q.pop()
        assert q.n_days == 2  # today still pending + day 7
        q.pop()
        assert q.n_days == 1

    def test_popped_slot_releases_entry_reference(self):
        # The slab recycler gates on refcount: a popped entry must not
        # linger inside the queue's day list.
        class Obj:
            pass

        obj = Obj()
        ref = weakref.ref(obj)
        q = CalendarQueue()
        q.push((1.0, NORMAL, 0, obj))
        q.push((2.0, NORMAL, 1, "tail"))  # keeps the day list alive
        entry = q.pop()
        assert entry[3] is obj
        del entry, obj
        assert ref() is None

    def test_make_queue(self):
        assert make_queue("heap").kind == "heap"
        assert make_queue("calendar").kind == "calendar"
        with pytest.raises(ValueError):
            make_queue("fibonacci")
        assert QUEUE_KINDS == ("heap", "calendar")


class TestHeapQueueApi:
    def test_pop_le_and_peek(self):
        q = HeapQueue()
        q.push(_entry(3.0, 0))
        q.push(_entry(1.0, 1))
        assert q.peek_time() == 1.0
        assert q.pop_le(0.5) is None
        assert q.pop_le(2.0)[0] == 1.0
        assert [e[0] for e in q.entries()] == [3.0]

    def test_peek_empty(self):
        q = HeapQueue()
        assert q.peek_entry() is None
        assert q.peek_time() == float("inf")


# --------------------------------------------------------------------------
# Timeout slab
# --------------------------------------------------------------------------

def _timeout_chain(env, hops):
    for _ in range(hops):
        yield env.timeout(1.0)


@pytest.mark.parametrize("queue", QUEUE_KINDS)
class TestTimeoutSlab:
    def test_recycles_and_reuses_under_both_queues(self, queue):
        env = Environment(queue=queue)
        env.process(_timeout_chain(env, 200))
        env.run()
        assert env.dispatched_events >= 200
        assert env.slab_recycled >= 100
        assert env.slab_reused >= 100
        # Reuse really is reuse: the slab cycles a bounded object set.
        assert env.slab_reused <= env.slab_recycled

    def test_slab_disabled_under_schedule_policy(self, queue):
        env = Environment(queue=queue)
        env.schedule_policy = SchedulePolicy()
        env.process(_timeout_chain(env, 50))
        env.run()
        assert env.slab_recycled == 0
        assert env.slab_reused == 0

    def test_held_timeout_is_not_recycled(self, queue):
        env = Environment(queue=queue)
        held = []

        def holder():
            t = env.timeout(1.0)
            held.append(t)  # extra reference: refcount gate must refuse
            yield t

        env.process(holder())
        env.run()
        assert env.slab_recycled == 0
        assert held[0].ok

    def test_reused_timeout_is_fresh(self, queue):
        env = Environment(queue=queue)
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

    def test_timeout_at_draws_from_the_slab_too(self, queue):
        env = Environment(queue=queue)
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


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_empty_step_hooks_invoke_nothing(queue):
    # Both dispatch bodies — step(), and run()'s one loop entered to
    # quiescence, until an event and until a time — must skip hook
    # dispatch entirely when the list is empty: no iterator, no callable
    # invocation, per event.
    env = Environment(queue=queue)
    env.step_hooks = _NoIterList()
    env.process(_timeout_chain(env, 20))
    env.run()  # to quiescence

    env2 = Environment(queue=queue)
    env2.step_hooks = _NoIterList()
    proc = env2.process(_timeout_chain(env2, 5))
    env2.run(until=proc)  # until an event

    env3 = Environment(queue=queue)
    env3.step_hooks = _NoIterList()
    env3.process(_timeout_chain(env3, 20))
    env3.run(until=10.0)  # until a time
    while env3.peek() != float("inf"):
        env3.step()  # step() path
    assert env3.now >= 20.0


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_installed_hook_fires_per_event(queue):
    env = Environment(queue=queue)
    seen = []
    env.step_hooks.append(lambda e, ev: seen.append((e.now, type(ev))))
    env.process(_timeout_chain(env, 3))
    env.run()
    assert len(seen) >= 3
    assert any(cls is Timeout for _, cls in seen)
