"""Unit tests for Resource, Store, BandwidthServer and Channel."""

from __future__ import annotations

import pytest

from repro.sim import (
    BandwidthServer,
    Environment,
    Join,
    Resource,
    SchedulePolicy,
    SimulationError,
    Store,
)
from repro.sim.resources import Channel


class TestResource:
    def test_capacity_enforced(self, env):
        resource = Resource(env, capacity=2)
        log = []

        def user(tag, hold):
            req = resource.request()
            yield req
            log.append(("in", tag, env.now))
            yield env.timeout(hold)
            resource.release(req)
            log.append(("out", tag, env.now))

        for tag in range(3):
            env.process(user(tag, 10.0))
        env.run()
        # Third user enters only when the first leaves.
        assert ("in", 2, 10.0) in log

    def test_fifo_granting(self, env):
        resource = Resource(env, capacity=1)
        order = []

        def user(tag):
            req = resource.request()
            yield req
            order.append(tag)
            yield env.timeout(1.0)
            resource.release(req)

        for tag in range(4):
            env.process(user(tag))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_release_unheld_raises(self, env):
        r1, r2 = Resource(env), Resource(env)
        req = r1.request()
        with pytest.raises(SimulationError):
            r2.release(req)

    def test_cancel_queued_request(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        queued = resource.request()
        assert resource.queue_length == 1
        resource.release(queued)  # cancel before grant
        assert resource.queue_length == 0
        resource.release(first)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)


class TestQuietInstantGrant:
    """A free resource requested at a quiet instant comes back already
    processed (no event); anything less than quiet keeps the evented
    grant.  Both queue backends, via the ``kernel`` fixture."""

    @staticmethod
    def _request_at_t5(env, resource, seen, before=None):
        """A process that wakes alone at t=5 and requests ``resource``."""
        def body():
            yield env.timeout(5.0)
            if before is not None:
                before()
            scheduled = env.scheduled_events
            req = resource.request()
            seen.update(processed=req.processed,
                        pushed=env.scheduled_events - scheduled,
                        pushed_at=env.pushed_at)
            got = yield req
            seen.update(value=got, granted_at=env.now)
            resource.release(req)
        return env.process(body())

    def test_free_and_quiet_is_born_processed(self, kernel):
        env = Environment()
        resource = Resource(env)
        seen = {}
        self._request_at_t5(env, resource, seen)
        env.run()
        assert seen == {"processed": True, "pushed": 0, "pushed_at": 5.0,
                        "value": resource, "granted_at": 5.0}
        assert resource.grant_count == 1 and resource.in_use == 0
        # Initialize, the timeout, the process's own termination: no Request.
        assert env.dispatched_events == 3

    def test_same_instant_entry_pending_keeps_the_event(self, kernel):
        env = Environment()
        resource = Resource(env)
        order = []
        seen = {}
        self._request_at_t5(env, resource, seen,
                            before=lambda: order.append("requested"))

        def other():
            # Started second, so its timer is pushed later and due at the
            # same instant: it must still run between the request and
            # the grant, exactly as with the evented grant.
            yield env.timeout(5.0)
            order.append("other" if "granted_at" not in seen else "late")

        env.process(other())
        env.run()
        assert (seen["processed"], seen["pushed"]) == (False, 1)
        assert seen["granted_at"] == 5.0
        assert order == ["requested", "other"]

    def test_event_pushed_earlier_in_the_dispatch_keeps_the_event(self, kernel):
        env = Environment()
        resource = Resource(env)
        seen = {}
        self._request_at_t5(env, resource, seen,
                            before=lambda: env.event().succeed())
        env.run()
        assert (seen["processed"], seen["pushed"]) == (False, 1)

    def test_two_callback_dispatch_keeps_the_event(self, kernel):
        env = Environment()
        resource = Resource(env)
        shared = env.timeout(5.0)
        order = []

        def first():
            yield shared
            req = resource.request()
            order.append(("first requested", req.processed))
            yield req
            order.append("first granted")
            resource.release(req)

        def second():
            yield shared
            order.append("second ran")

        env.process(first())
        env.process(second())
        env.run()
        # The other waiter of the same event runs before the grant lands.
        assert order == [("first requested", False), "second ran",
                         "first granted"]

    def test_policy_installed_keeps_the_event(self, kernel):
        env = Environment(schedule_policy=SchedulePolicy())
        resource = Resource(env)
        seen = {}
        self._request_at_t5(env, resource, seen)
        env.run()
        assert (seen["processed"], seen["pushed"]) == (False, 1)
        assert env.dispatched_events == 4

    def test_no_dispatch_in_progress_keeps_the_event(self, kernel):
        env = Environment()
        resource = Resource(env)
        env.run()                      # a finished run leaves nothing behind
        req = resource.request()
        assert not req.processed and env.scheduled_events == 1
        env.step()                     # ... and neither does step()
        assert req.processed
        again = Resource(env).request()
        assert not again.processed

    def test_contended_requests_stay_fifo(self, kernel):
        env = Environment()
        resource = Resource(env)
        order = []

        def user(tag):
            yield env.timeout(1.0 + tag)
            req = resource.request()
            order.append((tag, req.processed))
            yield req
            order.append(("in", tag, env.now))
            yield env.timeout(10.0)
            resource.release(req)

        for tag in range(3):
            env.process(user(tag))
        env.run()
        assert order == [(0, True), ("in", 0, 1.0), (1, False), (2, False),
                         ("in", 1, 11.0), ("in", 2, 21.0)]

    def test_timeout_held_across_an_inline_grant_is_not_recycled(self, kernel):
        # The slab proves a Timeout unobservable by counting references,
        # the kernel's own "now dispatching" slot among them; carrying on
        # inside that dispatch after an inline grant must not upset the
        # count.
        env = Environment()
        resource = Resource(env)
        seen = []

        def body():
            timer = env.timeout(5.0, value="mine")   # our local: one ref
            yield timer
            req = resource.request()
            assert req.processed
            yield req
            resource.release(req)
            yield env.timeout(1.0)      # would draw `timer` from the slab
            seen.append(timer.value)

        env.process(body())
        env.run()
        assert seen == ["mine"] and env.slab_reused == 0


class TestStore:
    def test_fifo_order(self, env):
        store: Store[int] = Store(env)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(consumer())

        def producer():
            for item in (10, 20, 30):
                yield env.timeout(1.0)
                store.put(item)

        env.process(producer())
        env.run()
        assert got == [10, 20, 30]

    def test_get_blocks_until_put(self, env):
        store: Store[str] = Store(env)
        times = []

        def consumer():
            item = yield store.get()
            times.append((item, env.now))

        env.process(consumer())

        def producer():
            yield env.timeout(5.0)
            store.put("late")

        env.process(producer())
        env.run()
        assert times == [("late", 5.0)]

    def test_bounded_put_blocks(self, env):
        store: Store[int] = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put(1)
            log.append(("put1", env.now))
            yield store.put(2)
            log.append(("put2", env.now))

        env.process(producer())

        def consumer():
            yield env.timeout(10.0)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(consumer())
        env.run()
        assert ("put1", 0.0) in log
        assert ("put2", 10.0) in log

    def test_try_put_try_get(self, env):
        store: Store[int] = Store(env, capacity=1)
        assert store.try_put(1)
        assert not store.try_put(2)
        ok, item = store.try_get()
        assert ok and item == 1
        ok, item = store.try_get()
        assert not ok and item is None

    def test_direct_handoff_to_waiting_getter(self, env):
        store: Store[int] = Store(env, capacity=1)
        results = []

        def consumer():
            item = yield store.get()
            results.append(item)

        env.process(consumer())
        env.run()  # consumer now waiting
        assert store.try_put(99)
        env.run()
        assert results == [99]
        assert len(store) == 0


def _served(server, nbytes):
    """Wait (from a process) until ``server``'s stage has served ``nbytes``."""
    done = Join(server.env, 1)
    server.stage(nbytes, done.arrive)
    yield done


class TestBandwidthServer:
    def test_service_time(self, env):
        server = BandwidthServer(env, rate_mbps=100.0)  # 100 B/us

        def user():
            yield from _served(server, 1000)
            return env.now

        assert env.run(until=env.process(user())) == 10.0

    def test_contention_halves_rate(self, env):
        """Two equal streams through one server each see half the rate."""
        server = BandwidthServer(env, rate_mbps=100.0)
        finish = {}

        def stream(tag):
            for _ in range(10):
                yield from _served(server, 100)  # 1 µs each alone
            finish[tag] = env.now

        env.process(stream("a"))
        env.process(stream("b"))
        env.run()
        # 20 holds of 1 µs each, serialized: both finish around 20 µs.
        assert finish["a"] == pytest.approx(20.0, abs=1.1)
        assert finish["b"] == pytest.approx(20.0, abs=1.1)

    def test_utilization_accounting(self, env):
        server = BandwidthServer(env, rate_mbps=50.0)

        def user():
            yield from _served(server, 500)  # 10 us busy

        env.process(user())
        env.run(until=20.0)
        assert server.total_bytes == 500
        assert server.utilization() == pytest.approx(0.5)

    def test_invalid_rate(self, env):
        with pytest.raises(ValueError):
            BandwidthServer(env, rate_mbps=0)

    def test_stage_takes_a_grant_and_a_timer_and_no_process(self, kernel):
        """A free server at a quiet instant: the stage is granted inline
        and costs its service timer only; a busy one queues FIFO and is
        granted by the release, all in callbacks."""
        env = Environment()
        server = BandwidthServer(env, rate_mbps=100.0)
        log = []

        def kick(_timer):
            dispatched = env.dispatched_events
            for tag in ("a", "b"):
                server.stage(100, lambda tag=tag: log.append(
                    (tag, env.now, env.dispatched_events - dispatched)))

        env.timeout(1.0).callbacks.append(kick)
        env.run()
        # a: its timer; b: the grant its release made, then its timer.
        assert log == [("a", 2.0, 1), ("b", 3.0, 3)]
        assert server.total_bytes == 200 and server.busy_time_us == 2.0
        with pytest.raises(ValueError):
            server.stage(-1, lambda: None)


class TestStorePush:
    def test_push_makes_no_event(self, kernel):
        env = Environment()
        store: Store[int] = Store(env)
        store.push(1)
        assert env.scheduled_events == 0 and store.items == (1,)

    def test_push_hands_to_a_waiting_getter(self, kernel):
        env = Environment()
        store: Store[int] = Store(env)
        got = []

        def consumer():
            got.append((yield store.get()))

        env.process(consumer())
        env.run()
        store.push(7)
        env.run()
        assert got == [7] and len(store) == 0

    def test_full_store_parks_pushes_and_admits_them_fifo(self, kernel):
        env = Environment()
        store: Store[int] = Store(env, capacity=1)
        for item in range(4):
            store.push(item)
        assert store.items == (0,) and store.put_count == 4
        received = []

        def consumer():
            for _ in range(4):
                received.append((yield store.get()))
                yield env.timeout(1.0)

        env.process(consumer())
        env.run()
        assert received == [0, 1, 2, 3] and len(store) == 0


class TestChannel:
    def test_delayed_delivery(self, env):
        channel: Channel[str] = Channel(env, delay=3.0)
        got = []

        def consumer():
            message = yield channel.recv()
            got.append((message, env.now))

        env.process(consumer())

        def producer():
            yield env.timeout(1.0)
            channel.send("hello")

        env.process(producer())
        env.run()
        assert got == [("hello", 4.0)]

    def test_zero_delay(self, env):
        channel: Channel[int] = Channel(env)
        channel.send(7)
        got = []

        def consumer():
            got.append((yield channel.recv()))

        env.process(consumer())
        env.run()
        assert got == [7]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Channel(env, delay=-1.0)
