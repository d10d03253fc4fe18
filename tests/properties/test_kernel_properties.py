"""Property-based stress of the simulation kernel itself.

The entire reproduction rests on the kernel's determinism and on its
resource primitives conserving state under arbitrary interleavings; these
tests generate random process graphs and hammer both.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.host import CostModel, Cpu
from repro.sim import (
    AllOf,
    BandwidthServer,
    Environment,
    Resource,
    Store,
)

_SETTINGS = settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


class TestKernelDeterminism:
    @_SETTINGS
    @given(st.lists(
        st.tuples(
            st.floats(0.1, 50.0),    # initial delay
            st.integers(1, 6),       # steps
            st.floats(0.1, 20.0),    # per-step delay
        ),
        min_size=1, max_size=12,
    ))
    def test_random_process_forests_replay_identically(self, specs):
        def run_once():
            env = Environment()
            log = []

            def worker(tag, delay0, steps, per_step):
                yield env.timeout(delay0)
                for step in range(steps):
                    yield env.timeout(per_step)
                    log.append((round(env.now, 9), tag, step))

            for tag, (delay0, steps, per_step) in enumerate(specs):
                env.process(worker(tag, delay0, steps, per_step))
            env.run()
            return log

        assert run_once() == run_once()

    @_SETTINGS
    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=20))
    def test_time_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def watcher(delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in delays:
            env.process(watcher(delay))
        env.run()
        assert observed == sorted(observed)


class TestResourceConservation:
    @_SETTINGS
    @given(
        capacity=st.integers(1, 4),
        users=st.integers(1, 15),
        data=st.data(),
    )
    def test_capacity_never_exceeded(self, capacity, users, data):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        concurrency = {"now": 0, "max": 0}
        holds = [data.draw(st.floats(0.1, 5.0)) for _ in range(users)]

        def user(hold):
            request = resource.request()
            yield request
            concurrency["now"] += 1
            concurrency["max"] = max(concurrency["max"],
                                     concurrency["now"])
            yield env.timeout(hold)
            concurrency["now"] -= 1
            resource.release(request)

        for hold in holds:
            env.process(user(hold))
        env.run()
        assert concurrency["max"] <= capacity
        assert concurrency["now"] == 0
        assert resource.in_use == 0

    @_SETTINGS
    @given(items=st.lists(st.integers(), min_size=0, max_size=30),
           capacity=st.one_of(st.none(), st.integers(1, 5)))
    def test_store_conserves_and_orders_items(self, items, capacity):
        env = Environment()
        store: Store[int] = Store(env, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                received.append((yield store.get()))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items
        assert len(store) == 0


class TestBandwidthConservation:
    @_SETTINGS
    @given(st.lists(st.integers(64, 1 << 16), min_size=1, max_size=10))
    def test_total_time_at_least_sum_of_service_times(self, sizes):
        env = Environment()
        server = BandwidthServer(env, rate_mbps=100.0)
        done = []

        def stream(nbytes):
            yield from server.hold(nbytes)
            done.append(env.now)

        for nbytes in sizes:
            env.process(stream(nbytes))
        env.run()
        total_service = sum(sizes) / 100.0
        assert max(done) == pytest.approx(total_service, rel=1e-9)
        assert server.total_bytes == sum(sizes)


class TestConditionProperties:
    @_SETTINGS
    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=15))
    def test_allof_completes_at_max_delay(self, delays):
        env = Environment()
        events = [env.timeout(delay) for delay in delays]
        condition = AllOf(env, events)
        env.run(until=condition)
        assert env.now == pytest.approx(max(delays))


class TestRegisterBlockCharge:
    @_SETTINGS
    @given(st.floats(0.0, 1e7), st.floats(1e-3, 50.0), st.integers(1, 8),
           st.integers(0, 7), st.booleans())
    def test_indistinguishable_from_the_chain_of_single_charges(
            self, start, cost, count, rival_at, read):
        """``Cpu.mmio_reg_block`` against ``count`` single charges: same
        final instant bit for bit, same ``busy_us`` and ``pushed_at`` —
        and the same order against a rival timer that enters the queue
        *during* the block and is due at the very instant it ends.  (One
        ``Timeout`` for the whole block passes the first half and fails
        the second: pushed when the block starts, it overtakes the rival.)
        """
        model = CostModel(mmio_reg_read_us=cost, mmio_reg_write_us=cost / 3)
        step = cost if read else cost / 3
        grid = [start]
        for _ in range(count):
            grid.append(grid[-1] + step)

        def run(block):
            env = Environment(initial_time=start)
            cpu = Cpu(env, model)
            log = []

            def charged():
                if block:
                    yield from cpu.mmio_reg_block(count, read=read)
                else:
                    for _ in range(count):
                        yield from (cpu.mmio_reg_read() if read
                                    else cpu.mmio_reg_write())
                log.append(("block", env.now, env.pushed_at, cpu.busy_us))

            def rival():
                yield env.timeout_at(grid[min(rival_at, count - 1)])
                yield env.timeout_at(grid[-1])
                log.append(("rival", env.now))

            env.process(charged())
            env.process(rival())
            env.run()
            return repr(log)

        assert run(block=True) == run(block=False)
