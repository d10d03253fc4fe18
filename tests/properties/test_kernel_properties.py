"""Property-based stress of the simulation kernel itself.

The entire reproduction rests on the kernel's determinism and on its
resource primitives conserving state under arbitrary interleavings; these
tests generate random process graphs and hammer both.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.host import CostModel, Cpu
from repro.memory import PhysicalMemory, PhysSegment
from repro.ntb import DmaConfig, DmaDirection, DmaEngine, LinkDownError
from repro.pcie import Link, LinkConfig
from repro.sim import (
    AllOf,
    BandwidthServer,
    Environment,
    Join,
    Resource,
    Store,
)
from repro.sim.queues import QUEUE_KINDS

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
        """Every push is admitted FIFO: past ``capacity`` it parks until a
        get makes room, and a getter waiting on an empty store takes the
        next push directly."""
        env = Environment()
        store: Store[int] = Store(env, capacity=capacity)
        received = []

        def producer():
            for index, item in enumerate(items):
                if index % 3 == 2:
                    yield env.timeout(1.0)
                store.push(item)
                assert capacity is None or len(store) <= capacity

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
            served = Join(env, 1)
            server.stage(nbytes, served.arrive)
            yield served
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


# ---------------------------------------------------------------------------
# The DMA pipeline against the pump it replaced
# ---------------------------------------------------------------------------

def _reference_hold(server, nbytes):
    """``BandwidthServer.hold``: a port or pump stage as a process."""
    req = server._server.request()
    yield req
    try:
        duration = server.service_time_us(nbytes)
        yield server.env.timeout(duration)
        server.total_bytes += nbytes
        server.busy_time_us += duration
    finally:
        server._server.release(req)


def _reference_wire(link, nbytes):
    """``Link.transfer(nbytes, propagate=False)``: the wire stage as a
    process."""
    env = link.env
    if link.fault_extra_delay_us:
        yield env.timeout(link.fault_extra_delay_us)
    if link.down:
        yield env.timeout(link.config.serialization_time_us(nbytes))
        link.dropped_bytes += nbytes
        return
    req = link._wire.request()
    yield req
    try:
        ser = link.config.serialization_time_us(nbytes)
        with link.scope.span("link_transit", category="link",
                             track=link.name, nbytes=nbytes):
            yield env.timeout(ser)
        link.payload_bytes += nbytes
        link.busy_time_us += ser
    finally:
        link._wire.release(req)


class ReferencePump(DmaEngine):
    """The engine before callback stages: four spawned stage processes
    and an ``AllOf`` per chunk."""

    def _pump_segment(self, src_mem, src_addr, src_port, dst_mem, dst_addr,
                      dst_port, nbytes, link):
        env = self.env
        if link.config.propagation_delay_us:
            yield env.timeout(link.config.propagation_delay_us)
        offset = 0
        while offset < nbytes:
            if link.down:
                raise LinkDownError(f"{self.name}: link went down")
            take = min(self.config.pipeline_chunk, nbytes - offset)
            stages = [
                env.process(_reference_hold(src_port, take),
                            name=f"{src_port.name}.hold"),
                env.process(_reference_wire(link, take),
                            name=f"{self.name}.wire"),
                env.process(_reference_hold(dst_port, take),
                            name=f"{dst_port.name}.hold"),
                env.process(_reference_hold(self._pump, take),
                            name=f"{self._pump.name}.hold"),
            ]
            self.scope.bind_process(stages[1], self.scope.current_span_id())
            yield env.all_of(stages)
            dst_mem.write(dst_addr + offset,
                          src_mem.view(src_addr + offset, take))
            offset += take


_MEMORY = 1 << 18
_SLOT = 1 << 16
#: Commensurable rates (B/µs) so that stage ends tie, plus odd ones.
_RATES = st.sampled_from([256.0, 512.0, 1024.0, 2900.0, 4096.0, 12800.0,
                          333.3])
_SIZES = st.sampled_from([100, 512, 4096, 5000, 16384, 20000])
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, 8.0, 20.0])


@st.composite
def _pipelines(draw):
    n_ports = draw(st.integers(1, 3))
    n_links = draw(st.integers(1, 2))
    n_pumps = draw(st.integers(1, 3))
    engines = draw(st.lists(st.fixed_dictionaries({
        "port": st.integers(0, n_ports - 1),
        "peer_port": st.integers(0, n_ports - 1),
        "link": st.integers(0, n_links - 1),
        "pump": st.integers(0, n_pumps - 1),
        "config": st.builds(
            DmaConfig,
            setup_time_us=st.sampled_from([0.0, 0.5, 2.0]),
            per_descriptor_us=st.sampled_from([0.0, 1.0, 9.0]),
            pipeline_chunk=st.sampled_from([512, 4096, 16384]),
            completion_latency_us=st.sampled_from([0.0, 2.0]),
            read_roundtrip_us=st.sampled_from([0.0, 3.0]),
            channels=st.integers(1, 2)),
        "requests": st.lists(st.tuples(
            _TIMES, st.booleans(), st.booleans(),
            st.lists(_SIZES, min_size=1, max_size=3)),
            min_size=1, max_size=3),
    }), min_size=1, max_size=3))
    return {
        "backend": draw(st.sampled_from(QUEUE_KINDS)),
        "ports": draw(st.lists(_RATES, min_size=n_ports, max_size=n_ports)),
        "pumps": draw(st.lists(_RATES, min_size=n_pumps, max_size=n_pumps)),
        "links": draw(st.lists(st.builds(
            LinkConfig,
            generation=st.sampled_from([1, 2, 3]),
            lanes=st.sampled_from([1, 4, 8]),
            propagation_delay_us=st.sampled_from([0.0, 0.5])),
            min_size=n_links, max_size=n_links)),
        "engines": engines,
        # rival holders of a port (0), wire (1) or pump (2)
        "rivals": draw(st.lists(st.tuples(
            _TIMES, st.integers(0, 2), st.integers(0, 2),
            st.sampled_from([0.5, 1.0, 4.0])), max_size=4)),
        # rival timers: which instant of a first run, how early pushed,
        # and whether they then contend for a resource
        "timers": draw(st.lists(st.tuples(
            st.integers(0, 10_000), st.sampled_from([0.0, 0.5, 0.999]),
            st.one_of(st.none(), st.tuples(st.integers(0, 2),
                                           st.integers(0, 2)))),
            max_size=6)),
    }


def _run_pipeline(spec, engine_class, instants=()):
    """Run ``spec`` with ``engine_class``; returns every observation as
    one string, the event count and every dispatched instant."""
    env = Environment(queue=spec["backend"])
    log = []

    def note(*what):
        log.append((*what, env.now))

    def watched(resource):
        request, release = resource.request, resource.release

        def on_request():
            note("request", resource.name)
            return request()

        def on_release(req):
            note("release", resource.name)
            release(req)
        resource.request, resource.release = on_request, on_release
        return resource

    ports = [BandwidthServer(env, rate, name=f"port{i}")
             for i, rate in enumerate(spec["ports"])]
    pumps = [BandwidthServer(env, rate, name=f"pump{i}")
             for i, rate in enumerate(spec["pumps"])]
    links = [Link(env, config, name=f"link{i}")
             for i, config in enumerate(spec["links"])]
    kinds = ([p._server for p in ports], [lk._wire for lk in links],
             [p._server for p in pumps])
    for resources in kinds:
        for resource in resources:
            watched(resource)

    memories = []
    for index, shape in enumerate(spec["engines"]):
        engine = engine_class(env, shape["config"], name=f"dma{index}")
        engine._pump = pumps[shape["pump"]]
        local = PhysicalMemory(_MEMORY, name=f"local{index}")
        local.write(0, (np.arange(_MEMORY) * (index + 3) % 251)
                    .astype(np.uint8))
        peer = PhysicalMemory(_MEMORY, name=f"peer{index}")
        peer_port = ports[shape["peer_port"]]
        engine.attach(local, ports[shape["port"]],
                      lambda _w, offset, _n, peer=peer, port=peer_port:
                      (peer, offset, port),
                      links[shape["link"]], links[shape["link"]])
        memories += [local, peer]

        def submitter(engine, slot, at, read, chained, sizes):
            yield env.timeout(at)
            segments, cursor = [], slot * _SLOT
            for size in sizes:
                segments.append(PhysSegment(cursor, size))
                cursor += size
            request = engine.submit(
                DmaDirection.READ if read else DmaDirection.WRITE,
                0, slot * _SLOT, segments, chained=chained)
            yield request.done
            note("done", engine.name, slot, request.completed_at)

        for slot, (at, read, chained, sizes) in enumerate(shape["requests"]):
            env.process(submitter(engine, slot, at, read, chained, sizes))

    def rival(tag, at, kind, index, hold):
        resources = kinds[kind]
        resource = resources[index % len(resources)]
        yield env.timeout(at)
        req = resource.request()
        yield req
        note("rival in", tag)
        yield env.timeout(hold)
        resource.release(req)
        note("rival out", tag)

    for tag, (at, kind, index, hold) in enumerate(spec["rivals"]):
        env.process(rival(tag, at, kind, index, hold))

    def timer(tag, when, early, contend):
        yield env.timeout(when * early)
        yield env.timeout_at(when)
        note("timer", tag)
        if contend is not None:
            yield from rival(f"t{tag}", 0.0, *contend, 0.5)

    for tag, (pick, early, contend) in enumerate(spec["timers"]):
        if instants:
            env.process(timer(tag, instants[pick % len(instants)], early,
                              contend))

    seen = []
    env.step_hooks.append(lambda env, _event: seen.append(env.now))
    env.run()
    stats = ([(p.name, p.total_bytes, p.busy_time_us) for p in ports + pumps]
             + [(lk.name, lk.payload_bytes, lk.busy_time_us) for lk in links]
             + [hashlib.sha1(m._data.tobytes()).hexdigest()
                for m in memories])
    return repr((log, stats, env.now)), env.dispatched_events, seen


class TestDmaPipeline:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(_pipelines())
    def test_callback_stages_observe_as_the_four_process_pump(self, spec):
        """One ``Join`` and four callback stages per chunk against the
        four spawned stage processes + ``AllOf`` they replaced: the same
        completion instants, the same order of every request and release
        on every port, wire and pump (so the same grant order), the same
        byte/busy accounting and memory contents, and every rival —
        resource holders, and timers due at the very instants the
        reference dispatched something (stage ends, chunk starts) —
        observing the same things in the same order.  With fewer
        events."""
        _, _, instants = _run_pipeline(spec, ReferencePump)
        reference, reference_events, _ = _run_pipeline(
            spec, ReferencePump, instants)
        callbacks, events, _ = _run_pipeline(spec, DmaEngine, instants)
        assert callbacks == reference
        assert events < reference_events
