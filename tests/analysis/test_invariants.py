"""NTB model invariant checks: each rule fires on a broken model and stays
quiet on healthy ones (including a full cluster after a real SPMD run)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ShmemConfig, run_spmd
from repro.analysis.invariants import (
    InvariantError,
    check_cluster,
    check_dma_engine,
    check_doorbell,
    check_endpoint_windows,
    check_span_balance,
    render_violations,
)
from repro.fabric import Cluster, ClusterConfig
from repro.ntb.bar import IncomingTranslation
from repro.ntb.doorbell import DoorbellRegister
from repro.sim import Environment


class _FakeEndpoint:
    def __init__(self, incoming):
        self.incoming = incoming


# ----------------------------------------------------------- window overlap
def test_overlapping_windows_flagged():
    first = IncomingTranslation(window_index=0)
    second = IncomingTranslation(window_index=1)
    first.program(0x1000, 0x2000)
    second.program(0x2800, 0x1000)  # overlaps [0x2800, 0x3000)
    violations = check_endpoint_windows(
        _FakeEndpoint([first, second]), "host0.right"
    )
    assert [v.rule for v in violations] == ["window-overlap"]
    assert "0x2800" in violations[0].detail


def test_disjoint_windows_clean():
    first = IncomingTranslation(window_index=0)
    second = IncomingTranslation(window_index=1)
    first.program(0x1000, 0x1000)
    second.program(0x2000, 0x1000)  # adjacent, not overlapping
    assert check_endpoint_windows(
        _FakeEndpoint([first, second]), "host0.right"
    ) == []


def test_disabled_window_ignored():
    first = IncomingTranslation(window_index=0)
    second = IncomingTranslation(window_index=1)
    first.program(0x1000, 0x2000)
    second.program(0x1000, 0x2000)  # would overlap...
    second.disable()                # ...but is disabled
    assert check_endpoint_windows(
        _FakeEndpoint([first, second]), "host0.right"
    ) == []


# ------------------------------------------------------ dma descriptor reuse
def _probed_pair():
    cluster = Cluster(ClusterConfig(n_hosts=2, topology="chain"))
    cluster.run_probe()
    return cluster


def test_queued_completed_request_flagged():
    cluster = _probed_pair()
    driver = cluster.driver(0, "right")
    engine = driver.endpoint.dma
    # Craft a descriptor whose completion event has already fired and
    # sneak it back into the ring: classic reuse-before-completion.
    from repro.memory import PhysSegment
    from repro.ntb.dma import DmaDirection, DmaRequest

    done = cluster.env.event()
    done.succeed(None)
    stale = DmaRequest(
        direction=DmaDirection.WRITE, window_index=0, window_offset=0,
        segments=(PhysSegment(0, 64),), done=done,
    )
    engine._ring._items.append(stale)
    violations = check_dma_engine(engine, "host0.right")
    assert [v.rule for v in violations] == ["dma-descriptor-reuse"]


def test_double_queued_request_flagged():
    cluster = _probed_pair()
    engine = cluster.driver(0, "right").endpoint.dma
    from repro.memory import PhysSegment
    from repro.ntb.dma import DmaDirection, DmaRequest

    request = DmaRequest(
        direction=DmaDirection.WRITE, window_index=0, window_offset=0,
        segments=(PhysSegment(0, 64),), done=cluster.env.event(),
    )
    engine._ring._items.append(request)
    engine._ring._items.append(request)
    violations = check_dma_engine(engine, "host0.right")
    assert any(v.rule == "dma-descriptor-reuse" and "twice" in v.detail
               for v in violations)


def test_fresh_engine_clean():
    cluster = _probed_pair()
    engine = cluster.driver(0, "right").endpoint.dma
    assert check_dma_engine(engine, "host0.right") == []


# ------------------------------------------------- doorbell write-while-pending
def test_masked_pending_doorbell_flagged():
    env = Environment()
    doorbell = DoorbellRegister(env, name="db")
    doorbell.set_mask(3)
    doorbell.latch(3)  # rings while masked: latched, never delivered
    violations = check_doorbell(doorbell, "host1.left")
    assert [v.rule for v in violations] == ["doorbell-write-while-pending"]
    assert "[3]" in violations[0].detail


def test_unmasked_pending_doorbell_not_flagged():
    # Pending-but-unmasked just means the ISR has not run yet — the
    # interrupt fired, delivery is in progress, nothing is lost.
    env = Environment()
    doorbell = DoorbellRegister(env, name="db")
    doorbell.latch(5)
    assert check_doorbell(doorbell, "host1.left") == []


def test_clean_doorbell():
    env = Environment()
    doorbell = DoorbellRegister(env, name="db")
    assert check_doorbell(doorbell, "host1.left") == []


def test_only_masked_pending_bits_reported():
    # Mixed state: bit 2 latched behind the mask (lost), bit 5 latched
    # but unmasked (delivery in progress).  Only the lost one counts.
    env = Environment()
    doorbell = DoorbellRegister(env, name="db")
    doorbell.set_mask(2)
    doorbell.latch(2)
    doorbell.latch(5)
    violations = check_doorbell(doorbell, "host1.left")
    assert [v.rule for v in violations] == ["doorbell-write-while-pending"]
    assert "[2]" in violations[0].detail
    assert "5" not in violations[0].detail.split("latched")[0]


def test_zero_size_enabled_window_flagged():
    # program() refuses size <= 0, so forge the state a buggy driver
    # could reach by poking registers directly: enabled with no range.
    window = IncomingTranslation(window_index=0)
    window.translation_address = 0x1000
    window.translation_size = 0
    window.enabled = True
    violations = check_endpoint_windows(
        _FakeEndpoint([window]), "host0.right"
    )
    assert [v.rule for v in violations] == ["window-overlap"]
    assert "non-positive size" in violations[0].detail


# ----------------------------------------------------------------- cluster walk
def test_check_cluster_clean_after_real_run():
    def main(pe):
        sym = yield from pe.malloc_array(8, np.int64)
        right = (pe.my_pe() + 1) % pe.num_pes()
        yield from pe.put_array(
            sym, np.full(8, pe.my_pe(), dtype=np.int64), right
        )
        yield from pe.barrier_all()
        return pe.my_pe()

    report = run_spmd(main, n_pes=3)
    assert check_cluster(report.cluster, strict=True) == []


def test_check_cluster_strict_raises():
    cluster = _probed_pair()
    doorbell = cluster.driver(0, "right").endpoint.doorbell
    doorbell.set_mask(2)
    doorbell.latch(2)
    with pytest.raises(InvariantError) as excinfo:
        check_cluster(cluster, strict=True)
    assert "doorbell-write-while-pending" in str(excinfo.value)
    # Non-strict returns the violations instead.
    violations = check_cluster(cluster, strict=False)
    assert len(violations) == 1


def test_sanitized_run_spmd_checks_invariants():
    """run_spmd wires check_cluster in automatically when sanitizing."""

    def main(pe):
        yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=2,
                      shmem_config=ShmemConfig(sanitize="strict"))
    assert report.results == [True, True]


# ------------------------------------------------------------- span balance
def test_balanced_scope_clean():
    from repro.obsv import ShmemScope

    env = Environment()
    scope = ShmemScope(env)
    with scope.span("put", category="op", track="pe0"):
        pass
    assert check_span_balance(scope) == []


def test_open_span_flagged():
    from repro.obsv import ShmemScope

    env = Environment()
    scope = ShmemScope(env)
    scope.span_open("put", "op", "pe0", None, {})
    [violation] = check_span_balance(scope)
    assert violation.rule == "span-unbalanced"
    assert "never" in violation.detail and "'put'" in violation.detail


def test_callback_stage_span_left_open_flagged():
    from repro.obsv import ShmemScope

    env = Environment()
    scope = ShmemScope(env)
    closed = scope.begin_span("fc_stall", "link", "cable", None, nbytes=8)
    scope.end_span(closed)
    scope.begin_span("link_transit", "link", "cable", closed.span_id,
                     nbytes=8)
    [violation] = check_span_balance(scope)
    assert violation.rule == "span-unbalanced"
    assert "'link_transit'" in violation.detail


def test_unadopted_binding_flagged():
    from repro.obsv import ShmemScope

    env = Environment()
    scope = ShmemScope(env)
    with scope.span("put", category="op", track="pe0"):
        scope.bind_msg(("msg", 1), scope.current_span_id())
    [violation] = check_span_balance(scope)
    assert violation.rule == "span-unbalanced"
    assert "adopted" in violation.detail


def test_sanitized_traced_run_audits_span_balance():
    """check_cluster picks up cluster.scope on sanitized traced runs."""

    def main(pe):
        sym = yield from pe.malloc_array(8, np.int64)
        target = (pe.my_pe() + 2) % pe.num_pes()  # non-neighbor: 2 hops
        if pe.my_pe() == 0:
            yield from pe.put_array(
                sym, np.full(8, 7, dtype=np.int64), target
            )
        yield from pe.barrier_all()
        return True

    report = run_spmd(main, n_pes=3,
                      shmem_config=ShmemConfig(sanitize="strict",
                                               trace_spans=True))
    assert report.results == [True, True, True]
    assert report.scope is not None
    assert report.scope.open_spans() == []
    assert report.scope.pending_bindings() == 0


# ----------------------------------------------------- under fault injection
def test_hardware_invariants_hold_after_sever_and_recovery():
    """A mid-run sever must not leave the NTB hardware models wedged:
    no doorbell latched behind its mask, no aliasing windows, no stale
    DMA descriptors.  Span balance is exempt under faults — an in-flight
    message eaten by the cut legitimately never reaches its decoder."""
    from repro.core import PeerUnreachableError
    from repro.faults import FaultPlan, SeverCable

    from ..conftest import pattern

    plan = FaultPlan(events=(SeverCable(3_000.0, 0, 1),))
    config = ShmemConfig(faults=plan, max_retries=8,
                         retry_backoff_us=200.0)

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        sym = yield from pe.malloc(256)
        for rnd in range(3):
            try:
                yield from pe.put_array(
                    sym, pattern(256, seed=rnd), (me + 1) % n)
            except PeerUnreachableError:
                pass
            yield from pe.barrier_all()
            yield pe.rt.env.timeout(2_500.0)
        return True

    report = run_spmd(main, 3, shmem_config=config,
                      check_heap_consistency=False)
    assert report.results == [True, True, True]
    hardware = [v for v in check_cluster(report.cluster, strict=False)
                if v.rule != "span-unbalanced"]
    assert hardware == []


def test_render_violations():
    assert "all hold" in render_violations([])
    env = Environment()
    doorbell = DoorbellRegister(env, name="db")
    doorbell.set_mask(1)
    doorbell.latch(1)
    text = render_violations(check_doorbell(doorbell, "hostX"))
    assert "hostX" in text and "doorbell" in text
