"""The fault fuzz: an oracle for "every run either completes with verified
data or raises a typed error in bounded virtual time".

Hypothesis draws a fabric — ring, 1-D mesh or torus, mesh or torus, at most 16
hosts — a router that fabric accepts, the default or the fastpath plane,
and a fault plan of one kind whose faults all land mid-traffic.  Every
PE runs the same mixed body: each round one put, one get, one AMO and one
``put_signal`` + ``wait_until``, then ``quiet`` and a barrier, with every
payload checked in the round it lands.  The run goes through
``core.program.launch`` + ``drive`` under a virtual-time horizon and an
event budget, with ShmemSan strict.  The property:

* every payload is verified, or the run ends in ``PeerUnreachableError``;
* ``quiet`` and ``finalize`` drain, and ``drive`` raises nothing else —
  no ``StuckRunError``, no race, no protocol error;
* no relay counts a ``dropped_forward`` unless the run saw a retry or a
  typed error the sender could act on.

The fault-free kind must pass.  A kind whose faults break the property is
a strict xfail, lifted once the fault path delivers end to end; every
failure prints the one-line repro of
``tests/integration/test_known_bad_inputs.py``.

The tier-1 profile is derandomized and skips the shrink phase.
``REPRO_FUZZ_PROFILE=ci`` selects the larger profile the CI chaos job
runs (with ``--hypothesis-seed=0``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core import (
    FastpathConfig,
    PeerUnreachableError,
    ShmemConfig,
    StuckRunError,
)
from repro.core.program import drive, launch, make_cluster
from repro.fabric import ClusterConfig
from repro.faults import DelayTlp, FaultPlan, RestoreCable, SeverCable

from ..conftest import pattern
from ..integration.test_known_bad_inputs import _repro

settings.register_profile(
    "fault-fuzz", max_examples=6, derandomize=True, database=None,
    phases=(Phase.generate,), report_multiple_bugs=False, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])
settings.register_profile(
    "fault-fuzz-ci", parent=settings.get_profile("fault-fuzz"),
    max_examples=60, derandomize=False)
_SETTINGS = settings.get_profile(
    "fault-fuzz-ci" if os.environ.get("REPRO_FUZZ_PROFILE") == "ci"
    else "fault-fuzz")

#: bounds of one run: the fault-free runs finish in under 61 000 events
#: and 16 ms of virtual time.
_HORIZON_US = 200_000.0
_MAX_EVENTS = 120_000
#: faults land between the end of bring-up and the last fault-free round.
_WINDOW_US = (400, 2_500)
_ROUNDS = 3

_FABRICS = (
    ClusterConfig(n_hosts=3),
    ClusterConfig(n_hosts=4),
    ClusterConfig(n_hosts=6),
    ClusterConfig(n_hosts=8),
    ClusterConfig(n_hosts=4, topology="mesh", dims=(4,)),
    ClusterConfig(n_hosts=5, topology="mesh", dims=(5,)),
    ClusterConfig(n_hosts=5, topology="torus", dims=(5,)),
    ClusterConfig(n_hosts=4, topology="mesh", dims=(2, 2)),
    ClusterConfig(n_hosts=6, topology="mesh", dims=(3, 2)),
    ClusterConfig(n_hosts=16, topology="mesh", dims=(4, 4)),
    ClusterConfig(n_hosts=9, topology="torus", dims=(3, 3)),
    ClusterConfig(n_hosts=16, topology="torus", dims=(4, 4)),
)
_GRIDS = tuple(fabric for fabric in _FABRICS if len(fabric.dims or ()) > 1)
_ONE_AXIS_ROUTERS = (None, "fixed_right", "shortest", "dimension_order",
                     "adaptive")
#: AdaptiveRouter on a multi-axis grid is its own kind, "adaptive-grid",
#: fault-free: its first hop follows the load, so put_signal's signal
#: must take its payload's path to stay behind it.
_GRID_ROUTERS = (None, "dimension_order")


def _plan(draw, kind, cables):
    """One fault plan of ``kind`` over ``cables``, every event mid-traffic:
    a sever; a sever and its restore; two sever/restore cycles (a flap);
    two cuts at one host within 200 µs (a double fault); or a TLP delay
    window."""
    if kind in ("none", "adaptive-grid"):
        return None
    a, b = draw(st.sampled_from(cables))
    at = float(draw(st.integers(*_WINDOW_US)))
    if kind == "sever":
        return FaultPlan([SeverCable(at, a, b)])
    if kind == "sever-restore":
        back = at + draw(st.integers(300, 4_000))
        return FaultPlan([SeverCable(at, a, b), RestoreCable(back, a, b)])
    if kind == "flap":
        events, t = [], at
        for _ in range(2):
            down = t + draw(st.integers(100, 1_500))
            events += [SeverCable(t, a, b), RestoreCable(down, a, b)]
            t = down + draw(st.integers(100, 1_500))
        return FaultPlan(events)
    if kind == "double":
        c, d = draw(st.sampled_from([
            cable for cable in cables
            if cable != (a, b) and {a, b} & set(cable)]))
        second = at + draw(st.integers(0, 200))
        return FaultPlan([SeverCable(at, a, b), SeverCable(second, c, d)])
    assert kind == "delay"
    return FaultPlan([DelayTlp(at, a, b, float(draw(st.integers(5, 80))),
                               at + draw(st.integers(200, 20_000)))])


@st.composite
def _cases(draw, kind):
    """``(cluster_config, shmem_config, body, seed)`` for one run."""
    if kind == "adaptive-grid":
        cluster_config = draw(st.sampled_from(_GRIDS))
        routers = ("adaptive",)
    else:
        cluster_config = draw(st.sampled_from(_FABRICS))
        routers = _GRID_ROUTERS if cluster_config in _GRIDS \
            else _ONE_AXIS_ROUTERS
    topology = cluster_config.make_topology()
    cables = sorted({(a, b) for a, _ap, b, _bp in topology.cables()})
    plan = _plan(draw, kind, cables)
    shmem_config = ShmemConfig(
        routing=draw(st.sampled_from(routers)),
        fastpath=draw(st.sampled_from((None, FastpathConfig()))),
        faults=plan, sanitize="strict",
        max_retries=8, retry_backoff_us=200.0)
    seed = draw(st.integers(0, 2**16))
    return cluster_config, shmem_config, _body(seed), seed


def _payload(size, pe, rnd):
    return pattern(size, seed=31 * pe + rnd + 1)


def _body(seed):
    """The mixed per-PE program of example ``seed``: the put and get
    distances and the message size follow from it."""
    rng = np.random.default_rng(seed)
    size = int(rng.choice((256, 4096, 20_000)))
    put_steps = [int(x) for x in rng.integers(0, 1 << 16, _ROUNDS)]
    get_step = int(rng.integers(0, 1 << 16))

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        inbox = yield from pe.malloc(2 * size)
        signalled = yield from pe.malloc(2 * size)
        published = yield from pe.malloc(size)
        counter = yield from pe.malloc(8)
        flag = yield from pe.malloc(8)
        pe.write_symmetric(published, _payload(size, me, -1))
        yield from pe.barrier_all()
        bad = []
        source = (me + get_step % (n - 1) + 1) % n
        for rnd in range(_ROUNDS):
            slot = (rnd % 2) * size
            step = put_steps[rnd] % (n - 1) + 1
            yield from pe.put(inbox + slot, _payload(size, me, rnd),
                              (me + step) % n)
            got = yield from pe.get(published, size, source)
            if not np.array_equal(got, _payload(size, source, -1)):
                bad.append(f"get round {rnd} from pe{source}")
            yield from pe.atomic_add(counter, 1, rnd % n)
            yield from pe.put_signal(signalled + slot,
                                     _payload(size, me, rnd), (me + 1) % n,
                                     flag, rnd + 1)
            yield from pe.wait_until(flag, ">=", rnd + 1)
            left = (me - 1) % n
            if not np.array_equal(pe.read_symmetric(signalled + slot, size),
                                  _payload(size, left, rnd)):
                bad.append(f"put_signal round {rnd} from pe{left}")
            yield from pe.quiet()
            yield from pe.barrier_all()
            sender = (me - step) % n
            if not np.array_equal(pe.read_symmetric(inbox + slot, size),
                                  _payload(size, sender, rnd)):
                bad.append(f"put round {rnd} from pe{sender}")
        adds = n * sum(1 for rnd in range(_ROUNDS) if rnd % n == me)
        total = int(pe.read_symmetric_array(counter, 1, np.int64)[0])
        if total != adds:
            bad.append(f"amo counter {total}, want {adds}")
        return bad

    return main


def _check(cluster_config, shmem_config, main, seed):
    """Run one case and assert the property, failing with its repro."""
    repro = _repro(shmem_config.faults or [], cluster_config, shmem_config,
                   seed=seed)
    cluster = make_cluster(cluster_config.n_hosts, cluster_config)
    runtimes, _pes, results, procs = launch(cluster, main, shmem_config)
    ended_in_error = False
    try:
        drive(cluster, procs, horizon_us=_HORIZON_US, max_events=_MAX_EVENTS)
    except PeerUnreachableError:
        ended_in_error = True
    except StuckRunError as exc:
        raise AssertionError(f"{exc.kind}: {exc}; {repro}") from exc
    except Exception as exc:  # a race, a protocol error, a PE's own bug
        raise AssertionError(
            f"{type(exc).__name__}: {exc}; {repro}") from exc
    if not ended_in_error:
        bad = {pe: result for pe, result in enumerate(results) if result}
        assert not bad, f"unverified payloads {bad}; {repro}"
    dropped = sum(rt.service.dropped_forwards for rt in runtimes)
    retries = sum(rt.retries for rt in runtimes)
    assert not dropped or retries or ended_in_error, \
        f"{dropped} dropped forwards, no retry or error seen; {repro}"


def _fuzz(kind, red=None):
    """The fuzz of one fault kind.  ``red`` is the strict-xfail reason of
    a kind whose faults break the property; such a run ends at its first
    failing example, so it gets four times the examples to find one."""
    budget = _SETTINGS.max_examples * (4 if red else 1)

    @settings(_SETTINGS, max_examples=budget)
    @given(data=st.data())
    def test(data):
        _check(*data.draw(_cases(kind), label="case"))

    if red is None:
        return test
    return pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=red + " (ROADMAP: end-to-end delivery)")(test)


test_no_faults = _fuzz("none")
test_adaptive_routing_on_a_grid = _fuzz("adaptive-grid")
test_sever = _fuzz("sever", red=(
    "a put relayed over a cable cut before its detection is dropped, and "
    "the sender is never told; a get across the cut is never answered"))
test_sever_restore = _fuzz("sever-restore", red=(
    "a get whose path crosses the cut is neither answered nor failed: "
    "the run waits until the horizon"))
test_flap = _fuzz("flap", red=(
    "the same unanswered get, under a cable that comes and goes"))
test_double_fault = _fuzz("double", red=(
    "two cuts at one host of a grid lose relayed puts unseen, or leave "
    "relays and barriers waiting until the event budget runs out"))
test_delay_tlp = _fuzz("delay")
