"""Per-path FIFO: a message sent after another on the same path is
delivered after it, on both planes.

``put_signal`` is the runtime's one pair of messages bound to one path:
the payload and then its signal word leave on the path resolved once for
both.  Hypothesis draws a fabric, a router that fabric accepts (the
adaptive router's first hop follows the load, so back-to-back pairs take
different paths), a plane and a payload size.  Half the PEs stream
``put_signal`` rounds, each into its own buffer, to a partner that
watches the signal cell: whenever it reads signal ``k`` every payload up
to round ``k`` must already be in place.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro import run_spmd
from repro.core import FastpathConfig, ShmemConfig
from repro.fabric import ClusterConfig

from ..conftest import pattern

_SETTINGS = settings(
    max_examples=12, derandomize=True, database=None,
    phases=(Phase.generate,), deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

_ROUNDS = 6

_FABRICS = (
    (ClusterConfig(n_hosts=8), ("fixed_right", "shortest")),
    (ClusterConfig(n_hosts=6, topology="mesh", dims=(6,)), ("adaptive",)),
    (ClusterConfig(n_hosts=6, topology="mesh", dims=(3, 2)),
     ("dimension_order", "adaptive")),
    (ClusterConfig(n_hosts=16, topology="mesh", dims=(4, 4)),
     ("dimension_order", "adaptive")),
    (ClusterConfig(n_hosts=9, topology="torus", dims=(3, 3)),
     ("adaptive",)),
)


@st.composite
def _cases(draw):
    cluster_config, routers = draw(st.sampled_from(_FABRICS))
    shmem_config = ShmemConfig(
        routing=draw(st.sampled_from(routers)),
        fastpath=draw(st.sampled_from((None, FastpathConfig()))))
    size = draw(st.sampled_from((8, 48, 700, 4096, 20_000)))
    return cluster_config, shmem_config, size


def _stream(size):
    """PE ``me`` below ``n // 2`` sends ``_ROUNDS`` put_signals to
    ``me + n // 2``, which returns the rounds whose payload was missing
    when it read a signal at or past them."""

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        half = n // 2
        inbox = yield from pe.malloc(_ROUNDS * size)
        signal = yield from pe.malloc(8)
        yield from pe.barrier_all()
        early = []
        if me < half:
            for rnd in range(_ROUNDS):
                yield from pe.put_signal(
                    inbox + rnd * size, pattern(size, seed=me * 16 + rnd),
                    me + half, signal, rnd + 1)
        elif me < 2 * half:
            seen = 0
            while seen < _ROUNDS:
                yield from pe.wait_until(signal, ">", seen)
                now = int(pe.read_symmetric_array(signal, 1, np.int64)[0])
                for rnd in range(seen, now):
                    if not np.array_equal(
                            pe.read_symmetric(inbox + rnd * size, size),
                            pattern(size, seed=(me - half) * 16 + rnd)):
                        early.append(rnd)
                seen = now
        yield from pe.barrier_all()
        return early

    return main


@_SETTINGS
@given(_cases())
def test_a_signal_never_overtakes_its_payload(case):
    cluster_config, shmem_config, size = case
    report = run_spmd(_stream(size), cluster_config.n_hosts,
                      cluster_config=cluster_config,
                      shmem_config=shmem_config)
    assert report.results == [[]] * cluster_config.n_hosts, (
        cluster_config, shmem_config.routing, shmem_config.fastpath, size)
