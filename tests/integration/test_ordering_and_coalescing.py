"""Channel-ordering conformance tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_spmd
from repro.core import FastpathConfig, Mode, ShmemConfig
from repro.fabric import ClusterConfig

from ..conftest import pattern


class TestChannelOrdering:
    """Puts and atomics to the same PE share the in-order data channel,
    so mixed sequences observe program order — the OpenSHMEM fence
    guarantees come for free from the single channel."""

    def test_put_then_amo_sees_put(self):
        def main(pe):
            cell = yield from pe.malloc(8)
            pe.write_symmetric(cell, np.zeros(1, dtype=np.int64))
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield from pe.p(cell, 100, 1)
                # Same channel: the AMO cannot pass the put.
                old = yield from pe.atomic_fetch_add(cell, 1, 1)
                assert old == 100, f"AMO overtook the put (old={old})"
            yield from pe.barrier_all()
            if pe.my_pe() == 1:
                return int(pe.read_symmetric_array(cell, 1, np.int64)[0])
            return 101

        report = run_spmd(main, n_pes=3)
        assert report.results == [101, 101, 101]

    def test_amo_then_put_put_wins(self):
        def main(pe):
            cell = yield from pe.malloc(8)
            pe.write_symmetric(cell, np.zeros(1, dtype=np.int64))
            yield from pe.barrier_all()
            if pe.my_pe() == 0:
                yield from pe.atomic_add(cell, 7, 1)
                yield from pe.p(cell, 55, 1)
            yield from pe.barrier_all()
            if pe.my_pe() == 1:
                return int(pe.read_symmetric_array(cell, 1, np.int64)[0])
            return 55

        report = run_spmd(main, n_pes=3)
        assert report.results == [55, 55, 55]

    def test_signal_never_passes_bulk_data(self):
        """Repeated producer/consumer handoffs: the 8-byte signal rides
        the same channel as the bulk payload and never overtakes it."""
        rounds = 5
        size = 60_000

        def main(pe):
            data_sym = yield from pe.malloc(size)
            sig = yield from pe.malloc(8)
            pe.write_symmetric(sig, np.zeros(1, dtype=np.int64))
            yield from pe.barrier_all()
            me = pe.my_pe()
            failures = 0
            for round_no in range(1, rounds + 1):
                if me == 0:
                    yield from pe.put_signal(
                        data_sym, pattern(size, seed=round_no), 1,
                        sig, round_no,
                    )
                elif me == 1:
                    yield from pe.wait_until(sig, "==", round_no)
                    got = pe.read_symmetric(data_sym, size)
                    if not np.array_equal(got,
                                          pattern(size, seed=round_no)):
                        failures += 1
                yield from pe.barrier_all()
            return failures

        report = run_spmd(main, n_pes=3)
        assert report.results == [0, 0, 0]


#: (name, cluster shape, routing): every fabric the data-before-signal
#: check runs on, covering 1–6 hops between PE 0 and its destinations.
_RELAY_FABRICS = [
    ("ring7-fixed_right", ClusterConfig(n_hosts=7), None),
    ("ring12-shortest", ClusterConfig(n_hosts=12), "shortest"),
    ("mesh4x4", ClusterConfig(n_hosts=16, topology="mesh", dims=(4, 4)),
     None),
    ("torus3x3", ClusterConfig(n_hosts=9, topology="torus", dims=(3, 3)),
     None),
]
#: Payload sizes, cycled over the destinations: one word, a sub-page
#: DMA, and two and four store-and-forward chunks.
_SIGNAL_SIZES = (8, 3000, 70_000, 200 * 1024)


class TestSignalAfterDataAcrossRelays:
    """``put_signal`` sends its data by DMA and its 8-byte signal by PIO
    (always, for the runtime's own word).  Through every relay the signal
    must still land after the last data byte."""

    @pytest.mark.parametrize("plane", ["default", "fastpath"])
    @pytest.mark.parametrize("name,cluster_config,routing", _RELAY_FABRICS,
                             ids=[f[0] for f in _RELAY_FABRICS])
    def test_whole_payload_is_there_when_the_signal_fires(
            self, name, cluster_config, routing, plane):
        biggest = max(_SIGNAL_SIZES)

        def size_for(dest):
            return _SIGNAL_SIZES[dest % len(_SIGNAL_SIZES)]

        def main(pe):
            data = yield from pe.malloc(biggest)
            sig = yield from pe.malloc(8)
            pe.write_symmetric(sig, np.zeros(1, dtype=np.int64))
            yield from pe.barrier_all()
            me = pe.my_pe()
            if me == 0:
                result = []
                for dest in range(1, pe.num_pes()):
                    yield from pe.put_signal(
                        data, pattern(size_for(dest), seed=dest), dest,
                        sig, dest, mode=Mode.DMA)
                    result.append(pe.rt.route_to(dest).hops)
            else:
                yield from pe.wait_until(sig, "==", me)
                size = size_for(me)
                result = bool(np.array_equal(pe.read_symmetric(data, size),
                                             pattern(size, seed=me)))
            yield from pe.barrier_all()
            return result

        report = run_spmd(
            main, n_pes=cluster_config.n_hosts, cluster_config=cluster_config,
            shmem_config=ShmemConfig(
                routing=routing,
                fastpath=FastpathConfig() if plane == "fastpath" else None))
        hops, landed = report.results[0], report.results[1:]
        torn = [dest for dest, ok in enumerate(landed, start=1) if not ok]
        assert torn == [], f"signal overtook its data at PEs {torn}"
        assert set(hops) == set(range(1, 3 if name == "torus3x3" else 7))
