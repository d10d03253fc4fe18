"""Channel-ordering conformance tests."""

from __future__ import annotations

import numpy as np

from repro import run_spmd

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
