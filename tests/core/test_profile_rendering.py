"""Tests for the SpmdReport profile renderer."""

from __future__ import annotations

import numpy as np

from repro import run_spmd

from ..conftest import pattern


class TestRenderProfile:
    def test_profile_lists_instrumented_ops(self):
        def main(pe):
            sym = yield from pe.malloc(8192)
            right = (pe.my_pe() + 1) % pe.num_pes()
            yield from pe.put(sym, pattern(8192), right)
            if pe.my_pe() == 0:
                yield from pe.get(sym, 1024, right)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        profile = report.render_profile()
        lines = profile.splitlines()
        assert "op" in lines[0]
        put_lines = [l for l in lines if " put " in f" {l} "
                     or l.split()[1:2] == ["put"]]
        assert len(put_lines) == 3          # every PE put once
        get_lines = [l for l in lines if l.split()[1:2] == ["get"]]
        assert len(get_lines) == 1          # only PE 0
        assert any(l.split()[1:2] == ["barrier"] for l in lines)

    def test_profile_lists_atomics(self):
        """AMOs go through the same op envelope as put/get: a profile
        row per issuing PE and a histogram key per op name and hop."""

        def main(pe):
            ctr = yield from pe.malloc(8)
            yield from pe.barrier_all()
            if pe.my_pe() != 1:
                yield from pe.atomic_fetch_add(ctr, 1, 1)
            if pe.my_pe() == 0:
                yield from pe.atomic_fetch(ctr, 1)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        lines = report.render_profile().splitlines()
        amo_rows = {int(l.split()[0]): l.split()
                    for l in lines if l.split()[1:2] == ["amo"]}
        assert sorted(amo_rows) == [0, 2]       # PE 1 issued none
        assert amo_rows[0][2] == "2" and amo_rows[2][2] == "1"
        assert amo_rows[0][-1] == "0"           # atomics move no bytes
        # Fixed-right routing: PE 0 is one hop from PE 1, PE 2 is two.
        assert report.metrics.hist.get("amo_us.ADD.1hop").count == 1
        assert report.metrics.hist.get("amo_us.ADD.2hop").count == 1
        assert report.metrics.hist.get("amo_us.FETCH.1hop").count == 1
        assert any(l.startswith("amo_us.ADD.2hop ") for l in lines)
        assert report.metrics.hist.get("pe0.amo_us").count == 2
        assert report.metrics.value("pe0.amo.ADD") == 1
        assert report.metrics.value("pe0.amo.*") == 2

    def test_profile_empty_when_nothing_ran(self):
        report = run_spmd(lambda pe: iter(()), n_pes=3)
        assert "no instrumented operations" in report.render_profile() or \
            "barrier" in report.render_profile()

    def test_byte_accounting_in_profile(self):
        def main(pe):
            sym = yield from pe.malloc(4096)
            if pe.my_pe() == 0:
                yield from pe.put(sym, pattern(4096), 1)
            yield from pe.barrier_all()

        report = run_spmd(main, n_pes=3)
        profile = report.render_profile()
        put_line = next(l for l in profile.splitlines()
                        if l.split()[1:2] == ["put"])
        assert put_line.split()[-1] == "4096"
