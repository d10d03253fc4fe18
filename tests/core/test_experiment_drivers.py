"""The bench experiment drivers on tiny sweeps: row structure, the
paper's quantitative claims, and the ablation findings EXPERIMENTS.md
records.  The full-grid shape checks run in ``TestRunAll`` here and in
``tests/integration/test_cli.py`` (``python -m repro.bench``).
"""

from __future__ import annotations

import pytest

from repro.bench import run_all
from repro.bench.experiments import (
    CONFIGS,
    run_barrier_ablation,
    run_chunk_ablation,
    run_dma_channel_ablation,
    run_dma_page_ablation,
    run_fig8,
    run_fig9,
    run_fig10,
    run_get_chunk_ablation,
    run_irq_ablation,
    run_routing_ablation,
    run_scaling_ablation,
    run_table1,
)


class TestFig8Driver:
    def test_row_structure(self):
        result = run_fig8(sizes=[8192], repeats=2)
        experiments = {row.experiment for row in result.rows}
        assert experiments == {"fig8a", "fig8b", "fig8c", "fig8d"}
        for row in result.rows:
            assert row.unit == "MB/s"
            assert row.value > 0
            assert row.series in ("Independent", "Ring")

    def test_generalizes_to_other_ring_sizes(self):
        result = run_fig8(sizes=[8192], n_hosts=4, repeats=1)
        totals = [r for r in result.rows if r.experiment == "fig8d"]
        assert len(totals) == 2
        per_link = [r for r in result.rows if r.experiment != "fig8d"]
        assert len(per_link) == 4 * 2  # four links, two series

    def test_independent_at_least_ring(self):
        result = run_fig8(sizes=[262144], repeats=2)
        for sub in ("fig8a", "fig8b", "fig8c"):
            series = {
                row.series: row.value
                for row in result.rows if row.experiment == sub
            }
            assert series["Independent"] >= series["Ring"] * 0.999

    def test_independent_matches_paper_band(self):
        """'20Gbps to 30Gbps between two independent host system', at the
        paper's largest request size."""
        result = run_fig8(sizes=[512 * 1024])
        independent = [
            r.value for r in result.rows
            if r.series == "Independent" and r.experiment != "fig8d"
        ]
        assert all(2000 <= mbps <= 3800 for mbps in independent), independent


class TestFig9Driver:
    def test_all_series_and_derived_throughput(self):
        result = run_fig9(sizes=[4096])
        for experiment in ("fig9a", "fig9b", "fig9c", "fig9d"):
            series = {
                row.series for row in result.rows
                if row.experiment == experiment
            }
            assert series == {name for name, _m, _h in CONFIGS}
        lat = result.series("fig9a", "DMA 1 hop")[4096]
        thr = result.series("fig9c", "DMA 1 hop")[4096]
        assert thr == pytest.approx(4096 / lat)

    def test_one_sided_semantics_in_numbers(self):
        """The §IV analysis, quantified: put is hop-insensitive because it
        is one-sided/locally-blocking; get traverses the ring per chunk."""
        result = run_fig9(sizes=[64 * 1024])
        put_1 = result.series("fig9a", "DMA 1 hop")[64 * 1024]
        put_2 = result.series("fig9a", "DMA 2 hops")[64 * 1024]
        get_1 = result.series("fig9b", "DMA 1 hop")[64 * 1024]
        get_2 = result.series("fig9b", "DMA 2 hops")[64 * 1024]
        assert put_2 < 1.5 * put_1          # hop-insensitive
        assert get_2 > 1.6 * get_1          # hop-proportional
        assert get_1 > 3 * put_1            # get >> put


class TestFig10Driver:
    def test_rows_per_config(self):
        result = run_fig10(sizes=[2048], barrier_repeats=2)
        assert len(result.rows) == len(CONFIGS)
        for row in result.rows:
            assert row.unit == "us"
            assert row.value > 50

    def test_barrier_dwarfs_small_puts(self):
        """'when the size of data transfer is small, the relatively high
        latency gives overhead of data communication and synchronization'."""
        result = run_fig10(sizes=[1024])
        # A small put costs tens of µs; the barrier must be much bigger.
        assert result.series("DMA 1 hop")[1024] > 150.0


class TestTable1Driver:
    def test_all_apis_measured(self):
        result = run_table1()
        apis = {row.series for row in result.rows}
        assert "shmem_malloc" in apis
        assert "shmem_barrier_all" in apis
        assert "shmem_put (8B, 1 hop)" in apis
        assert all(row.value >= 0 for row in result.rows)

    def test_cost_ordering(self):
        """identity < put(8B) < get(8B) < 2x amo; barrier in the 100s."""
        result = run_table1()
        assert result.cost("my_pe/num_pes") == 0.0
        assert result.cost("shmem_put (8B, 1 hop)") < \
            result.cost("shmem_get (8B, 1 hop)")
        assert result.cost("shmem_get (8B, 1 hop)") < \
            result.cost("shmem_atomic_fetch_add") * 2.0
        assert result.cost("shmem_barrier_all") > 100.0


class TestRunAll:
    def test_quick_run_collects_everything(self):
        report = run_all(sizes=[1024, 524288])
        experiments = {row.experiment for row in report.rows}
        assert {"fig8a", "fig8d", "fig9a", "fig9b", "fig9c", "fig9d",
                "fig10", "table1"} <= experiments
        assert report.all_shapes_pass
        rendered = report.render()
        assert "Fig 9(b)" in rendered
        assert "[PASS]" in rendered


def _series(rows, name):
    return {r.size: r.value for r in rows if r.series == name}


class TestAblations:
    """The design choices flagged in DESIGN.md §6, as EXPERIMENTS.md
    reports them."""

    def test_routing(self):
        """FIXED_RIGHT (paper) vs SHORTEST on a 5-ring, x = hop distance."""
        rows = run_routing_ablation()
        fixed = _series(rows, "fixed_right+flush")
        short = _series(rows, "shortest+flush")
        # Distance 4 on a 5-ring is 1 hop leftward under SHORTEST.
        assert short[4] < fixed[4]
        # Distance 1 is identical under both policies (same path).
        assert abs(short[1] - fixed[1]) / fixed[1] < 0.5

    def test_bypass_chunks(self):
        """Store-and-forward grain: bigger chunks and more slots help
        2-hop puts up to a point."""
        rows = run_chunk_ablation()
        two_slots = _series(rows, "2 slot(s)")
        assert two_slots[16 * 1024] > two_slots[128 * 1024] * 0.9
        one_slot = _series(rows, "1 slot(s)")
        # Double-buffering beats single-slot at the smallest chunk size.
        assert two_slots[16 * 1024] <= one_slot[16 * 1024]

    def test_get_chunk(self):
        """Get throughput rises with response chunk size (fewer interrupt
        handshakes per byte)."""
        series = _series(run_get_chunk_ablation(), "get 1 hop")
        chunks = sorted(series)
        assert series[chunks[-1]] > series[chunks[0]]

    def test_dma_descriptor_cost(self):
        """Zeroing the per-page descriptor cost lifts the Put ceiling well
        above the paper's ~350 MB/s — the SG walk is the bottleneck."""
        by_cost = {r.extra["per_descriptor_us"]: r.value
                   for r in run_dma_page_ablation()}
        assert by_cost[0.0] > 2 * by_cost[9.0]
        assert by_cost[18.0] < by_cost[9.0]

    def test_barrier_strategies(self):
        """Ring (paper) vs dissemination vs centralized across ring sizes."""
        rows = run_barrier_ablation()
        ring = _series(rows, "ring")
        dissemination = _series(rows, "dissemination")
        centralized = _series(rows, "centralized")
        # The paper's §III-B.4 argument: centralized is the worst fit.
        for n in ring:
            assert centralized[n] > ring[n]
        # Measured finding (EXPERIMENTS.md): dissemination does NOT beat
        # the ring token on a switchless ring, because its log-round
        # partners at distance 2^k have no direct link — every
        # notification is store-and-forwarded, so the longest round costs
        # ~n/2 hops of full message handling vs the token's 2n cheap
        # doorbell hops.  It stays within ~2x of the ring and far below
        # centralized.
        assert dissemination[8] < 2 * ring[8]
        assert dissemination[8] < centralized[8] / 3

    def test_ring_scaling(self):
        """Fig. 8(d) extrapolated: total throughput grows with ring size."""
        totals = _series(run_scaling_ablation(), "Ring total")
        assert totals[8] > 2 * totals[2]

    def test_dma_channels(self):
        """Extra DMA channels speed raw driver bursts but leave OpenSHMEM
        puts flat: the one-outstanding-message mailbox protocol can never
        keep a second channel busy (the paper's single-channel use)."""
        rows = run_dma_channel_ablation()
        raw = _series(rows, "raw")
        shmem = _series(rows, "shmem")
        assert raw[4] > 1.3 * raw[1]
        assert abs(shmem[4] - shmem[1]) / shmem[1] < 0.05

    def test_interrupt_path(self):
        """Get throughput tracks the interrupt path cost ~linearly — the
        per-chunk handshake dominates (Fig. 9(d) mechanism)."""
        by_label = {r.series: r.value for r in run_irq_ablation()}
        assert by_label["fast irq"] > by_label["default"] \
            > by_label["slow irq"]
