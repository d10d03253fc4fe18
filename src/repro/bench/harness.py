"""Experiment harness: run every figure/table, check shapes, report.

``run_all()`` regenerates the paper's complete evaluation section and
returns the rows plus the qualitative shape-check results recorded in
EXPERIMENTS.md.  The shape checks encode DESIGN.md §4's acceptance
criteria — who wins, by roughly what factor, where the hop sensitivity
shows — rather than absolute numbers (the substrate is a simulator, not
the authors' testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .experiments.fig8 import run_fig8
from .experiments.fig9 import run_fig9
from .experiments.fig10 import run_fig10
from .experiments.table1 import run_table1
from .reporting import (
    PAPER_SIZES,
    Row,
    ShapeCheck,
    check_shapes,
    render_table,
)

__all__ = [
    "fig8_shape_checks",
    "fig9_shape_checks",
    "fig10_shape_checks",
    "ExperimentReport",
    "run_all",
]

_LARGE = 512 * 1024
_SMALL = 1024


def _at(table, series, size):
    return table[series][size]


def fig8_shape_checks() -> list[ShapeCheck]:
    return [
        ShapeCheck(
            "per-link rate saturates in the 20-30 Gbps band "
            "(2000-3800 MB/s) at 512KB",
            lambda t: 2000 <= _at(t, "Independent", _LARGE) <= 3800,
        ),
        ShapeCheck(
            "throughput rises monotonically with request size",
            lambda t: all(
                _at(t, "Independent", a) <= _at(t, "Independent", b) * 1.02
                for a, b in zip(sorted(t["Independent"]),
                                sorted(t["Independent"])[1:])
            ),
        ),
        ShapeCheck(
            "ring-simultaneous is slightly below independent at 512KB "
            "(dip between 2% and 40%)",
            lambda t: 0.60 <= (_at(t, "Ring", _LARGE)
                               / _at(t, "Independent", _LARGE)) <= 0.98,
        ),
    ]


def fig8d_shape_checks() -> list[ShapeCheck]:
    return [
        ShapeCheck(
            "total network throughput exceeds any single link's rate",
            lambda t: _at(t, "Ring", _LARGE) > 1.5 * 2900,
        ),
    ]


def fig9_shape_checks() -> dict[str, list[ShapeCheck]]:
    return {
        "fig9a": [
            ShapeCheck(
                "put: DMA beats memcpy at 512KB by >2x",
                lambda t: _at(t, "memcpy 1 hop", _LARGE)
                > 2 * _at(t, "DMA 1 hop", _LARGE),
            ),
            ShapeCheck(
                "put is nearly hop-insensitive (2 hops < 1.6x of 1 hop)",
                lambda t: _at(t, "DMA 2 hops", _LARGE)
                < 1.6 * _at(t, "DMA 1 hop", _LARGE),
            ),
            ShapeCheck(
                "put memcpy 512KB lands in the paper's ~5000us band",
                lambda t: 2500 <= _at(t, "memcpy 1 hop", _LARGE) <= 10000,
            ),
        ],
        "fig9b": [
            ShapeCheck(
                "get is strongly hop-sensitive (2 hops > 1.6x of 1 hop)",
                lambda t: _at(t, "DMA 2 hops", _LARGE)
                > 1.6 * _at(t, "DMA 1 hop", _LARGE),
            ),
            ShapeCheck(
                "get memcpy collapses vs DMA (>2.5x slower at 512KB)",
                lambda t: _at(t, "memcpy 1 hop", _LARGE)
                > 2.5 * _at(t, "DMA 1 hop", _LARGE),
            ),
            ShapeCheck(
                "get memcpy 2 hops reaches the paper's tens-of-ms band",
                lambda t: 20_000 <= _at(t, "memcpy 2 hops", _LARGE)
                <= 120_000,
            ),
        ],
        "fig9c": [
            ShapeCheck(
                "put DMA throughput ceiling in the paper's ~350 MB/s band",
                lambda t: 250 <= _at(t, "DMA 1 hop", _LARGE) <= 500,
            ),
            ShapeCheck(
                "put memcpy ceiling near the ~105 MB/s PIO-write rate",
                lambda t: 70 <= _at(t, "memcpy 1 hop", _LARGE) <= 140,
            ),
        ],
        "fig9d": [
            ShapeCheck(
                "get DMA 1 hop tops out near the paper's ~50 MB/s",
                lambda t: 30 <= _at(t, "DMA 1 hop", _LARGE) <= 80,
            ),
            ShapeCheck(
                "get throughput an order below put throughput",
                lambda t: _at(t, "DMA 1 hop", _LARGE) < 100,
            ),
        ],
    }


def fig10_shape_checks() -> list[ShapeCheck]:
    return [
        ShapeCheck(
            "barrier latency is substantial at small sizes "
            "(>150us at 1KB, vs ~tens of us for the put itself)",
            lambda t: _at(t, "DMA 1 hop", _SMALL) > 150,
        ),
        ShapeCheck(
            "barrier latency sustained as size grows "
            "(512KB within 12x of 1KB for DMA 1 hop)",
            lambda t: _at(t, "DMA 1 hop", _LARGE)
            < 12 * _at(t, "DMA 1 hop", _SMALL),
        ),
        ShapeCheck(
            "multi-hop memcpy barriers absorb residual forwarding "
            "(memcpy 2 hops >= DMA 1 hop at 512KB)",
            lambda t: _at(t, "memcpy 2 hops", _LARGE)
            >= _at(t, "DMA 1 hop", _LARGE),
        ),
    ]


@dataclass
class ExperimentReport:
    """Everything `run_all` produced."""

    rows: list[Row] = field(default_factory=list)
    shape_results: list[tuple[str, str, bool]] = field(default_factory=list)
    #: fig9's span scope when the harness ran with tracing (for export).
    scope: Optional[Any] = None

    def rows_for(self, experiment: str) -> list[Row]:
        return [row for row in self.rows if row.experiment == experiment]

    @property
    def all_shapes_pass(self) -> bool:
        return all(passed for _exp, _desc, passed in self.shape_results)

    def render(self) -> str:
        sections = []
        titles = {
            "fig8a": "Fig 8(a) raw NTB rate, host0<->host1 [MB/s]",
            "fig8b": "Fig 8(b) raw NTB rate, host1<->host2 [MB/s]",
            "fig8c": "Fig 8(c) raw NTB rate, host2<->host0 [MB/s]",
            "fig8d": "Fig 8(d) total network rate [MB/s]",
            "fig9a": "Fig 9(a) Put latency [us]",
            "fig9b": "Fig 9(b) Get latency [us]",
            "fig9c": "Fig 9(c) Put throughput [MB/s]",
            "fig9d": "Fig 9(d) Get throughput [MB/s]",
            "fig10": "Fig 10 barrier latency after Put [us]",
            "table1": "Table I per-API cost [us]",
        }
        for experiment, title in titles.items():
            rows = self.rows_for(experiment)
            if rows:
                sections.append(render_table(rows, title))
        shape_lines = ["", "shape checks vs paper:"]
        for experiment, description, passed in self.shape_results:
            marker = "PASS" if passed else "FAIL"
            shape_lines.append(f"  [{marker}] {experiment}: {description}")
        sections.append("\n".join(shape_lines))
        return "\n\n".join(sections)


def run_all(sizes: Optional[list[int]] = None,
            quick: bool = False, trace: bool = False) -> ExperimentReport:
    """Regenerate every table and figure.

    ``quick=True`` sweeps a 4-point size grid instead of the paper's 10.
    ``trace=True`` runs fig9 with span tracing: ``report.scope`` holds
    the spans.
    """
    if sizes is None:
        sizes = ([1 << 10, 1 << 13, 1 << 16, 1 << 19] if quick
                 else PAPER_SIZES)
    report = ExperimentReport()

    fig8 = run_fig8(sizes=sizes)
    report.rows.extend(fig8.rows)
    for sub in ("fig8a", "fig8b", "fig8c"):
        for description, passed in check_shapes(
                [r for r in fig8.rows if r.experiment == sub],
                fig8_shape_checks()):
            report.shape_results.append((sub, description, passed))
    for description, passed in check_shapes(
            [r for r in fig8.rows if r.experiment == "fig8d"],
            fig8d_shape_checks()):
        report.shape_results.append(("fig8d", description, passed))

    fig9 = run_fig9(sizes=sizes, trace=trace)
    report.rows.extend(fig9.rows)
    report.scope = fig9.scope
    for experiment, checks in fig9_shape_checks().items():
        for description, passed in check_shapes(
                [r for r in fig9.rows if r.experiment == experiment],
                checks):
            report.shape_results.append((experiment, description, passed))

    fig10 = run_fig10(sizes=sizes)
    report.rows.extend(fig10.rows)
    for description, passed in check_shapes(fig10.rows,
                                            fig10_shape_checks()):
        report.shape_results.append(("fig10", description, passed))

    table1 = run_table1()
    report.rows.extend(table1.rows)

    return report
