"""Reporting utilities: result rows, table rendering, paper comparison.

Every experiment produces a list of :class:`Row` records in *virtual*
time/throughput units.  ``render_table`` prints the same rows the paper's
figures plot; ``shape_check`` evaluates the qualitative acceptance
criteria from DESIGN.md §4 so benches can assert the reproduction holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..core.sanitizer import render_race_table

__all__ = ["Row", "render_table", "size_label",
           "ShapeCheck", "geometric_mean", "render_race_table"]

#: The request sizes the paper sweeps in every figure (1 KB .. 512 KB).
PAPER_SIZES = [1 << k for k in range(10, 20)]


# Canonical implementation lives in the metrics fabric so size-keyed
# metric names (put_us.DMA.4KB.1hop) agree everywhere; re-exported here for
# the existing bench callers.
from ..obsv.metrics import size_label  # noqa: E402,F401


@dataclass
class Row:
    """One measured point of an experiment."""

    experiment: str            # e.g. "fig9a"
    series: str                # e.g. "DMA 1 hop"
    size: int                  # request size in bytes
    value: float               # measured value
    unit: str                  # "us" | "MB/s"
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def size_label(self) -> str:
        return size_label(self.size)


def render_table(rows: Sequence[Row], title: str = "",
                 value_format: str = "{:>12.1f}") -> str:
    """Render rows as a figure-shaped table: one column per series,
    one line per request size."""
    if not rows:
        return f"{title}\n(no data)"
    series_names: list[str] = []
    for row in rows:
        if row.series not in series_names:
            series_names.append(row.series)
    sizes = sorted({row.size for row in rows})
    unit = rows[0].unit
    cells: dict[tuple[int, str], float] = {
        (row.size, row.series): row.value for row in rows
    }
    width = max(12, max(len(s) for s in series_names) + 2)
    lines = []
    if title:
        lines.append(title)
    header = f"{'size':>8} " + "".join(
        f"{name:>{width}}" for name in series_names
    ) + f"   [{unit}]"
    lines.append(header)
    lines.append("-" * len(header))
    for size in sizes:
        cols = ""
        for name in series_names:
            value = cells.get((size, name))
            cols += (value_format.format(value).rjust(width)
                     if value is not None else " " * (width - 3) + "  -")
        lines.append(f"{size_label(size):>8} {cols}")
    return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


@dataclass
class ShapeCheck:
    """A qualitative acceptance criterion against the paper's figure.

    ``predicate`` receives ``{series: {size: value}}`` and returns bool.
    """

    description: str
    predicate: Callable[[dict[str, dict[int, float]]], bool]

    def evaluate(self, rows: Sequence[Row]) -> bool:
        table: dict[str, dict[int, float]] = {}
        for row in rows:
            table.setdefault(row.series, {})[row.size] = row.value
        return self.predicate(table)


def check_shapes(rows: Sequence[Row],
                 checks: Sequence[ShapeCheck]) -> list[tuple[str, bool]]:
    """Evaluate all checks; returns (description, passed) pairs."""
    return [(check.description, check.evaluate(rows)) for check in checks]


def format_shape_report(results: Sequence[tuple[str, bool]]) -> str:
    lines = ["shape checks vs paper:"]
    for description, passed in results:
        marker = "PASS" if passed else "FAIL"
        lines.append(f"  [{marker}] {description}")
    return "\n".join(lines)
