"""HdrHistogram-style log-bucketed latency histograms.

Latencies in a store-and-forward ring span four orders of magnitude
(sub-µs doorbell rings to multi-ms 512 KB bypass Puts), so fixed-width
buckets are useless and keeping raw samples is unbounded.  We use the
HdrHistogram trick: values are scaled to integers (0.01 µs resolution),
small values get exact linear buckets, larger values get 64 logarithmic
sub-buckets per power of two — bounding relative error at ~1.6 % while
recording in O(1) with a plain dict.

Exact count/sum/min/max are tracked alongside, so means are exact and
quantile estimates are clamped into ``[min, max]`` (a single-sample
histogram reports that sample for every quantile).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, Mapping, Optional

__all__ = ["LogHistogram", "HistogramRegistry", "HistSummary",
           "render_histograms"]

#: Fixed-point scale: 1 unit == 0.01 µs (10 ns).
_SCALE = 100.0
#: Values below 2**(_SUB_BITS) scaled units are binned exactly.
_SUB_BITS = 6
_SUB_COUNT = 1 << _SUB_BITS  # 64


def _bucket_index(value: int) -> int:
    if value < _SUB_COUNT:
        return value
    shift = value.bit_length() - 1 - _SUB_BITS
    return ((shift + 1) << _SUB_BITS) + ((value >> shift) - _SUB_COUNT)


def _bucket_low(index: int) -> int:
    """Smallest scaled value mapping to ``index`` (inverse of above)."""
    if index < _SUB_COUNT:
        return index
    shift = (index >> _SUB_BITS) - 1
    sub = (index & (_SUB_COUNT - 1)) + _SUB_COUNT
    return sub << shift


def _bucket_mid_us(index: int) -> float:
    """Representative (midpoint) value of a bucket, back in µs."""
    low = _bucket_low(index)
    if index < _SUB_COUNT:
        return low / _SCALE
    shift = (index >> _SUB_BITS) - 1
    return (low + (1 << shift) / 2.0) / _SCALE


#: ``repro-metrics/v1`` names of the :class:`HistSummary` fields, in order.
_JSON_FIELDS = ("count", "mean", "p50", "p90", "p99", "p999", "min", "max")


@dataclass(frozen=True)
class HistSummary:
    """Snapshot of one histogram: what the table and the JSON export show."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    minimum: float
    maximum: float

    def to_json(self) -> dict[str, float]:
        return dict(zip(_JSON_FIELDS, astuple(self)))

    @classmethod
    def from_json(cls, entry: Mapping[str, float]) -> "HistSummary":
        return cls(*(entry.get(name, 0) for name in _JSON_FIELDS))


class LogHistogram:
    """One op×size×hop latency distribution, log-bucketed."""

    __slots__ = ("name", "buckets", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value_us: float) -> None:
        if value_us < 0:
            value_us = 0.0
        scaled = int(value_us * _SCALE + 0.5)
        index = _bucket_index(scaled)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value_us
        if self.minimum is None or value_us < self.minimum:
            self.minimum = value_us
        if self.maximum is None or value_us > self.maximum:
            self.maximum = value_us

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from bucket midpoints."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        value = 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                value = _bucket_mid_us(index)
                break
        # Bucketing error never escapes the observed range.
        assert self.minimum is not None and self.maximum is not None
        return min(max(value, self.minimum), self.maximum)

    def summary(self) -> HistSummary:
        return HistSummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(0.50),
            p90=self.quantile(0.90),
            p99=self.quantile(0.99),
            p999=self.quantile(0.999),
            minimum=self.minimum or 0.0,
            maximum=self.maximum or 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LogHistogram {self.name!r} n={self.count}>"


class HistogramRegistry:
    """Named histograms, created on first observation.

    Any string is a key (the op family is documented in docs/METRICS.md).
    Iteration is sorted for deterministic output.
    """

    def __init__(self) -> None:
        self._hists: dict[str, LogHistogram] = {}

    def observe(self, key: str, value_us: float) -> None:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LogHistogram(key)
        hist.observe(value_us)

    def get(self, key: str) -> Optional[LogHistogram]:
        return self._hists.get(key)

    def items(self) -> Iterator[tuple[str, LogHistogram]]:
        for key in sorted(self._hists):
            yield key, self._hists[key]

    def __len__(self) -> int:
        return len(self._hists)


def render_histograms(summaries: Iterable[tuple[str, HistSummary]],
                      title: str = "latency histograms") -> str:
    """The one histogram table: a fixed-width row per ``(key, summary)``
    in the order given.  The key column stretches to the longest key so
    ``put_us.MEMCPY.512KB.2hop`` cannot shear the table."""
    rows = list(summaries)
    width = max([36] + [len(key) for key, _ in rows])
    lines = [title,
             f"{'key':<{width}} {'n':>6} {'mean':>9} {'p50':>9} "
             f"{'p90':>9} {'p99':>9} {'p999':>9} {'max':>9}  [us]"]
    lines.append("-" * len(lines[1]))
    for key, s in rows:
        lines.append(
            f"{key:<{width}} {s.count:>6} {s.mean:>9.2f} {s.p50:>9.2f} "
            f"{s.p90:>9.2f} {s.p99:>9.2f} {s.p999:>9.2f} {s.maximum:>9.2f}")
    if not rows:
        lines.append("  (no observations)")
    return "\n".join(lines)
