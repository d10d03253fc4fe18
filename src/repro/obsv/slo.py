"""Declarative SLO rules evaluated against a :class:`MetricsRegistry`.

The missing half of "how is the system doing": metrics give you numbers,
this module gives you *judgments* — machine-checkable health rules that
``python -m repro.bench --metrics`` exits on (ROADMAP item 5).

Rule syntax (one rule per line; ``#`` comments and blank lines ignored)::

    p99(put_us.*.32B.2hop) < 2500
    mean(get_us.*) <= 40000
    rate(pe*.retries) == 0 unless faults.severs > 0
    heartbeat.misses == 0 unless faults.severs > 0
    sim.events_dispatched > 0

* ``p50/p90/p99/p999/mean/max/min/count(key)`` read the registry's
  histograms (values in µs).  A ``*`` glob merges every matching
  histogram before taking the quantile.
* ``rate(key)`` is a counter/gauge value divided by elapsed virtual
  seconds; a bare ``key`` (no function) is the raw value.  Both resolve
  counters, then gauges; ``*`` globs sum matches.
* Comparators: ``< <= > >= == !=``.
* ``unless <key> <op> <number>`` waives the rule (reported as WAIVED,
  counts as passing) when the condition holds — the idiom for "zero
  retries *outside fault windows*".

A rule whose key never registered evaluates the subject as 0 for
counter-style reads but **fails** quantile reads (``p99`` of a histogram
nobody observed is a configuration error worth failing loudly on).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Optional

from .hist import LogHistogram
from .metrics import MetricsRegistry

__all__ = ["SloError", "SloRule", "SloRuleSet", "SloResult", "SloReport",
           "DEFAULT_RULES"]

#: Bundled ruleset: health invariants every clean (fault-free) run must
#: satisfy; severed-cable runs waive the fault-coupled rules.
DEFAULT_RULES = """\
# ShmemMetrics default SLOs (docs/METRICS.md).
# A clean run retries nothing, reroutes nothing, misses no heartbeats.
pe*.retries == 0 unless faults.severs > 0
pe*.reroutes == 0 unless faults.severs > 0
pe*.wait_timeouts == 0 unless faults.severs > 0
heartbeat.misses == 0 unless faults.severs > 0
# The kernel must have actually simulated something.
sim.events_dispatched > 0
"""


class SloError(ValueError):
    """Malformed rule text."""


_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_QUANTILE_FUNCS = {"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999}
_HIST_FUNCS = ("mean", "max", "min", "count") + tuple(_QUANTILE_FUNCS)

_RULE_RE = re.compile(
    r"^\s*(?:(?P<func>[a-z0-9]+)\((?P<fkey>[^()]+)\)|(?P<key>[^\s<>=!]+))"
    r"\s*(?P<op><=|>=|==|!=|<|>)\s*(?P<value>[-+0-9.eE_]+)"
    r"(?:\s+unless\s+(?P<ukey>[^\s<>=!]+)\s*(?P<uop><=|>=|==|!=|<|>)"
    r"\s*(?P<uvalue>[-+0-9.eE_]+))?\s*$"
)


@dataclass(frozen=True)
class SloRule:
    """One parsed rule: ``func(key) op value [unless ukey uop uvalue]``."""

    text: str
    func: Optional[str]         # None = raw counter/gauge read
    key: str
    op: str
    value: float
    unless_key: Optional[str] = None
    unless_op: Optional[str] = None
    unless_value: Optional[float] = None

    @classmethod
    def parse(cls, line: str) -> "SloRule":
        match = _RULE_RE.match(line)
        if match is None:
            raise SloError(f"unparseable SLO rule: {line!r}")
        func = match.group("func")
        if func is not None and func != "rate" and func not in _HIST_FUNCS:
            raise SloError(
                f"unknown SLO function {func!r} in {line!r} (expected "
                f"rate or one of {', '.join(_HIST_FUNCS)})"
            )
        key = match.group("fkey") or match.group("key")
        try:
            value = float(match.group("value").replace("_", ""))
        except ValueError as exc:
            raise SloError(f"bad threshold in {line!r}") from exc
        uvalue = match.group("uvalue")
        return cls(
            text=line.strip(),
            func=func,
            key=key.strip(),
            op=match.group("op"),
            value=value,
            unless_key=match.group("ukey"),
            unless_op=match.group("uop"),
            unless_value=float(uvalue.replace("_", ""))
            if uvalue is not None else None,
        )


@dataclass(frozen=True)
class SloResult:
    """Outcome of one rule against one registry snapshot."""

    rule: SloRule
    passed: bool
    waived: bool
    actual: Optional[float]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed or self.waived

    def render(self) -> str:
        status = "WAIVED" if self.waived else \
            ("PASS" if self.passed else "FAIL")
        actual = "n/a" if self.actual is None else f"{self.actual:g}"
        line = f"[{status:>6}] {self.rule.text}  (actual: {actual})"
        if self.detail:
            line += f"  — {self.detail}"
        return line


@dataclass
class SloReport:
    """All rule outcomes for one evaluation."""

    results: list[SloResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> list[SloResult]:
        return [result for result in self.results if not result.ok]

    def render(self) -> str:
        lines = [f"SLO report: {len(self.results)} rules, "
                 f"{len(self.failures)} failing"]
        lines.extend(result.render() for result in self.results)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "rules": [
                {
                    "rule": result.rule.text,
                    "passed": result.passed,
                    "waived": result.waived,
                    "actual": result.actual,
                    "detail": result.detail,
                }
                for result in self.results
            ],
        }


class SloRuleSet:
    """A parsed collection of rules; evaluate against a registry."""

    def __init__(self, rules: list[SloRule]):
        self.rules = rules

    @classmethod
    def parse(cls, text: str) -> "SloRuleSet":
        rules = []
        for line in text.splitlines():
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            rules.append(SloRule.parse(stripped))
        return cls(rules)

    @classmethod
    def default(cls) -> "SloRuleSet":
        return cls.parse(DEFAULT_RULES)

    def __len__(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------ evaluation
    def evaluate(self, registry: MetricsRegistry,
                 elapsed_us: Optional[float] = None) -> SloReport:
        """Judge every rule; ``elapsed_us`` defaults to the env clock."""
        if elapsed_us is None:
            elapsed_us = registry.env.now
        report = SloReport()
        for rule in self.rules:
            report.results.append(self._evaluate_rule(
                rule, registry, elapsed_us))
        return report

    def _evaluate_rule(self, rule: SloRule, registry: MetricsRegistry,
                       elapsed_us: float) -> SloResult:
        if rule.unless_key is not None:
            condition = registry.value(rule.unless_key) or 0.0
            assert rule.unless_op is not None \
                and rule.unless_value is not None
            if _OPS[rule.unless_op](condition, rule.unless_value):
                return SloResult(
                    rule=rule, passed=False, waived=True, actual=None,
                    detail=f"{rule.unless_key}={condition:g}",
                )
        actual, detail = self._subject(rule, registry, elapsed_us)
        if actual is None:
            return SloResult(rule=rule, passed=False, waived=False,
                             actual=None, detail=detail)
        return SloResult(
            rule=rule, passed=_OPS[rule.op](actual, rule.value),
            waived=False, actual=actual, detail=detail,
        )

    def _subject(self, rule: SloRule, registry: MetricsRegistry,
                 elapsed_us: float) -> tuple[Optional[float], str]:
        func = rule.func
        if func is None:
            return registry.value(rule.key) or 0.0, ""
        if func == "rate":
            value = registry.value(rule.key) or 0.0
            if elapsed_us <= 0:
                return 0.0, "zero elapsed time"
            return value / (elapsed_us / 1e6), "per virtual second"
        hist = self._merged_hist(registry, rule.key)
        if hist is None or hist.count == 0:
            return None, f"no histogram matches {rule.key!r}"
        if func == "mean":
            return hist.mean, f"n={hist.count}"
        if func == "max":
            return hist.maximum or 0.0, f"n={hist.count}"
        if func == "min":
            return hist.minimum or 0.0, f"n={hist.count}"
        if func == "count":
            return float(hist.count), ""
        return hist.quantile(_QUANTILE_FUNCS[func]), f"n={hist.count}"

    @staticmethod
    def _merged_hist(registry: MetricsRegistry,
                     pattern: str) -> Optional[LogHistogram]:
        """The histogram for ``pattern``; globs merge matching buckets."""
        if "*" not in pattern and "?" not in pattern:
            return registry.hist.get(pattern)
        merged: Optional[LogHistogram] = None
        for key, hist in registry.hist.items():
            if not fnmatchcase(key, pattern):
                continue
            if merged is None:
                merged = LogHistogram(pattern)
            for index, count in hist.buckets.items():
                merged.buckets[index] = \
                    merged.buckets.get(index, 0) + count
            merged.count += hist.count
            merged.total += hist.total
            if hist.minimum is not None and (
                    merged.minimum is None or hist.minimum < merged.minimum):
                merged.minimum = hist.minimum
            if hist.maximum is not None and (
                    merged.maximum is None or hist.maximum > merged.maximum):
                merged.maximum = hist.maximum
        return merged
