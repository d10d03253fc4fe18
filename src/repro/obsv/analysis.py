"""Offline analysis of exported traces: breakdown tables + flamegraph.

Works from the exported Chrome-trace JSON alone (span ids and parent ids
ride in each event's ``args``), so ``python -m repro.obsv trace t.json``
can dissect a run produced on another machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["TraceNode", "build_trees", "render_breakdown",
           "render_flamegraph"]

#: Span names that start operation trees in the exported trace.
_OP_NAMES = ("put", "get", "amo", "barrier")


@dataclass
class TraceNode:
    """One span rebuilt from an exported trace event."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    track: str
    start: float
    dur: float
    args: dict[str, Any] = field(default_factory=dict)
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def subtree_end(self) -> float:
        return max([self.start + self.dur]
                   + [child.subtree_end for child in self.children])

    @property
    def effective_dur(self) -> float:
        """End-to-end duration including remote descendants."""
        return self.subtree_end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_trees(trace: dict[str, Any]) -> list[TraceNode]:
    """Rebuild span forests from a trace-event JSON object."""
    nodes: dict[int, TraceNode] = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") not in ("X", "i"):
            continue
        args = event.get("args", {})
        span_id = args.get("span_id")
        if span_id is None:
            continue
        nodes[span_id] = TraceNode(
            span_id=span_id,
            parent_id=args.get("parent_id"),
            name=event.get("name", "?"),
            category=event.get("cat", "?"),
            track=str(args.get("track", "")) or _thread_track(trace, event),
            start=event.get("ts", 0.0),
            dur=event.get("dur", 0.0),
            args={k: v for k, v in args.items()
                  if k not in ("span_id", "parent_id")},
        )
    roots: list[TraceNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.start, child.span_id))
    roots.sort(key=lambda node: (node.start, node.span_id))
    return roots


def _thread_track(trace: dict[str, Any], event: dict[str, Any]) -> str:
    for meta in trace.get("traceEvents", []):
        if (meta.get("ph") == "M" and meta.get("name") == "thread_name"
                and meta.get("pid") == event.get("pid")
                and meta.get("tid") == event.get("tid")):
            return meta.get("args", {}).get("name", "")
    return ""


def render_breakdown(roots: list[TraceNode]) -> str:
    """Per-op latency breakdown: where does each op class spend time?

    Groups operation roots by name, then attributes each descendant
    span's *self* time (duration minus its children's overlap-free time
    is overkill here; nested spans on the same process do not overlap
    their siblings, so plain duration per name is the honest measure)
    into phase rows.
    """
    ops = [root for root in roots if root.name in _OP_NAMES]
    if not ops:
        return "(no operation spans in trace)"
    lines: list[str] = []
    groups: dict[str, list[TraceNode]] = {}
    for op in ops:
        groups.setdefault(op.name, []).append(op)
    for op_name in sorted(groups):
        members = groups[op_name]
        total = sum(op.dur for op in members)
        effective = sum(op.effective_dur for op in members)
        lines.append(
            f"{op_name}: {len(members)} ops, "
            f"{total:.2f} us blocking, {effective:.2f} us end-to-end"
        )
        phase_time: dict[str, float] = {}
        phase_count: dict[str, int] = {}
        for op in members:
            for node in op.walk():
                if node is op:
                    continue
                phase_time[node.name] = (phase_time.get(node.name, 0.0)
                                         + node.dur)
                phase_count[node.name] = phase_count.get(node.name, 0) + 1
        header = (f"  {'phase':<18} {'spans':>6} {'total_us':>10} "
                  f"{'mean_us':>9} {'% of e2e':>9}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for phase in sorted(phase_time,
                            key=lambda p: (-phase_time[p], p)):
            t = phase_time[phase]
            n = phase_count[phase]
            pct = (100.0 * t / effective) if effective else 0.0
            lines.append(
                f"  {phase:<18} {n:>6} {t:>10.2f} {t / n:>9.2f} "
                f"{pct:>8.1f}%"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def render_flamegraph(roots: list[TraceNode], max_ops: int = 8,
                      width: int = 72) -> str:
    """Text flamegraph: one indented bar per span, scaled to the root."""
    ops = [root for root in roots if root.name in _OP_NAMES]
    if not ops:
        return "(no operation spans in trace)"
    lines: list[str] = []
    for op in ops[:max_ops]:
        horizon = op.effective_dur or 1.0
        lines.append(
            f"{op.name} pe={op.args.get('pe', '?')} "
            f"peer={op.args.get('peer', '?')} "
            f"size={op.args.get('nbytes', '?')} "
            f"[{op.effective_dur:.2f} us]"
        )
        _flame_node(op, op.start, horizon, 0, width, lines)
        lines.append("")
    if len(ops) > max_ops:
        lines.append(f"... {len(ops) - max_ops} more ops not shown "
                     f"(--max-ops to raise)")
    return "\n".join(lines).rstrip()


def _flame_node(node: TraceNode, origin: float, horizon: float,
                depth: int, width: int, lines: list[str]) -> None:
    offset = int(round((node.start - origin) / horizon * width))
    length = max(1, int(round(node.dur / horizon * width)))
    offset = min(offset, width - 1)
    length = min(length, width - offset)
    bar = " " * offset + "#" * length
    label = f"{node.name}@{node.track}" if node.track else node.name
    lines.append(f"  {bar:<{width}}  {'  ' * depth}{label} "
                 f"{node.dur:.2f}us")
    for child in node.children:
        _flame_node(child, origin, horizon, depth + 1, width, lines)
