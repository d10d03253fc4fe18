"""CLI: dissect an exported trace or a metrics snapshot.

    python -m repro.obsv trace trace.json          # breakdown + flamegraph
    python -m repro.obsv trace trace.json --validate
    python -m repro.obsv metrics metrics.json      # dashboard + sparklines

Missing or malformed input files print a one-line error and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .hist import HistSummary, render_histograms

#: Eight-step unicode sparkline ramp.
_SPARK = "▁▂▃▄▅▆▇█"


def _load_json(path: str) -> Any:
    """Read a JSON file or die with a one-line error (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _run_trace(args: argparse.Namespace) -> int:
    from .analysis import build_trees, render_breakdown, render_flamegraph
    from .export import validate_chrome_trace

    trace = _load_json(args.trace)
    problems = validate_chrome_trace(trace)
    if problems:
        print(f"{args.trace}: INVALID trace-event JSON:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_events = len(trace.get("traceEvents", []))
    print(f"{args.trace}: valid trace-event JSON ({n_events} events)")
    if args.validate:
        return 0

    roots = build_trees(trace)
    if not args.flame:
        print()
        print(render_breakdown(roots))
    print()
    print(render_flamegraph(roots, max_ops=args.max_ops))
    return 0


def sparkline(values: list[float], width: int = 32) -> str:
    """Render a value series as a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Downsample by striding so the line always fits.
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - low) / span * len(_SPARK)))]
        for v in values
    )


def _render_metrics(snapshot: dict[str, Any]) -> str:
    lines: list[str] = []
    now_us = snapshot.get("now_us")
    if now_us is not None:
        lines.append(f"metrics snapshot at t={now_us:g} µs")
    metrics = snapshot.get("metrics", {})
    if metrics:
        width = max(len(key) for key in metrics)
        lines.append("")
        lines.append(f"{'metric':<{width}} {'value':>14}")
        lines.append("-" * (width + 15))
        for key in sorted(metrics):
            value = metrics[key]
            lines.append(f"{key:<{width}} {value:>14g}")
    hists = snapshot.get("histograms", {})
    if hists:
        lines.append("")
        lines.append(render_histograms(
            (key, HistSummary.from_json(hists[key])) for key in sorted(hists)))
    series = snapshot.get("series", {})
    drawable = {key: [v for _t, v in points]
                for key, points in series.items() if len(points) >= 2}
    if drawable:
        width = max(len(key) for key in drawable)
        lines.append("")
        lines.append(f"time series ({len(drawable)} sampled)")
        lines.append("-" * (width + 35))
        for key in sorted(drawable):
            values = drawable[key]
            lines.append(f"{key:<{width}} {sparkline(values)} "
                         f"[{values[0]:g} → {values[-1]:g}]")
    if not lines:
        lines.append("(empty snapshot)")
    return "\n".join(lines)


def _run_metrics(args: argparse.Namespace) -> int:
    snapshot = _load_json(args.snapshot)
    if not isinstance(snapshot, dict):
        print(f"error: {args.snapshot} is not a metrics snapshot object",
              file=sys.stderr)
        raise SystemExit(2)
    print(_render_metrics(snapshot))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obsv",
        description="Analyse repro.obsv exports: Chrome traces and "
                    "metrics snapshots.",
    )
    sub = parser.add_subparsers(dest="command")

    trace = sub.add_parser("trace", help="dissect a Chrome-trace export")
    trace.add_argument("trace", help="path to an exported trace.json")
    trace.add_argument("--validate", action="store_true",
                       help="only validate the trace-event structure")
    trace.add_argument("--flame", action="store_true",
                       help="only print the flamegraph")
    trace.add_argument("--max-ops", type=int, default=8,
                       help="flamegraph: max operation trees to draw")
    trace.set_defaults(func=_run_trace)

    metrics = sub.add_parser(
        "metrics", help="render a metrics snapshot (tables + sparklines)")
    metrics.add_argument("snapshot",
                         help="path to a metrics snapshot JSON "
                              "(repro-metrics/v1)")
    metrics.set_defaults(func=_run_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
