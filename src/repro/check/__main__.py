"""``python -m repro.check`` — the ShmemCheck command line.

Explore models::

    python -m repro.check lock put-signal --budget 400
    python -m repro.check --all --save-traces out/

Replay a counterexample trace uploaded by CI::

    python -m repro.check --replay out/lock-deadlock-cycle.json

Prove the harness bites (mutation smoke)::

    python -m repro.check --mutate lost-doorbell --expect-violation
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .explorer import ExploreReport, explore
from .models import MODELS, CheckModel
from .mutations import MUTATION_TARGETS, MUTATIONS
from .runner import CheckSettings, run_schedule
from .trace import Counterexample, ScheduleTrace

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="systematic schedule/fault exploration of the "
                    "OpenSHMEM-over-NTB runtime",
    )
    parser.add_argument("models", nargs="*",
                        help="models to explore (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list available models and mutations")
    parser.add_argument("--all", action="store_true",
                        help="explore every CI-tagged model")
    parser.add_argument("--budget", type=int, default=None,
                        help="max schedules per model "
                             "(default: per-model)")
    parser.add_argument("--horizon-us", type=float, default=None,
                        help="virtual-time liveness bound per schedule")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="simulator-step bound per schedule")
    parser.add_argument("--no-dpor", action="store_true",
                        help="disable partial-order reduction "
                             "(pure DFS)")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip fault-injection branches")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="stop a model at its first violation")
    parser.add_argument("--mutate", metavar="NAME", default=None,
                        help="run with a seeded bug "
                             f"({', '.join(sorted(MUTATIONS))})")
    parser.add_argument("--expect-violation", action="store_true",
                        help="exit 0 only if a violation IS found "
                             "(mutation smoke / positive controls)")
    parser.add_argument("--require-exhaustive", action="store_true",
                        help="fail if any model's DFS frontier did not "
                             "empty within budget (CI gate)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay a counterexample JSON file")
    parser.add_argument("--save-traces", metavar="DIR", default=None,
                        help="write counterexample JSON files here")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable summary on stdout")
    return parser


def _list_everything() -> None:
    print("models:")
    for model in MODELS.values():
        flags = ", ".join(model.tags) or "-"
        extra = " [expected-violation demo]" if model.expect_violation else ""
        print(f"  {model.name:<18} {model.n_pes} PEs  budget "
              f"{model.default_budget:<5} tags: {flags}{extra}")
    print("mutations:")
    for name in sorted(MUTATIONS):
        target = MUTATION_TARGETS.get(name, "no model (a tier-1 test)")
        print(f"  {name:<22} bites on: {target}")


def _save_counterexamples(report: ExploreReport, directory: Path,
                          mutation: Optional[str]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index, violation in enumerate(report.violations):
        example = violation.counterexample(report.model, mutation)
        path = directory / (
            f"{report.model}-{violation.kind}-{index}.json")
        path.write_text(example.dumps() + "\n")
        written.append(path)
    return written


def _replay(path: str) -> int:
    example = Counterexample.loads(Path(path).read_text())
    model = MODELS.get(example.model)
    if model is None:
        print(f"unknown model {example.model!r} in {path}", file=sys.stderr)
        return 2
    print(f"replaying {example.model} "
          f"(mutation={example.mutation or 'none'}, "
          f"trace={list(example.trace.choices)}"
          + (f", fault@{example.trace.fault.decision}"
             f" edge={example.trace.fault.edge}"
             if example.trace.fault else "")
          + ")")

    def run_it() -> "object":
        return run_schedule(model, example.trace)

    if example.mutation:
        with MUTATIONS[example.mutation]():
            outcome = run_it()
    else:
        outcome = run_it()
    if outcome.violations:
        print(f"reproduced: {len(outcome.violations)} violation(s)")
        for violation in outcome.violations:
            print(violation.describe())
        return 0
    print("did NOT reproduce — schedule ran clean", file=sys.stderr)
    return 1


def _select_models(args: argparse.Namespace) -> list[CheckModel]:
    if args.all or (not args.models and args.mutate is None):
        return [m for m in MODELS.values() if "ci" in m.tags]
    if args.mutate is not None and not args.models:
        if args.mutate not in MUTATION_TARGETS:
            raise SystemExit(f"no model bites on {args.mutate!r}; name one")
        return [MODELS[MUTATION_TARGETS[args.mutate]]]
    selected = []
    for name in args.models:
        if name not in MODELS:
            raise SystemExit(
                f"unknown model {name!r}; try --list")
        selected.append(MODELS[name])
    return selected


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        _list_everything()
        return 0
    if args.replay:
        return _replay(args.replay)
    if args.mutate is not None and args.mutate not in MUTATIONS:
        raise SystemExit(f"unknown mutation {args.mutate!r}; try --list")

    settings = CheckSettings(
        horizon_us=args.horizon_us,
        max_steps=args.max_steps,
        track_footprints=not args.no_dpor,
    )
    reports: list[ExploreReport] = []
    found_violation = False
    for model in _select_models(args):
        report = explore(
            model,
            budget=args.budget,
            dpor=not args.no_dpor,
            faults=not args.no_faults,
            stop_on_first=args.stop_on_first or args.expect_violation,
            settings=settings,
            mutation=args.mutate,
        )
        reports.append(report)
        print(report.summary())
        expected = model.expect_violation or args.expect_violation
        if report.violations and not expected:
            for violation in report.violations:
                print(violation.describe())
        if report.violations_total:
            found_violation = True
        if args.save_traces:
            for path in _save_counterexamples(
                    report, Path(args.save_traces), args.mutate):
                print(f"  wrote {path}")

    if args.as_json:
        print(json.dumps([{
            "model": r.model,
            "mutation": r.mutation,
            "explored": r.explored,
            "pruned": r.pruned,
            "expanded": r.expanded,
            "prune_ratio": r.prune_ratio,
            "fault_branches": r.fault_branches,
            "exhausted": r.exhausted,
            "violations": r.violations_total,
        } for r in reports]))

    if args.expect_violation:
        if found_violation:
            print("violation found, as expected")
            return 0
        print("NO violation found (harness failed to bite)",
              file=sys.stderr)
        return 1

    # Positive-control models (expect_violation=True) must fail;
    # everything else must be clean.
    bad = False
    for report, model in zip(reports,
                             [MODELS[r.model] for r in reports]):
        if model.expect_violation and not report.violations_total:
            print(f"{model.name}: expected a violation, found none",
                  file=sys.stderr)
            bad = True
        elif not model.expect_violation and report.violations_total:
            bad = True
        if args.require_exhaustive and not report.exhausted:
            print(f"{model.name}: frontier not exhausted within budget "
                  f"{report.budget} (explored {report.explored})",
                  file=sys.stderr)
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
