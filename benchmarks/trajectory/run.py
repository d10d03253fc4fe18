#!/usr/bin/env python3
"""One trajectory: five sized workloads, two clocks, a per-layer ledger.

    python3 benchmarks/trajectory/run.py [--seed N] [--workload NAME]
                                         [--repeats K] [--no-trace] [--aa]

runs every workload, checks every payload, prints every metric by name
with its unit and clock, and writes ``out/results.json``.  The driver's
form

    run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for about S seconds and prints one JSON object on
the last line: the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).

This process only generates inputs and aggregates: every run happens in
a child (child.py, one at a time, a fresh interpreter each, under a
wall-clock watchdog) while this process sleeps in ``communicate``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import ledger  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_REPEATS = 3
#: repeats by the clock (--seconds): as many as end within the budget,
#: but at least two, so that the run can check that virtual metrics
#: repeat and ``ledger.quiet_total`` has two readings of every segment.
MIN_REPEATS, MAX_REPEATS = 2, 6
WATCHDOG_S = 120.0
PROBE_LOOP_S = 1.0
#: the driver form's probes: per-layer metrics carry no bound, and the
#: driver's time cap is better spent on untraced repeats.
DRIVER_PROBE_LOOP_S = 0.3
#: numpy asks for transparent huge pages for big arrays; each simulated
#: host's DRAM is one, so every touched receive window would pin 2 MiB
#: and peak RSS would swing by 20 % with the seed (README, "oddities").
CHILD_ENV = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")

#: counters a workload must leave at zero: the bypass predictions.
ZERO_OUTSIDE = {
    "core.fastpath.py_calls": "ring8_mixed_fastpath",
    "faults.py_calls": "mesh16_sever",
    "faults.severs": "mesh16_sever",
    "core.retries": "mesh16_sever",
}


class Watchdog(Exception):
    """A child outlived its wall-clock limit and was killed."""


class ChildFailed(Exception):
    """A child exited non-zero or printed no result."""


def spawn(argv: list[str], stdin_text: str, limit_s: float,
          env: Optional[dict] = None) -> tuple[Optional[int], str, str]:
    """Run ``argv`` to completion or kill it after ``limit_s`` seconds.
    Returns ``(returncode, stdout, stderr)``; returncode None = killed."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(stdin_text, timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def _child_json(script: str, args: list[str], stdin_text: str,
                limit_s: float, what: str) -> dict[str, Any]:
    code, out, err = spawn([sys.executable, os.path.join(HERE, script), *args],
                           stdin_text, limit_s, CHILD_ENV)
    if code is None:
        raise Watchdog(f"{what}: killed after {limit_s:g} s")
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise ChildFailed(f"{what}: exit {code}\n{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_child(plan: dict[str, Any], mode: str,
              limit_s: float) -> dict[str, Any]:
    job = {"plan": plan, "mode": mode, "trace_path": os.path.join(
        OUT, f"{plan['workload']}.trace.json")}
    return _child_json("child.py", [], json.dumps(job), limit_s,
                       f"{plan['workload']} [{mode}]")


# ------------------------------------------------------------------ measuring

def _same(runs: list[dict[str, Any]], key: str, what: str) -> list[str]:
    """Problems if ``run[key]`` differs between runs of one plan."""
    problems = []
    first = runs[0][key]
    for index, run in enumerate(runs[1:], 1):
        for name in sorted(set(first) | set(run[key])):
            if first.get(name) != run[key].get(name):
                problems.append(
                    f"{what}: {name} differs between runs of one plan: "
                    f"{first.get(name)!r} vs {run[key].get(name)!r} "
                    f"(run 0 [{runs[0]['mode']}] vs run {index} "
                    f"[{run['mode']}])")
    return problems


def measure(name: str, seed: int, repeats: Optional[int],
            seconds: Optional[float], limit_s: float,
            setup_samples: int = 9) -> dict[str, Any]:
    """The untraced repeats of one workload -> end-to-end summaries, the
    exact counters, and the problems its self-checks found.  Cheap
    set-up-only children top the set-up sample up to ``setup_samples``
    (more, if the clock allows more than ``MIN_REPEATS`` repeats)."""
    plan = workloads.make_plan(name, seed)
    runs: list[dict[str, Any]] = []
    setups: list[float] = []
    while True:
        runs.append(run_child(plan, "run", limit_s))
        if len(runs) == 1:
            # the set-up-only children go between the first repeat and the
            # second: a slow episode of the machine that covers a segment
            # in one is then less likely to cover it in the other
            for _ in range(setup_samples - (repeats or MIN_REPEATS)):
                setups.append(run_child(plan, "setup", limit_s)["setup_s"])
        spent = sum(run["elapsed_s"] for run in runs)
        if repeats is not None:
            if len(runs) >= repeats:
                break
        elif len(runs) >= MAX_REPEATS or (
                len(runs) >= MIN_REPEATS
                and spent + spent / len(runs) > seconds):
            break       # one more would end past the budget
    setups += [run["setup_s"] for run in runs]

    problems = _same(runs, "virtual", name) + _same(runs, "counters", name)
    if len({(run["attempted"], run["failed"]) for run in runs}) != 1:
        problems.append(f"{name}: attempted/failed differ between runs")
    for experiment, description, passed in runs[0].get("shape_checks", ()):
        if not passed:
            problems.append(f"{name}: paper shape check failed: "
                            f"{experiment}: {description}")
    for counter in ("faults.severs", "core.retries"):
        if runs[0]["counters"][counter] and name != ZERO_OUTSIDE[counter]:
            problems.append(f"{name}: {counter} = "
                            f"{runs[0]['counters'][counter]:g}, expected 0")

    e2e = {"setup_s": ledger.summarize(setups)}
    try:
        quiet = ledger.quiet_total([run["segments"] for run in runs])
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        quiet = None
    e2e["wall_s"] = ledger.summarize([run["wall_s"] for run in runs], quiet)
    e2e["peak_rss_mb"] = ledger.summarize(
        [run["peak_rss_mb"] for run in runs])
    for metric, value in runs[0]["virtual"].items():
        e2e[metric] = ledger.summarize([value] * len(runs))
    missing = [m for m in catalogue.E2E_NAMES if m not in e2e]
    if missing:
        problems.append(f"{name}: end-to-end metrics missing: {missing}")
    return {
        "plan": plan, "runs": runs, "e2e": e2e, "problems": problems,
        "counters": runs[0]["counters"], "samples": runs[0]["samples"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "errors": [e for run in runs for e in run["errors"]][:8],
    }


def trace(name: str, untraced: dict[str, Any], limit_s: float,
          probes: dict[str, float]) -> dict[str, Any]:
    """The traced pass of one workload -> every per-layer metric."""
    plan = untraced["plan"]
    spans = run_child(plan, "spans", limit_s)
    profile = run_child(plan, "profile", limit_s)
    reference = untraced["runs"][0]
    problems = _same([reference, spans, profile], "virtual",
                     f"{name} traced pass")
    host = profile["host_ledger"]
    shares = sum(host[f"{layer}.host_self_share"] for layer in ledger.LAYERS)
    if abs(shares - 1.0) > 1e-6:
        problems.append(f"{name}: host-time shares sum to {shares!r}")
    for counter in ("core.fastpath.py_calls", "faults.py_calls"):
        if host[counter] and name != ZERO_OUTSIDE[counter]:
            problems.append(
                f"{name}: {counter} = {host[counter]:g}, expected 0")

    wall = untraced["e2e"]["wall_s"]["value"]
    metrics = dict(host)
    metrics.update(spans["virtual_ledger"])
    metrics.update(untraced["counters"])
    metrics["sim.events_per_s"] = \
        untraced["counters"]["sim.events_dispatched"] / wall
    metrics["obsv.trace_overhead_ratio"] = spans["wall_s"] / wall
    metrics.update(probes)
    missing = [m for m in catalogue.PER_LAYER_NAMES if m not in metrics]
    if missing:
        problems.append(f"{name}: per-layer metrics missing: {missing}")
    return {"metrics": metrics, "problems": problems,
            "trace_path": os.path.relpath(os.path.join(
                OUT, f"{name}.trace.json"), os.getcwd())}


def run_probes(limit_s: float,
               loop_s: float = PROBE_LOOP_S) -> dict[str, float]:
    probes = _child_json("probes.py", [str(loop_s)], "", limit_s,
                         "layer probes")
    rate = probes["ntb.probe.v_link_mb_s"]
    if not 2000 <= rate <= 3800:    # repro.bench.harness.fig8_shape_checks
        raise ChildFailed(f"ntb.probe.v_link_mb_s = {rate:.0f} MB/s is "
                          f"outside the paper's 20-30 Gbps band")
    return probes


# ------------------------------------------------------------------- printing

def print_e2e(name: str, result: dict[str, Any]) -> None:
    print(f"\n== {name}: end to end  (seed {result['plan']['seed']}, "
          f"{len(result['runs'])} untraced runs of "
          f"{result['e2e']['wall_s']['value']:.2f} s)")
    samples = result["samples"]
    for metric in catalogue.E2E_NAMES:
        if metric not in result["e2e"]:
            continue
        s = result["e2e"][metric]
        op = metric.split("_")[1] if metric.startswith("v_") else ""
        note = f"  samples={samples[op]}" if op in samples else ""
        print(f"  {metric:<20} {s['value']:>16.6f} "
              f"{catalogue.UNITS[metric]:<5} [{catalogue.CLOCKS[metric]:<7}] "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} "
              f"bound={catalogue.BOUNDS[metric]:.0%}{note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_op_share':<20} {failed / max(1, attempted):>16.6f} "
          f"ratio         ({failed} of {attempted} ops)")
    for error in result["errors"]:
        print(f"    ! {error}")


def print_per_layer(name: str, traced: dict[str, Any]) -> None:
    print(f"\n== {name}: per layer  (Chrome trace: {traced['trace_path']})")
    for metric, unit, _better, source, _moves in catalogue.PER_LAYER:
        if metric in traced["metrics"]:
            print(f"  {metric:<36} {traced['metrics'][metric]:>18.6f} "
                  f"{unit:<6} ({source})")


# ----------------------------------------------------------------------- modes

def full_set(names: list[str], seed: int, repeats: int, with_trace: bool,
             limit_s: float, quiet: bool = False) -> dict[str, Any]:
    """Every named workload: untraced repeats, then the traced pass."""
    probes = run_probes(limit_s) if with_trace else {}
    out: dict[str, Any] = {}
    for name in names:
        result = measure(name, seed, repeats, None, limit_s)
        if not quiet:
            print_e2e(name, result)
        if with_trace:
            traced = trace(name, result, limit_s, probes)
            result["per_layer"] = traced["metrics"]
            result["problems"] += traced["problems"]
            if not quiet:
                print_per_layer(name, traced)
        sys.stdout.flush()
        out[name] = result
    return out


def results_block(results: dict[str, Any], seed: int) -> dict[str, Any]:
    return {
        "seed": seed,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {
            name: {"end_to_end": r["e2e"], "per_layer": r.get("per_layer", {}),
                   "samples": r["samples"], "attempted": r["attempted"],
                   "failed": r["failed"]}
            for name, r in results.items()},
    }


def problems_of(results: dict[str, Any]) -> list[str]:
    return [p for r in results.values() for p in r["problems"]]


def compare_sets(first: dict[str, Any], second: dict[str, Any]) -> list[str]:
    """A/A: two sets of runs of the same code must agree within the
    benchmark's own bounds; virtual metrics and counts exactly."""
    breaches = []
    print("\n== A/A: two sets of runs of the same code")
    for name in first:
        a, b = first[name], second[name]
        for metric in catalogue.E2E_NAMES:
            ma, mb = a["e2e"][metric]["value"], b["e2e"][metric]["value"]
            worse = (mb - ma) / ma
            if catalogue.BETTER[metric] == "higher":
                worse = -worse
            exact = metric in catalogue.VIRTUAL_E2E
            ok = (ma == mb) if exact else worse <= catalogue.BOUNDS[metric]
            print(f"  {name:<22} {metric:<18} {ma:>16.6f} {mb:>16.6f} "
                  f"{worse:>+8.2%} "
                  f"(bound "
                  f"{'exact' if exact else format(catalogue.BOUNDS[metric], '.0%')})"
                  f"{'' if ok else '  BREACH'}")
            if not ok:
                breaches.append(f"{name}.{metric}: {ma!r} vs {mb!r}")
        if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            breaches.append(f"{name}: attempted/failed differ")
        if a["counters"] != b["counters"]:
            breaches.append(f"{name}: exact counters differ")
        for layer in ledger.LAYERS if "per_layer" in a else ():
            key = f"{layer}.py_calls"
            if a["per_layer"][key] != b["per_layer"][key]:
                breaches.append(
                    f"{name}: {key} differs: {a['per_layer'][key]!r} vs "
                    f"{b['per_layer'][key]!r}")
    return breaches


def contract_run(args) -> int:
    """``--workload W --seed N --seconds S --trace 0|1`` -> one JSON line."""
    name = args.workload
    if args.trace:      # one untraced reference, then the traced pass
        result = measure(name, args.seed, 1, None, args.watchdog,
                         setup_samples=1)
    else:
        result = measure(name, args.seed, args.repeats, args.seconds,
                         args.watchdog)
    print_e2e(name, result)
    if args.trace:
        traced = trace(name, result, args.watchdog,
                       run_probes(args.watchdog, DRIVER_PROBE_LOOP_S))
        result["problems"] += traced["problems"]
        print_per_layer(name, traced)
        values = {m: traced["metrics"][m] for m in catalogue.PER_LAYER_NAMES}
    else:
        values = {m: result["e2e"][m]["value"] for m in catalogue.E2E_NAMES}
    if result["problems"]:
        raise ChildFailed("self-checks failed:\n  "
                          + "\n  ".join(result["problems"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": catalogue.UNITS[m]}
                    for m, v in values.items()},
    }))
    return 0


def full_run(args) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    repeats = args.repeats or DEFAULT_REPEATS
    with_trace = not args.no_trace
    results = full_set(names, args.seed, repeats, with_trace, args.watchdog)
    problems = problems_of(results)
    if args.aa:
        again = full_set(names, args.seed, repeats, with_trace, args.watchdog,
                         quiet=True)
        problems += problems_of(again) + compare_sets(results, again)
        other = full_set(names, args.seed + 1, repeats, with_trace,
                         args.watchdog, quiet=True)
        problems += problems_of(other)
        print(f"\n== seed {args.seed + 1}: "
              f"{len(problems_of(other))} self-check problems, "
              f"{sum(r['failed'] for r in other.values())} failed ops")
    os.makedirs(OUT, exist_ok=True)
    block = results_block(results, args.seed)
    with open(os.path.join(OUT, "results.json"), "w") as fh:
        json.dump(block, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = sum(r["failed"] for r in results.values())
    print(f"\nresults: {os.path.relpath(os.path.join(OUT, 'results.json'))}; "
          f"{failed} failed ops; {len(problems)} problems")
    if problems:
        raise ChildFailed("self-checks failed:\n  " + "\n  ".join(problems))
    return 0 if failed == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int,
                        help=f"untraced runs per workload (default "
                             f"{DEFAULT_REPEATS}, or by the clock with "
                             f"--seconds)")
    parser.add_argument("--seconds", type=float,
                        help="repeat until this much measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print end-to-end (0) or "
                             "per-layer (1) metrics as one JSON line")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass and the probes")
    parser.add_argument("--aa", action="store_true",
                        help="run the set twice and compare, then once "
                             "more on the next seed")
    parser.add_argument("--watchdog", type=float, default=WATCHDOG_S,
                        help="wall-clock limit per child in seconds")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if not args.workload or (args.seconds is None
                                     and args.repeats is None):
                parser.error("--trace needs --workload and --seconds")
            return contract_run(args)
        if args.seconds is not None:
            parser.error("--seconds needs --trace")
        return full_run(args)
    except Watchdog as exc:
        # every op of a killed run counts as failed: failed_op_share = 1
        print(f"run.py: watchdog: {exc}; failed_op_share = 1", file=sys.stderr)
        return 3
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
