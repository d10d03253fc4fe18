"""DFS schedule exploration with dynamic partial-order reduction.

The exploration tree is rooted at the empty trace (the default
schedule).  Executing a trace records the full decision log; the
explorer then *expands* it: for every decision at or beyond the forced
prefix, each untaken candidate becomes a child trace whose choices are
the recorded prefix up to that decision plus the alternative index.
Because every child differs from its parent exactly at its last forced
choice, the tree enumerates each schedule at most once.

**DPOR pruning.**  Before pushing an alternative, the explorer asks
whether taking it could possibly lead anywhere new.  The alternative
candidate event also executed *later* in the recorded run (almost
always: a tie loser stays queued); if its step's footprint is
independent of every step executed between the decision and its own
execution, then the alternative order is a commutation of the observed
one — same resulting state, isomorphic subtree — and the branch is
pruned.  Footprints over-approximate effects (see
:mod:`repro.check.footprint`), so pruning is conservative: imprecision
costs explored schedules, never coverage.  An alternative that never
executed before the run ended is pruned only if nothing waited on it
when the tie was decided: once every PE has returned, the agents its
finalize stopped leave orphaned timers that tie with each other, and
re-ordering no-ops leads nowhere new.

**Fault branching.**  For models with ``fault_edges``, the fault-free
root run's decision log defines the reachable injection instants: one
child per (edge, decision index) severs that cable exactly when the
scheduler reaches that decision.  Fault children then expand through
choice branching like any other node, exploring schedule nondeterminism
*after* the fault too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .models import CheckModel
from .policy import ExplorationPolicy
from .runner import CheckSettings, RunOutcome, Violation, run_schedule
from .trace import FaultPoint, ScheduleTrace

__all__ = ["ExploreReport", "explore"]

#: an alternative whose execution lies further than this many steps past
#: its decision is never pruned (bounds the commutation scan).
_DPOR_WINDOW = 4_000

#: cap on per-model fault injection points (decision indices) per edge.
_MAX_FAULT_POINTS = 48


@dataclass
class ExploreReport:
    """Aggregate result of exploring one model."""

    model: str
    mutation: Optional[str]
    explored: int = 0
    pruned: int = 0
    expanded: int = 0
    max_decisions: int = 0
    total_steps: int = 0
    fault_branches: int = 0
    #: True when the DFS frontier emptied within budget (with DPOR on,
    #: "exhaustive modulo commutation of independent steps").
    exhausted: bool = False
    budget: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: violations beyond the retention cap are counted, not stored.
    violations_total: int = 0

    @property
    def prune_ratio(self) -> float:
        considered = self.pruned + self.expanded
        return self.pruned / considered if considered else 0.0

    def summary(self) -> str:
        status = "exhausted" if self.exhausted else "budget-capped"
        mut = f" mutation={self.mutation}" if self.mutation else ""
        return (
            f"{self.model}{mut}: {self.explored} schedules explored "
            f"({status}, budget {self.budget}), {self.pruned} pruned / "
            f"{self.expanded} branched (DPOR {self.prune_ratio:.0%}), "
            f"{self.fault_branches} fault branches, "
            f"{self.violations_total} violation(s)"
        )


def _can_prune(policy: ExplorationPolicy,
               positions: dict[int, list[int]],
               decision_index: int, candidate_pos: int) -> bool:
    """True iff the alternative provably commutes with the steps that ran
    between its decision and its own (later) execution."""
    decision = policy.decisions[decision_index]
    alt_event = policy.candidates[decision_index][candidate_pos]
    alt_positions = positions.get(id(alt_event))
    if not alt_positions:
        # Never executed before the run ended: only a candidate nobody
        # waited on (a stopped agent's orphaned timer) provably commutes.
        return decision.idle[candidate_pos]
    exec_pos = None
    for position in alt_positions:
        if position >= decision.step_index:
            exec_pos = position
            break
    if exec_pos is None or exec_pos - decision.step_index > _DPOR_WINDOW:
        return False
    alt_footprint = policy.steps[exec_pos][1]
    steps = policy.steps
    for position in range(decision.step_index, exec_pos):
        if alt_footprint.conflicts(steps[position][1]):
            return False
    return True


def explore(model: CheckModel, *,
            budget: Optional[int] = None,
            dpor: bool = True,
            faults: bool = True,
            stop_on_first: bool = False,
            settings: Optional[CheckSettings] = None,
            mutation: Optional[str] = None,
            keep_violations: int = 16) -> ExploreReport:
    """Explore ``model``'s schedule space within ``budget`` executions."""
    if settings is None:
        settings = CheckSettings(track_footprints=dpor)
    if budget is None:
        budget = model.default_budget
    report = ExploreReport(model=model.name, mutation=mutation,
                           budget=budget)

    if mutation is not None:
        from .mutations import MUTATIONS
        mutate = MUTATIONS[mutation]
    else:
        mutate = None

    def execute(trace: ScheduleTrace) -> RunOutcome:
        if mutate is None:
            return run_schedule(model, trace, settings)
        with mutate():
            return run_schedule(model, trace, settings)

    stack: list[ScheduleTrace] = [ScheduleTrace()]
    seen: set[tuple] = set()

    while stack:
        if report.explored >= budget:
            return report
        trace = stack.pop()
        key = (trace.choices, trace.fault)
        if key in seen:
            continue
        seen.add(key)

        outcome = execute(trace)
        report.explored += 1
        report.total_steps += outcome.steps
        policy = outcome.policy
        report.max_decisions = max(report.max_decisions,
                                   len(policy.decisions))
        if outcome.violations:
            report.violations_total += len(outcome.violations)
            room = keep_violations - len(report.violations)
            report.violations.extend(outcome.violations[:max(room, 0)])
            if stop_on_first:
                return report
            # A broken schedule's suffix is not worth expanding: the
            # recorded decisions past the failure describe a wedged run.
            continue

        positions = policy.step_positions() if dpor else {}
        recorded = policy.recorded

        # -------------------------------------------------- choice branches
        for index in range(len(trace.choices), len(policy.decisions)):
            decision = policy.decisions[index]
            for alternative in range(decision.n_candidates):
                if alternative == decision.chosen:
                    continue
                if dpor and _can_prune(policy, positions, index,
                                       alternative):
                    report.pruned += 1
                    continue
                report.expanded += 1
                stack.append(ScheduleTrace(
                    choices=recorded[:index] + (alternative,),
                    fault=trace.fault,
                ))

        # --------------------------------------------------- fault branches
        if (faults and model.fault_edges and trace.fault is None
                and not trace.choices):
            window = model.fault_window_us
            eligible = [
                d.index for d in policy.decisions
                if window is None or window[0] <= d.time <= window[1]
            ]
            if len(eligible) > _MAX_FAULT_POINTS:
                # Spread the capped injection points evenly over the
                # window rather than clustering them at its start.
                stride = len(eligible) / _MAX_FAULT_POINTS
                eligible = [eligible[int(k * stride)]
                            for k in range(_MAX_FAULT_POINTS)]
            for edge in model.fault_edges:
                for index in eligible:
                    report.fault_branches += 1
                    stack.append(ScheduleTrace(
                        choices=recorded[:index],
                        fault=FaultPoint(decision=index, edge=edge),
                    ))

    report.exhausted = True
    return report
