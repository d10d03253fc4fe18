"""Execute one schedule of a model and run every checker against it.

``run_schedule(model, trace)`` is the deterministic re-execution core of
ShmemCheck: it stands up a fresh cluster with an
:class:`~repro.check.policy.ExplorationPolicy` installed, replays the
trace's forced choices (injecting its fault, if any), and runs it with
:func:`repro.core.program.drive` under the model's virtual-time horizon
and step budget — a wedged or livelocked schedule must be *diagnosed*,
not waited out.

Checkers, in the order they can fire:

1. **drive's verdict** (``StuckRunError.kind``): ``deadlock-cycle`` —
   the wait-for graph closed a hold-and-wait cycle; ``deadlock-drain`` —
   the event queue emptied before every PE finished; ``liveness-horizon``
   / ``livelock-steps`` — virtual time or step count exceeded the
   model's bounds.  Each is reported with the blocked primitives and
   open ShmemScope spans at that instant;
2. **exceptions** — protocol errors, assertion failures and sanitizer
   strict-mode races surface as schedule failures with the trace;
3. **post-run quiescence** — leaked wait-graph registrations, barrier
   generation skew across PEs, services with queued work;
4. **terminal-state checks** — NTB hardware invariants
   (:func:`repro.analysis.invariants.check_cluster`), accumulated
   ShmemSan race reports, and the model's own result property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.invariants import check_cluster
from ..core.errors import StuckRunError
from ..core.program import drive, launch, stuck_run
from ..core.sanitizer import ShmemSan
from ..fabric import Cluster, ClusterConfig
from ..sim import Environment
from .models import CheckModel
from .policy import ExplorationPolicy
from .trace import Counterexample, FaultPoint, ScheduleTrace

__all__ = ["CheckSettings", "RunOutcome", "Violation", "run_schedule"]


@dataclass(frozen=True)
class CheckSettings:
    """Per-run bounds and switches (model defaults unless overridden)."""

    horizon_us: Optional[float] = None
    max_steps: Optional[int] = None
    track_footprints: bool = True
    #: extra steps allowed for the post-completion queue drain.
    drain_steps: int = 20_000


@dataclass
class Violation:
    """One checker finding for one schedule."""

    kind: str
    detail: str
    time_us: float
    trace: ScheduleTrace
    blocked: list[str] = field(default_factory=list)
    open_spans: list[str] = field(default_factory=list)

    def counterexample(self, model: str,
                       mutation: Optional[str] = None) -> Counterexample:
        return Counterexample(
            model=model, trace=self.trace, kind=self.kind,
            detail=self.detail, mutation=mutation, time_us=self.time_us,
            blocked=self.blocked, open_spans=self.open_spans,
        )

    def describe(self) -> str:
        lines = [f"[{self.kind}] t={self.time_us:.1f}us: {self.detail}"]
        for entry in self.blocked:
            lines.append(f"    blocked: {entry}")
        for span in self.open_spans:
            lines.append(f"    open span: {span}")
        return "\n".join(lines)


@dataclass
class RunOutcome:
    """Everything the explorer needs from one executed schedule."""

    model: str
    violations: list[Violation]
    policy: ExplorationPolicy
    steps: int
    elapsed_us: float
    results: list[Any]
    completed: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def replay_trace(self) -> ScheduleTrace:
        return self.policy.recorded_trace().shrunk()


class _FootprintSan(ShmemSan):
    """ShmemSan that mirrors every checked access into the step footprint.

    Symmetric-heap effects are keyed by shadow cell — the same
    granularity the race detector uses — so DPOR's independence relation
    agrees with the sanitizer's notion of "touching the same data".
    """

    def __init__(self, n_pes: int, policy: ExplorationPolicy,
                 mode: str = "report", granularity: int = 8) -> None:
        super().__init__(n_pes, mode=mode, granularity=granularity)
        self._policy = policy

    def _note(self, owner_pe: int, offset: int, nbytes: int,
              is_write: bool) -> None:
        first = offset // self.granularity
        last = (offset + max(nbytes, 1) - 1) // self.granularity
        for index in range(first, last + 1):
            self._policy.note_access(("cell", owner_pe, index), is_write)

    def record_write(self, origin_pe: int, owner_pe: int, offset: int,
                     nbytes: int, op: str, now: float,
                     kind: str = "write") -> None:
        self._note(owner_pe, offset, nbytes, True)
        super().record_write(origin_pe, owner_pe, offset, nbytes, op, now,
                             kind=kind)

    def record_read(self, origin_pe: int, owner_pe: int, offset: int,
                    nbytes: int, op: str, now: float) -> None:
        self._note(owner_pe, offset, nbytes, False)
        super().record_read(origin_pe, owner_pe, offset, nbytes, op, now)

    def sync_acquire(self, origin_pe: int, owner_pe: int, offset: int,
                     nbytes: int) -> None:
        self._note(owner_pe, offset, nbytes, False)
        super().sync_acquire(origin_pe, owner_pe, offset, nbytes)


def _install_probes(cluster: Cluster, policy: ExplorationPolicy) -> None:
    """Wire the shared-hardware access probes into the policy."""
    seen: set[int] = set()
    for driver in cluster.drivers():
        endpoint = driver.endpoint
        for device in (endpoint.doorbell, endpoint.spad):
            if device is None or id(device) in seen:
                continue
            seen.add(id(device))
            device.probe = policy.note_access
    for host in cluster.hosts:
        memory = getattr(host, "memory", None)
        if memory is not None and id(memory) not in seen:
            seen.add(id(memory))
            memory.probe = policy.note_access


def run_schedule(model: CheckModel, trace: ScheduleTrace,
                 settings: CheckSettings = CheckSettings()) -> RunOutcome:
    """Deterministically execute ``model`` under ``trace`` and check it."""
    horizon = settings.horizon_us or model.horizon_us
    max_steps = settings.max_steps or model.max_steps

    outcome_trace = trace  # replaced with the recorded trace once known
    violations: list[Violation] = []

    def found(kind: str, detail: str, *, now: float = 0.0,
              blocked: Optional[list[str]] = None,
              spans: Optional[list[str]] = None) -> None:
        violations.append(Violation(
            kind=kind, detail=detail, time_us=now,
            trace=outcome_trace,
            blocked=blocked or [], open_spans=spans or [],
        ))

    # ---------------------------------------------------------------- setup
    cluster_holder: dict[str, Cluster] = {}

    def inject(fault: FaultPoint) -> None:
        cluster_holder["cluster"].cable_between(*fault.edge).sever()

    policy = ExplorationPolicy(
        trace, inject=inject, track_footprints=settings.track_footprints)
    env = Environment(schedule_policy=policy)
    policy.bind(env)

    cluster = Cluster(ClusterConfig(n_hosts=model.n_pes), env=env)
    cluster_holder["cluster"] = cluster

    config = model.make_config()
    san = _FootprintSan(
        model.n_pes, policy, mode=config.sanitize or "report",
        granularity=config.sanitize_granularity)
    cluster.shmemsan = san
    _install_probes(cluster, policy)

    runtimes, _pes, results, processes = launch(cluster, model.main, config)

    # ------------------------------------------------------------ main run
    completed = False
    try:
        drive(cluster, processes, horizon_us=horizon, max_events=max_steps)
        completed = True
    except BaseException as exc:  # noqa: BLE001 - report, don't mask
        stuck = exc if isinstance(exc, StuckRunError) else stuck_run(
            cluster, "exception", f"{type(exc).__name__}: {exc}")
        found(stuck.kind, stuck.detail, now=stuck.time_us,
              blocked=stuck.blocked, spans=stuck.open_spans)
    steps = env.dispatched_events

    policy.finish()
    outcome_trace = policy.recorded_trace().shrunk()
    for violation in violations:
        violation.trace = outcome_trace

    if policy.diverged:
        found("trace-divergence",
              "forced choice fell outside a decision's candidate set "
              "(model or mutation changed since the trace was recorded)",
              now=env.now)

    # ----------------------------------------------------------- post-run
    if completed:
        try:
            drive(cluster, [], max_events=settings.drain_steps)
        except StuckRunError:
            found("quiescence",
                  f"event queue still busy {settings.drain_steps} steps "
                  "after program completion", now=env.now)
        except BaseException as exc:  # noqa: BLE001
            found("exception",
                  f"post-completion: {type(exc).__name__}: {exc}",
                  now=env.now)

        leaked = cluster.wait_graph.entries
        if leaked:
            found("unreleased-wait",
                  "wait-graph entries leaked past completion", now=env.now,
                  blocked=[entry.describe(env.now) for entry in leaked])

        generations = {rt.my_pe_id: rt.barrier.generation
                       for rt in runtimes}
        if len(set(generations.values())) > 1:
            found("barrier-divergence",
                  f"PEs retired different barrier generations: "
                  f"{generations}", now=env.now)

        for problem in check_cluster(cluster, strict=False):
            if trace.fault is not None and problem.rule == "span-unbalanced":
                # A sever legitimately strands in-flight spans: the send
                # was traced, then the cable ate the packet.  Span
                # balance is only a promise of the fault-free fabric.
                continue
            found("invariant", problem.describe(), now=env.now)

        for report in san.reports:
            found("race", report.describe(), now=env.now)

        if model.check_results is not None:
            for problem in model.check_results(results):
                found("property", problem, now=env.now)

    return RunOutcome(
        model=model.name,
        violations=violations,
        policy=policy,
        steps=steps,
        elapsed_us=env.now,
        results=results,
        completed=completed,
    )
