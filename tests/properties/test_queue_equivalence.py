"""Property: the kernel dispatches in ``(time, priority, sequence)`` order.

Random process forests with quantized delays (so same-instant ties are
the norm), cancellation (``Process.interrupt``) and post-interrupt
rescheduling run through :class:`~repro.sim.Environment`, which records
every queue push and every dispatch.  A sorted-list reference replays
that record and must agree on every dispatch.  With a recording
:class:`SchedulePolicy` installed, each ``choose`` call must be shown
exactly the pending entries that share the head's ``(time, priority)``,
each once, in ascending sequence order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Environment
from repro.sim.core import SchedulePolicy
from repro.sim.errors import Interrupt

_SETTINGS = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

#: (initial delay, hops, per-hop delay) on a quantized grid (ties!).
_FOREST = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0, 5.0]),
        st.integers(1, 5),
        st.sampled_from([0.5, 1.0, 1.0, 2.5]),
    ),
    min_size=1, max_size=10,
)

#: which workers get interrupted, and when (grid again).
_CANCELS = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from([0.25, 1.0, 2.0, 3.5])),
    max_size=4,
)


class _RecordingPolicy(SchedulePolicy):
    """Picks the first or the last candidate and records what it saw."""

    def __init__(self, trace, last):
        self.trace, self.last = trace, last

    def choose(self, now, priority, candidates):
        index = len(candidates) - 1 if self.last else 0
        self.trace.append(("choose", (now, priority, candidates, index)))
        return index


def _run_forest(specs, cancels, policy_pick):
    """Run one forest; returns the trace of pushes, choices and dispatches."""
    env = Environment()
    trace: list = []
    push = env._push
    env._push = lambda entry: (trace.append(("push", entry)), push(entry))
    env.step_hooks.append(
        lambda env, event: trace.append(("pop", (env.now, event))))
    if policy_pick is not None:
        env.schedule_policy = _RecordingPolicy(trace, policy_pick == "last")
    procs = []

    def worker(delay0, hops, per_hop):
        try:
            yield env.timeout(delay0)
            for _ in range(hops):
                yield env.timeout(per_hop)
        except Interrupt:
            try:
                yield env.timeout(1.0)   # cancelled: one final step
            except Interrupt:            # cancelled again mid-reschedule
                pass

    def canceller(victim, at):
        yield env.timeout(at)
        if victim.is_alive and victim.target is not None:
            victim.interrupt("cancel")

    for delay0, hops, per_hop in specs:
        procs.append(env.process(worker(delay0, hops, per_hop)))
    for victim_idx, at in cancels:
        env.process(canceller(procs[victim_idx % len(procs)], at))
    env.run()
    assert not env._queue
    return trace


def _replay(trace, policy=False):
    """The reference scheduler, a sorted list: yields (expected, actual)
    per dispatch and per policy decision.  With ``policy`` set it also
    checks that the policy was asked exactly when a tie was pending."""
    pending, chosen = [], None
    for kind, item in trace:
        if kind == "push":
            if item not in pending:      # a policy's unchosen go back
                pending.append(item)
            continue
        pending.sort()
        group = [e for e in pending if e[:2] == pending[0][:2]]
        if kind == "choose":
            now, priority, candidates, chosen = item
            yield (group[0][:2], [e[3] for e in group]), \
                ((now, priority), candidates)
        else:
            if policy:
                yield len(group) > 1, chosen is not None
            head = group[chosen or 0]
            chosen = None
            pending.remove(head)
            yield (head[0], head[3]), item


def _check_against_reference(specs, cancels, policy_pick):
    trace = _run_forest(specs, cancels, policy_pick)
    assert sum(kind == "pop" for kind, _ in trace) >= len(specs)
    for expected, actual in _replay(trace, policy_pick is not None):
        assert expected == actual


class TestKernelForestEquivalence:
    @_SETTINGS
    @given(_FOREST, _CANCELS)
    def test_schedule_cancel_reschedule_drain_identically(
            self, specs, cancels):
        _check_against_reference(specs, cancels, None)


class TestPolicyTieBreakEquivalence:
    @_SETTINGS
    @given(_FOREST, _CANCELS, st.sampled_from(["first", "last"]))
    def test_policy_sees_identical_decision_points(
            self, specs, cancels, policy_pick):
        _check_against_reference(specs, cancels, policy_pick)
