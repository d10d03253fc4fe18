"""``core.program.drive``: a stalled run ends in one typed verdict that
names what each PE is blocked on."""

from __future__ import annotations

import pytest

from repro.check.models import MODELS
from repro.core import StuckRunError, run_spmd
from repro.core.program import make_cluster


def test_wait_until_nobody_writes_drains_naming_the_pe():
    def main(pe):
        flag = yield from pe.malloc(8)
        yield from pe.barrier_all()
        if pe.my_pe() == 0:
            yield from pe.wait_until(flag, "==", 1)

    with pytest.raises(StuckRunError) as stuck:
        run_spmd(main, n_pes=2)
    assert stuck.value.kind == "deadlock-drain"
    assert [(entry.pe, entry.what) for entry in stuck.value.entries] == [
        (0, "wait_until == 1")]
    assert "pe0 blocked on 'wait_until == 1'" in str(stuck.value)


def test_abba_locks_end_in_a_cycle_in_bounded_virtual_time():
    """Two PEs each hold one lock and spin on the other's: the wait-for
    graph closes the cycle at the second spin's registration."""
    cluster = make_cluster(2)

    def event_cap(env, _event):
        # Spinning lock waits never drain the queue: without the cycle
        # check the run would never end.
        if env.dispatched_events > 200_000:
            raise AssertionError(f"still spinning at {env.now:.0f} us")

    cluster.env.step_hooks.append(event_cap)
    with pytest.raises(StuckRunError) as stuck:
        run_spmd(MODELS["deadlock-demo"].main, n_pes=2, cluster=cluster)
    assert stuck.value.kind == "deadlock-cycle"
    assert sorted((entry.pe, entry.what.split(" @")[0])
                  for entry in stuck.value.entries) == [
        (0, "set_lock"), (1, "set_lock")]
    assert stuck.value.time_us < 1_000.0
