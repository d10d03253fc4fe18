"""Unit tests for the fault plan data model and the injector."""

from __future__ import annotations

import pytest

from repro.fabric import MeshTopology, RingTopology
from repro.faults import (
    DelayTlp,
    DropDoorbell,
    FaultInjector,
    FaultPlan,
    RestoreCable,
    SeverCable,
    validate_for_topology,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SeverCable(-1.0, 0, 1)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            SeverCable(10.0, 2, 2)

    def test_drop_doorbell_side_checked(self):
        # Port names are topology-scoped: construction only rejects
        # non-names; existence is checked against the actual topology.
        with pytest.raises(ValueError):
            DropDoorbell(10.0, 0, "")
        plan = FaultPlan(events=(DropDoorbell(10.0, 0, "up"),))
        with pytest.raises(ValueError):
            validate_for_topology(plan, RingTopology(4))
        grid_plan = FaultPlan(events=(DropDoorbell(10.0, 0, "x+"),))
        validate_for_topology(grid_plan, MeshTopology((2, 2)))
        with pytest.raises(ValueError):
            validate_for_topology(grid_plan, RingTopology(4))

    def test_drop_doorbell_count_positive(self):
        with pytest.raises(ValueError):
            DropDoorbell(10.0, 0, "left", count=0)

    def test_delay_window_must_be_forward(self):
        with pytest.raises(ValueError):
            DelayTlp(100.0, 0, 1, extra_us=5.0, until_us=100.0)
        with pytest.raises(ValueError):
            DelayTlp(100.0, 0, 1, extra_us=0.0, until_us=200.0)

    def test_events_are_frozen(self):
        event = SeverCable(10.0, 0, 1)
        with pytest.raises(AttributeError):
            event.at_us = 20.0


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0

    def test_non_events_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(events=("sever",))

    def test_sorted_events_by_time(self):
        plan = FaultPlan(events=(
            RestoreCable(50.0, 0, 1),
            SeverCable(10.0, 0, 1),
        ))
        assert [e.at_us for e in plan.sorted_events()] == [10.0, 50.0]

    def test_single_sever_with_restore(self):
        plan = FaultPlan.single_sever(1, 2, at_us=5.0, restore_at_us=99.0)
        assert len(plan) == 2
        assert isinstance(plan.events[0], SeverCable)
        assert isinstance(plan.events[1], RestoreCable)

    def test_seeded_severs_deterministic(self):
        assert (FaultPlan.seeded_severs(4, 7, count=2)
                == FaultPlan.seeded_severs(4, 7, count=2))

    def test_seeded_severs_distinct_edges(self):
        plan = FaultPlan.seeded_severs(6, 3, count=6)
        edges = {(e.host_a, e.host_b) for e in plan}
        assert len(edges) == 6

    def test_seeded_severs_times_in_window(self):
        plan = FaultPlan.seeded_severs(
            4, 11, window_us=(1_000.0, 2_000.0), count=4)
        assert all(1_000.0 <= e.at_us <= 2_000.0 for e in plan)

    def test_seeded_severs_count_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded_severs(4, 1, count=5)

    def test_validate_for_ring_rejects_missing_edge(self):
        plan = FaultPlan(events=(SeverCable(10.0, 0, 2),))
        with pytest.raises(ValueError):
            # 0-2 is a chord, not a cable
            validate_for_topology(plan, RingTopology(4))

    def test_validate_for_ring_accepts_wraparound(self):
        plan = FaultPlan(events=(SeverCable(10.0, 3, 0),))
        validate_for_topology(plan, RingTopology(4))


class TestFaultInjector:
    def test_install_is_idempotent(self, ring3):
        plan = FaultPlan.single_sever(0, 1, at_us=100.0)
        injector = FaultInjector(ring3, plan)
        injector.install()
        injector.install()
        ring3.env.run(until=200.0)
        assert len(injector.applied) == 1

    def test_sever_flips_hardware_at_exact_time(self, ring3):
        injector = FaultInjector(
            ring3, FaultPlan.single_sever(0, 1, at_us=250.0))
        injector.install()
        cable = ring3.cable_between(0, 1)
        ring3.env.run(until=249.0)
        assert not cable.is_down
        ring3.env.run(until=251.0)
        assert cable.is_down
        [(when, event)] = injector.applied
        assert when == 250.0
        assert isinstance(event, SeverCable)

    def test_restore_replugs(self, ring3):
        plan = FaultPlan.single_sever(1, 2, at_us=100.0, restore_at_us=300.0)
        FaultInjector(ring3, plan).install()
        ring3.env.run(until=400.0)
        assert not ring3.cable_between(1, 2).is_down

    def test_drop_doorbell_arms_endpoint_counter(self, ring3):
        plan = FaultPlan(events=(DropDoorbell(50.0, 0, "right", count=3),))
        FaultInjector(ring3, plan).install()
        ring3.env.run(until=60.0)
        from repro.fabric import Direction

        endpoint = ring3.driver(0, Direction.RIGHT).endpoint
        assert endpoint.fault_drop_doorbells == 3

    def test_delay_window_opens_and_closes(self, ring3):
        plan = FaultPlan(events=(
            DelayTlp(100.0, 0, 1, extra_us=7.5, until_us=300.0),
        ))
        FaultInjector(ring3, plan).install()
        cable = ring3.cable_between(0, 1)
        ring3.env.run(until=150.0)
        assert cable.a_to_b.fault_extra_delay_us == 7.5
        assert cable.b_to_a.fault_extra_delay_us == 7.5
        ring3.env.run(until=350.0)
        assert cable.a_to_b.fault_extra_delay_us == 0.0

    def test_invalid_edge_rejected_at_construction(self, ring3):
        plan = FaultPlan(events=(SeverCable(10.0, 0, 5),))
        with pytest.raises(ValueError):
            FaultInjector(ring3, plan)

    def test_empty_plan_installs_nothing(self, ring3):
        injector = FaultInjector(ring3, FaultPlan())
        before = len(ring3.env._queue)
        injector.install()
        assert len(ring3.env._queue) == before
