"""ShmemScope span tests: context stacks, causality, the acceptance
span-tree for a non-neighbor Put, determinism, and race annotation."""

from __future__ import annotations

import numpy as np

from repro import ShmemConfig, run_spmd
from repro.obsv import NULL_SCOPE, ShmemScope
from repro.sim import Environment


# ------------------------------------------------------------ scope mechanics
class TestScopeMechanics:
    def test_nested_spans_parent_on_stack(self):
        scope = ShmemScope(Environment())
        with scope.span("outer", track="t") as outer:
            with scope.span("inner", track="t") as inner:
                assert inner.parent_id == outer.span_id
                assert scope.current_span_id() == inner.span_id
            assert scope.current_span_id() == outer.span_id
        assert scope.current_span_id() is None
        assert scope.open_spans() == []

    def test_explicit_parent_overrides_stack(self):
        scope = ShmemScope(Environment())
        with scope.span("a", track="t") as a:
            pass
        with scope.span("b", track="t"):
            with scope.span("c", track="t", parent=a.span_id) as c:
                assert c.parent_id == a.span_id

    def test_per_process_stacks_do_not_cross(self):
        env = Environment()
        scope = ShmemScope(env)
        seen = {}

        def proc(name, delay):
            with scope.span(name, track=name):
                yield env.timeout(delay)
                seen[name] = scope.current_label()

        env.process(proc("alpha", 5.0))
        env.process(proc("beta", 5.0))
        env.run(until=10.0)
        assert seen == {"alpha": "alpha:alpha", "beta": "beta:beta"}

    def test_msg_bindings_are_fifo_per_value(self):
        scope = ShmemScope(Environment())
        with scope.span("first", track="t") as first:
            scope.bind_msg("msg", first.span_id)
        with scope.span("second", track="t") as second:
            scope.bind_msg("msg", second.span_id)
        assert scope.adopt_msg("msg") == first.span_id
        assert scope.adopt_msg("msg") == second.span_id
        assert scope.adopt_msg("msg") is None
        assert scope.pending_bindings() == 0

    def test_bind_process_seeds_spawned_spans(self):
        env = Environment()
        scope = ShmemScope(env)

        def child():
            with scope.span("child_work", track="child") as span:
                yield env.timeout(1.0)
            return span.parent_id

        with scope.span("parent", track="t") as parent:
            task = env.process(child())
            scope.bind_process(task, scope.current_span_id())
        env.run(until=5.0)
        assert task.value == parent.span_id

    def test_instant_is_zero_duration(self):
        scope = ShmemScope(Environment())
        with scope.span("op", track="t") as op:
            mark = scope.instant("tick", track="t")
        assert mark.duration == 0.0
        assert mark.parent_id == op.span_id

    def test_null_scope_is_inert(self):
        with NULL_SCOPE.span("anything") as nothing:
            assert nothing is None
        assert NULL_SCOPE.current_span_id() is None
        assert NULL_SCOPE.current_label() == ""
        assert NULL_SCOPE.adopt_msg("m") is None
        assert not NULL_SCOPE.enabled


# ------------------------------------------------- the acceptance span tree
def _put_to_nonneighbor(pe):
    sym = yield from pe.malloc_array(64, np.int64)
    if pe.my_pe() == 0:
        yield from pe.put_array(sym, np.arange(64, dtype=np.int64), 2)
    yield from pe.barrier_all()
    return True


class TestPutSpanTree:
    def test_two_hop_put_tree_shape(self):
        report = run_spmd(_put_to_nonneighbor, n_pes=3,
                          shmem_config=ShmemConfig(trace_spans=True))
        scope = report.scope
        assert scope is not None

        [root] = [s for s in scope.roots() if s.name == "put"]
        assert root.args["peer"] == 2
        assert root.args["hops"] == 2
        descendants = list(scope.walk(root))[1:]
        names = {s.name for s in descendants}
        # Every layer of the 2-hop store-and-forward path shows up.
        assert "doorbell_ring" in names
        assert "bypass_forward" in names
        assert "dma" in names
        assert "deliver_put" in names
        link_tracks = {s.track for s in descendants
                       if s.name == "link_transit"}
        assert len(link_tracks) >= 2  # both hops' cables

        # The tree's horizon extends past local completion (the Put is
        # locally blocking; remote delivery children close later).
        assert scope.subtree_end(root) > root.end

    def test_local_children_tile_the_root(self):
        report = run_spmd(_put_to_nonneighbor, n_pes=3,
                          shmem_config=ShmemConfig(trace_spans=True))
        scope = report.scope
        [root] = [s for s in scope.roots() if s.name == "put"]
        local = [c for c in scope.children(root.span_id)
                 if c.end is not None and c.end <= root.end + 1e-9]
        covered = sum(c.duration for c in local)
        # All timed work inside the blocking window belongs to a child;
        # the residue is zero-virtual-time bookkeeping.
        assert covered <= root.duration + 1e-9
        assert covered >= 0.98 * root.duration

    def test_balance_and_histograms(self):
        report = run_spmd(_put_to_nonneighbor, n_pes=3,
                          shmem_config=ShmemConfig(trace_spans=True))
        scope = report.scope
        assert scope.open_spans() == []
        assert scope.pending_bindings() == 0
        hist = report.metrics.hist.get("put_us.DMA.512B.2hop")
        assert hist is not None and hist.count == 1
        assert report.metrics.hist.get("barrier_us.ring") is not None
        assert "put_us.DMA.512B.2hop" in report.render_profile()


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def test_tracing_is_virtual_time_invariant(self):
        plain = run_spmd(_put_to_nonneighbor, n_pes=3)
        traced = run_spmd(_put_to_nonneighbor, n_pes=3,
                          shmem_config=ShmemConfig(trace_spans=True))
        assert traced.elapsed_us == plain.elapsed_us
        assert plain.scope is None

    def test_span_output_is_reproducible(self):
        first = run_spmd(_put_to_nonneighbor, n_pes=3,
                         shmem_config=ShmemConfig(trace_spans=True))
        second = run_spmd(_put_to_nonneighbor, n_pes=3,
                          shmem_config=ShmemConfig(trace_spans=True))
        a = [(s.span_id, s.parent_id, s.name, s.track, s.start, s.end)
             for s in first.scope.spans]
        b = [(s.span_id, s.parent_id, s.name, s.track, s.start, s.end)
             for s in second.scope.spans]
        assert a == b


# ------------------------------------------------------- sanitizer annotation
class TestRaceAnnotation:
    def test_race_reports_name_active_spans(self):
        def racy(pe):
            sym = yield from pe.malloc_array(8, np.int64)
            if pe.my_pe() in (0, 1):
                # Two unordered writes to PE 2's heap: a race.
                yield from pe.put_array(
                    sym, np.full(8, pe.my_pe(), dtype=np.int64), 2
                )
            yield from pe.barrier_all()
            return True

        report = run_spmd(racy, n_pes=3,
                          shmem_config=ShmemConfig(sanitize="report",
                                                   trace_spans=True))
        assert report.races
        race = report.races[0]
        assert race.first_span.endswith(":put")
        assert race.second_span.endswith(":put")
        assert f"in {race.second_span}" in race.describe()

    def test_untraced_race_reports_have_empty_spans(self):
        def racy(pe):
            sym = yield from pe.malloc_array(8, np.int64)
            if pe.my_pe() in (0, 1):
                yield from pe.put_array(
                    sym, np.full(8, pe.my_pe(), dtype=np.int64), 2
                )
            yield from pe.barrier_all()
            return True

        report = run_spmd(racy, n_pes=3,
                          shmem_config=ShmemConfig(sanitize="report"))
        assert report.races
        assert report.races[0].first_span == ""
        assert report.races[0].second_span == ""
        assert "in " not in report.races[0].describe().split("unordered")[0]


# ------------------------------------------------------------ bench plumbing
def test_fig9_tracing_is_value_neutral():
    from repro.bench.experiments.fig9 import run_fig9

    result = run_fig9(sizes=[1024], trace=True)
    assert result.scope is not None

    untraced = run_fig9(sizes=[1024])
    assert untraced.scope is None
    # Tracing never shifts the measured virtual-time values.
    for r_traced, r_plain in zip(
            sorted(result.rows, key=lambda r: (r.experiment, r.series)),
            sorted(untraced.rows, key=lambda r: (r.experiment, r.series))):
        assert r_traced.value == r_plain.value
