"""One fabric description: a ring is the 1-D torus it already is.

``fabric/topology.py`` has a single :class:`Topology` ``(dims, wrap)``;
``RingTopology`` / ``MeshTopology`` / ``TorusTopology`` are named
constructors over it, and a chain (a line of hosts) is the 1-D mesh.
These tests pin (a) the closed-form answers the deleted ring and chain
classes computed, (b) that a ring and a 1-D torus are the same cabling
and differ only in *defaults*, (c) that the SHORTEST policy is canonical
next-hop routing on one axis, dead edges included, and (d) the
FIXED_RIGHT fallback on an open axis — and the frozen fabric/core calls
the trajectory benchmark makes, so a rename breaks tier-1 rather than
the benchmark.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro import run_spmd
from repro.core import ShmemConfig
from repro.core.barrier import DisseminationBarrier, RingBarrier
from repro.fabric import (
    Cluster,
    ClusterConfig,
    Direction,
    MeshTopology,
    NoRouteError,
    PolicyRouter,
    RingTopology,
    Route,
    RoutingPolicy,
    Topology,
    TopologyError,
    TorusTopology,
    make_router,
)

SIZES = range(2, 10)
RENAME = {"x-": "left", "x+": "right"}


def _pairs(n):
    return [(s, d) for s in range(n) for d in range(n) if s != d]


def _resolve(router, src, dst, dead):
    """(port, hops, rerouted), or None for NoRouteError."""
    try:
        route = router.resolve(src, dst, dead)
    except NoRouteError:
        return None
    return route.port, route.hops, route.rerouted


class TestClosedForms:
    """(a) What the ring and chain classes used to compute."""

    @pytest.mark.parametrize("n", SIZES)
    def test_ring(self, n):
        ring = RingTopology(n)
        assert (ring.kind, ring.n_hosts, ring.dims, ring.wrap) == (
            "ring", n, (n,), True)
        assert ring.PORT_ORDER == ("left", "right")
        assert list(ring.cables()) == [
            (i, "right", (i + 1) % n, "left") for i in range(n)]
        for i in range(n):
            assert ring.neighbor(i, "right") == (i + 1) % n
            assert ring.neighbor(i, "left") == (i - 1) % n
            assert ring.ports(i) == ("left", "right")
        for s, d in _pairs(n):
            right, left = (d - s) % n, (s - d) % n
            assert ring.min_hops(s, d) == min(right, left)
            port = "right" if right <= left else "left"  # ties rightward
            assert ring.next_hop(s, d) == (port, ring.neighbor(s, port))

    def test_two_host_ring_has_two_distinct_edges(self):
        ring = RingTopology(2)
        assert list(ring.links()) == [(0, 1), (1, 0)]
        assert ring.edge_for(0, "right") == (0, 1)
        assert ring.edge_for(0, "left") == (1, 0)

    @pytest.mark.parametrize("n", SIZES)
    def test_chain(self, n):
        chain = MeshTopology((n,))
        assert (chain.kind, chain.n_hosts, chain.dims, chain.wrap) == (
            "mesh", n, (n,), False)
        assert chain.PORT_ORDER == ("x-", "x+")
        assert list(chain.cables()) == [
            (i, "x+", i + 1, "x-") for i in range(n - 1)]
        for i in range(n):
            assert chain.neighbor(i, "x+") == (
                i + 1 if i + 1 < n else None)
            assert chain.neighbor(i, "x-") == (i - 1 if i > 0 else None)
        assert chain.edge_for(0, "x-") is None
        for s, d in _pairs(n):
            assert chain.min_hops(s, d) == abs(d - s)
            port = "x+" if d > s else "x-"
            assert chain.next_hop(s, d) == (port, chain.neighbor(s, port))

    def test_extent_floors(self):
        with pytest.raises(TopologyError):
            RingTopology(1)
        with pytest.raises(TopologyError):
            MeshTopology((1,))
        with pytest.raises(TopologyError):
            TorusTopology((2,))  # torus axes keep >= 3; the ring keeps 2
        assert TorusTopology((3,)).n_hosts == 3


class TestOneClass:
    """(b) Same cabling, different defaults."""

    def test_constructors_only_construct(self):
        for cls in (RingTopology, MeshTopology, TorusTopology):
            assert cls.__mro__[1] is Topology
            own = {name for name in vars(cls) if not name.startswith("__")}
            assert own == set(), own
            assert "__init__" in vars(cls)
        assert Topology((4, 4), wrap=True).kind == "torus"
        assert Topology((4, 4), wrap=False).kind == "mesh"

    @pytest.mark.parametrize("named,grid", [(RingTopology, TorusTopology)])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_ring_is_torus_chain_is_mesh(self, named, grid, n):
        # A chain *is* ``MeshTopology((n,))``; the ring is the one named
        # constructor left with a cabling of its own name.
        one, other = named(n), grid((n,))
        assert (one.dims, one.wrap) == (other.dims, other.wrap)
        assert one.kind != other.kind
        assert list(one.cables()) == [
            (a, RENAME[pa], b, RENAME[pb])
            for a, pa, b, pb in other.cables()]
        for host in range(n):
            for port in other.PORT_ORDER:
                assert one.neighbor(host, RENAME[port]) == \
                    other.neighbor(host, port)
                assert one.edge_for(host, RENAME[port]) == \
                    other.edge_for(host, port)
        for s, d in _pairs(n):
            assert one.min_hops(s, d) == other.min_hops(s, d)
            port, nxt = other.next_hop(s, d)
            assert one.next_hop(s, d) == (RENAME[port], nxt)

    @pytest.mark.parametrize("topology,dims,router,barrier", [
        ("ring", None, "fixed_right", RingBarrier),
        ("torus", (4,), "dimension_order", DisseminationBarrier),
        ("mesh", (2, 2), "dimension_order", DisseminationBarrier),
        ("mesh", (4,), "dimension_order", DisseminationBarrier),
    ])
    def test_the_defaults_fork_is_on_kind(self, topology, dims, router,
                                          barrier):
        # The whole of the ring4-vs-torus4 gap (ROADMAP item 3): one
        # cabling, two protocol families, selected by ``kind``.
        def main(pe):
            yield from pe.barrier_all()
            return pe.rt.topology.kind

        report = run_spmd(main, 4, cluster_config=ClusterConfig(
            n_hosts=4, topology=topology, dims=dims))
        assert set(report.results) == {topology}
        assert make_router(report.cluster.topology).name == router
        for rt in report.runtimes:
            assert rt.router.name == router
            assert type(rt.barrier) is barrier


def _one_axis(n):
    return [RingTopology(n), MeshTopology((n,))] + (
        [TorusTopology((n,))] if n >= 3 else [])


class TestShortestIsCanonical:
    """(c) On one axis SHORTEST *is* next_hop/min_hops routing."""

    @pytest.mark.parametrize("n", SIZES)
    def test_resolve_agrees_under_zero_one_and_two_dead_edges(self, n):
        for topo in _one_axis(n):
            shortest = make_router(topo, "shortest")
            ordered = make_router(topo, "dimension_order")
            assert isinstance(shortest, PolicyRouter)
            cables = list(topo.links())
            dead_sets = [frozenset()] + [
                frozenset(c) for k in (1, 2)
                for c in combinations(cables, k)]
            for dead in dead_sets:
                for s, d in _pairs(n):
                    assert _resolve(shortest, s, d, dead) == \
                        _resolve(ordered, s, d, dead), (topo, dead, s, d)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_forward_port_differs_exactly_where_a_detour_exists(self, n):
        # The relay rule is the one real difference.  Take a message
        # travelling its canonical direction toward ``dst`` and a relay
        # that knows about dead edges: the policy relay keeps the arrival
        # direction, the dimension-order relay re-resolves — they part
        # ways exactly when that re-resolve is a detour (``rerouted``).
        differed = 0
        for topo in _one_axis(n):
            shortest = make_router(topo, "shortest")
            ordered = make_router(topo, "dimension_order")
            cables = list(topo.links())
            for dead in [frozenset(c) for k in (0, 1, 2)
                         for c in combinations(cables, k)]:
                for node, dst in _pairs(n):
                    onward, _nxt = topo.next_hop(node, dst)
                    in_port = topo.opposite_port(onward)
                    if topo.neighbor(node, in_port) is None:
                        continue  # line end: nothing arrives there
                    keep = shortest.forward_port(node, dst, in_port, dead)
                    assert keep == onward
                    try:
                        fresh = ordered.resolve(node, dst, dead)
                    except NoRouteError:
                        continue
                    assert ordered.forward_port(
                        node, dst, in_port, dead) == fresh.port
                    assert (fresh.port != keep) == fresh.rerouted
                    differed += fresh.rerouted
        assert differed > 0

    def test_live_relays_agree_along_the_canonical_walk(self):
        # With every cable alive no relay ever turns a message around.
        ring = RingTopology(7)
        shortest = make_router(ring, "shortest")
        ordered = make_router(ring, "dimension_order")
        for s, d in _pairs(7):
            for node, port, nxt in ring.path(s, d)[:-1]:
                arrived = ring.opposite_port(port)
                assert shortest.forward_port(nxt, d, arrived) == \
                    ordered.forward_port(nxt, d, arrived) == port


class TestFixedRight:
    """(d) The paper's rule, with the open-axis fallback on the Route."""

    @pytest.mark.parametrize("n", SIZES)
    def test_chain_rightward_else_flagged_leftward(self, n):
        router = make_router(MeshTopology((n,)), "fixed_right")
        assert router.name == "fixed_right"
        for s, d in _pairs(n):
            route = router.resolve(s, d)
            if d > s:
                assert route == Route("x+", d - s)
                assert not route.fallback
            else:
                assert route == Route("x-", s - d)
                assert route.fallback
            assert not route.rerouted

    @pytest.mark.parametrize("n", SIZES)
    def test_ring_always_rightward_never_a_fallback(self, n):
        router = make_router(RingTopology(n), RoutingPolicy.FIXED_RIGHT)
        for s, d in _pairs(n):
            route = router.resolve(s, d)
            assert route == Route("right", (d - s) % n)
            assert not route.fallback

    def test_positive_port_on_a_one_axis_torus(self):
        route = make_router(TorusTopology((5,)), "fixed_right").resolve(0, 4)
        assert route == Route("x+", 4)

    def test_errors_still_come_from_the_router(self):
        for topo in (RingTopology(3), MeshTopology((3,))):
            for policy in ("fixed_right", "shortest"):
                router = make_router(topo, policy)
                with pytest.raises(TopologyError):
                    router.resolve(1, 1)
                for bad in (-1, 3):
                    with pytest.raises(TopologyError):
                        router.resolve(0, bad)
                    with pytest.raises(TopologyError):
                        router.resolve(bad, 0)

    def test_one_axis_policies_raise_on_grids(self):
        for name in ("fixed_right", RoutingPolicy.SHORTEST):
            with pytest.raises(TopologyError):
                make_router(MeshTopology((2, 2)), name)
        with pytest.raises(TopologyError):
            make_router(RingTopology(4), "valiant")


class TestPortsAreStrings:
    def test_direction_is_two_plain_strings(self):
        assert Direction.RIGHT == "right" and Direction.LEFT == "left"
        assert type(Direction.RIGHT) is str
        assert f"pe0.{Direction.RIGHT}" == "pe0.right"
        ring = RingTopology(4)
        assert ring.opposite_port(Direction.RIGHT) == Direction.LEFT
        route = make_router(ring).resolve(0, 1)
        assert route.direction == route.port == Direction.RIGHT
        assert type(route.direction) is str


def test_frozen_trajectory_api():
    """Literally the fabric/core calls ``benchmarks/trajectory/probes.py``
    and ``workloads.py::build`` make.  That directory is frozen; a rename
    here must fail tier-1 in seconds, not the benchmark in minutes."""
    # probes._fabric_probe
    topology = TorusTopology((4, 4, 4))
    ordered = make_router(topology, name="dimension_order")
    adaptive = make_router(topology, name="adaptive")
    dead = frozenset({topology.edge_for(21, "x+"),
                      topology.edge_for(42, "y+")})
    assert dead == {(21, 22), (42, 46)}
    for router in (ordered, adaptive):
        assert router.resolve(0, 42, frozenset()).hops == 6
        assert router.resolve(0, 42, dead).hops == 6
    assert adaptive.resolve(
        0, 42, frozenset({topology.edge_for(21, "x+")})).hops == 6
    # probes._ntb_probe: a 2-host *ring*, two cables between one pair
    cluster = Cluster(ClusterConfig(n_hosts=2))
    cluster.run_probe()
    src = cluster.driver(0, Direction.RIGHT)
    dst = cluster.driver(1, Direction.LEFT)
    assert (src.side, dst.side) == ("right", "left")
    assert len(cluster.cables) == 2
    assert cluster.host(1).alloc_pinned(4096).nbytes == 4096
    # workloads.build
    assert ShmemConfig(routing=RoutingPolicy["SHORTEST"]).routing \
        is RoutingPolicy.SHORTEST
    assert ShmemConfig(trace_spans=True, max_retries=8,
                       retry_backoff_us=200.0).routing is None
    for kwargs in (dict(n_hosts=3, topology="ring", dims=None),
                   dict(n_hosts=16, topology="mesh", dims=(4, 4)),
                   dict(n_hosts=64, topology="torus", dims=(4, 4, 4))):
        config = ClusterConfig(**kwargs)
        assert config.make_topology().kind == kwargs["topology"]
