"""Unit tests for the pluggable router layer (PR 9).

Covers the two routing-correctness bugfixes this PR lands:

* the open axis's silent ``FIXED_RIGHT`` -> leftward fallback is now a
  flagged routing decision (``Route.fallback``, counted by the runtime
  as ``route_fallbacks``), and the even-ring SHORTEST tie-break is
  pinned rightward;
* a blocked route triggers a real alternate-path search validated
  against the dead-edge set, so a double-severed ring raises
  :class:`NoRouteError` promptly instead of retrying into a known hole.
"""

from __future__ import annotations

import pytest

from repro.fabric import (
    AdaptiveRouter,
    DimensionOrderRouter,
    Direction,
    MeshTopology,
    NoRouteError,
    PolicyRouter,
    RingTopology,
    Route,
    RoutingPolicy,
    TopologyError,
    TorusTopology,
    make_router,
)


class TestPolicyRouter:
    def test_live_ring_matches_topology_route(self):
        # What the deleted ``Topology.route`` computed, as closed forms.
        topo = RingTopology(6)
        fixed = PolicyRouter(topo, RoutingPolicy.FIXED_RIGHT)
        shortest = PolicyRouter(topo, RoutingPolicy.SHORTEST)
        for src in range(6):
            for dst in range(6):
                if src == dst:
                    continue
                right, left = (dst - src) % 6, (src - dst) % 6
                assert fixed.resolve(src, dst) == Route("right", right)
                assert shortest.resolve(src, dst) == (
                    Route("right", right) if right <= left
                    else Route("left", left))

    def test_only_the_two_direction_policies(self):
        for policy in (RoutingPolicy.DIMENSION_ORDER, RoutingPolicy.ADAPTIVE):
            with pytest.raises(TopologyError):
                PolicyRouter(RingTopology(6), policy)

    def test_even_ring_shortest_ties_right(self):
        # Antipodal on an even ring: both ways are 2 hops.  Pin the
        # historical tie-break so goldens stay byte-identical.
        route = PolicyRouter(RingTopology(4),
                             RoutingPolicy.SHORTEST).resolve(0, 2)
        assert route.direction == Direction.RIGHT
        assert route.hops == 2

    def test_single_sever_detours_the_other_way(self):
        topo = RingTopology(4)
        router = PolicyRouter(topo, RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(0, 1, dead_edges={(0, 1)})
        assert route.direction == Direction.LEFT
        assert route.hops == 3
        assert route.rerouted

    def test_detour_is_validated_not_blind(self):
        # The old inline logic flipped direction without checking the
        # flipped path; the detour must itself avoid dead edges.
        topo = RingTopology(4)
        router = PolicyRouter(topo, RoutingPolicy.FIXED_RIGHT)
        with pytest.raises(NoRouteError):
            router.resolve(0, 1, dead_edges={(0, 1), (3, 0)})

    def test_double_sever_raises_promptly(self):
        # Severing both sides of a destination partitions the ring:
        # every resolve toward it must fail, not spin through retries.
        topo = RingTopology(4)
        router = PolicyRouter(topo, RoutingPolicy.SHORTEST)
        dead = {(1, 2), (2, 3)}
        with pytest.raises(NoRouteError):
            router.resolve(0, 2, dead_edges=dead)
        # Unaffected pairs still route.
        assert router.resolve(0, 1, dead_edges=dead).hops == 1

    def test_forward_port_keeps_arrival_direction(self):
        router = PolicyRouter(RingTopology(4), RoutingPolicy.FIXED_RIGHT)
        # A relay that received on its left port forwards out the right.
        assert router.forward_port(1, 3, "left") == "right"
        assert router.forward_port(1, 3, "right") == "left"

    def test_rejects_grid_topologies(self):
        with pytest.raises(TopologyError):
            PolicyRouter(MeshTopology((2, 2)), RoutingPolicy.FIXED_RIGHT)

    def test_route_edges_straight_line(self):
        topo = RingTopology(4)
        router = PolicyRouter(topo, RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(0, 2)
        assert router.route_edges(0, 2, route) == ((0, 1), (1, 2))


class TestChainFallback:
    def test_fixed_right_fallback_is_flagged_and_counted(self):
        # FIXED_RIGHT cannot leave a line (the 1-D mesh) past its end
        # rightward; the fallback used to be silent — it is now flagged
        # on every such resolve (the runtime counts the flags:
        # test_route_fallbacks_counted).
        router = PolicyRouter(MeshTopology((4,)), RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(3, 0)
        assert route.direction == "x-"
        assert route.hops == 3
        assert route.fallback
        # Rightward routes are not fallbacks.
        assert not router.resolve(0, 3).fallback
        assert router.resolve(3, 0).fallback

    def test_router_surfaces_the_fallback(self):
        topo = MeshTopology((3,))
        router = PolicyRouter(topo, RoutingPolicy.FIXED_RIGHT)
        assert router.resolve(2, 0).fallback
        # Leftward by choice (SHORTEST) is not a fallback.
        assert not PolicyRouter(
            topo, RoutingPolicy.SHORTEST).resolve(2, 0).fallback


class TestDimensionOrderRouter:
    def test_canonical_route(self):
        topo = MeshTopology((3, 3))
        router = DimensionOrderRouter(topo)
        route = router.resolve(0, 8)  # (0,0) -> (2,2)
        assert route.port == "x+"
        assert route.hops == 4
        assert not route.rerouted

    def test_detour_around_dead_edge(self):
        # Canonical 0 -> 2 is x+,x+ through edge (1,2); sever it and the
        # router must find the live 4-hop way round, not give up.
        topo = MeshTopology((3, 3))
        router = DimensionOrderRouter(topo)
        route = router.resolve(0, 2, dead_edges={(1, 2)})
        assert route.rerouted
        assert route.hops == 4

    def test_partitioned_destination_raises(self):
        # Cut both cables into corner host 2: (1,2) on x and (2,5) on y.
        topo = MeshTopology((3, 3))
        router = DimensionOrderRouter(topo)
        with pytest.raises(NoRouteError):
            router.resolve(0, 2, dead_edges={(1, 2), (2, 5)})

    def test_forward_port_reresolves_per_hop(self):
        # Grid relays re-resolve from their own view: after the x leg of
        # 0 -> 8 a relay at 2 turns the corner onto y+.
        topo = MeshTopology((3, 3))
        router = DimensionOrderRouter(topo)
        assert router.forward_port(1, 8, "x-") == "x+"
        assert router.forward_port(2, 8, "x-") == "y+"

    def test_torus_wrap_detour(self):
        topo = TorusTopology((4,))
        router = DimensionOrderRouter(topo)
        live = router.resolve(0, 3)
        assert live.port == "x-"  # 1 hop around the wrap
        assert live.hops == 1
        blocked = router.resolve(0, 3, dead_edges={(3, 0)})
        assert blocked.port == "x+"
        assert blocked.hops == 3
        assert blocked.rerouted


class TestAdaptiveRouter:
    def test_no_load_no_faults_is_canonical(self):
        topo = TorusTopology((4, 4))
        router = AdaptiveRouter(topo)
        canonical = DimensionOrderRouter(topo).resolve(0, 10)
        assert router.resolve(0, 10) == canonical

    def test_picks_least_loaded_minimal_port(self):
        # (0,0) -> (2,2) on a 4-torus: x distance ties at 2 either way,
        # so all four ports make minimal progress.  Load steers the pick.
        topo = TorusTopology((4, 4))
        router = AdaptiveRouter(topo)
        load = {"x-": 3.0, "x+": 2.0, "y-": 1.0, "y+": 0.0}
        route = router.resolve(0, 10, load=load.__getitem__)
        assert route.port == "y+"
        assert route.hops == 4

    def test_uniform_load_ties_in_port_order(self):
        topo = TorusTopology((4, 4))
        router = AdaptiveRouter(topo)
        route = router.resolve(0, 10, load=lambda _port: 0.0)
        assert route.port == "x-"  # first minimal port in PORT_ORDER

    def test_dead_canonical_edge_shifts_sideways(self):
        topo = TorusTopology((4, 4))
        router = AdaptiveRouter(topo)
        route = router.resolve(0, 10, dead_edges={(0, 1)})
        assert route.port != "x+"
        assert route.hops == 4  # still minimal
        assert route.rerouted

    def test_degrades_to_bfs_when_no_minimal_port_lives(self):
        # Mesh (1,0) -> (1,2): the only minimal port is y+ through edge
        # (1,4).  Sever it and no minimal port remains, so the router
        # must degrade to the BFS detour instead of raising.
        topo = MeshTopology((3, 3))
        router = AdaptiveRouter(topo)
        route = router.resolve(1, 7, dead_edges={(1, 4)})
        assert route.rerouted
        assert route.hops == 4
        assert route.port in ("x-", "x+")

    def test_relay_walk_does_not_ping_pong_around_sever(self):
        # Regression: a purely local minimal rule bounced 0 -> 1 -> 0
        # forever on a 4-ring with (1,2) severed — host 1's only minimal
        # port is dead and its detour hands the message straight back.
        # The live-distance descent rule walks 0 -> 3 -> 2 instead.
        topo = TorusTopology((4,))
        router = AdaptiveRouter(topo)
        dead = {(1, 2)}
        route = router.resolve(0, 2, dead_edges=dead)
        node, port, walked = 0, route.port, 0
        while node != 2:
            assert walked <= topo.n_hosts, "relay walk is cycling"
            node = topo.neighbor(node, port)
            walked += 1
            if node != 2:
                port = router.forward_port(
                    node, 2, topo.opposite_port(port), dead_edges=dead)
        assert walked == route.hops == 2

    def test_isolated_source_raises(self):
        # Adaptive resolution is local: it checks the *next* edge, not
        # the whole path (downstream severs re-resolve per hop).  With
        # every cable at the source dead, even BFS finds nothing.
        topo = MeshTopology((2, 2))
        router = AdaptiveRouter(topo)
        with pytest.raises(NoRouteError):
            router.resolve(0, 3, dead_edges={(0, 1), (0, 2)})


class TestMakeRouter:
    def test_defaults(self):
        ring = make_router(RingTopology(4))
        assert isinstance(ring, PolicyRouter)
        assert ring.policy is RoutingPolicy.FIXED_RIGHT
        shortest = make_router(RingTopology(4), RoutingPolicy.SHORTEST)
        assert shortest.policy is RoutingPolicy.SHORTEST
        grid = make_router(MeshTopology((2, 2)))
        assert isinstance(grid, DimensionOrderRouter)

    def test_explicit_names(self):
        topo = TorusTopology((3, 3))
        assert isinstance(make_router(topo, name="adaptive"),
                          AdaptiveRouter)
        assert isinstance(make_router(topo, name="dimension_order"),
                          DimensionOrderRouter)
        ring = make_router(RingTopology(4), name="shortest")
        assert isinstance(ring, PolicyRouter)
        assert ring.policy is RoutingPolicy.SHORTEST

    def test_unknown_name_rejected(self):
        with pytest.raises(TopologyError):
            make_router(RingTopology(4), name="valiant")
