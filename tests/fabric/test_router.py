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
    Direction,
    MeshTopology,
    NoRouteError,
    RingTopology,
    Route,
    Router,
    RoutingPolicy,
    TopologyError,
    TorusTopology,
    make_router,
)


class TestPolicyRouter:
    def test_live_ring_matches_topology_route(self):
        # What the deleted ``Topology.route`` computed, as closed forms.
        topo = RingTopology(6)
        fixed = Router(topo, RoutingPolicy.FIXED_RIGHT)
        shortest = Router(topo, RoutingPolicy.SHORTEST)
        for src in range(6):
            for dst in range(6):
                if src == dst:
                    continue
                right, left = (dst - src) % 6, (src - dst) % 6
                assert fixed.resolve(src, dst) == Route(("right",) * right)
                assert shortest.resolve(src, dst) == (
                    Route(("right",) * right) if right <= left
                    else Route(("left",) * left))

    def test_only_the_two_direction_policies(self):
        # FIXED_RIGHT and SHORTEST pick a direction on one axis; a
        # multi-axis grid is refused, whichever way the router is built.
        for policy in (RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST):
            for topo in (MeshTopology((2, 2)), TorusTopology((3, 3)),
                         MeshTopology((2, 2, 2))):
                with pytest.raises(TopologyError):
                    Router(topo, policy)
                with pytest.raises(TopologyError):
                    make_router(topo, policy)

    def test_even_ring_shortest_ties_right(self):
        # Antipodal on an even ring: both ways are 2 hops.  Pin the
        # historical tie-break so goldens stay byte-identical.
        route = Router(RingTopology(4),
                             RoutingPolicy.SHORTEST).resolve(0, 2)
        assert route.direction == Direction.RIGHT
        assert route.hops == 2

    def test_single_sever_detours_the_other_way(self):
        topo = RingTopology(4)
        router = Router(topo, RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(0, 1, dead_edges={(0, 1)})
        assert route.direction == Direction.LEFT
        assert route.hops == 3
        assert route.rerouted

    def test_detour_is_validated_not_blind(self):
        # The old inline logic flipped direction without checking the
        # flipped path; the detour must itself avoid dead edges.
        topo = RingTopology(4)
        router = Router(topo, RoutingPolicy.FIXED_RIGHT)
        with pytest.raises(NoRouteError):
            router.resolve(0, 1, dead_edges={(0, 1), (3, 0)})

    def test_double_sever_raises_promptly(self):
        # Severing both sides of a destination partitions the ring:
        # every resolve toward it must fail, not spin through retries.
        topo = RingTopology(4)
        router = Router(topo, RoutingPolicy.SHORTEST)
        dead = {(1, 2), (2, 3)}
        with pytest.raises(NoRouteError):
            router.resolve(0, 2, dead_edges=dead)
        # Unaffected pairs still route.
        assert router.resolve(0, 1, dead_edges=dead).hops == 1

    def test_one_axis_default_walk_keeps_arrival_direction(self):
        # A relay that received on its left port forwards out the right,
        # whatever the router: a simple path on one axis never turns, so
        # no route there carries a path in its header.
        ring = RingTopology(4)
        assert ring.relay_port(1, 3, "left") == "right"
        assert ring.relay_port(1, 3, "right") == "left"
        for policy in RoutingPolicy:
            router = make_router(ring, policy)
            for dead in (frozenset(), {(1, 2)}, {(3, 0)}):
                route = router.resolve(0, 2, dead_edges=dead)
                assert route.ports == (route.port,) * 2
                assert route.carried == ()

    def test_rejects_grid_topologies(self):
        with pytest.raises(TopologyError):
            Router(MeshTopology((2, 2)), RoutingPolicy.FIXED_RIGHT)

    def test_route_ports_straight_line(self):
        topo = RingTopology(4)
        router = Router(topo, RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(0, 2)
        assert route.ports == ("right", "right")
        assert router.blocked(0, 2, route, {(1, 2)})
        assert not router.blocked(0, 2, route, {(2, 3)})


class TestChainFallback:
    def test_fixed_right_fallback_is_flagged_and_counted(self):
        # FIXED_RIGHT cannot leave a line (the 1-D mesh) past its end
        # rightward; the fallback used to be silent — it is now flagged
        # on every such resolve (the runtime counts the flags:
        # test_route_fallbacks_counted).
        router = Router(MeshTopology((4,)), RoutingPolicy.FIXED_RIGHT)
        route = router.resolve(3, 0)
        assert route.direction == "x-"
        assert route.hops == 3
        assert route.fallback
        # Rightward routes are not fallbacks.
        assert not router.resolve(0, 3).fallback
        assert router.resolve(3, 0).fallback

    def test_router_surfaces_the_fallback(self):
        topo = MeshTopology((3,))
        router = Router(topo, RoutingPolicy.FIXED_RIGHT)
        assert router.resolve(2, 0).fallback
        # Leftward by choice (SHORTEST) is not a fallback.
        assert not Router(
            topo, RoutingPolicy.SHORTEST).resolve(2, 0).fallback


class TestDimensionOrderRouter:
    def test_canonical_route(self):
        topo = MeshTopology((3, 3))
        router = Router(topo, RoutingPolicy.DIMENSION_ORDER)
        route = router.resolve(0, 8)  # (0,0) -> (2,2)
        assert route.port == "x+"
        assert route.hops == 4
        assert not route.rerouted

    def test_detour_around_dead_edge(self):
        # Canonical 0 -> 2 is x+,x+ through edge (1,2); sever it and the
        # router must find the live 4-hop way round, not give up.
        topo = MeshTopology((3, 3))
        router = Router(topo, RoutingPolicy.DIMENSION_ORDER)
        route = router.resolve(0, 2, dead_edges={(1, 2)})
        assert route.rerouted
        assert route.hops == 4

    def test_partitioned_destination_raises(self):
        # Cut both cables into corner host 2: (1,2) on x and (2,5) on y.
        topo = MeshTopology((3, 3))
        router = Router(topo, RoutingPolicy.DIMENSION_ORDER)
        with pytest.raises(NoRouteError):
            router.resolve(0, 2, dead_edges={(1, 2), (2, 5)})

    def test_route_ports_turn_the_corner(self):
        # The whole walk of 0 -> 8: after the x leg, 2 turns the corner
        # onto y+.  It is the grid relays' default walk, so the header
        # carries nothing.
        topo = MeshTopology((3, 3))
        router = Router(topo, RoutingPolicy.DIMENSION_ORDER)
        route = router.resolve(0, 8)
        assert route.ports == ("x+", "x+", "y+", "y+")
        assert route.carried == ()
        assert topo.relay_port(1, 8, "x-") == "x+"
        assert topo.relay_port(2, 8, "x-") == "y+"

    def test_a_detour_is_blocked_only_by_its_own_cables(self):
        # Around a cut (1,2) the detour 0 -> 2 on a 3x3 mesh is 0-1-4-5-2,
        # carried in its header because the relays' default walk from 1
        # would take the dead cable.  The dead-link verdict reads those
        # four cables: a cut of (6,7) leaves it be, a cut of (4,5) not.
        router = Router(MeshTopology((3, 3)), RoutingPolicy.DIMENSION_ORDER)
        route = router.resolve(0, 2, dead_edges={(1, 2)})
        assert route.rerouted and route.ports == ("x+", "y+", "x+", "y-")
        assert route.carried == (3, 1, 2)
        assert not router.blocked(0, 2, route, {(1, 2), (6, 7)})
        assert router.blocked(0, 2, route, {(1, 2), (4, 5)})

    def test_torus_wrap_detour(self):
        topo = TorusTopology((4,))
        router = Router(topo, RoutingPolicy.DIMENSION_ORDER)
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
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        canonical = Router(topo, RoutingPolicy.DIMENSION_ORDER).resolve(0, 10)
        assert router.resolve(0, 10) == canonical

    def test_picks_least_loaded_minimal_port(self):
        # (0,0) -> (2,2) on a 4-torus: x distance ties at 2 either way,
        # so all four ports make minimal progress.  Load steers the pick.
        topo = TorusTopology((4, 4))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        load = {"x-": 3.0, "x+": 2.0, "y-": 1.0, "y+": 0.0}
        route = router.resolve(0, 10, load=load.__getitem__)
        assert route.port == "y+"
        assert route.hops == 4

    def test_uniform_load_ties_in_port_order(self):
        topo = TorusTopology((4, 4))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        route = router.resolve(0, 10, load=lambda _port: 0.0)
        assert route.port == "x-"  # first minimal port in PORT_ORDER

    def test_dead_canonical_edge_shifts_sideways(self):
        topo = TorusTopology((4, 4))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        route = router.resolve(0, 10, dead_edges={(0, 1)})
        assert route.port != "x+"
        assert route.hops == 4  # still minimal
        assert route.rerouted

    def test_degrades_to_bfs_when_no_minimal_port_lives(self):
        # Mesh (1,0) -> (1,2): the only minimal port is y+ through edge
        # (1,4).  Sever it and no minimal port remains, so the router
        # must degrade to the BFS detour instead of raising.
        topo = MeshTopology((3, 3))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
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
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        dead = {(1, 2)}
        route = router.resolve(0, 2, dead_edges=dead)
        node = 0
        for port in route.ports:
            node = topo.neighbor(node, port)
        assert node == 2 and route.hops == 2
        assert route.ports == ("x-", "x-")

    def test_grid_relay_walk_does_not_ping_pong_around_sever(self):
        # The walk is resolved whole.  On a 3x2 mesh with (1,2) and (1,4)
        # cut, 0's minimal port toward 2 points at 1, whose only live
        # cable leads straight back to 0; a local minimal rule would
        # bounce 0 -> 1 -> 0.  Descending the live distances walks
        # 0 -> 3 -> 4 -> 5 -> 2.
        topo = MeshTopology((3, 2))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        dead = {(1, 2), (1, 4)}
        route = router.resolve(0, 2, dead_edges=dead)
        node, visited = 0, [0]
        for port in route.ports:
            assert topo.edge_for(node, port) not in dead
            node = topo.neighbor(node, port)
            visited.append(node)
        assert visited == [0, 3, 4, 5, 2] and route.hops == 4

    def test_isolated_source_raises(self):
        # With every cable at the source dead there is no live walk:
        # the live-distance field does not reach the source.
        topo = MeshTopology((2, 2))
        router = make_router(topo, RoutingPolicy.ADAPTIVE)
        with pytest.raises(NoRouteError):
            router.resolve(0, 3, dead_edges={(0, 1), (0, 2)})


class TestMakeRouter:
    def test_defaults(self):
        ring = make_router(RingTopology(4))
        assert type(ring) is Router
        assert ring.policy is RoutingPolicy.FIXED_RIGHT
        shortest = make_router(RingTopology(4), RoutingPolicy.SHORTEST)
        assert shortest.policy is RoutingPolicy.SHORTEST
        grid = make_router(MeshTopology((2, 2)))
        assert type(grid) is Router
        assert grid.policy is RoutingPolicy.DIMENSION_ORDER

    def test_explicit_names(self):
        topo = TorusTopology((3, 3))
        adaptive = make_router(topo, name="adaptive")
        assert type(adaptive) is AdaptiveRouter
        assert adaptive.policy is RoutingPolicy.ADAPTIVE
        ordered = make_router(topo, name="dimension_order")
        assert type(ordered) is Router
        assert ordered.policy is RoutingPolicy.DIMENSION_ORDER
        ring = make_router(RingTopology(4), name="shortest")
        assert type(ring) is Router
        assert ring.policy is RoutingPolicy.SHORTEST

    def test_unknown_name_rejected(self):
        with pytest.raises(TopologyError):
            make_router(RingTopology(4), name="valiant")
