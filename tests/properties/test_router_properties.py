"""Property-based routing correctness under random severed-edge sets.

For every router on every topology family, a resolved route — walked
hop by hop exactly the way the runtime's relay service walks it (first
hop from ``resolve``, every later hop from ``forward_port`` at the
relay) — must:

* cross only real, seated cables that are not in the dead-edge set;
* terminate at the destination in **exactly** ``route.hops`` link
  traversals (the hop count the runtime keys credits, retry budgets
  and latency metrics on);
* and when ``resolve`` raises :class:`NoRouteError` instead, the
  destination must be genuinely partitioned on the live graph — the
  prompt-failure half of the double-sever bugfix.

Exactness holds for every router: on one axis a resolved route is
checked along its whole straight line and relays keep its direction; on
grids dimension-order relays re-resolve from a validated route and
adaptive relays descend a live-BFS distance field one hop at a time.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fabric import (
    MeshTopology,
    NoRouteError,
    RingTopology,
    RoutingPolicy,
    TorusTopology,
    make_router,
)

_SETTINGS = settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

_TOPOLOGIES = st.one_of(
    st.integers(3, 8).map(RingTopology),
    st.integers(3, 8).map(lambda n: MeshTopology((n,))),
    st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 3), (2, 2, 2)])
    .map(MeshTopology),
    st.sampled_from([(4,), (3, 3), (4, 3), (3, 3, 3)]).map(TorusTopology),
)


def _routers_for(topology):
    policies = [RoutingPolicy.DIMENSION_ORDER, RoutingPolicy.ADAPTIVE]
    if len(topology.dims) == 1:
        # One axis (ring, line — the 1-D mesh — and the 1-D torus):
        # the two direction policies apply as well.
        policies[:0] = [RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST]
    return tuple(make_router(topology, policy) for policy in policies)


@st.composite
def _scenarios(draw):
    topology = draw(_TOPOLOGIES)
    cables = [(owner, peer)
              for owner, _port, peer, _peer_port in topology.cables()]
    dead = draw(st.sets(st.sampled_from(cables),
                        max_size=min(len(cables), 5)))
    src = draw(st.integers(0, topology.n_hosts - 1))
    offset = draw(st.integers(1, topology.n_hosts - 1))
    dst = (src + offset) % topology.n_hosts
    return topology, frozenset(dead), src, dst


class TestRouterWalks:
    @_SETTINGS
    @given(_scenarios())
    def test_resolved_routes_walk_live_cables_to_destination(self, case):
        topology, dead, src, dst = case
        for router in _routers_for(topology):
            try:
                route = router.resolve(src, dst, dead_edges=dead)
            except NoRouteError:
                # Prompt failure must mean genuine partition, never an
                # unexplored alternate path (the double-sever bugfix).
                assert router.bfs_path(src, dst, dead) is None, (
                    f"{router.name} gave up on {src}->{dst} "
                    f"with a live path available (dead={sorted(dead)})"
                )
                continue
            node, port, walked = src, route.port, 0
            while node != dst:
                assert walked < route.hops, (
                    f"{router.name} walk {src}->{dst} exceeds reported "
                    f"{route.hops} hops (dead={sorted(dead)})"
                )
                edge = topology.edge_for(node, port)
                assert edge is not None, (
                    f"{router.name} sent host {node} out uncabled "
                    f"port {port!r}"
                )
                assert edge not in dead, (
                    f"{router.name} crossed severed cable {edge} "
                    f"routing {src}->{dst}"
                )
                node = topology.neighbor(node, port)
                walked += 1
                if node != dst:
                    port = router.forward_port(
                        node, dst, topology.opposite_port(port),
                        dead_edges=dead)
            assert walked == route.hops, (
                f"{router.name} reported {route.hops} hops for "
                f"{src}->{dst} but walked {walked} (dead={sorted(dead)})"
            )

    @_SETTINGS
    @given(_scenarios())
    def test_reachability_verdict_is_router_independent(self, case):
        # Every router family must agree with the live graph (and hence
        # with each other) on whether a destination is reachable.
        topology, dead, src, dst = case
        reachable = _routers_for(topology)[0].bfs_path(
            src, dst, dead) is not None
        for router in _routers_for(topology):
            try:
                router.resolve(src, dst, dead_edges=dead)
                resolved = True
            except NoRouteError:
                resolved = False
            assert resolved == reachable, (
                f"{router.name}: resolve {'succeeded' if resolved else 'failed'} "
                f"but live graph says reachable={reachable}"
            )
