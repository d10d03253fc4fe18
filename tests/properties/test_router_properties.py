"""Property-based routing correctness under random severed-edge sets.

For every router on every topology family, a resolved route — walked
hop by hop exactly the way the runtime's relays walk it (the first hop
from ``resolve``, every later one from the path the header carries, or
with none from the default walk, ``Topology.relay_port``) — must:

* cross only real, seated cables that are not in the dead-edge set;
* terminate at the destination in **exactly** ``route.hops`` link
  traversals, along ``route.ports`` (the path the runtime keys credits,
  retry budgets, latency metrics and the dead-link verdict on);
* and when ``resolve`` raises :class:`NoRouteError` instead, the
  destination must be genuinely partitioned on the live graph — the
  prompt-failure half of the double-sever bugfix.

With at most two dead cables the walk is also simple, a healthy
fabric's route is the default walk (so fault-free headers carry no
path), and ``Router.blocked`` is exact: a route is blocked by a dead
set exactly when it crosses one of its cables.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fabric import (
    MeshTopology,
    NoRouteError,
    RingTopology,
    Route,
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


def _cables(topology, src, route):
    """The directed cable ids ``route`` crosses from ``src`` (None for
    an uncabled port)."""
    edges, node = [], src
    for port in route.ports:
        edges.append(topology.edge_for(node, port))
        node = topology.neighbor(node, port)
        if node is None:
            break
    return edges


def _relay_walk(topology, src, dst, route):
    """The ports a message posted on ``route`` takes: its first port,
    then at each relay the next port of the path its header carries, or
    with none the default walk."""
    ports, path = [route.port], list(route.carried)
    node = topology.neighbor(src, route.port)
    while node is not None and node != dst and len(ports) <= 64:
        ports.append(topology.PORT_ORDER[path.pop(0)] if path else
                     topology.relay_port(node, dst,
                                         topology.opposite_port(ports[-1])))
        node = topology.neighbor(node, ports[-1])
    return tuple(ports)


@st.composite
def _scenarios(draw, max_dead=5):
    topology = draw(_TOPOLOGIES)
    cables = [(owner, peer)
              for owner, _port, peer, _peer_port in topology.cables()]
    dead = draw(st.sets(st.sampled_from(cables),
                        max_size=min(len(cables), max_dead)))
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
            walk = _relay_walk(topology, src, dst, route)
            assert walk == route.ports, (
                f"{router.name} relays walk {walk} for {src}->{dst}, "
                f"not its route {route.ports} (dead={sorted(dead)})")
            for edge in _cables(topology, src, route):
                assert edge is not None, (
                    f"{router.name} sent a message out an uncabled port "
                    f"routing {src}->{dst}")
                assert edge not in dead, (
                    f"{router.name} crossed severed cable {edge} "
                    f"routing {src}->{dst}"
                )

    @_SETTINGS
    @given(_scenarios(max_dead=2), st.data())
    def test_paths_are_simple_default_when_healthy_and_exactly_blocked(
            self, case, data):
        topology, dead, src, dst = case
        cables = sorted({(owner, peer) for owner, _port, peer, _peer_port
                         in topology.cables()})
        cut = frozenset(data.draw(st.sets(st.sampled_from(cables),
                                          max_size=2), label="cut"))
        for router in _routers_for(topology):
            try:
                route = router.resolve(src, dst, dead_edges=dead)
            except NoRouteError:
                continue
            nodes = [src]
            for port in route.ports:
                nodes.append(topology.neighbor(nodes[-1], port))
            assert nodes[-1] == dst and len(set(nodes)) == len(nodes), (
                router.name, nodes)
            edges = _cables(topology, src, route)
            assert not set(edges) & dead, (router.name, edges)
            if not dead:
                assert route.carried == (), (router.name, route)
                assert _relay_walk(topology, src, dst, Route(
                    route.ports[:1])) == route.ports, (router.name, route)
            assert router.blocked(src, dst, route, cut) == bool(
                set(edges) & cut), (router.name, edges, sorted(cut))

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
