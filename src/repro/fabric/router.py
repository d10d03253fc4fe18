"""Pluggable routers: per-hop route resolution over switchless fabrics.

The runtime used to hard-code "shortest way around the ring, flip to the
opposite direction on a dead edge" inline in ``route_to``.  That rule is
both ring-specific and subtly wrong: the flipped route was never checked
against the dead-edge set, so a double-severed ring retried into a known
hole instead of failing promptly, and no multi-path topology can be
expressed at all.  This module lifts routing into two strategy classes:

``Router``
    One class for the three deterministic policies.  ``FIXED_RIGHT``
    (the paper's rule: the positive port of the one axis, the open-axis
    fallback flagged on the :class:`Route`) and ``SHORTEST`` (ties
    rightward) refuse multi-axis grids; ``DIMENSION_ORDER`` is X then Y
    then Z on any grid (the APEnet+ discipline).  SHORTEST and
    dimension-order take the topology's canonical ``next_hop`` /
    ``min_hops``.  Whenever the policy's route is :meth:`Router.blocked`
    by a dead edge, every policy falls back to the same deterministic
    breadth-first detour over live cables, and raises
    :class:`~.topology.NoRouteError` promptly when there is none.

``AdaptiveRouter``
    Congestion-aware minimal routing: among the live ports that make
    minimal progress toward the destination it picks the least-loaded
    one (the runtime feeds it live mailbox occupancy; the post-hoc
    link-utilisation sampler tells the same story offline).  Falls back
    to the BFS detour when no minimal port is live.

A simple path on one axis never turns, so on a ring or a line every
router's relays keep the arrival direction and its cable walk runs
straight; on grids relays re-resolve per hop.

Routers are pure fabric-layer objects: they know topology shape and the
caller's dead-edge set, never the runtime.  Unroutable destinations
raise :class:`~.topology.NoRouteError`; the runtime translates that into
its typed ``PeerUnreachableError``.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Callable, Optional

from .topology import (
    NoRouteError,
    Route,
    RoutingPolicy,
    Topology,
    TopologyError,
)

__all__ = ["Router", "AdaptiveRouter", "make_router"]

#: Outbound-port load estimate at the resolving node (0.0 == idle).
LoadFn = Callable[[str], float]

_NO_EDGES: frozenset = frozenset()


class Router:
    """Resolve routes under one :class:`RoutingPolicy`.

    ``Router`` serves FIXED_RIGHT, SHORTEST and DIMENSION_ORDER;
    :class:`AdaptiveRouter` serves ADAPTIVE.  :func:`make_router` picks
    the class from the policy.
    """

    def __init__(self, topology: Topology, policy: RoutingPolicy):
        if (policy is RoutingPolicy.ADAPTIVE) != isinstance(
                self, AdaptiveRouter):
            raise TopologyError(
                f"{type(self).__name__} does not serve {policy.value}; "
                f"build routers with make_router")
        one_axis = (RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST)
        if policy in one_axis and len(topology.dims) != 1:
            raise TopologyError(
                f"{policy.value} routes one axis; use dimension_order/"
                f"adaptive on meshes and tori")
        self.topology = topology
        self.policy = policy
        #: One axis: every simple path runs straight along its first port.
        self._straight = len(topology.dims) == 1
        #: :meth:`live_diameter` per dead-edge set.
        self._diameters: dict[frozenset, Optional[int]] = {}

    @property
    def name(self) -> str:
        """The policy's value (metric labels, reports)."""
        return self.policy.value

    # -- interface -----------------------------------------------------------
    def resolve(self, src: int, dst: int,
                dead_edges: AbstractSet = _NO_EDGES,
                load: Optional[LoadFn] = None) -> Route:
        """A live route src -> dst, or raise :class:`NoRouteError`.

        ``route.rerouted`` is set when the policy's route was blocked by
        a dead edge and the BFS detour was taken; ``route.fallback`` when
        the policy direction was structurally unavailable (FIXED_RIGHT on
        an open axis).
        """
        topo = self.topology
        if self.policy is RoutingPolicy.FIXED_RIGHT:
            topo.check_host(src)
            topo.check_host(dst)
            if src == dst:
                raise TopologyError(f"route to self (host {src})")
            negative, positive = topo.PORT_ORDER
            right = ((dst - src) % topo.n_hosts if topo.wrap
                     else max(dst - src, 0))
            # Open axis with the destination leftward: under the paper's
            # fixed-rightward rule that is a fallback, a real routing
            # decision that must show up in the metrics fabric.
            route = (Route(positive, right) if right
                     else Route(negative, src - dst, fallback=True))
        else:
            port, _nxt = topo.next_hop(src, dst)
            route = Route(port, topo.min_hops(src, dst))
        # Every op and grid relay resolves: a healthy fabric skips the walk.
        if dead_edges and self.blocked(src, dst, route, dead_edges):
            return self._detour(src, dst, dead_edges)
        return route

    def blocked(self, src: int, dst: int, route: Route,
                dead_edges: AbstractSet) -> bool:
        """Does ``route`` (from ``src`` toward ``dst``) cross a dead
        cable or fall off a boundary?  The check inside :meth:`resolve`
        and the dead-link handler's verdict on a pending request."""
        if not dead_edges:
            return False
        edges = self.route_edges(src, dst, route)
        return len(edges) < route.hops or any(
            edge in dead_edges for edge in edges)

    def forward_port(self, node: int, dst: int, in_port: str,
                     dead_edges: AbstractSet = _NO_EDGES,
                     load: Optional[LoadFn] = None) -> str:
        """The outbound port a relay at ``node`` sends toward ``dst``.

        On one axis the message keeps travelling the direction it
        arrived from (a simple path there never turns; on a dead edge the
        relay drops and the sender retries around).  On grids the relay
        re-resolves from its own view, per-hop routing in the
        dimension-order style.
        """
        if self._straight:
            return self.topology.opposite_port(in_port)
        return self.resolve(node, dst, dead_edges, load).port

    def route_edges(self, src: int, dst: int,
                    route: Route) -> tuple:
        """The directed cable ids ``route`` crosses (issue-time path).

        Used for dead-edge bookkeeping: when a cable dies, pending
        operations whose issue-time path crossed it are failed fast.  On
        one axis the walk runs straight along ``route``'s first port; on
        grids it takes that port, then follows the canonical next-hop
        discipline.  Shorter than ``route.hops`` when it falls off a
        boundary (or, on grids, reaches ``dst`` early).
        """
        topo = self.topology
        edges = []
        node = src
        port = route.port
        for _ in range(route.hops):
            edge = topo.edge_for(node, port)
            if edge is None:
                break
            edges.append(edge)
            node = edge[1] if edge[0] == node else edge[0]  # far end
            if not self._straight:
                if node == dst:
                    break
                port, _nxt = topo.next_hop(node, dst)
        return tuple(edges)

    # -- shared helpers ------------------------------------------------------
    def live_ports(self, node: int,
                   dead_edges: AbstractSet) -> tuple[str, ...]:
        """Cabled ports at ``node`` whose cable is not severed."""
        return tuple(
            port for port in self.topology.ports(node)
            if self.topology.edge_for(node, port) not in dead_edges
        )

    def bfs_path(self, src: int, dst: int,
                 dead_edges: AbstractSet) -> Optional[list]:
        """Deterministic shortest live path as (node, port, next) triples.

        Breadth-first over live cables, expanding ports in ``PORT_ORDER``
        — given the same dead-edge set every host computes the same
        detour, which keeps runs reproducible.  None when ``dst`` is
        unreachable.
        """
        topo = self.topology
        if src == dst:
            return []
        parent: dict[int, tuple[int, str]] = {src: (-1, "")}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for port in self.live_ports(node, dead_edges):
                nxt = topo.neighbor(node, port)
                if nxt in parent:
                    continue
                parent[nxt] = (node, port)
                if nxt == dst:
                    hops = []
                    cur = dst
                    while cur != src:
                        prev, via = parent[cur]
                        hops.append((prev, via, cur))
                        cur = prev
                    hops.reverse()
                    return hops
                queue.append(nxt)
        return None

    def live_distances(self, dst: int,
                       dead_edges: AbstractSet) -> dict[int, int]:
        """Hop distance to ``dst`` over live cables, for reachable hosts.

        Cables are bidirectional, so a BFS rooted at the destination
        yields the distance field every host would compute; hosts absent
        from the map are partitioned away from ``dst``.
        """
        topo = self.topology
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for port in self.live_ports(node, dead_edges):
                nxt = topo.neighbor(node, port)
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return dist

    def live_diameter(self, dead_edges: AbstractSet) -> Optional[int]:
        """The longest shortest live path between two hosts, or None
        when the dead edges partition the fabric.  Memoised per
        dead-edge set: a BFS from every host."""
        key = frozenset(dead_edges)
        if key not in self._diameters:
            n = self.topology.n_hosts
            fields = [self.live_distances(dst, key) for dst in range(n)]
            self._diameters[key] = (
                max(max(field.values()) for field in fields)
                if all(len(field) == n for field in fields) else None)
        return self._diameters[key]

    def _detour(self, src: int, dst: int,
                dead_edges: AbstractSet) -> Route:
        """BFS detour as a Route, or raise NoRouteError."""
        path = self.bfs_path(src, dst, dead_edges)
        if not path:
            raise NoRouteError(
                f"no live route {src} -> {dst} "
                f"(dead edges: {sorted(dead_edges)})"
            )
        return Route(path[0][1], len(path), rerouted=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} over {self.topology!r}>"


class AdaptiveRouter(Router):
    """Minimal adaptive routing: least-loaded live port that makes progress.

    At each hop the router considers every live port whose neighbor is
    strictly closer to the destination (minimal progress).  With a load
    estimator it picks the least-loaded such port, breaking ties in
    ``PORT_ORDER``; without one it prefers the canonical dimension-order
    port.

    With dead edges in play "closer" is measured on the *live* graph
    (a BFS distance field rooted at the destination), not the intact
    topology.  A purely local minimal rule can livelock around a sever:
    on a 3x2 mesh with (1,2) and (1,4) cut, host 0's minimal port toward
    2 points at host 1, whose only live cable leads straight back to 0 —
    grid relays, which re-resolve, would bounce the message forever.
    Descending the live-distance field makes every hop strict progress,
    so relayed walks always terminate at the destination (or the resolve
    fails promptly when it is partitioned).
    """

    def resolve(self, src: int, dst: int,
                dead_edges: AbstractSet = _NO_EDGES,
                load: Optional[LoadFn] = None) -> Route:
        topo = self.topology
        canonical_port, _nxt = topo.next_hop(src, dst)
        base = topo.min_hops(src, dst)
        if not dead_edges and load is None:
            return Route(canonical_port, base)
        if dead_edges:
            dist = self.live_distances(dst, dead_edges)
            here = dist.get(src)
            if here is None:
                raise NoRouteError(
                    f"no live route {src} -> {dst} "
                    f"(dead edges: {sorted(dead_edges)})"
                )
            def closer(port: str) -> bool:
                return dist.get(topo.neighbor(src, port)) == here - 1
        else:
            here = base

            def closer(port: str) -> bool:
                return topo.min_hops(topo.neighbor(src, port), dst) \
                    == here - 1
        candidates = [
            port for port in self.live_ports(src, dead_edges)
            if closer(port)
        ]
        if not candidates:  # pragma: no cover - here finite implies one
            raise NoRouteError(
                f"no live route {src} -> {dst} "
                f"(dead edges: {sorted(dead_edges)})"
            )
        if load is not None and len(candidates) > 1:
            order = topo.PORT_ORDER.index
            port = min(candidates,
                       key=lambda p: (load(p), order(p)))
        elif canonical_port in candidates:
            port = canonical_port
        else:
            port = candidates[0]
        rerouted = bool(dead_edges) and (
            port != canonical_port
            or topo.edge_for(src, canonical_port) in dead_edges
        )
        return Route(port, here, rerouted=rerouted)


def make_router(topology: Topology,
                name: RoutingPolicy | str | None = None) -> Router:
    """Build the router ``name`` (a :class:`RoutingPolicy` or its value)
    for ``topology``.

    ``None`` is the fabric default, a function of the shape alone:
    FIXED_RIGHT on one wrapped axis (the paper's rule, so a ring and a
    1-D torus agree), dimension-order everywhere else.  FIXED_RIGHT and
    SHORTEST raise on multi-axis grids.
    """
    if name is None:
        name = (RoutingPolicy.FIXED_RIGHT
                if topology.wrap and len(topology.dims) == 1
                else RoutingPolicy.DIMENSION_ORDER)
    try:
        policy = RoutingPolicy(name)
    except ValueError as exc:
        raise TopologyError(str(exc)) from None
    cls = AdaptiveRouter if policy is RoutingPolicy.ADAPTIVE else Router
    return cls(topology, policy)
