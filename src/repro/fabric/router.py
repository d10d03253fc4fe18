"""Pluggable routers: per-hop route resolution over switchless fabrics.

The runtime used to hard-code "shortest way around the ring, flip to the
opposite direction on a dead edge" inline in ``route_to``.  That rule is
both ring-specific and subtly wrong: the flipped route was never checked
against the dead-edge set, so a double-severed ring retried into a known
hole instead of failing promptly, and no multi-path topology can be
expressed at all.  This module lifts routing into small strategy objects:

``PolicyRouter``
    The historical behaviour — ``FIXED_RIGHT`` (the paper's rule) or
    ``SHORTEST`` (ties rightward) on one axis; the only place a 1-D
    fabric's direction is decided.  Byte-identical to the inline logic
    on live fabrics; on dead edges it *validates* the detour too and
    raises :class:`~.topology.NoRouteError` promptly when both ways
    around are severed.  Relays keep the arrival direction.

``DimensionOrderRouter``
    X-then-Y-then-Z per-hop resolution on meshes and tori (the APEnet+
    discipline).  Deadlock-free on live fabrics; on dead edges it falls
    back to a deterministic breadth-first search over live cables.

``AdaptiveRouter``
    Congestion-aware minimal routing: among the live ports that make
    minimal progress toward the destination it picks the least-loaded
    one (the runtime feeds it live mailbox occupancy; the post-hoc
    link-utilisation sampler tells the same story offline).  Falls back
    to the BFS detour when no minimal port is live.

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

__all__ = ["Router", "PolicyRouter", "DimensionOrderRouter",
           "AdaptiveRouter", "make_router"]

#: Outbound-port load estimate at the resolving node (0.0 == idle).
LoadFn = Callable[[str], float]

_NO_EDGES: frozenset = frozenset()


class Router:
    """Strategy interface: resolve routes one hop (or one path) at a time."""

    name = "base"

    def __init__(self, topology: Topology):
        self.topology = topology

    # -- interface -----------------------------------------------------------
    def resolve(self, src: int, dst: int,
                dead_edges: AbstractSet = _NO_EDGES,
                load: Optional[LoadFn] = None) -> Route:
        """A live route src -> dst, or raise :class:`NoRouteError`.

        ``route.rerouted`` is set when the canonical route was blocked by
        a dead edge and a detour was taken; ``route.fallback`` when the
        policy direction was structurally unavailable (an open axis).
        """
        raise NotImplementedError

    def forward_port(self, node: int, dst: int, in_port: str,
                     dead_edges: AbstractSet = _NO_EDGES,
                     load: Optional[LoadFn] = None) -> str:
        """The outbound port a relay at ``node`` sends toward ``dst``.

        The default re-resolves from the relay's own view — per-hop
        routing in the dimension-order style.  The 1-D policy router
        overrides this with the historical "keep travelling the arrival
        direction" rule.
        """
        return self.resolve(node, dst, dead_edges, load).port

    def route_edges(self, src: int, dst: int,
                    route: Route) -> tuple:
        """The directed cable ids ``route`` crosses (issue-time path).

        Used for dead-edge bookkeeping: when a cable dies, pending
        operations whose issue-time path crossed it are failed fast.
        The walk takes ``route``'s first port then follows the canonical
        next-hop discipline — deterministic and cheap.
        """
        edges = []
        node = src
        port = route.port
        for _ in range(route.hops):
            edge = self.topology.edge_for(node, port)
            if edge is None:
                break
            edges.append(edge)
            node = self.topology.neighbor(node, port)
            if node == dst:
                break
            port, _nxt = self.topology.next_hop(node, dst)
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


class PolicyRouter(Router):
    """FIXED_RIGHT / SHORTEST on one axis (the paper's protocol family).

    This class owns how a 1-D fabric picks a direction.  FIXED_RIGHT
    leaves through the positive port whenever the destination can be
    reached that way (always on a ring; on an open axis — a 1-D mesh —
    the leftward fallback is flagged on the :class:`Route`).  SHORTEST takes the
    shorter way around, ties positive — which on one axis *is* the
    canonical ``next_hop``/``min_hops``, computed here by 1-D arithmetic
    instead of a coordinate walk per call.
    """

    def __init__(self, topology: Topology, policy: RoutingPolicy):
        if len(topology.dims) != 1:
            raise TopologyError(
                "policy routers are 1D; use dimension_order/adaptive "
                "on meshes and tori"
            )
        if policy not in (RoutingPolicy.FIXED_RIGHT, RoutingPolicy.SHORTEST):
            raise TopologyError(f"{policy} is not a 1D direction policy")
        super().__init__(topology)
        self.policy = policy
        self.name = policy.value
        self._negative, self._positive = topology.PORT_ORDER

    def resolve(self, src: int, dst: int,
                dead_edges: AbstractSet = _NO_EDGES,
                load: Optional[LoadFn] = None) -> Route:
        topo = self.topology
        topo.check_host(src)
        topo.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        # Link traversals travelling only rightward / only leftward;
        # 0 when an open axis ends in the way.
        if topo.wrap:
            right, left = (dst - src) % topo.n_hosts, (src - dst) % topo.n_hosts
        else:
            right, left = max(dst - src, 0), max(src - dst, 0)
        fixed = self.policy is RoutingPolicy.FIXED_RIGHT
        if not right:
            # Open axis: the destination lies leftward.  Under the paper's
            # fixed-rightward rule that is a fallback — a real routing
            # decision that must show up in the metrics fabric.
            route = Route(self._negative, left, fallback=fixed)
        elif fixed or not left or right <= left:  # ties rightward
            route = Route(self._positive, right)
        else:
            route = Route(self._negative, left)
        if not dead_edges or not self._blocked(src, route, dead_edges):
            return route
        # The historical detour: the exact opposite way around — but
        # validated against the dead-edge set, so a double-severed ring
        # fails promptly instead of retrying into a known hole.
        if route.port == self._positive:
            alt = Route(self._negative, left, rerouted=True)
        else:
            alt = Route(self._positive, right, rerouted=True)
        if alt.hops and not self._blocked(src, alt, dead_edges):
            return alt
        raise NoRouteError(
            f"no live route {src} -> {dst} "
            f"(dead edges: {sorted(dead_edges)})"
        )

    def forward_port(self, node: int, dst: int, in_port: str,
                     dead_edges: AbstractSet = _NO_EDGES,
                     load: Optional[LoadFn] = None) -> str:
        # Messages keep travelling the direction they arrived from; the
        # relay drops (and the sender retries around) on a dead edge.
        return self.topology.opposite_port(in_port)

    def route_edges(self, src: int, dst: int, route: Route) -> tuple:
        # Straight-line walk: every hop leaves through the same port.
        edges = []
        node = src
        for _ in range(route.hops):
            edge = self.topology.edge_for(node, route.port)
            if edge is None:
                break
            edges.append(edge)
            node = self.topology.neighbor(node, route.port)
        return tuple(edges)

    def _blocked(self, src: int, route: Route,
                 dead_edges: AbstractSet) -> bool:
        return any(edge in dead_edges
                   for edge in self.route_edges(src, -1, route))


class DimensionOrderRouter(Router):
    """Canonical next-hop routing (X then Y then Z; shortest on rings)."""

    name = "dimension_order"

    def resolve(self, src: int, dst: int,
                dead_edges: AbstractSet = _NO_EDGES,
                load: Optional[LoadFn] = None) -> Route:
        port, _nxt = self.topology.next_hop(src, dst)
        route = Route(port, self.topology.min_hops(src, dst))
        if not dead_edges:
            return route
        if not any(self.topology.edge_for(node, via) in dead_edges
                   for node, via, _ in self.topology.path(src, dst)):
            return route
        return self._detour(src, dst, dead_edges)


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
    on a 4-ring with (1,2) cut, host 0's minimal port toward 2 points at
    host 1, whose only escape is straight back at 0 — relays bounce the
    message forever.  Descending the live-distance field makes every
    hop strict progress, so relayed walks always terminate at the
    destination (or the resolve fails promptly when it is partitioned).
    """

    name = "adaptive"

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

    ``None`` is the fabric default, keyed on ``topology.kind``:
    FIXED_RIGHT on a ring (the paper's rule), dimension-order on
    mesh/torus.  The two 1-D policies raise on multi-axis grids.
    """
    if name is None:
        name = (RoutingPolicy.FIXED_RIGHT if topology.kind == "ring"
                else RoutingPolicy.DIMENSION_ORDER)
    try:
        policy = RoutingPolicy(name)
    except ValueError as exc:
        raise TopologyError(str(exc)) from None
    if policy is RoutingPolicy.DIMENSION_ORDER:
        return DimensionOrderRouter(topology)
    if policy is RoutingPolicy.ADAPTIVE:
        return AdaptiveRouter(topology)
    return PolicyRouter(topology, policy)
