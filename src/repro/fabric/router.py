"""Pluggable routers: whole-path route resolution over switchless fabrics.

Two strategy classes resolve a message's whole path where it is posted:

``Router``
    One class for the three deterministic policies.  ``FIXED_RIGHT``
    (the paper's rule: the positive port of the one axis, the open-axis
    fallback flagged on the :class:`Route`) and ``SHORTEST`` (ties
    rightward) refuse multi-axis grids; ``DIMENSION_ORDER`` is X then Y
    then Z on any grid (the APEnet+ discipline).  SHORTEST and
    dimension-order take the topology's canonical ``walk``.  Whenever
    the policy's route is :meth:`Router.blocked` by a dead edge, every
    policy falls back to the same deterministic breadth-first detour
    over live cables, and raises
    :class:`~.topology.NoRouteError` promptly when there is none.

``AdaptiveRouter``
    Congestion-aware minimal routing: among the live ports that make
    minimal progress toward the destination it picks the least-loaded
    one (the runtime feeds it live mailbox occupancy; the post-hoc
    link-utilisation sampler tells the same story offline) for the
    first hop, then descends the live-distance field.

Relays do not route: they follow the path the header carries, or with
none the default walk (:meth:`~.topology.Topology.relay_port`).  Only a
relay whose next cable is dead resolves again, from itself.

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
        """The whole live walk src -> dst, or raise :class:`NoRouteError`.

        ``route.rerouted`` is set when the policy's route was blocked by
        a dead edge and the BFS detour was taken; ``route.fallback`` when
        the policy direction was structurally unavailable (FIXED_RIGHT on
        an open axis).
        """
        topo = self.topology
        topo.check_host(src)
        topo.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        route = self._policy_route(src, dst, dead_edges, load)
        # Every op resolves: a healthy fabric skips the walk.
        if dead_edges and self.blocked(src, dst, route, dead_edges):
            return self._detour(src, dst, dead_edges)
        return route

    def _policy_route(self, src: int, dst: int, dead_edges: AbstractSet,
                      load: Optional[LoadFn]) -> Route:
        """The policy's own walk, dead edges or not."""
        topo = self.topology
        if self.policy is not RoutingPolicy.FIXED_RIGHT:
            return Route(topo.walk(src, dst))
        negative, positive = topo.PORT_ORDER
        right = ((dst - src) % topo.n_hosts if topo.wrap
                 else max(dst - src, 0))
        # Open axis with the destination leftward: under the paper's
        # fixed-rightward rule that is a fallback, a real routing
        # decision that must show up in the metrics fabric.
        return (Route((positive,) * right) if right
                else Route((negative,) * (src - dst), fallback=True))

    def blocked(self, src: int, dst: int, route: Route,
                dead_edges: AbstractSet) -> bool:
        """Does ``route``, walked from ``src``, cross a dead cable, fall
        off a boundary or miss ``dst``?  The check inside :meth:`resolve`
        and the dead-link handler's verdict on a pending request: exact,
        because the route is the message's whole path."""
        topo = self.topology
        node = src
        for port in route.ports:
            edge = topo.edge_for(node, port)
            if edge is None or edge in dead_edges:
                return True
            node = edge[1] if edge[0] == node else edge[0]  # far end
        return node != dst

    # -- shared helpers ------------------------------------------------------
    def live_ports(self, node: int,
                   dead_edges: AbstractSet) -> tuple[str, ...]:
        """Cabled ports at ``node`` whose cable is not severed."""
        return tuple(
            port for port in self.topology.ports(node)
            if self.topology.edge_for(node, port) not in dead_edges
        )

    def bfs_path(self, src: int, dst: int,
                 dead_edges: AbstractSet) -> Optional[tuple[str, ...]]:
        """Deterministic shortest live path as its outbound ports.

        Breadth-first over live cables, expanding ports in ``PORT_ORDER``
        — given the same dead-edge set every host computes the same
        detour, which keeps runs reproducible.  None when ``dst`` is
        unreachable.
        """
        topo = self.topology
        if src == dst:
            return ()
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
                    ports = []
                    while nxt != src:
                        nxt, via = parent[nxt]
                        ports.append(via)
                    return tuple(reversed(ports))
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
        ports = self.bfs_path(src, dst, dead_edges)
        if not ports:
            raise NoRouteError(
                f"no live route {src} -> {dst} "
                f"(dead edges: {sorted(dead_edges)})"
            )
        return Route(ports, rerouted=True,
                     carried=self.topology.carried(src, dst, ports))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} over {self.topology!r}>"


class AdaptiveRouter(Router):
    """Minimal adaptive routing: least-loaded live port that makes progress.

    Every hop takes a live port whose neighbor is strictly closer to the
    destination on the *live* graph (a BFS distance field rooted there),
    so the walk ends at the destination.  The first hop picks the
    least-loaded such port (ties in ``PORT_ORDER``) when it has a load
    estimator; every other hop the canonical port, else the first live
    one that makes progress.
    """

    def _policy_route(self, src: int, dst: int, dead_edges: AbstractSet,
                      load: Optional[LoadFn]) -> Route:
        topo = self.topology
        canonical = topo.walk(src, dst)
        if not dead_edges and load is None:
            return Route(canonical)
        distance = self.live_distances(dst, dead_edges)
        if src not in distance:  # blocked: resolve's detour raises
            return Route(canonical)
        ports: list[str] = []
        node = src
        while node != dst:
            closer = distance[node] - 1
            candidates = [port for port in self.live_ports(node, dead_edges)
                          if distance.get(topo.neighbor(node, port)) == closer]
            canonical_port = topo.walk(node, dst)[0]
            if load is not None and not ports:
                order = topo.PORT_ORDER.index
                port = min(candidates, key=lambda p: (load(p), order(p)))
            elif canonical_port in candidates:
                port = canonical_port
            else:
                port = candidates[0]
            ports.append(port)
            node = topo.neighbor(node, port)
        walk = tuple(ports)
        return Route(walk, rerouted=bool(dead_edges) and walk != canonical,
                     carried=topo.carried(src, dst, walk))


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
