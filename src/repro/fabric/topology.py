"""Switchless topology descriptors: rings, chains, meshes and tori.

The paper wires hosts into a **ring**: each host carries two NTB adapters;
host *i*'s right adapter is cabled to host *i+1*'s left adapter (mod N).
Forwarding for non-neighbors is store-and-forward through intermediate
hosts (§III-A).  The paper always forwards rightward (toward increasing
host id); we additionally implement shortest-direction routing as an
ablation (DESIGN.md §6).

A **chain** is a ring with one cable removed — useful for two-host
"independent connection" experiments and failure-injection tests.

Beyond the paper, :class:`MeshTopology` and :class:`TorusTopology`
generalize the fabric to 2D/3D grids in the style of the APEnet+ switchless
direct networks (PAPERS.md): each host seats one NTB adapter per grid
*port* (``x-``/``x+``/``y-``/``y+``/``z-``/``z+``) and routing becomes
per-hop dimension-order resolution via :meth:`Topology.next_hop` rather
than a single scalar direction.  Rings and chains keep their historical
``left``/``right`` port names, so ring clusters are byte-identical to the
pre-grid builds.

Port conventions
----------------
``PORT_ORDER`` lists a topology's port names as (negative, positive)
pairs per axis — ``("left", "right")`` for rings/chains, ``("x-", "x+",
"y-", "y+", ...)`` for grids.  The *positive* port of a cable owns the
canonical edge id: the directed edge ``(a, b)`` names the cable from
``a``'s positive port into ``b``'s matching negative port, which is
exactly the ``(host, right-neighbor)`` convention the fault layer and
dead-edge bookkeeping already use on rings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import prod
from typing import Iterator, Optional, Sequence, Union

__all__ = ["Direction", "RoutingPolicy", "Route", "TopologyError",
           "NoRouteError", "Topology", "RingTopology", "ChainTopology",
           "GridTopology", "MeshTopology", "TorusTopology", "PortLike"]


class TopologyError(Exception):
    """Invalid host ids or unroutable destination."""


class NoRouteError(TopologyError):
    """No live path exists between two hosts (given the dead-edge set)."""


class Direction(enum.Enum):
    """Which adapter a hop leaves through (ring/chain port names)."""

    RIGHT = "right"  # toward increasing host id
    LEFT = "left"    # toward decreasing host id

    @property
    def opposite(self) -> "Direction":
        return Direction.LEFT if self is Direction.RIGHT else Direction.RIGHT


#: A port is named either by the historical ring enum or a port string.
PortLike = Union[Direction, str]


def _port_name(port: PortLike) -> str:
    return port.value if isinstance(port, Direction) else port


class RoutingPolicy(enum.Enum):
    """How multi-hop destinations pick a direction."""

    FIXED_RIGHT = "fixed_right"  # the paper's behaviour
    SHORTEST = "shortest"        # ablation: min-hop direction, ties right


@dataclass(frozen=True)
class Route:
    """A resolved route: initial direction/port and total link traversals.

    ``direction`` stays a :class:`Direction` on rings and chains (so every
    existing comparison keeps working) and is a port string (``"x+"`` …)
    on grid topologies.  ``fallback`` marks a policy route that had to
    abandon the requested direction (FIXED_RIGHT on a chain end);
    ``rerouted`` marks a route that detoured around dead edges.
    """

    direction: PortLike
    hops: int
    fallback: bool = field(default=False, compare=False)
    rerouted: bool = field(default=False, compare=False)

    @property
    def port(self) -> str:
        """The outbound port name of the first hop."""
        return _port_name(self.direction)


class Topology:
    """Common interface for switchless topologies.

    Subclasses must provide :meth:`neighbor`, :meth:`cables`,
    :meth:`next_hop` and :meth:`min_hops`; rings and chains additionally
    keep the scalar :meth:`hops`/:meth:`route` interface the runtime's
    default routers use.
    """

    #: Port names as (negative, positive) pairs per axis.
    PORT_ORDER: tuple[str, ...] = ("left", "right")

    def __init__(self, n_hosts: int):
        if n_hosts < 2:
            raise TopologyError(f"need at least 2 hosts, got {n_hosts}")
        self.n_hosts = n_hosts
        #: Routing decisions where the policy direction was unavailable
        #: and the resolver fell back to another port (chain FIXED_RIGHT
        #: crossing the gap leftward).  Mirrored into the metrics fabric
        #: by the runtime as ``route_fallbacks``.
        self.fallbacks = 0

    def check_host(self, host_id: int) -> None:
        if not (0 <= host_id < self.n_hosts):
            raise TopologyError(
                f"host id {host_id} outside 0..{self.n_hosts - 1}"
            )

    # -- ports ---------------------------------------------------------------
    def check_port(self, port: PortLike) -> str:
        name = _port_name(port)
        if name not in self.PORT_ORDER:
            raise TopologyError(
                f"unknown port {name!r} (expected one of {self.PORT_ORDER})"
            )
        return name

    def ports(self, host_id: int) -> tuple[str, ...]:
        """The ports on ``host_id`` that have a cabled neighbor."""
        self.check_host(host_id)
        return tuple(
            port for port in self.PORT_ORDER
            if self.neighbor(host_id, port) is not None
        )

    def port_polarity(self, port: PortLike) -> bool:
        """True for the positive member of a port pair (owns the cable)."""
        name = self.check_port(port)
        return self.PORT_ORDER.index(name) % 2 == 1

    def opposite_port(self, port: PortLike) -> str:
        """The same-axis port of opposite polarity."""
        name = self.check_port(port)
        return self.PORT_ORDER[self.PORT_ORDER.index(name) ^ 1]

    def edge_for(self, host_id: int, port: PortLike) -> Optional[tuple[int, int]]:
        """Canonical directed edge id of the cable behind ``port``.

        Positive ports own the cable: the edge is ``(host, neighbor)``;
        negative ports alias the neighbor's positive edge
        ``(neighbor, host)``.  None at a chain/mesh boundary.
        """
        nb = self.neighbor(host_id, port)
        if nb is None:
            return None
        if self.port_polarity(port):
            return (host_id, nb)
        return (nb, host_id)

    # -- structure -----------------------------------------------------------
    def neighbor(self, host_id: int, direction: PortLike) -> Optional[int]:
        """The adjacent host behind ``direction``/port, or None at an edge."""
        raise NotImplementedError

    def cables(self) -> Iterator[tuple[int, str, int, str]]:
        """All cables as ``(owner, owner_port, peer, peer_port)`` tuples.

        ``owner_port`` is always positive; the matching negative port on
        ``peer`` is ``opposite_port(owner_port)``.  Yield order is the
        cluster build/cabling order and must stay stable.
        """
        raise NotImplementedError

    def links(self) -> Iterator[tuple[int, int]]:
        """All cables as (host_a, host_b): a's positive to b's negative."""
        for owner, _port, peer, _peer_port in self.cables():
            yield owner, peer

    # -- routing -------------------------------------------------------------
    def hops(self, src: int, dst: int, direction: Direction) -> Optional[int]:
        """Link traversals from src to dst travelling only ``direction``.

        Only meaningful on 1D topologies; grids raise TopologyError.
        """
        raise NotImplementedError

    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        """The canonical first hop for src -> dst: ``(port, next_host)``."""
        raise NotImplementedError

    def min_hops(self, src: int, dst: int) -> int:
        """Length of the canonical (minimal) path from src to dst."""
        raise NotImplementedError

    def path(self, src: int, dst: int) -> list[tuple[int, str, int]]:
        """The canonical hop-by-hop walk as ``(node, port, next)`` triples."""
        self.check_host(src)
        self.check_host(dst)
        walk: list[tuple[int, str, int]] = []
        node = src
        while node != dst:
            port, nxt = self.next_hop(node, dst)
            walk.append((node, port, nxt))
            node = nxt
            if len(walk) > self.n_hosts:  # pragma: no cover - safety net
                raise TopologyError(f"next_hop cycle routing {src}->{dst}")
        return walk

    def route(self, src: int, dst: int,
              policy: RoutingPolicy = RoutingPolicy.FIXED_RIGHT) -> Route:
        """Pick a direction/hop-count for src -> dst under ``policy``."""
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        right = self.hops(src, dst, Direction.RIGHT)
        left = self.hops(src, dst, Direction.LEFT)
        if policy is RoutingPolicy.FIXED_RIGHT:
            if right is None:
                if left is None:
                    raise NoRouteError(f"no route {src} -> {dst}")
                # Chain fallback: the paper's fixed-rightward rule cannot
                # cross the gap, so we route leftward — a real routing
                # decision that must show up in the metrics fabric.
                self.fallbacks += 1
                return Route(Direction.LEFT, left, fallback=True)
            return Route(Direction.RIGHT, right)
        # SHORTEST, ties broken rightward.
        candidates = [
            (hops, direction)
            for hops, direction in ((right, Direction.RIGHT), (left, Direction.LEFT))
            if hops is not None
        ]
        if not candidates:
            raise NoRouteError(f"no route {src} -> {dst}")
        candidates.sort(key=lambda item: (item[0], item[1] is Direction.LEFT))
        hops, direction = candidates[0]
        return Route(direction, hops)


class RingTopology(Topology):
    """N hosts in a cycle; every host has both neighbors."""

    def neighbor(self, host_id: int, direction: PortLike) -> int:
        self.check_host(host_id)
        if self.check_port(direction) == "right":
            return (host_id + 1) % self.n_hosts
        return (host_id - 1) % self.n_hosts

    def cables(self) -> Iterator[tuple[int, str, int, str]]:
        for host in range(self.n_hosts):
            yield host, "right", (host + 1) % self.n_hosts, "left"

    def hops(self, src: int, dst: int, direction: Direction) -> int:
        self.check_host(src)
        self.check_host(dst)
        if direction is Direction.RIGHT:
            return (dst - src) % self.n_hosts
        return (src - dst) % self.n_hosts

    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        route = self.route(src, dst, RoutingPolicy.SHORTEST)
        return route.port, self.neighbor(src, route.port)

    def min_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return min(self.hops(src, dst, Direction.RIGHT),
                   self.hops(src, dst, Direction.LEFT))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RingTopology n={self.n_hosts}>"


class ChainTopology(Topology):
    """N hosts in a line: host 0 has no left neighbor, host N-1 no right."""

    def neighbor(self, host_id: int, direction: PortLike) -> Optional[int]:
        self.check_host(host_id)
        if self.check_port(direction) == "right":
            return host_id + 1 if host_id + 1 < self.n_hosts else None
        return host_id - 1 if host_id > 0 else None

    def cables(self) -> Iterator[tuple[int, str, int, str]]:
        for host in range(self.n_hosts - 1):
            yield host, "right", host + 1, "left"

    def hops(self, src: int, dst: int,
             direction: Direction) -> Optional[int]:
        self.check_host(src)
        self.check_host(dst)
        if direction is Direction.RIGHT:
            return dst - src if dst > src else None
        return src - dst if dst < src else None

    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        port = "right" if dst > src else "left"
        return port, self.neighbor(src, port)

    def min_hops(self, src: int, dst: int) -> int:
        self.check_host(src)
        self.check_host(dst)
        return abs(dst - src)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChainTopology n={self.n_hosts}>"


class GridTopology(Topology):
    """A k-ary n-dimensional grid (1 <= n <= 3), open (mesh) or wrapped.

    Hosts are numbered row-major with x fastest: the host at coordinates
    ``(x, y, z)`` is ``x + dims[0]*y + dims[0]*dims[1]*z``.  Each seated
    axis contributes a port pair (``x-``/``x+``, …) and — on wrapped
    axes — a wraparound cable from the last coordinate back to the first,
    exactly the APEnet+ 3D-torus cabling plan.

    The canonical routing discipline is **dimension order** (X, then Y,
    then Z): :meth:`next_hop` resolves one hop at a time, correcting the
    lowest differing axis first; on wrapped axes it travels the shorter
    way around, breaking ties toward the positive port.
    """

    AXES = "xyz"

    def __init__(self, dims: Sequence[int], wrap: bool):
        dims = tuple(int(d) for d in dims)
        if not 1 <= len(dims) <= 3:
            raise TopologyError(
                f"grid needs 1..3 dimensions, got {len(dims)}"
            )
        floor = 3 if wrap else 2
        for axis, extent in zip(self.AXES, dims):
            if extent < floor:
                kind = "torus" if wrap else "mesh"
                raise TopologyError(
                    f"{kind} axis {axis!r} needs extent >= {floor}, "
                    f"got {extent}"
                )
        super().__init__(prod(dims))
        self.dims = dims
        self.wrap = wrap
        self.PORT_ORDER = tuple(
            f"{axis}{sign}"
            for axis in self.AXES[: len(dims)]
            for sign in ("-", "+")
        )
        # Row-major strides, x fastest.
        self._strides = tuple(
            prod(dims[:axis]) for axis in range(len(dims))
        )
        # dims and wrap never change, and neighbor() sits under every
        # route resolve and relay hop: one table lookup, not arithmetic.
        self._neighbors = tuple(
            {port: self._compute_neighbor(host, port)
             for port in self.PORT_ORDER}
            for host in range(self.n_hosts)
        )

    # -- coordinates ---------------------------------------------------------
    def coords(self, host_id: int) -> tuple[int, ...]:
        self.check_host(host_id)
        return tuple(
            (host_id // self._strides[axis]) % self.dims[axis]
            for axis in range(len(self.dims))
        )

    def host_at(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.dims):
            raise TopologyError(
                f"expected {len(self.dims)} coordinates, got {len(coords)}"
            )
        for axis, (c, extent) in enumerate(zip(coords, self.dims)):
            if not 0 <= c < extent:
                raise TopologyError(
                    f"coordinate {self.AXES[axis]}={c} outside "
                    f"0..{extent - 1}"
                )
        return sum(c * s for c, s in zip(coords, self._strides))

    def _port_axis_sign(self, port: PortLike) -> tuple[int, int]:
        name = self.check_port(port)
        index = self.PORT_ORDER.index(name)
        return index // 2, +1 if index % 2 else -1

    # -- structure -----------------------------------------------------------
    def neighbor(self, host_id: int, direction: PortLike) -> Optional[int]:
        self.check_host(host_id)
        row = self._neighbors[host_id]
        try:
            return row[direction]
        except KeyError:  # a Direction spelling, or not a port at all
            return row[self.check_port(direction)]

    def _compute_neighbor(self, host_id: int, port: str) -> Optional[int]:
        axis, sign = self._port_axis_sign(port)
        coords = list(self.coords(host_id))
        extent = self.dims[axis]
        nxt = coords[axis] + sign
        if self.wrap:
            coords[axis] = nxt % extent
        else:
            if not 0 <= nxt < extent:
                return None
            coords[axis] = nxt
        return self.host_at(coords)

    def cables(self) -> Iterator[tuple[int, str, int, str]]:
        for host in range(self.n_hosts):
            for axis in range(len(self.dims)):
                port = self.PORT_ORDER[axis * 2 + 1]  # positive
                peer = self.neighbor(host, port)
                if peer is None:
                    continue
                coords = self.coords(host)
                if not self.wrap and coords[axis] + 1 >= self.dims[axis]:
                    continue  # pragma: no cover - neighbor() already None
                yield host, port, peer, self.opposite_port(port)

    # -- routing -------------------------------------------------------------
    def hops(self, src: int, dst: int, direction: Direction) -> Optional[int]:
        raise TopologyError(
            "grid topologies route per-hop; use next_hop()/min_hops()"
        )

    def _axis_step(self, axis: int, frm: int, to: int) -> tuple[int, int]:
        """(signed step, remaining hops) to correct one axis coordinate."""
        extent = self.dims[axis]
        if self.wrap:
            fwd = (to - frm) % extent
            back = (frm - to) % extent
            if fwd <= back:  # ties toward the positive port
                return +1, fwd
            return -1, back
        return (+1 if to > frm else -1), abs(to - frm)

    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        sc = self.coords(src)
        dc = self.coords(dst)
        for axis, (s, d) in enumerate(zip(sc, dc)):
            if s == d:
                continue
            sign, _ = self._axis_step(axis, s, d)
            port = self.PORT_ORDER[axis * 2 + (1 if sign > 0 else 0)]
            return port, self.neighbor(src, port)
        raise TopologyError(  # pragma: no cover - src != dst implies a diff
            f"no differing axis routing {src} -> {dst}"
        )

    def min_hops(self, src: int, dst: int) -> int:
        self.check_host(src)
        self.check_host(dst)
        sc = self.coords(src)
        dc = self.coords(dst)
        return sum(
            self._axis_step(axis, s, d)[1]
            for axis, (s, d) in enumerate(zip(sc, dc))
        )

    def route(self, src: int, dst: int,
              policy: RoutingPolicy = RoutingPolicy.FIXED_RIGHT) -> Route:
        """Dimension-order route; ``policy`` is ignored on grids."""
        port, _ = self.next_hop(src, dst)
        return Route(port, self.min_hops(src, dst))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = "x".join(str(d) for d in self.dims)
        kind = "Torus" if self.wrap else "Mesh"
        return f"<{kind}Topology {shape} n={self.n_hosts}>"


class MeshTopology(GridTopology):
    """Open-boundary 2D/3D grid: edge hosts have fewer seated adapters."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, wrap=False)


class TorusTopology(GridTopology):
    """Wrapped grid: every axis closes into a ring (1D torus == ring)."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, wrap=True)
