"""The switchless fabric description: one topology class, three cablings.

The paper wires hosts into a **ring**: each host carries two NTB adapters;
host *i*'s right adapter is cabled to host *i+1*'s left adapter (mod N).
Forwarding for non-neighbors is store-and-forward through intermediate
hosts (§III-A).  Beyond the paper, hosts may seat one adapter per grid
*port* (``x-``/``x+``/``y-``/``y+``/``z-``/``z+``) in the style of the
APEnet+ switchless direct networks (PAPERS.md), which treat
lower-dimensional layouts as degenerate tori of one router datapath.

So there is **one** class, :class:`Topology` ``(dims, wrap)`` — a k-ary
n-dimensional grid, open or wrapped — and three named constructors that
add nothing but an extent check and (on the ring) the historical port
names:

=======================  ====  ====================
constructor              wrap  ports
=======================  ====  ====================
``RingTopology(n)``      yes   ``left``/``right``
``MeshTopology(dims)``   no    ``x-``/``x+``/...
``TorusTopology(dims)``  yes   ``x-``/``x+``/...
=======================  ====  ====================

``RingTopology(4)`` and ``TorusTopology((4,))`` are the same cabling
under different port names; a line of hosts (a ring minus one cable) is
the 1-D mesh ``MeshTopology((n,))``.  Nothing outside this module asks
which constructor built a topology.  The default router follows from
the shape (``make_router``): FIXED_RIGHT on one wrapped axis (the
paper's rule), dimension-order everywhere else.  The barrier follows the
resolved router (``TokenBarrier``): the Fig. 6 START/END sweep under
FIXED_RIGHT on a wrapped axis, token rounds between neighbours, axis by
axis, under SHORTEST and dimension-order.  So a ring and a 1-D torus
behave the same under every routing policy, the default included.  The
link-state flood is one unicast for every fabric, and a cut token
episode recovers through the dissemination barrier it inherits.

Port conventions
----------------
A port is a plain ``str``.  ``PORT_ORDER`` lists a topology's port names
as (negative, positive) pairs per axis — ``("left", "right")`` for
rings, ``("x-", "x+", "y-", "y+", ...)`` for grids.  The
*positive* port of a cable owns the canonical edge id: the directed edge
``(a, b)`` names the cable from ``a``'s positive port into ``b``'s
matching negative port, which is exactly the ``(host, right-neighbor)``
convention the fault layer and dead-edge bookkeeping use on rings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import prod
from typing import Iterator, Optional, Sequence

__all__ = ["Direction", "RoutingPolicy", "Route", "TopologyError",
           "NoRouteError", "Topology", "RingTopology", "MeshTopology",
           "TorusTopology"]


class TopologyError(Exception):
    """Invalid host ids or unroutable destination."""


class NoRouteError(TopologyError):
    """No live path exists between two hosts (given the dead-edge set)."""


class Direction:
    """The two ring port names, as plain strings."""

    RIGHT = "right"  # toward increasing host id
    LEFT = "left"    # toward decreasing host id


class RoutingPolicy(enum.Enum):
    """Which router resolves routes (see :func:`.router.make_router`)."""

    FIXED_RIGHT = "fixed_right"  # the paper's behaviour (one axis only)
    SHORTEST = "shortest"        # min-hop direction, ties right (one axis)
    DIMENSION_ORDER = "dimension_order"  # X, then Y, then Z per hop
    ADAPTIVE = "adaptive"        # least-loaded live minimal port

    @classmethod
    def _missing_(cls, value: object) -> None:
        raise ValueError(
            f"unknown router {value!r} "
            f"(expected one of {[policy.value for policy in cls]})")


@dataclass(frozen=True)
class Route:
    """A resolved route: the whole walk as the outbound port of each hop.

    ``fallback`` marks a policy route that had to abandon the requested
    direction (FIXED_RIGHT on an open axis); ``rerouted`` marks a route
    that detoured around dead edges.  ``carried`` is the path the
    message's header carries for relays (:meth:`Topology.carried`).
    """

    ports: tuple[str, ...]
    fallback: bool = field(default=False, compare=False)
    rerouted: bool = field(default=False, compare=False)
    carried: tuple[int, ...] = field(default=(), compare=False)

    @property
    def port(self) -> str:
        """The outbound port name of the first hop."""
        return self.ports[0]

    direction = port

    @property
    def hops(self) -> int:
        """Link traversals end to end."""
        return len(self.ports)


class Topology:
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

    def __init__(self, dims: Sequence[int], wrap: bool,
                 ports: Optional[tuple[str, ...]] = None):
        dims = tuple(int(d) for d in dims)
        if not 1 <= len(dims) <= 3:
            raise TopologyError(
                f"grid needs 1..3 dimensions, got {len(dims)}"
            )
        for axis, extent in zip(self.AXES, dims):
            if extent < 2:
                raise TopologyError(
                    f"axis {axis!r} needs extent >= 2, got {extent}"
                )
        self.dims = dims
        self.wrap = wrap
        self.n_hosts = prod(dims)
        #: Port names as (negative, positive) pairs per axis.
        self.PORT_ORDER: tuple[str, ...] = ports or tuple(
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
        # Likewise the canonical walk of a (src, dst) pair, asked again
        # at every relay hop; filled on first use, so set-up pays nothing.
        self._walks: dict[tuple[int, int], tuple[str, ...]] = {}

    def check_host(self, host_id: int) -> None:
        if not (0 <= host_id < self.n_hosts):
            raise TopologyError(
                f"host id {host_id} outside 0..{self.n_hosts - 1}"
            )

    # -- ports ---------------------------------------------------------------
    def check_port(self, port: str) -> str:
        if port not in self.PORT_ORDER:
            raise TopologyError(
                f"unknown port {port!r} (expected one of {self.PORT_ORDER})"
            )
        return port

    def ports(self, host_id: int) -> tuple[str, ...]:
        """The ports on ``host_id`` that have a cabled neighbor."""
        self.check_host(host_id)
        return tuple(
            port for port, peer in self._neighbors[host_id].items()
            if peer is not None
        )

    def port_polarity(self, port: str) -> bool:
        """True for the positive member of a port pair (owns the cable)."""
        return self.PORT_ORDER.index(self.check_port(port)) % 2 == 1

    def opposite_port(self, port: str) -> str:
        """The same-axis port of opposite polarity."""
        return self.PORT_ORDER[self.PORT_ORDER.index(self.check_port(port)) ^ 1]

    def edge_for(self, host_id: int, port: str) -> Optional[tuple[int, int]]:
        """Canonical directed edge id of the cable behind ``port``.

        Positive ports own the cable: the edge is ``(host, neighbor)``;
        negative ports alias the neighbor's positive edge
        ``(neighbor, host)``.  None at a mesh boundary.
        """
        nb = self.neighbor(host_id, port)
        if nb is None:
            return None
        if self.port_polarity(port):
            return (host_id, nb)
        return (nb, host_id)

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

    # -- structure -----------------------------------------------------------
    def neighbor(self, host_id: int, port: str) -> Optional[int]:
        """The adjacent host behind ``port``, or None at a boundary."""
        self.check_host(host_id)
        try:
            return self._neighbors[host_id][port]
        except KeyError:
            self.check_port(port)  # raises TopologyError: not a port name
            raise

    def _compute_neighbor(self, host_id: int, port: str) -> Optional[int]:
        index = self.PORT_ORDER.index(port)
        axis, sign = index // 2, +1 if index % 2 else -1
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
        """All cables as ``(owner, owner_port, peer, peer_port)`` tuples.

        ``owner_port`` is always positive; the matching negative port on
        ``peer`` is ``opposite_port(owner_port)``.  Yield order is the
        cluster build/cabling order and must stay stable.
        """
        axes = list(zip(self.PORT_ORDER[::2], self.PORT_ORDER[1::2]))
        for host in range(self.n_hosts):
            for negative, positive in axes:
                peer = self._neighbors[host][positive]
                if peer is not None:
                    yield host, positive, peer, negative

    def links(self) -> Iterator[tuple[int, int]]:
        """All cables as (host_a, host_b): a's positive to b's negative."""
        for owner, _port, peer, _peer_port in self.cables():
            yield owner, peer

    # -- routing -------------------------------------------------------------
    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        """The canonical first hop for src -> dst: ``(port, next_host)``,
        on the lowest differing axis, the shorter way around a wrapped
        one (ties toward the positive port)."""
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        sc, dc = self.coords(src), self.coords(dst)
        axis = next(axis for axis in range(len(sc)) if sc[axis] != dc[axis])
        s, d, extent = sc[axis], dc[axis], self.dims[axis]
        positive = (d - s) % extent <= (s - d) % extent if self.wrap else d > s
        port = self.PORT_ORDER[2 * axis + positive]
        return port, self.neighbor(src, port)

    def min_hops(self, src: int, dst: int) -> int:
        """Length of the canonical (minimal) path from src to dst."""
        return len(self.walk(src, dst))

    def walk(self, src: int, dst: int) -> tuple[str, ...]:
        """The canonical path's outbound ports, hop by hop."""
        ports = self._walks.get((src, dst))
        if ports is None:
            self.check_host(src)
            self.check_host(dst)
            hops, node = [], src
            while node != dst:
                port, node = self.next_hop(node, dst)
                hops.append(port)
            ports = self._walks[src, dst] = tuple(hops)
        return ports

    def relay_port(self, node: int, dst: int, in_port: str) -> str:
        """The default walk: where a relay at ``node`` sends a message
        for ``dst`` whose header carries no path.  Straight on one axis
        (a simple path there never turns), the canonical hop on grids."""
        if len(self.dims) == 1:
            return self.opposite_port(in_port)
        return self.walk(node, dst)[0]

    def carried(self, src: int, dst: int,
                ports: Sequence[str]) -> tuple[int, ...]:
        """The header path of a message that leaves ``src`` for ``dst``
        on ``ports``: nothing when it is the relays' default walk
        (:meth:`relay_port`), else the later ports' ``PORT_ORDER`` index."""
        rest = tuple(ports[1:])
        default = ((ports[0],) * len(rest) if len(self.dims) == 1 else
                   rest and self.walk(self.neighbor(src, ports[0]), dst))
        return () if rest == default else tuple(map(self.PORT_ORDER.index,
                                                    rest))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = "x".join(str(d) for d in self.dims)
        return f"<{type(self).__name__} {shape} n={self.n_hosts}>"


class RingTopology(Topology):
    """N hosts in a cycle — the paper's fabric; a 1-D torus cabling."""

    def __init__(self, n_hosts: int):
        super().__init__((n_hosts,), True, ("left", "right"))


class MeshTopology(Topology):
    """Open-boundary grid: edge hosts have fewer seated adapters."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, False)


class TorusTopology(Topology):
    """Wrapped grid: every axis closes into a ring of extent >= 3 (a
    2-extent wrapped axis would cable the same pair twice per axis)."""

    def __init__(self, dims: Sequence[int]):
        if any(int(extent) < 3 for extent in dims):
            raise TopologyError(
                f"torus axes need extent >= 3, got {tuple(dims)}")
        super().__init__(dims, True)
