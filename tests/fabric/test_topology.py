"""Unit tests for topology math and routing policies.

The direction decision lives in :class:`Router`; "hops travelling
only leftward" is what FIXED_RIGHT resolves once the rightward cable at
the source is dead.
"""

from __future__ import annotations

import pytest

from repro.fabric import (
    Direction,
    MeshTopology,
    NoRouteError,
    RingTopology,
    Route,
    Router,
    RoutingPolicy,
    TopologyError,
)


def _route(topo, src, dst, policy=RoutingPolicy.FIXED_RIGHT, dead=()):
    return Router(topo, policy).resolve(src, dst, frozenset(dead))


class TestRing:
    def test_neighbors_wrap(self):
        ring = RingTopology(3)
        assert ring.neighbor(2, Direction.RIGHT) == 0
        assert ring.neighbor(0, Direction.LEFT) == 2

    def test_hops_each_direction(self):
        ring = RingTopology(5)
        assert _route(ring, 0, 2).hops == 2
        leftward = _route(ring, 0, 2, dead={(0, 1)})
        assert leftward.direction == Direction.LEFT
        assert leftward.hops == 3
        assert _route(ring, 4, 0).hops == 1

    def test_links_count(self):
        assert len(list(RingTopology(4).links())) == 4

    def test_fixed_right_always_right(self):
        ring = RingTopology(5)
        route = _route(ring, 0, 4, RoutingPolicy.FIXED_RIGHT)
        assert route.direction == Direction.RIGHT
        assert route.hops == 4

    def test_shortest_picks_min(self):
        ring = RingTopology(5)
        route = _route(ring, 0, 4, RoutingPolicy.SHORTEST)
        assert route.direction == Direction.LEFT
        assert route.hops == 1

    def test_shortest_tie_breaks_right(self):
        ring = RingTopology(4)
        route = _route(ring, 0, 2, RoutingPolicy.SHORTEST)
        assert route.direction == Direction.RIGHT
        assert route.hops == 2

    def test_route_to_self_rejected(self):
        with pytest.raises(TopologyError):
            _route(RingTopology(3), 1, 1)

    def test_bad_host_id(self):
        with pytest.raises(TopologyError):
            _route(RingTopology(3), 0, 3)
        with pytest.raises(TopologyError):
            RingTopology(3).neighbor(-1, Direction.RIGHT)

    def test_min_size(self):
        with pytest.raises(TopologyError):
            RingTopology(1)

    def test_two_host_ring(self):
        ring = RingTopology(2)
        assert _route(ring, 0, 1) == Route((Direction.RIGHT,))
        assert _route(ring, 0, 1, dead={(0, 1)}) == Route((Direction.LEFT,))
        route = _route(ring, 0, 1, RoutingPolicy.SHORTEST)
        assert route.hops == 1


class TestChain:
    """A line of hosts — a ring minus one cable — is the 1-D mesh."""

    def test_ends_have_no_neighbor(self):
        chain = MeshTopology((3,))
        assert chain.neighbor(0, "x-") is None
        assert chain.neighbor(2, "x+") is None
        assert chain.neighbor(1, "x+") == 2

    def test_hops_directional(self):
        chain = MeshTopology((4,))
        assert _route(chain, 0, 3).hops == 3
        with pytest.raises(NoRouteError):  # no leftward way from the end
            _route(chain, 0, 3, dead={(0, 1)})
        leftward = _route(chain, 3, 1)
        assert leftward.direction == "x-"
        assert leftward.hops == 2

    def test_links_count(self):
        assert len(list(MeshTopology((4,)).links())) == 3

    def test_fixed_right_falls_back_left(self):
        chain = MeshTopology((4,))
        route = _route(chain, 3, 0, RoutingPolicy.FIXED_RIGHT)
        assert route.direction == "x-" and route.fallback
        assert route.hops == 3

    def test_shortest_on_chain(self):
        chain = MeshTopology((4,))
        route = _route(chain, 1, 3, RoutingPolicy.SHORTEST)
        assert route.direction == "x+"
        assert route.hops == 2
