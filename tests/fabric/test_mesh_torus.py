"""Unit tests for 2D mesh / 3D torus topology math (PR 9)."""

from __future__ import annotations

import pytest

from repro.fabric import (
    Cluster,
    ClusterConfig,
    MeshTopology,
    RingTopology,
    Topology,
    TopologyError,
    TorusTopology,
)


class TestGridCoordinates:
    def test_row_major_x_fastest(self):
        topo = MeshTopology((4, 3))
        assert topo.coords(0) == (0, 0)
        assert topo.coords(1) == (1, 0)
        assert topo.coords(4) == (0, 1)
        assert topo.coords(11) == (3, 2)
        for host in range(12):
            assert topo.host_at(topo.coords(host)) == host

    def test_3d_strides(self):
        topo = TorusTopology((3, 3, 3))
        assert topo.coords(0) == (0, 0, 0)
        assert topo.coords(3) == (0, 1, 0)
        assert topo.coords(9) == (0, 0, 1)
        assert topo.coords(26) == (2, 2, 2)

    def test_port_order_pairs_per_axis(self):
        assert MeshTopology((3, 3)).PORT_ORDER == ("x-", "x+", "y-", "y+")
        assert TorusTopology((3, 3, 3)).PORT_ORDER == (
            "x-", "x+", "y-", "y+", "z-", "z+")


class TestMeshNeighbors:
    def test_interior_host_has_all_neighbors(self):
        topo = MeshTopology((3, 3))
        center = topo.host_at((1, 1))
        assert topo.neighbor(center, "x-") == topo.host_at((0, 1))
        assert topo.neighbor(center, "x+") == topo.host_at((2, 1))
        assert topo.neighbor(center, "y-") == topo.host_at((1, 0))
        assert topo.neighbor(center, "y+") == topo.host_at((1, 2))

    def test_boundary_has_none(self):
        topo = MeshTopology((3, 3))
        assert topo.neighbor(0, "x-") is None
        assert topo.neighbor(0, "y-") is None
        assert topo.neighbor(8, "x+") is None
        assert topo.neighbor(8, "y+") is None

    def test_cable_count(self):
        # 2D mesh: dy*(dx-1) + dx*(dy-1) cables.
        assert len(list(MeshTopology((4, 4)).cables())) == 24
        assert len(list(MeshTopology((2, 2)).cables())) == 4

    def test_ports_skip_missing_boundary_adapters(self):
        topo = MeshTopology((3, 3))
        assert topo.ports(0) == ("x+", "y+")
        assert topo.ports(topo.host_at((1, 1))) == ("x-", "x+", "y-", "y+")


class TestTorusNeighbors:
    def test_wraparound(self):
        topo = TorusTopology((4, 4))
        assert topo.neighbor(0, "x-") == topo.host_at((3, 0))
        assert topo.neighbor(0, "y-") == topo.host_at((0, 3))
        assert topo.neighbor(topo.host_at((3, 0)), "x+") == 0

    def test_cable_count(self):
        # Torus: every host owns one positive cable per axis.
        assert len(list(TorusTopology((4, 4)).cables())) == 32
        assert len(list(TorusTopology((4, 4, 4)).cables())) == 192

    def test_extent_below_three_rejected(self):
        # A 2-extent wrapped axis would cable the same pair twice.
        with pytest.raises(TopologyError):
            TorusTopology((2, 2))


class TestDimensionOrderRouting:
    def test_x_before_y(self):
        topo = MeshTopology((4, 4))
        src = topo.host_at((0, 0))
        dst = topo.host_at((2, 3))
        port, nxt = topo.next_hop(src, dst)
        assert port == "x+"
        assert topo.coords(nxt) == (1, 0)

    def test_y_after_x_resolved(self):
        topo = MeshTopology((4, 4))
        src = topo.host_at((2, 0))
        dst = topo.host_at((2, 3))
        port, _ = topo.next_hop(src, dst)
        assert port == "y+"

    def test_min_hops_manhattan(self):
        topo = MeshTopology((4, 4))
        assert topo.min_hops(topo.host_at((0, 0)),
                             topo.host_at((3, 3))) == 6

    def test_torus_wraps_shorter_way(self):
        topo = TorusTopology((4, 4))
        src = topo.host_at((0, 0))
        dst = topo.host_at((3, 0))
        port, _ = topo.next_hop(src, dst)
        assert port == "x-"  # 1 hop around the wrap, not 3 across
        assert topo.min_hops(src, dst) == 1

    def test_torus_tie_goes_positive(self):
        # Extent 4, distance 2 both ways: ties break toward the
        # positive port, mirroring the ring's "ties right" pin.
        topo = TorusTopology((4, 4))
        port, _ = topo.next_hop(topo.host_at((0, 0)),
                                topo.host_at((2, 0)))
        assert port == "x+"

    def test_walk_reaches_destination(self):
        # (0,0,0) -> (2,2,2) wraps once on every axis, X then Y then Z.
        topo = TorusTopology((3, 3, 3))
        node = 0
        for port in topo.walk(0, 26):
            node = topo.neighbor(node, port)
        assert node == 26
        assert topo.walk(0, 26) == ("x-", "y-", "z-")
        assert topo.min_hops(0, 26) == 3


class TestGridEdges:
    def test_positive_port_owns_canonical_edge(self):
        topo = MeshTopology((3, 3))
        assert topo.edge_for(0, "x+") == (0, 1)
        assert topo.edge_for(1, "x-") == (0, 1)
        assert topo.port_polarity("x+") is True
        assert topo.port_polarity("x-") is False
        assert topo.opposite_port("x+") == "x-"

    def test_dims_validation(self):
        with pytest.raises(TopologyError):
            MeshTopology((0, 4))
        with pytest.raises(TopologyError):
            MeshTopology((4, 4, 4, 4))  # >3 axes unsupported
        # 1D degenerate grids are allowed: mesh(n) ~ chain, torus(n) ~ ring.
        assert MeshTopology((4,)).PORT_ORDER == ("x-", "x+")


class TestGridCluster:
    def test_mesh_cluster_shape(self):
        cluster = Cluster(ClusterConfig(n_hosts=4, topology="mesh",
                                        dims=(2, 2)))
        assert len(cluster.cables) == 4
        assert cluster.has_adapter(0, "x+")
        assert not cluster.has_adapter(0, "x-")

    def test_torus_widens_irq_vectors(self):
        cluster = Cluster(ClusterConfig(n_hosts=27, topology="torus",
                                        dims=(3, 3, 3)))
        # six adapters x 16 doorbell vectors each
        assert cluster.config.host.num_irq_vectors >= 96
        assert len(cluster.cables) == 81
        cluster.run_probe()

    def test_dims_must_multiply_out(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_hosts=9, topology="mesh", dims=(2, 2))
        with pytest.raises(ValueError):
            ClusterConfig(n_hosts=4, topology="ring", dims=(2, 2))

    def test_ring_is_unchanged_by_generalization(self):
        # The ring keeps its historical ports, names and cable plan.
        topo = RingTopology(4)
        assert topo.PORT_ORDER == ("left", "right")
        assert list(topo.cables()) == [
            (0, "right", 1, "left"), (1, "right", 2, "left"),
            (2, "right", 3, "left"), (3, "right", 0, "left"),
        ]
        assert isinstance(topo, Topology)
