"""Unit tests for the cluster builder."""

from __future__ import annotations

import pytest

from repro.fabric import Cluster, ClusterConfig, Direction, TopologyError


class TestRingCluster:
    def test_three_host_ring_shape(self, ring3):
        assert ring3.n_hosts == 3
        assert len(ring3.cables) == 3
        for host_id in range(3):
            assert ring3.has_adapter(host_id, "left")
            assert ring3.has_adapter(host_id, "right")

    def test_adapters_cabled_correctly(self, ring3):
        """host i's right endpoint peers host i+1's left endpoint."""
        for host_id in range(3):
            right_driver = ring3.driver(host_id, Direction.RIGHT)
            left_driver = ring3.driver((host_id + 1) % 3, Direction.LEFT)
            assert right_driver.endpoint.peer is left_driver.endpoint

    def test_probe_marks_all_drivers(self, ring3):
        assert all(d.is_probed for d in ring3.drivers())

    def test_cable_lookup_symmetric(self, ring3):
        assert ring3.cable_between(0, 1) is ring3.cable_between(1, 0)
        # 2-0 is the wrap-around cable.
        ring3.cable_between(2, 0)

    def test_missing_cable(self, ring3):
        cluster = Cluster(ClusterConfig(n_hosts=4))
        with pytest.raises(TopologyError):
            cluster.cable_between(0, 2)

    def test_requester_ids_unique(self, ring3):
        ids = [d.requester_id for d in ring3.drivers()]
        assert len(set(ids)) == len(ids)

    def test_two_host_ring_has_two_cables(self):
        cluster = Cluster(ClusterConfig(n_hosts=2))
        assert len(cluster.cables) == 2
        assert cluster.has_adapter(0, "left")
        assert cluster.has_adapter(0, "right")


class TestChainCluster:
    """A line of hosts is ``topology="mesh"`` with one axis."""

    def test_chain_ends_lack_adapters(self):
        cluster = Cluster(ClusterConfig(n_hosts=3, topology="mesh",
                                        dims=(3,)))
        assert not cluster.has_adapter(0, "x-")
        assert not cluster.has_adapter(2, "x+")
        assert cluster.has_adapter(1, "x-")
        assert cluster.has_adapter(1, "x+")
        with pytest.raises(TopologyError):
            cluster.driver(0, "x-")

    def test_chain_cable_count(self):
        cluster = Cluster(ClusterConfig(n_hosts=5, topology="mesh",
                                        dims=(5,)))
        assert len(cluster.cables) == 4


class TestConfigValidation:
    def test_bad_topology(self):
        with pytest.raises(ValueError):
            ClusterConfig(topology="torus")
        with pytest.raises(ValueError):
            ClusterConfig(topology="chain")

    def test_min_hosts(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_hosts=1)

    def test_scaling_to_eight(self):
        cluster = Cluster(ClusterConfig(n_hosts=8))
        cluster.run_probe()
        assert len(cluster.cables) == 8
        assert len(list(cluster.drivers())) == 16
