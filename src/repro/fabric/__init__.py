"""Switchless fabric: topology math, routers and the cluster builder."""

from .cluster import Cluster, ClusterConfig
from .heartbeat import HeartbeatConfig, HeartbeatMonitor, LinkState
from .router import (
    AdaptiveRouter,
    Router,
    make_router,
)
from .topology import (
    Direction,
    MeshTopology,
    NoRouteError,
    RingTopology,
    Route,
    RoutingPolicy,
    Topology,
    TopologyError,
    TorusTopology,
)

__all__ = [
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "LinkState",
    "Cluster",
    "ClusterConfig",
    "Direction",
    "MeshTopology",
    "NoRouteError",
    "RingTopology",
    "Route",
    "RoutingPolicy",
    "Topology",
    "TopologyError",
    "TorusTopology",
    "AdaptiveRouter",
    "Router",
    "make_router",
]
