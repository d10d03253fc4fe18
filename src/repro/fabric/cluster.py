"""Cluster builder: N hosts cabled into a switchless NTB fabric.

Reproduces the paper's prototype bring-up (§IV): each host gets PEX8749
NTB host adapters seated in Gen3 slots; adapters are cabled neighbor to
neighbor to close the ring.  ``Cluster.probe()`` runs every driver's
config-space enumeration, after which the OpenSHMEM runtime can take over.

Beyond the paper's ring, the builder seats one adapter per topology
*port*, so meshes and tori (``topology="mesh"`` / ``"torus"`` with
``dims``; a line of hosts is the 1-D mesh) cable up the same way: the topology's
:meth:`~.topology.Topology.cables` plan decides which adapters exist and
how they pair.  A 3D torus seats six adapters per host; the builder
widens the host's MSI vector space accordingly (16 doorbell vectors per
adapter).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Iterator, Optional

from ..host import CostModel, Host, HostConfig
from ..ntb import NtbDriver, NtbEndpoint, NtbPortConfig, connect_endpoints
from ..obsv.metrics import MetricsRegistry, wire_cluster_metrics
from ..obsv.waitgraph import WaitGraph
from ..pcie import DuplexLink, LinkConfig
from ..sim import Environment
from .topology import (
    MeshTopology,
    RingTopology,
    Topology,
    TopologyError,
    TorusTopology,
)

__all__ = ["ClusterConfig", "Cluster", "irq_base_for"]

#: Doorbell/MSI vectors reserved per seated adapter, in PORT_ORDER
#: (so a ring keeps left = 0, right = 16).
IRQ_VECTORS_PER_PORT = 16


def irq_base_for(topology: Topology, port: str) -> int:
    """MSI vector base of the adapter behind ``port`` on ``topology``."""
    return IRQ_VECTORS_PER_PORT * topology.PORT_ORDER.index(
        topology.check_port(port))


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up a cluster."""

    n_hosts: int = 3
    topology: str = "ring"  # "ring" | "mesh" | "torus"
    #: Grid extents for mesh/torus, x fastest (e.g. ``(4, 4)`` or
    #: ``(4, 4, 4)``).  Must multiply out to ``n_hosts``.
    dims: Optional[tuple[int, ...]] = None
    host: HostConfig = field(default_factory=HostConfig)
    cost_model: CostModel = field(default_factory=CostModel)
    link: LinkConfig = field(default_factory=LinkConfig)
    ntb: NtbPortConfig = field(default_factory=NtbPortConfig)

    def __post_init__(self) -> None:
        if self.topology not in ("ring", "mesh", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n_hosts < 2:
            raise ValueError(f"need at least 2 hosts, got {self.n_hosts}")
        if self.topology in ("mesh", "torus"):
            if self.dims is None:
                raise ValueError(
                    f"{self.topology!r} needs dims, e.g. dims=(4, 4)")
            object.__setattr__(self, "dims", tuple(self.dims))
            n = 1
            for d in self.dims:
                n *= d
            if n != self.n_hosts:
                raise ValueError(
                    f"dims {self.dims} multiply to {n}, "
                    f"but n_hosts={self.n_hosts}")
        elif self.dims is not None:
            raise ValueError(
                f"dims only apply to mesh/torus, not {self.topology!r}")
        # A 3D grid seats up to six adapters per host; make sure the
        # host's MSI controller has a vector range for each of them.
        required = IRQ_VECTORS_PER_PORT * len(
            self.make_topology().PORT_ORDER)
        if self.host.num_irq_vectors < required:
            object.__setattr__(
                self, "host",
                replace(self.host, num_irq_vectors=required))

    def make_topology(self) -> Topology:
        if self.topology == "ring":
            return RingTopology(self.n_hosts)
        if self.topology == "mesh":
            return MeshTopology(self.dims)
        return TorusTopology(self.dims)


class Cluster:
    """The standing hardware: hosts, adapters, cables, topology.

    Construction is purely structural (zero virtual time); run
    :meth:`probe` inside the simulation to pay enumeration costs before
    using the data path.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 env: Optional[Environment] = None):
        self.config = config or ClusterConfig()
        self.env = env or Environment()
        self.topology = self.config.make_topology()

        self.hosts: list[Host] = [
            Host(self.env, host_id, config=self.config.host,
                 cost_model=self.config.cost_model)
            for host_id in range(self.config.n_hosts)
        ]
        self.cables: dict[tuple[int, int], DuplexLink] = {}
        self._drivers: dict[tuple[int, str], NtbDriver] = {}
        #: always-on metrics fabric (docs/METRICS.md); the time-series
        #: ticker stays off unless the runtime opts in.
        self.metrics = MetricsRegistry(self.env)
        #: always-on wait-for graph: what every PE is blocked on, and
        #: the deadlock check (docs/CHECKING.md).
        self.wait_graph = WaitGraph(self.env)
        self._build()
        wire_cluster_metrics(self)

    def _build(self) -> None:
        """Seat adapters and run the cabling plan from the topology."""
        topo = self.topology
        for owner, owner_port, peer, peer_port in topo.cables():
            # owner's positive adapter <-> peer's matching negative one
            # (on rings: host_a's RIGHT adapter <-> host_b's LEFT).
            ep_owner = NtbEndpoint(
                self.env, f"host{owner}.ntb.{owner_port}",
                config=self.config.ntb)
            ep_peer = NtbEndpoint(
                self.env, f"host{peer}.ntb.{peer_port}",
                config=self.config.ntb)
            drv_owner = NtbDriver(self.hosts[owner], ep_owner, owner_port,
                                  irq_base=irq_base_for(topo, owner_port))
            drv_peer = NtbDriver(self.hosts[peer], ep_peer, peer_port,
                                 irq_base=irq_base_for(topo, peer_port))
            cable = connect_endpoints(ep_owner, ep_peer,
                                      link_config=self.config.link)
            self.cables[(owner, peer)] = cable
            self._drivers[(owner, owner_port)] = drv_owner
            self._drivers[(peer, peer_port)] = drv_peer
            drv_owner.enable_interrupts()
            drv_peer.enable_interrupts()

    # -- access ---------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return self.config.n_hosts

    def host(self, host_id: int) -> Host:
        self.topology.check_host(host_id)
        return self.hosts[host_id]

    def driver(self, host_id: int, port: str) -> NtbDriver:
        """The NTB driver on ``host_id`` behind ``port``."""
        try:
            return self._drivers[(host_id, port)]
        except KeyError:
            raise TopologyError(
                f"host {host_id} has no {port!r} adapter "
                f"(mesh boundary or bad id)"
            ) from None

    def has_adapter(self, host_id: int, port: str) -> bool:
        return (host_id, port) in self._drivers

    def drivers(self) -> Iterator[NtbDriver]:
        return iter(self._drivers.values())

    def cable_between(self, host_a: int, host_b: int) -> DuplexLink:
        key = (host_a, host_b)
        if key in self.cables:
            return self.cables[key]
        key = (host_b, host_a)
        if key in self.cables:
            return self.cables[key]
        raise TopologyError(f"no cable between hosts {host_a} and {host_b}")

    # -- bring-up ---------------------------------------------------------------
    def probe(self) -> Generator:
        """Enumerate every adapter (process generator)."""
        for driver in self._drivers.values():
            yield from driver.probe()

    def run_probe(self) -> None:
        """Convenience: run :meth:`probe` to completion on the event loop."""
        done = self.env.process(self.probe(), name="cluster.probe")
        self.env.run(until=done)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.config.topology} n={self.n_hosts} "
            f"cables={len(self.cables)}>"
        )
