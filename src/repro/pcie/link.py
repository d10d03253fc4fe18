"""PCIe link timing model: generations, lanes, encoding, serialization.

A :class:`Link` is one *direction* of a point-to-point PCIe connection.  It
is modelled as a shared serial resource: concurrent transfers queue and each
holds the link for its serialization time.  This is what produces the Fig. 8
"ring simultaneous slightly below independent" effect once two adapters on
one host contend for the root complex (see :mod:`repro.host.node`).

Rates (per PCIe spec, §II-A of the paper):

========  ========  ==========  ==================
 Gen       GT/s      encoding    per-lane payload
========  ========  ==========  ==================
 1         2.5       8b/10b      250 MB/s
 2         5.0       8b/10b      500 MB/s
 3         8.0       128b/130b   ~984.6 MB/s
========  ========  ==========  ==================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..obsv.spans import NULL_SCOPE
from ..sim import Environment, Event, Request, Resource
from .tlp import TlpOverhead

__all__ = ["LinkConfig", "Link", "DuplexLink"]

_GEN_RATES_GTPS = {1: 2.5, 2: 5.0, 3: 8.0}
_GEN_ENCODING = {1: 8.0 / 10.0, 2: 8.0 / 10.0, 3: 128.0 / 130.0}
_VALID_LANES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class LinkConfig:
    """Static electrical/protocol parameters of one PCIe link.

    Attributes
    ----------
    generation:
        PCIe generation (1–3; the paper's adapters are Gen3).
    lanes:
        Lane count (x1..x16; the paper's fabric cable carries x8).
    max_payload:
        Max TLP payload (bytes); PEX87xx parts default to 256.
    propagation_delay_us:
        Cable flight time plus bridge forwarding latency per TLP batch.
    """

    generation: int = 3
    lanes: int = 8
    max_payload: int = 256
    propagation_delay_us: float = 0.5
    overhead: TlpOverhead = TlpOverhead()

    def __post_init__(self) -> None:
        if self.generation not in _GEN_RATES_GTPS:
            raise ValueError(f"unsupported PCIe generation {self.generation}")
        if self.lanes not in _VALID_LANES:
            raise ValueError(f"invalid lane count {self.lanes}")
        if self.max_payload < 64 or self.max_payload & (self.max_payload - 1):
            raise ValueError(
                f"max_payload must be a power of two >= 64, got {self.max_payload}"
            )
        if self.propagation_delay_us < 0:
            raise ValueError("negative propagation delay")
        # Precomputed hot-path constants (frozen dataclass, hence the
        # object.__setattr__).  serialization_time_us is called once per
        # TLP batch on every transfer, so the per-call property lookups
        # and TlpOverhead.total recomputation are hoisted here.  The
        # arithmetic below matches tlp_wire_bytes()/raw_rate_mbps exactly
        # (integer wire bytes divided by the same rate float), keeping
        # every golden virtual-time figure bit-identical.
        gtps = _GEN_RATES_GTPS[self.generation]
        raw = gtps * 1000.0 / 8.0 * _GEN_ENCODING[self.generation] * self.lanes
        object.__setattr__(self, "_raw_rate", raw)
        object.__setattr__(self, "_ovh_total", self.overhead.total)
        #: small memo for repeated payload sizes (DMA chunk pumps reuse a
        #: handful of sizes thousands of times).
        object.__setattr__(self, "_ser_cache", {})

    @property
    def raw_rate_mbps(self) -> float:
        """Raw post-encoding link rate in MB/s (== bytes/µs)."""
        return self._raw_rate

    @property
    def effective_rate_mbps(self) -> float:
        """Payload rate accounting for TLP overhead at max_payload."""
        eff = self.max_payload / (self.max_payload + self._ovh_total)
        return self._raw_rate * eff

    def serialization_time_us(self, nbytes: int) -> float:
        """Time to serialize an ``nbytes`` payload (incl. TLP overhead)."""
        cache = self._ser_cache
        ser = cache.get(nbytes)
        if ser is None:
            if nbytes == 0:
                wire = 0
            else:
                mps = self.max_payload
                wire = nbytes + ((nbytes + mps - 1) // mps) * self._ovh_total
            ser = wire / self._raw_rate
            if len(cache) < 4096:
                cache[nbytes] = ser
        return ser

    def describe(self) -> str:
        return (
            f"PCIe Gen{self.generation} x{self.lanes} "
            f"({self.raw_rate_mbps:.0f} MB/s raw, "
            f"{self.effective_rate_mbps:.0f} MB/s effective, MPS "
            f"{self.max_payload}B)"
        )


class Link:
    """One direction of a PCIe connection as a serializing sim resource.

    A payload crosses under the wire's rules, in this order: the
    :class:`~repro.faults.DelayTlp` hook (``fault_extra_delay_us``),
    drop-when-down, then the wire itself — FIFO, a ``link_transit`` span
    over exactly the serialization, byte/busy accounting and release.
    :meth:`transfer` walks them as a process generator and then waits
    the propagation delay (a posted doorbell write); :meth:`stage` walks
    them as event callbacks, for the DMA engine's wire stage, whose
    stream pays propagation once, not per chunk.  Both occupy and vacate
    the wire through the same methods.
    """

    def __init__(self, env: Environment, config: LinkConfig,
                 name: str = "link"):
        self.env = env
        self.config = config
        self.name = name
        self._wire = Resource(env, capacity=1, name=f"{name}.wire")
        #: observability sink; replaced by instrument_cluster when tracing.
        self.scope = NULL_SCOPE
        #: Severed-cable flag: a down link silently drops posted traffic
        #: (PCIe master-abort semantics); see :meth:`sever`.
        self.down = False
        #: Fault-injection hook: extra per-transfer flight time (µs) while
        #: a :class:`~repro.faults.DelayTlp` window is open.  0.0 (the
        #: default) adds no events, keeping fault-free runs byte-identical.
        self.fault_extra_delay_us = 0.0
        #: lifetime payload bytes carried (utilization accounting)
        self.payload_bytes = 0
        self.busy_time_us = 0.0
        self.dropped_bytes = 0

    def transfer(self, nbytes: int) -> Generator:
        """Move ``nbytes`` across the link, then wait the propagation
        delay (process generator).  Returns (via StopIteration value) the
        µs spent serializing."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if self.fault_extra_delay_us:
            yield self.env.timeout(self.fault_extra_delay_us)
        if self.down:
            # Posted traffic into a severed cable is silently dropped
            # after local serialization (the TX side can't tell).
            yield self.env.timeout(self.config.serialization_time_us(nbytes))
            self.dropped_bytes += nbytes
            return 0.0
        parent = self.scope.current_span_id()
        req = self._wire.request()
        yield req
        ser, span = self._occupy(nbytes, parent)
        try:
            yield self.env.timeout(ser)
        except BaseException:
            # An interrupted sender must not keep the wire.
            self.scope.end_span(span)
            self._wire.release(req)
            raise
        self._vacate(req, nbytes, ser, span)
        if self.config.propagation_delay_us:
            yield self.env.timeout(self.config.propagation_delay_us)
        return ser

    def stage(self, nbytes: int, parent: Optional[int],
              then: Callable[[], None]) -> "_Crossing":
        """Move ``nbytes`` across the link with no process and no
        propagation delay, then call ``then()`` — the DMA engine's wire
        stage (see :class:`~repro.sim.Join`).  ``parent`` is the span its
        ``link_transit`` span hangs under.  The returned crossing's
        ``dropped`` says, once ``then`` ran, whether a cut cable ate the
        bytes."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        return _Crossing(self, nbytes, parent, then)

    # -- the wire's rules, shared by transfer() and stage() ---------------------
    def _occupy(self, nbytes: int, parent: Optional[int]
                ) -> tuple[float, Any]:
        """The wire is granted: ``(serialization µs, link_transit span)``.
        The span covers exactly the wire occupancy (queueing is the gap
        before it), so the utilisation sampler stays honest."""
        return (self.config.serialization_time_us(nbytes),
                self.scope.begin_span("link_transit", "link", self.name,
                                      parent, nbytes=nbytes))

    def _vacate(self, req: Request, nbytes: int, ser: float,
                span: Any) -> None:
        """Serialization is over: close the span, account, and release
        the wire (which may grant the next waiter)."""
        self.scope.end_span(span)
        self.payload_bytes += nbytes
        self.busy_time_us += ser
        self._wire.release(req)

    def utilization(self, elapsed_us: Optional[float] = None) -> float:
        elapsed = self.env.now if elapsed_us is None else elapsed_us
        return self.busy_time_us / elapsed if elapsed > 0 else 0.0

    @property
    def queue_length(self) -> int:
        return self._wire.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.config.describe()}>"


class _Crossing:
    """One :meth:`Link.stage`: :meth:`Link.transfer`'s steps up to the
    propagation delay, each run from the callback of the event the
    generator would have yielded.  Named after the link: ShmemCheck
    attributes a callback to its owner's ``name``."""

    __slots__ = ("name", "dropped", "_link", "_nbytes", "_parent", "_then",
                 "_req", "_ser", "_span")

    def __init__(self, link: Link, nbytes: int, parent: Optional[int],
                 then: Callable[[], None]):
        self.name = link.name
        self.dropped = False
        self._link = link
        self._nbytes = nbytes
        self._parent = parent
        self._then = then
        self._req: Optional[Request] = None
        self._ser = 0.0
        self._span: Any = None
        if link.fault_extra_delay_us:
            link.env.timeout(link.fault_extra_delay_us).callbacks.append(
                self._admit)
        else:
            self._admit(None)

    def _admit(self, _event: Optional[Event]) -> None:
        link = self._link
        if link.down:
            link.env.timeout(link.config.serialization_time_us(
                self._nbytes)).callbacks.append(self._dropped)
            return
        req = self._req = link._wire.request()
        if req.callbacks is None:           # granted inline
            self._granted(req)
        else:
            req.callbacks.append(self._granted)

    def _dropped(self, _timeout: Event) -> None:
        self.dropped = True
        self._link.dropped_bytes += self._nbytes
        self._then()

    def _granted(self, _req: Event) -> None:
        link = self._link
        self._ser, self._span = link._occupy(self._nbytes, self._parent)
        link.env.timeout(self._ser).callbacks.append(self._served)

    def _served(self, _timeout: Event) -> None:
        assert self._req is not None
        self._link._vacate(self._req, self._nbytes, self._ser, self._span)
        self._then()


class DuplexLink:
    """A full-duplex connection: independent TX/RX :class:`Link` per side.

    ``a_to_b`` carries traffic from endpoint A to endpoint B and vice versa.
    PCIe is full duplex, so the two directions never contend with each
    other — only with other traffic in the *same* direction.
    """

    def __init__(self, env: Environment, config: LinkConfig,
                 name: str = "cable"):
        self.env = env
        self.config = config
        self.name = name
        self.a_to_b = Link(env, config, name=f"{name}.a2b")
        self.b_to_a = Link(env, config, name=f"{name}.b2a")

    def direction(self, from_a: bool) -> Link:
        return self.a_to_b if from_a else self.b_to_a

    def sever(self) -> None:
        """Unplug the cable: both directions drop traffic from now on."""
        self.a_to_b.down = True
        self.b_to_a.down = True

    def restore(self) -> None:
        """Re-plug the cable."""
        self.a_to_b.down = False
        self.b_to_a.down = False

    @property
    def is_down(self) -> bool:
        return self.a_to_b.down and self.b_to_a.down

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DuplexLink {self.name} {self.config.describe()}>"
