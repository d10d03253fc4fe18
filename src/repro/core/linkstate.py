"""Failure detection and edge-state bookkeeping for one runtime.

Plain functions over a :class:`~repro.core.runtime.ShmemRuntime`: one
heartbeat monitor + watcher per adapter turns ALIVE <-> DEAD transitions
into ``rt.dead_edges`` updates, which fail the doomed pending requests,
flush the affected mailboxes, wake every bounded wait and are flooded to
the rest of the fabric as LINK_DOWN / LINK_UP control messages (applied
on arrival by the service dispatch).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..fabric import HeartbeatMonitor, LinkState, Route
from ..ntb import LinkDownError
from ..sim import Interrupt
from .errors import PeerUnreachableError
from .transfer import MsgKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ShmemRuntime

__all__ = ["start_failure_detector", "stop_failure_detector",
           "apply_edge_dead", "apply_edge_alive", "announce_link_state"]


def start_failure_detector(rt: "ShmemRuntime") -> None:
    """One heartbeat monitor + link watcher per adapter."""
    hb = rt._heartbeat_config
    assert hb is not None
    for side, link in rt.links.items():
        monitor = HeartbeatMonitor(
            link.driver, period_us=hb.period_us,
            miss_threshold=hb.miss_threshold,
        )
        monitor.miss_counter = rt.metrics_registry.counter(
            "heartbeat.misses")
        monitor.start()
        rt.heartbeats[side] = monitor
        watcher = rt.env.process(
            _watch_link(rt, side, monitor),
            name=f"{rt.name}.{side}.linkwatch",
        )
        rt._link_watchers.append(watcher)


def stop_failure_detector(rt: "ShmemRuntime") -> None:
    for monitor in rt.heartbeats.values():
        monitor.stop()
    rt.heartbeats.clear()
    for watcher in rt._link_watchers:
        if watcher.is_alive and watcher._target is not None:
            watcher.interrupt("runtime finalized")
    rt._link_watchers.clear()


def _watch_link(rt: "ShmemRuntime", side: str,
                monitor: HeartbeatMonitor) -> Generator:
    """React to the failure detector's ALIVE <-> DEAD transitions."""
    try:
        while True:
            state = yield monitor.wait_state_change()
            edge = rt.links[side].edge
            if state is LinkState.DEAD:
                if apply_edge_dead(rt, edge):
                    yield from announce_link_state(
                        rt, MsgKind.LINK_DOWN, edge)
            elif state is LinkState.ALIVE:
                if apply_edge_alive(rt, edge):
                    yield from announce_link_state(
                        rt, MsgKind.LINK_UP, edge)
    except Interrupt:
        return


def _route_blocked(rt: "ShmemRuntime", route: Route, dst: int) -> bool:
    """Does ``route`` (starting at me, toward ``dst``) cross a dead
    edge?  The router reconstructs the issue-time path (first port,
    then canonical next hops)."""
    if not rt.dead_edges:
        return False
    edges = rt.router.route_edges(rt.my_pe_id, dst, route)
    if len(edges) < route.hops:
        return True  # the walk fell off a boundary: path is gone
    return any(edge in rt.dead_edges for edge in edges)


def apply_edge_dead(rt: "ShmemRuntime", edge: tuple[int, int]) -> bool:
    """Record a dead edge: fail doomed pending requests, flush the
    affected mailboxes, reset the barrier's token state and wake every
    bounded wait.  Idempotent; returns True only on first report."""
    if edge in rt.dead_edges:
        return False
    rt.dead_edges.add(edge)
    _fail_pending_on_edge(rt)
    for link in rt.links.values():
        if link.edge == edge:
            link.flush()
    _edge_changed(rt, "dead", edge)
    return True


def apply_edge_alive(rt: "ShmemRuntime", edge: tuple[int, int]) -> bool:
    """Record a recovered edge; returns True if it had been dead."""
    if edge not in rt.dead_edges:
        return False
    rt.dead_edges.discard(edge)
    _edge_changed(rt, "alive", edge)
    return True


def _edge_changed(rt: "ShmemRuntime", state: str,
                  edge: tuple[int, int]) -> None:
    if rt.barrier is not None:
        rt.barrier.on_link_event()
    rt.metrics.inc(f"edge_{state}")
    rt.link_state_changed.fire((state, edge))
    rt.notify_progress()


def _fail_pending_on_edge(rt: "ShmemRuntime") -> None:
    """Fail every pending Get/AMO whose issue-time route now crosses a
    dead edge, so blocking callers stop waiting immediately."""
    for req_id, pending in list(rt.pending.items()):
        if not _route_blocked(rt, Route(pending.direction, pending.hops),
                              pending.pe):
            continue
        if not pending.done.triggered:
            exc = PeerUnreachableError(
                f"{rt.name}: {pending.what} request {req_id} to PE "
                f"{pending.pe} lost to a dead link"
            )
            # Defuse: the waiter (if any) still receives the failure
            # through its AnyOf condition, but a request caught between
            # send and wait must not crash the kernel as an unhandled
            # failed event.
            pending.done.fail(exc).defuse()


def announce_link_state(rt: "ShmemRuntime", kind: MsgKind,
                        edge: tuple[int, int]) -> Generator:
    """Flood an edge's death/recovery away from the edge itself.

    On rings each surviving endpoint of the edge sends one
    control message to the *far* endpoint the long way around; every
    host on that path applies and relays it (service-thread
    dispatch), so the whole ring learns from whichever endpoint's
    announcement arrives first.

    On grids there is no single "long way around": any host might be
    routing through the dead edge, so the endpoint unicasts the
    notice to every other host over whatever routes are still live
    (each relay applies the edge state before forwarding, and the
    updates are idempotent).
    """
    my_side = None
    for side, link in rt.links.items():
        if link.edge == edge:
            my_side = side
            break
    if my_side is None:
        return  # not an endpoint of this edge; relaying is enough
    grid = rt.topology.kind != "ring"
    if grid:
        dests = [dest for dest in range(rt.n_pes) if dest != rt.my_pe_id]
    else:
        link = rt.links[rt.topology.opposite_port(my_side)]
        dests = [edge[1] if edge[0] == rt.my_pe_id else edge[0]]
    for dest in dests:
        try:
            if grid:
                link = rt.link_for(rt.route_to(dest).direction)
            yield from link.post(
                kind, rt.my_pe_id, dest, last_leg=link.peer_host_id == dest,
                aux=((edge[0] & 0xFF) << 8) | (edge[1] & 0xFF))
        except (LinkDownError, PeerUnreachableError):
            # Ring: both our cables are dead, nobody left to tell.
            # Grid: an unreachable island, nothing to tell it.
            continue
