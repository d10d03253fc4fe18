"""Runtime wait-for graph: who is blocked on whom, and why.

ShmemCheck's deadlock detector needs a live picture of every blocked
primitive in the runtime — remote waits, lock spins, quiesce polls — so a
schedule that wedges can be blamed on a concrete cycle rather than a
timeout.  The graph is a cluster singleton (``cluster.wait_graph``), absent
by default: registration sites all guard on ``graph is None`` so ordinary
runs pay one attribute test per blocking call and nothing else.

Two kinds of edges:

* **peer edges** — PE *w* waits for a reply only PE *p* can send
  (``remote_wait(..., peer=p)``).
* **resource edges** — PE *w* waits for a resource (a distributed lock
  cell, a quiesce condition) whose current *holder* is known.  Resource
  edges exist only while the resource has a registered holder, so stale
  waiter entries cannot fabricate cycles after a release.

A cycle in the projected PE→PE graph is a deadlock witness; the entries
along the cycle carry the operation labels shown in counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Hashable, Optional

__all__ = ["WaitEntry", "WaitGraph"]


@dataclass(frozen=True)
class WaitEntry:
    """One blocked primitive: ``pe`` cannot progress until released."""

    token: int
    pe: int
    what: str
    peer: Optional[int] = None
    resource: Optional[Hashable] = None
    since: float = 0.0


@dataclass
class WaitCycle:
    """A deadlock witness: the entries whose edges close a PE cycle."""

    pes: list[int]
    entries: list[WaitEntry] = field(default_factory=list)

    def describe(self) -> str:
        hops = []
        for entry in self.entries:
            target = entry.peer if entry.peer is not None else entry.resource
            hops.append(f"PE {entry.pe} --[{entry.what}]--> {target}")
        return "; ".join(hops)


class WaitGraph:
    """Mutable wait-for graph with cycle detection.

    ``version`` increments on every mutation; the checker's step hook uses
    it to re-run cycle detection only when the graph actually changed.
    """

    def __init__(self) -> None:
        self._tokens = count(1)
        self._blocked: dict[int, WaitEntry] = {}
        self._holders: dict[Hashable, int] = {}
        self.version = 0

    # ------------------------------------------------------------- mutation
    def block(self, pe: int, *, what: str, peer: Optional[int] = None,
              resource: Optional[Hashable] = None,
              since: float = 0.0) -> int:
        """Register a blocked primitive; returns a token for :meth:`unblock`."""
        token = next(self._tokens)
        self._blocked[token] = WaitEntry(
            token=token, pe=pe, what=what, peer=peer,
            resource=resource, since=since,
        )
        self.version += 1
        return token

    def unblock(self, token: int) -> None:
        if self._blocked.pop(token, None) is not None:
            self.version += 1

    def note_holder(self, resource: Hashable, pe: int) -> None:
        """Record (or refresh) the holder of ``resource``."""
        if self._holders.get(resource) != pe:
            self._holders[resource] = pe
            self.version += 1

    def acquire(self, resource: Hashable, pe: int) -> None:
        self.note_holder(resource, pe)

    def release(self, resource: Hashable, pe: Optional[int] = None) -> None:
        """Drop holder info; waiter entries on it stop producing edges."""
        if self._holders.pop(resource, None) is not None:
            self.version += 1

    # ------------------------------------------------------------ inspection
    @property
    def blocked(self) -> list[WaitEntry]:
        return list(self._blocked.values())

    def edges(self, *, peer_edges: bool = False
              ) -> list[tuple[int, int, WaitEntry]]:
        """Projected PE→PE edges, one per blocked entry with a known target.

        Resource (hold-and-wait) edges are always included.  Peer edges —
        "PE *w* awaits a reply from PE *p*" — target *p*'s service thread,
        which keeps responding even while *p*'s program is blocked, so a
        cycle through one is not in itself a deadlock; they are included
        only on request (stuck-state diagnostics).
        """
        out: list[tuple[int, int, WaitEntry]] = []
        for entry in self._blocked.values():
            target: Optional[int] = None
            if entry.resource is not None:
                target = self._holders.get(entry.resource)
            elif peer_edges:
                target = entry.peer
            if target is not None and target != entry.pe:
                out.append((entry.pe, target, entry))
        return out

    def find_cycle(self) -> Optional[WaitCycle]:
        """Return a deadlock witness if the hold-and-wait graph has a cycle."""
        adjacency: dict[int, list[tuple[int, WaitEntry]]] = {}
        for src, dst, entry in self.edges():
            adjacency.setdefault(src, []).append((dst, entry))

        # Iterative DFS with colors; path stack reconstructs the cycle.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {pe: WHITE for pe in adjacency}
        for root in adjacency:
            if color[root] != WHITE:
                continue
            path: list[tuple[int, Optional[WaitEntry]]] = [(root, None)]
            while path:
                node, _via = path[-1]
                if color.get(node, BLACK) == WHITE:
                    color[node] = GREY
                advanced = False
                for dst, entry in adjacency.get(node, []):
                    if color.get(dst, BLACK) == GREY:
                        # Found a back edge: unwind the path to dst.
                        pes = [dst]
                        entries = [entry]
                        for pnode, pvia in reversed(path):
                            if pnode == dst:
                                break
                            pes.append(pnode)
                            if pvia is not None:
                                entries.append(pvia)
                        pes.reverse()
                        entries.reverse()
                        return WaitCycle(pes=pes, entries=entries)
                    if color.get(dst, BLACK) == WHITE:
                        path.append((dst, entry))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WaitGraph blocked={len(self._blocked)} "
            f"holders={len(self._holders)} v{self.version}>"
        )
