"""The wait-for graph: who is blocked on whom, and why.

Every blocking primitive of the runtime — remote waits, lock spins,
local polls — registers here for as long as it blocks, through
``ShmemRuntime.blocked_on`` (which ``core.waits.remote_wait`` goes
through too).  The graph is built with the cluster, next to its metrics
registry, so every run keeps it: when a run stalls, its entries name
what each PE is blocked on (``core.program.drive``'s one verdict).

Two kinds of edges:

* **peer edges** — PE *w* waits for a reply only PE *p* can send
  (``remote_wait(..., peer=p)``).
* **resource edges** — PE *w* waits for a resource (a distributed lock
  cell) whose current *holder* is known.  Resource edges exist only
  while the resource has a registered holder, so stale waiter entries
  cannot fabricate cycles after a release.

A cycle of resource edges is a deadlock.  The graph looks for one at the
two mutations that can close it — a waiter registering on a held
resource, and a resource gaining a holder — and ends the run there: it
fails an urgent event with the :class:`WaitCycle`, which the kernel
raises out of ``Environment.run`` / ``step`` ahead of everything else due
at that instant.  Peer edges target *p*'s service thread, which keeps
responding while *p*'s program is blocked, so a cycle through one is no
deadlock; they only name the peer in a stalled run's report.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Hashable, NamedTuple, Optional

from ..sim import URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

__all__ = ["WaitCycle", "WaitEntry", "WaitGraph"]


class WaitEntry(NamedTuple):
    """One blocked primitive: ``pe`` cannot progress until released."""

    pe: int
    what: str
    peer: Optional[int] = None
    resource: Optional[Hashable] = None
    since: float = 0.0

    def describe(self, now: float) -> str:
        """``pe0 blocked on 'quiet' for 3.0us``, plus the peer or the
        resource when known."""
        line = (f"pe{self.pe} blocked on {self.what!r} "
                f"for {now - self.since:.1f}us")
        if self.peer is not None:
            line += f" (peer pe{self.peer})"
        if self.resource is not None:
            line += f" (resource {self.resource!r})"
        return line


class WaitCycle(Exception):
    """A deadlock witness: the entries whose edges close a PE cycle."""

    def __init__(self, pes: list[int], entries: list[WaitEntry]) -> None:
        self.pes = pes
        self.entries = entries
        super().__init__(self.describe())

    def describe(self) -> str:
        return "; ".join(
            f"PE {entry.pe} --[{entry.what}]--> {entry.resource}"
            for entry in self.entries)


class WaitGraph:
    """Mutable wait-for graph that raises its own deadlocks."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._tokens = count(1)
        self._blocked: dict[int, WaitEntry] = {}
        self._holders: dict[Hashable, int] = {}

    # ------------------------------------------------------------- mutation
    def block(self, pe: int, what: str, peer: Optional[int] = None,
              resource: Optional[Hashable] = None) -> int:
        """Register a blocked primitive; returns a token for :meth:`unblock`."""
        token = next(self._tokens)
        self._blocked[token] = WaitEntry(pe, what, peer, resource,
                                         self.env.now)
        if resource in self._holders:
            self._check()
        return token

    def unblock(self, token: int) -> None:
        self._blocked.pop(token, None)

    def acquire(self, resource: Hashable, pe: int) -> None:
        """``pe`` holds ``resource`` from now on."""
        self._holders[resource] = pe
        self._check()

    def release(self, resource: Hashable) -> None:
        """Drop holder info; waiter entries on it stop producing edges."""
        self._holders.pop(resource, None)

    # ------------------------------------------------------------ inspection
    @property
    def entries(self) -> list[WaitEntry]:
        return list(self._blocked.values())

    def find_cycle(self) -> Optional[WaitCycle]:
        """Return a deadlock witness if the hold-and-wait graph has a cycle."""
        adjacency: dict[int, list[tuple[int, WaitEntry]]] = {}
        for entry in self._blocked.values():
            holder = self._holders.get(entry.resource)
            if holder is not None and holder != entry.pe:
                adjacency.setdefault(entry.pe, []).append((holder, entry))

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
                        return WaitCycle(pes, entries)
                    if color.get(dst, BLACK) == WHITE:
                        path.append((dst, entry))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
        return None

    def _check(self) -> None:
        cycle = self.find_cycle()
        if cycle is not None:
            self.env.event().fail(cycle, priority=URGENT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WaitGraph blocked={len(self._blocked)} "
            f"holders={len(self._holders)}>"
        )
