"""ShmemSan: a happens-before race detector for the OpenSHMEM runtime.

The paper's memory model gives only weak guarantees (§II-B): Put is
*locally* blocking, remote completion needs ``quiet``/``fence``/barriers,
and a Get can race with in-flight DMA.  Nothing in the runtime stops a
user program from issuing a Put and having the target read the region
before any synchronization — the read silently returns stale data.

ShmemSan makes that failure mode loud.  It is a ThreadSanitizer-style
vector-clock detector adapted to the PGAS model:

* every PE carries a **vector clock** (one component per PE), advanced by
  its own operations and merged at synchronization points:

  - ``barrier_all`` — global join: every PE publishes its clock on entry
    and acquires the join of all published clocks on exit;
  - remote atomics (and therefore ``set_lock``/``clear_lock``, which are
    built on compare-and-swap) — acquire/release on the target cell;
  - ``wait_until`` — acquires the clock of the write that satisfied the
    condition (the signal/flag pattern, including ``put_signal``);
  - ``quiet``/``fence`` — local epoch advance (completion fences create
    no cross-PE edge by themselves: the target must still synchronize);

* every symmetric-heap access — ``put*``, ``get*``, atomics, and local
  loads/stores through the heap accessors — updates **shadow state** kept
  per target PE at ``sanitize_granularity``-byte cells: the last write
  (epoch + full clock snapshot, for acquires) and the most recent read
  epoch per PE.

Two conflicting accesses (at least one write, different PEs) that are not
ordered by happens-before produce a :class:`RaceReport`.  In ``"strict"``
mode the second access raises :class:`~repro.core.errors.RaceError`
immediately; in ``"report"`` mode the report is recorded (in
:attr:`ShmemSan.reports`, surfaced as ``SpmdReport.races``) and the run
continues.  Reports are deterministic: the simulator is, and
ShmemSan adds no virtual time, so tier-1 timing benches are unaffected
even when it is on — and it is **off by default** (opt in with
``ShmemConfig(sanitize="strict")``).

The detector is *sound for the model it sees*: it flags pairs that lack a
happens-before edge even when this particular schedule happened to order
them benignly — exactly what you want from a sanitizer, since the paper's
hardware gives no such ordering promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import RaceError

__all__ = ["ShmemSan", "RaceReport", "AccessKind", "render_race_table"]


class AccessKind:
    """Shadow access classes (strings, so reports read well)."""

    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"


@dataclass(frozen=True)
class RaceReport:
    """One detected pair of unordered conflicting accesses.

    ``owner_pe`` is the PE whose symmetric heap holds the range
    ``[start, end)``; the *first* access is the one found in shadow state,
    the *second* is the access that tripped the check.  Times are virtual
    microseconds.
    """

    owner_pe: int
    start: int
    end: int
    first_pe: int
    first_kind: str
    first_op: str
    first_time: float
    second_pe: int
    second_kind: str
    second_op: str
    second_time: float
    #: spans active at each access when tracing was on ("" otherwise) —
    #: ``track:name`` labels from :class:`repro.obsv.spans.ShmemScope`.
    first_span: str = ""
    second_span: str = ""

    def describe(self) -> str:
        first_in = f" in {self.first_span}" if self.first_span else ""
        second_in = f" in {self.second_span}" if self.second_span else ""
        return (
            f"data race on PE {self.owner_pe}'s symmetric heap "
            f"[{self.start:#x}, {self.end:#x}): "
            f"{self.first_kind} by PE {self.first_pe} ({self.first_op}, "
            f"t={self.first_time:.1f}us{first_in}) is unordered with "
            f"{self.second_kind} by PE {self.second_pe} ({self.second_op}, "
            f"t={self.second_time:.1f}us{second_in}); add a "
            f"barrier_all/quiet+signal between them"
        )


def render_race_table(reports: Iterable[RaceReport],
                      title: str = "ShmemSan race reports") -> str:
    """Human-readable table of race reports (bench.reporting style)."""
    rows = list(reports)
    lines = [title]
    if not rows:
        lines.append("  (no races detected)")
        return "\n".join(lines)
    header = (f"{'#':>3} {'heap@PE':>8} {'range':<22} "
              f"{'first':<26} {'second':<26}")
    lines.append(header)
    lines.append("-" * len(header))
    for index, r in enumerate(rows):
        span = f"[{r.start:#x},{r.end:#x})"
        first = f"{r.first_kind} pe{r.first_pe} t={r.first_time:.1f}"
        if r.first_span:
            first += f" [{r.first_span}]"
        second = f"{r.second_kind} pe{r.second_pe} t={r.second_time:.1f}"
        if r.second_span:
            second += f" [{r.second_span}]"
        lines.append(f"{index:>3} {r.owner_pe:>8} {span:<22} "
                     f"{first:<26} {second:<26}")
    return "\n".join(lines)


class _Cell:
    """Shadow state for one granule of one PE's symmetric heap."""

    __slots__ = ("write_pe", "write_epoch", "write_vc", "write_time",
                 "write_op", "write_kind", "write_span", "reads", "sync_vc")

    def __init__(self) -> None:
        self.write_pe: Optional[int] = None
        self.write_epoch = 0
        self.write_vc: Optional[tuple[int, ...]] = None
        self.write_time = 0.0
        self.write_op = ""
        self.write_kind = AccessKind.WRITE
        self.write_span = ""
        #: pe -> (epoch, time, op, span) of that PE's most recent read
        self.reads: dict[int, tuple[int, float, str, str]] = {}
        #: release chain for atomics on this cell (lock semantics)
        self.sync_vc: Optional[tuple[int, ...]] = None


class ShmemSan:
    """The detector: vector clocks + shadow heap state for one SPMD run.

    One instance is shared by all PEs of a cluster (created on demand by
    the first sanitizing :class:`~repro.core.runtime.ShmemRuntime`, or
    fresh per run by :func:`~repro.core.program.run_spmd`).  All methods
    are plain bookkeeping — no simulated time is consumed.
    """

    #: stop recording after this many reports (report mode safety valve)
    MAX_REPORTS = 1000

    def __init__(self, n_pes: int, mode: str = "strict",
                 granularity: int = 8):
        if mode not in ("strict", "report"):
            raise ValueError(f"unknown sanitize mode {mode!r}")
        if granularity < 1:
            raise ValueError("sanitize granularity must be >= 1")
        self.n_pes = n_pes
        self.mode = mode
        self.granularity = granularity
        #: :class:`repro.obsv.spans.ShmemScope` when span tracing is on
        #: (set by the runtime); lets race reports name the spans active
        #: at both racing accesses.
        self.scope = None
        self.reports: list[RaceReport] = []
        # Each PE starts in its own epoch 1: epoch 0 means "never touched",
        # so a fresh access is never mistaken for an already-ordered one.
        self._clocks: list[list[int]] = [
            [1 if col == row else 0 for col in range(n_pes)]
            for row in range(n_pes)
        ]
        #: owner pe -> {cell index -> _Cell}
        self._shadow: list[dict[int, _Cell]] = [{} for _ in range(n_pes)]
        # barrier join bookkeeping
        self._barrier_entered = [0] * n_pes
        self._barrier_exited = [0] * n_pes
        self._barrier_acc: dict[int, list[int]] = {}
        self._barrier_left: dict[int, int] = {}
        #: counters (diagnostics / tests)
        self.checked_ops = 0

    # ------------------------------------------------------------- clocks
    def _snapshot(self, pe: int) -> tuple[int, ...]:
        return tuple(self._clocks[pe])

    def _tick(self, pe: int) -> None:
        self._clocks[pe][pe] += 1

    def _acquire(self, pe: int, other: Iterable[int]) -> None:
        clock = self._clocks[pe]
        for index, value in enumerate(other):
            if value > clock[index]:
                clock[index] = value

    def _span_label(self) -> str:
        """``track:name`` of the span active in the calling process."""
        if self.scope is None:
            return ""
        return self.scope.current_label()

    # -------------------------------------------------------------- cells
    def _cells(self, owner_pe: int, offset: int,
               nbytes: int) -> Iterable[tuple[int, _Cell]]:
        shadow = self._shadow[owner_pe]
        first = offset // self.granularity
        last = (offset + max(nbytes, 1) - 1) // self.granularity
        for index in range(first, last + 1):
            cell = shadow.get(index)
            if cell is None:
                cell = shadow[index] = _Cell()
            yield index, cell

    def _flush_violations(
            self, owner_pe: int,
            violations: list[tuple[int, tuple[int, str, str, float, str]]],
            second_pe: int, second_kind: str, second_op: str,
            now: float, second_span: str = "") -> None:
        """Coalesce per-cell violations into contiguous range reports.

        One racy 128-byte put is one race, not sixteen — adjacent cells
        with the same prior accessor merge into a single report.
        """
        if not violations:
            return
        violations.sort(key=lambda item: item[0])
        groups: list[tuple[int, int, tuple[int, str, str, float, str]]] = []
        for index, first in violations:
            if groups and groups[-1][1] == index and groups[-1][2] == first:
                start, _end, info = groups.pop()
                groups.append((start, index + 1, info))
            else:
                groups.append((index, index + 1, first))
        for start_cell, end_cell, first in groups:
            first_pe, first_kind, first_op, first_time, first_span = first
            report = RaceReport(
                owner_pe=owner_pe,
                start=start_cell * self.granularity,
                end=end_cell * self.granularity,
                first_pe=first_pe, first_kind=first_kind,
                first_op=first_op, first_time=first_time,
                second_pe=second_pe, second_kind=second_kind,
                second_op=second_op, second_time=now,
                first_span=first_span, second_span=second_span,
            )
            if self.mode == "strict":
                raise RaceError(report)
            if len(self.reports) < self.MAX_REPORTS:
                self.reports.append(report)

    # ----------------------------------------------------------- accesses
    def record_write(self, origin_pe: int, owner_pe: int, offset: int,
                     nbytes: int, op: str, now: float,
                     kind: str = AccessKind.WRITE) -> None:
        """A write of ``[offset, offset+nbytes)`` on ``owner_pe``'s heap,
        performed by ``origin_pe`` (put, local store, atomic update)."""
        self.checked_ops += 1
        span = self._span_label()
        clock = self._clocks[origin_pe]
        snap = self._snapshot(origin_pe)
        epoch = snap[origin_pe]
        violations: list[tuple[int, tuple[int, str, str, float, str]]] = []
        for index, cell in self._cells(owner_pe, offset, nbytes):
            if (cell.write_pe is not None
                    and cell.write_epoch > clock[cell.write_pe]):
                violations.append((index, (
                    cell.write_pe, cell.write_kind, cell.write_op,
                    cell.write_time, cell.write_span,
                )))
            for reader, (repoch, rtime, rop, rspan) in cell.reads.items():
                if reader != origin_pe and repoch > clock[reader]:
                    violations.append((index, (
                        reader, AccessKind.READ, rop, rtime, rspan,
                    )))
            cell.write_pe = origin_pe
            cell.write_epoch = epoch
            cell.write_vc = snap
            cell.write_time = now
            cell.write_op = op
            cell.write_kind = kind
            cell.write_span = span
            cell.reads = {}
        self._tick(origin_pe)
        self._flush_violations(owner_pe, violations, origin_pe, kind, op,
                               now, second_span=span)

    def record_read(self, origin_pe: int, owner_pe: int, offset: int,
                    nbytes: int, op: str, now: float) -> None:
        """A read of ``owner_pe``'s heap by ``origin_pe`` (get, local load)."""
        self.checked_ops += 1
        span = self._span_label()
        clock = self._clocks[origin_pe]
        epoch = clock[origin_pe]
        violations: list[tuple[int, tuple[int, str, str, float, str]]] = []
        for index, cell in self._cells(owner_pe, offset, nbytes):
            if (cell.write_pe is not None
                    and cell.write_pe != origin_pe
                    and cell.write_epoch > clock[cell.write_pe]):
                violations.append((index, (
                    cell.write_pe, cell.write_kind, cell.write_op,
                    cell.write_time, cell.write_span,
                )))
            cell.reads[origin_pe] = (epoch, now, op, span)
        self._tick(origin_pe)
        self._flush_violations(owner_pe, violations, origin_pe,
                               AccessKind.READ, op, now, second_span=span)

    def record_atomic(self, origin_pe: int, owner_pe: int, offset: int,
                      nbytes: int, op: str, now: float) -> None:
        """A remote atomic: acquire the cell's release chain, check as a
        write, then release our clock into the chain (lock semantics)."""
        # Acquire first: prior atomics on these cells are ordered before us
        # by the owner's single service thread, so their epochs must not
        # look like races.
        for _index, cell in self._cells(owner_pe, offset, nbytes):
            if cell.sync_vc is not None:
                self._acquire(origin_pe, cell.sync_vc)
        self.record_write(origin_pe, owner_pe, offset, nbytes, op, now,
                          kind=AccessKind.ATOMIC)
        # record_write ticked us; release the pre-tick snapshot (it covers
        # the atomic's own epoch).
        release = tuple(
            value - (1 if index == origin_pe else 0)
            for index, value in enumerate(self._snapshot(origin_pe))
        )
        for _index, cell in self._cells(owner_pe, offset, nbytes):
            if cell.sync_vc is None:
                cell.sync_vc = release
            else:
                cell.sync_vc = tuple(
                    max(a, b) for a, b in zip(cell.sync_vc, release)
                )

    def sync_acquire(self, origin_pe: int, owner_pe: int, offset: int,
                     nbytes: int) -> None:
        """``wait_until`` succeeded on ``[offset, offset+nbytes)``: acquire
        the clock of whatever write satisfied the condition."""
        for _index, cell in self._cells(owner_pe, offset, nbytes):
            if cell.write_vc is not None:
                self._acquire(origin_pe, cell.write_vc)
            if cell.sync_vc is not None:
                self._acquire(origin_pe, cell.sync_vc)

    # -------------------------------------------------------------- syncs
    def quiet(self, pe: int) -> None:
        """``quiet``/``fence``: epoch advance (no cross-PE edge)."""
        self._tick(pe)

    def barrier_enter(self, pe: int) -> None:
        """Publish this PE's clock into the current barrier generation."""
        generation = self._barrier_entered[pe]
        self._barrier_entered[pe] += 1
        accumulator = self._barrier_acc.get(generation)
        if accumulator is None:
            accumulator = self._barrier_acc[generation] = [0] * self.n_pes
            self._barrier_left[generation] = 0
        clock = self._clocks[pe]
        for index in range(self.n_pes):
            if clock[index] > accumulator[index]:
                accumulator[index] = clock[index]
        self._tick(pe)

    def barrier_exit(self, pe: int) -> None:
        """Acquire the join of every participant's entry clock.

        Sound because every barrier strategy guarantees all PEs entered
        before any PE exits, so the accumulator is complete here.
        """
        generation = self._barrier_exited[pe]
        self._barrier_exited[pe] += 1
        accumulator = self._barrier_acc.get(generation)
        if accumulator is None:  # pragma: no cover - defensive
            return
        self._acquire(pe, accumulator)
        self._barrier_left[generation] += 1
        if self._barrier_left[generation] >= self.n_pes:
            del self._barrier_acc[generation]
            del self._barrier_left[generation]

    # ---------------------------------------------------------- reporting
    @property
    def race_count(self) -> int:
        return len(self.reports)

    def render(self) -> str:
        return render_race_table(self.reports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ShmemSan mode={self.mode} pes={self.n_pes} "
                f"races={len(self.reports)} ops={self.checked_ops}>")
