"""Event-queue backends for the DES kernel (ROADMAP item 4).

The :class:`~repro.sim.core.Environment` dispatch loop is generic over a
*pending-event queue*: an ordered multiset of entries

    ``(time, priority, sequence, event)``

popped in ascending tuple order.  ``sequence`` is unique, so comparisons
never reach the (uncomparable) event object and the pop order is a total
order — the property every byte-identical golden run in the test suite
rests on.  Two backends implement it:

:class:`HeapQueue`
    The classic binary heap (``heapq``).  O(log n) push/pop with C-level
    constants; the reference implementation and the PR-7-era default.

:class:`CalendarQueue`
    A two-level calendar (bucket) queue in the spirit of Brown (CACM
    '88): events hash into integer *days* of ``width`` virtual-µs each.
    Future days are plain unsorted lists (push = one append); the day
    under the cursor — *today* — is sorted once, lazily, when the cursor
    reaches it, and drained by an index walk.  The hot pop is therefore
    a list index plus an integer increment: no heap sift, no float
    arithmetic, no comparisons.  Each event is compared O(log k) times
    during its day's single Timsort (k = events that day) instead of
    O(log n) times against the whole pending set, which is what keeps
    dispatch flat as host counts grow.

Design notes for the calendar queue:

* **Lazy-sorted today.**  ``_today`` is the ascending-sorted entry list
  for day ``_today_day`` and ``_pos`` indexes the next unpopped entry.
  Slots behind ``_pos`` are nulled as they are popped so the entry tuple
  (and the Event it references) dies immediately — the kernel's slab
  recycler keys on refcounts, and a lingering tuple would silently
  disable Timeout reuse.
* **Same-day pushes stay ordered.**  A push into the current day uses
  ``bisect.insort`` with ``lo=_pos``: the new entry lands in sorted
  position among the *unpopped* suffix.  (Any position before ``_pos``
  would be among already-dispatched history, which no longer exists.)
* **Push-behind-cursor demotion.**  A push whose day precedes
  ``_today_day`` (legal for the generic structure; the kernel itself
  never schedules into the past) demotes today's unpopped suffix back
  into the future map and re-resolves the earliest day on the next pop,
  preserving the global pop order.
* **Day discovery via an int min-heap.**  ``_day_heap`` holds each
  pending day number (pushed when the day's list is created, consumed
  when the cursor loads it), so advancing the cursor skips empty days
  in O(log d) for d distinct pending days — there is no linear calendar
  scan and no direct-search fallback to tune.
* **Determinism.**  Pop order is decided only by tuple comparisons
  (Timsort, ``bisect``, an int heap) over queue contents — never wall
  clock, hashing order, or randomness — so runs are byte-identical to
  the heap backend; ``tests/sim/test_kernel_equivalence.py`` asserts
  exactly that on every covered scenario.
"""

from __future__ import annotations

import heapq
from bisect import insort
from functools import partial
from typing import Optional

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["HeapQueue", "CalendarQueue", "make_queue", "QUEUE_KINDS"]

#: Entry tuples are ``(time, priority, sequence, event)``.
Entry = tuple  # typing alias kept loose: the kernel builds plain tuples

QUEUE_KINDS = ("heap", "calendar")


class HeapQueue:
    """Binary-heap backend (the PR-7-era scheduler, kept selectable).

    ``push`` and ``pop`` are bound to :func:`functools.partial` objects
    over the C ``heapq`` functions, so the kernel's hot loop pays no
    Python frame for either.
    """

    kind = "heap"

    __slots__ = ("_heap", "push", "pop")

    def __init__(self) -> None:
        self._heap: list = []
        # C-level callables: no Python frame per push/pop.
        self.push = partial(_heappush, self._heap)
        self.pop = partial(_heappop, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_entry(self) -> Optional[Entry]:
        heap = self._heap
        return heap[0] if heap else None

    def peek_time(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def pop_le(self, horizon: float) -> Optional[Entry]:
        """Pop and return the head iff its time is <= ``horizon``."""
        heap = self._heap
        if heap and heap[0][0] <= horizon:
            return _heappop(heap)
        return None

    def has_due(self, now: float) -> bool:
        """Is any entry due at or before ``now``?  Changes nothing."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= now

    def entries(self) -> list:
        """All pending entries in pop order (diagnostics; O(n log n))."""
        return sorted(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HeapQueue depth={len(self._heap)}>"


class CalendarQueue:
    """Two-level lazy-sorted calendar queue (see the module docstring).

    ``width`` is the day size in virtual µs.  It is a performance knob,
    not a correctness one: any width produces the same pop order, wider
    days just mean larger per-day sorts and narrower days more day-heap
    traffic.  The default of one virtual µs per day suits the PCIe cost
    model, whose event spacings are sub-µs to tens of µs.
    """

    kind = "calendar"

    #: floor for the bucket width (virtual µs).
    MIN_WIDTH = 1e-6

    __slots__ = ("_width", "_winv", "_days", "_day_heap", "_today",
                 "_pos", "_today_day", "_size")

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._width = max(float(width), self.MIN_WIDTH)
        self._winv = 1.0 / self._width
        #: future days: day number -> unsorted entry list.
        self._days: dict[int, list] = {}
        #: min-heap of day numbers with a (possibly stale) map entry.
        self._day_heap: list = []
        #: the day being drained: ascending-sorted, ``_pos`` = next slot.
        self._today: list = []
        self._pos = 0
        self._today_day: Optional[int] = None
        self._size = 0

    # ------------------------------------------------------------------ push
    def push(self, entry: Entry) -> None:
        day = int(entry[0] * self._winv)
        self._size += 1
        tday = self._today_day
        if tday is not None:
            if day == tday:
                # Among the unpopped suffix only: slots before _pos are
                # dispatched history.
                insort(self._today, entry, self._pos)
                return
            if day < tday:
                # Behind the cursor: demote today's remainder and let the
                # next pop re-resolve the earliest day.
                rest = self._today[self._pos:]
                if rest:
                    self._days[tday] = rest
                    _heappush(self._day_heap, tday)
                self._today = []
                self._pos = 0
                self._today_day = None
        days = self._days
        lst = days.get(day)
        if lst is None:
            days[day] = [entry]
            _heappush(self._day_heap, day)
        else:
            lst.append(entry)

    # ------------------------------------------------------------------- pop
    def pop(self) -> Entry:
        pos = self._pos
        today = self._today
        if pos < len(today):
            entry = today[pos]
            today[pos] = None  # drop the ref: the slab recycler needs it
            self._pos = pos + 1
            self._size -= 1
            return entry
        if not self._size:
            raise IndexError("pop from an empty CalendarQueue")
        lst = self._load_next_day()
        entry = lst[0]
        lst[0] = None
        self._pos = 1
        self._size -= 1
        return entry

    def pop_le(self, horizon: float) -> Optional[Entry]:
        """Pop and return the minimum entry iff its time is <= ``horizon``."""
        pos = self._pos
        today = self._today
        if pos < len(today):
            entry = today[pos]
            if entry[0] > horizon:
                return None
            today[pos] = None
            self._pos = pos + 1
            self._size -= 1
            return entry
        if not self._size:
            return None
        lst = self._load_next_day()
        entry = lst[0]
        if entry[0] > horizon:
            return None
        lst[0] = None
        self._pos = 1
        self._size -= 1
        return entry

    def has_due(self, now: float) -> bool:
        """Is any entry due at or before ``now``?  Changes nothing.

        Unlike :meth:`peek_time` this never loads (and sorts) the next
        day — the kernel asks it in mid-dispatch, where moving the cursor
        ahead of pushes still to come would demote the day right back.
        With today drained it therefore answers from the earliest pending
        *day*: that day starting at or before ``now`` may say True with
        nothing due yet (or on a stale day-heap entry), never False with
        something due, and the caller only ever skips work on False.
        """
        pos = self._pos
        today = self._today
        if pos < len(today):
            return today[pos][0] <= now
        heap = self._day_heap
        return bool(heap) and heap[0] <= int(now * self._winv)

    def peek_entry(self) -> Optional[Entry]:
        pos = self._pos
        today = self._today
        if pos < len(today):
            return today[pos]
        if not self._size:
            return None
        return self._load_next_day()[0]

    def peek_time(self) -> float:
        entry = self.peek_entry()
        return entry[0] if entry is not None else float("inf")

    def _load_next_day(self) -> list:
        """Advance the cursor to the earliest pending day and sort it.

        Caller guarantees ``_size > 0`` and today is exhausted.  Day-heap
        entries whose map slot was already consumed (the day was loaded
        earlier, then re-created) are skipped lazily.
        """
        days = self._days
        heap = self._day_heap
        while True:
            day = _heappop(heap)
            lst = days.pop(day, None)
            if lst is not None:
                lst.sort()
                self._today = lst
                self._today_day = day
                self._pos = 0
                return lst

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def width(self) -> float:
        return self._width

    @property
    def n_days(self) -> int:
        """Distinct pending days (today + future); diagnostics only."""
        pending_today = 1 if self._pos < len(self._today) else 0
        return len(self._days) + pending_today

    def entries(self) -> list:
        """All pending entries in pop order (diagnostics; O(n log n))."""
        pending = list(self._today[self._pos:])
        for lst in self._days.values():
            pending.extend(lst)
        return sorted(pending)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CalendarQueue depth={self._size} "
                f"days={self.n_days} width={self._width:g}>")


def make_queue(kind: str):
    """Instantiate a queue backend by name (``heap`` | ``calendar``)."""
    if kind == "calendar":
        return CalendarQueue()
    if kind == "heap":
        return HeapQueue()
    raise ValueError(
        f"unknown event queue kind {kind!r} (expected one of {QUEUE_KINDS})")
