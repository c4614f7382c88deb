"""Hierarchical timer wheel behind the :class:`~repro.sim.events.EventLoop` API.

SIP workloads schedule millions of long-horizon timers (Timer A/B/E/F,
transaction linger) that are almost always cancelled by the matching
response long before they fire.  The reference loop pays a heap push for
every one of them and a heap pop to skip the corpse later.  This module
keeps those timers out of the heap entirely:

- Events due soon (within ``near_window`` of the clock, or at/before the
  wheel frontier) go straight into a binary heap, exactly like the
  reference loop -- the heap remains the single source of firing order.
- Far events land in hashed wheel buckets: ``levels`` tiers of dict-keyed
  slots whose widths grow by ``span`` per tier.  Inserting or cancelling
  a wheel entry is O(1) and touches no heap.
- Before the clock can reach a bucket, its surviving entries migrate into
  the heap carrying their original ``(when, seq)`` keys, so the global
  firing order -- including same-instant tie-breaks -- is bit-identical
  to the reference :class:`EventLoop`.  Cancelled entries are simply
  dropped during migration, never paying heap traffic at all.
- Lazy-cancel compaction: when more than half the wheel (and at least
  ``compact_threshold`` entries) is cancelled corpses, the buckets are
  swept in place so dead timers do not pin memory for their full
  64*T1 horizon.

The wheel never reorders anything: buckets partition future time, and an
entry is always migrated before ``now`` can reach it, so the heap always
contains every event that could fire next.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.events import EventHandle, EventLoop


class WheelHandle(EventHandle):
    """An :class:`EventHandle` that notifies its wheel on cancellation.

    The backref lets the wheel count corpses for compaction; it is
    severed on migration so post-migration cancels behave exactly like
    reference handles (lazily skipped at the heap head).
    """

    __slots__ = ("_wheel",)

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        # Inlined EventHandle.__init__ -- this runs once per far timer.
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._loop = None
        self._wheel = None

    def cancel(self) -> None:
        if not self.cancelled:
            super().cancel()
            wheel = self._wheel
            if wheel is not None:
                self._wheel = None
                wheel._note_cancel()


#: A scheduled entry: (fire_time, sequence, handle) -- same tuple shape
#: the reference heap uses, so migration is a plain heappush.
_Entry = Tuple[float, int, EventHandle]


class TimerWheel:
    """Hashed hierarchical buckets for far-future timers.

    Pure container: it neither fires events nor owns a clock.  The
    owning loop moves the ``frontier`` forward and receives every entry
    due at or before it (plus any level-0 stragglers, which are safe to
    hand over early because the heap orders them correctly).
    """

    def __init__(
        self,
        bucket_width: float = 0.1,
        span: int = 64,
        levels: int = 3,
        compact_threshold: int = 256,
    ):
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive: {bucket_width}")
        if span < 2 or levels < 1:
            raise ValueError("require span >= 2 and levels >= 1")
        self.widths = [bucket_width * span ** k for k in range(levels)]
        self.span = span
        #: Owning loop (set by :class:`WheelEventLoop`); migrated handles
        #: get their ``_loop`` backref from here so post-migration
        #: cancels feed the loop's heap-compaction accounting.
        self.owner = None
        #: Per level: absolute bucket index -> list of entries.
        self.levels: List[Dict[int, List[_Entry]]] = [{} for _ in range(levels)]
        self.frontier = 0.0
        self.compact_threshold = compact_threshold
        self._entries = 0          # wheel-resident entries, incl. corpses
        self._cancelled = 0        # corpses awaiting compaction/migration
        self.compactions = 0       # introspection for tests/bench

    def __len__(self) -> int:
        return self._entries

    @property
    def live(self) -> int:
        return self._entries - self._cancelled

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(self, entry: _Entry) -> None:
        """File an entry with ``when > frontier`` into the finest level
        whose horizon (``span`` buckets) reaches it."""
        when = entry[0]
        handle = entry[2]
        if isinstance(handle, WheelHandle):
            handle._wheel = self
        # Level 0 catches nearly everything (SIP timers live within
        # span*bucket_width of now), so it is checked inline.
        width = self.widths[0]
        index = int(when / width)
        if index - int(self.frontier / width) < self.span:
            bucket = self.levels[0].get(index)
            if bucket is None:
                self.levels[0][index] = [entry]
            else:
                bucket.append(entry)
            self._entries += 1
            return
        top = len(self.widths) - 1
        for k in range(1, top + 1):
            width = self.widths[k]
            if k == top or int(when / width) - int(self.frontier / width) < self.span:
                self._file(entry, k)
                return

    def _file(self, entry: _Entry, level: int) -> None:
        index = int(entry[0] / self.widths[level])
        bucket = self.levels[level].get(index)
        if bucket is None:
            self.levels[level][index] = [entry]
        else:
            bucket.append(entry)
        self._entries += 1

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def advance(self, until: float, heap: List[_Entry]) -> None:
        """Move the frontier to ``until``; push every entry due at or
        before it onto ``heap`` (cancelled entries are dropped).

        Coarse buckets overlapping the frontier cascade into finer
        levels; level-0 entries in a touched bucket go to the heap even
        if slightly beyond ``until`` -- the heap orders them, and doing
        so keeps each bucket handled exactly once.
        """
        if until <= self.frontier:
            return
        for k in range(len(self.widths) - 1, -1, -1):
            buckets = self.levels[k]
            if not buckets:
                continue
            width = self.widths[k]
            limit = int(until / width)
            due = [index for index in buckets if index <= limit]
            for index in due:
                for entry in buckets.pop(index):
                    handle = entry[2]
                    self._entries -= 1
                    if handle.cancelled:
                        if isinstance(handle, WheelHandle) and handle._wheel is None:
                            self._cancelled -= 1
                        continue
                    if k == 0 or entry[0] <= until:
                        if isinstance(handle, WheelHandle):
                            handle._wheel = None
                        if self.owner is not None:
                            handle._loop = self.owner
                        heapq.heappush(heap, entry)
                    else:
                        self._file(entry, k - 1)
        self.frontier = until

    def next_bucket_time(self) -> float:
        """A time that, passed to :meth:`advance`, is guaranteed to flush
        at least one occupied bucket.  Only valid when ``len(self) > 0``."""
        best = None
        for k, buckets in enumerate(self.levels):
            if not buckets:
                continue
            width = self.widths[k]
            start = min(buckets) * width
            candidate = max(self.frontier, start) + width
            if best is None or candidate < best:
                best = candidate
        if best is None:
            raise ValueError("next_bucket_time on an empty wheel")
        return best

    # ------------------------------------------------------------------
    # Lazy-cancel compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= self.compact_threshold
            and self._cancelled * 2 > self._entries
        ):
            self.compact()

    def compact(self) -> None:
        """Sweep cancelled entries out of every bucket."""
        removed = 0
        for buckets in self.levels:
            empty = []
            for index, bucket in buckets.items():
                survivors = [e for e in bucket if not e[2].cancelled]
                if len(survivors) != len(bucket):
                    removed += len(bucket) - len(survivors)
                    if survivors:
                        buckets[index] = survivors
                    else:
                        empty.append(index)
            for index in empty:
                del buckets[index]
        self._entries -= removed
        self._cancelled = 0
        if removed:
            self.compactions += 1


class WheelEventLoop(EventLoop):
    """Drop-in :class:`EventLoop` with wheel-backed far timers.

    Public semantics are identical to the reference loop: same ``now``
    progression, same ``(fire_time, scheduling order)`` tie-breaks, same
    ``events_processed`` counts, same ``pending`` accounting (cancelled
    entries are included until drained or compacted).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        bucket_width: float = 0.1,
        span: int = 64,
        levels: int = 3,
        compact_threshold: int = 256,
    ):
        super().__init__(start_time)
        self._wheel = TimerWheel(bucket_width, span, levels, compact_threshold)
        self._wheel.frontier = self.now
        self._wheel.owner = self
        self._near_window = bucket_width

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # ``schedule`` is overridden (rather than delegating to the
    # inherited delay->schedule_at wrapper) because these two calls are
    # the hottest functions in a turbo-engine run; the near/far routing
    # check is ordered cheapest-first (most events are near-term
    # deliveries and CPU completions that belong in the heap).

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self.now
        self._seq += 1
        if delay >= self._near_window:
            when = now + delay
            wheel = self._wheel
            if when > wheel.frontier:
                handle: EventHandle = WheelHandle(when, fn, args)
                wheel.add((when, self._seq, handle))
                return handle
        else:
            when = now + delay
        handle = EventHandle(when, fn, args)
        handle._loop = self
        heapq.heappush(self._heap, (when, self._seq, handle))
        return handle

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        self._seq += 1
        if when - now >= self._near_window:
            wheel = self._wheel
            if when > wheel.frontier:
                handle: EventHandle = WheelHandle(when, fn, args)
                wheel.add((when, self._seq, handle))
                return handle
        handle = EventHandle(when, fn, args)
        handle._loop = self
        heapq.heappush(self._heap, (when, self._seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        heap = self._heap
        wheel = self._wheel
        while True:
            if heap:
                when = heap[0][0]
                if len(wheel) and when > wheel.frontier:
                    # A wheel entry might precede the heap head: flush
                    # everything due up to it, then re-evaluate.
                    wheel.advance(when, heap)
                    continue
                when, _seq, handle = heapq.heappop(heap)
                if handle.cancelled:
                    continue
                self.now = when
                self._events_processed += 1
                handle.fn(*handle.args)
                return True
            if not len(wheel):
                return False
            wheel.advance(wheel.next_bucket_time(), heap)

    def run_until(self, deadline: float) -> int:
        self._wheel.advance(deadline, self._heap)
        return super().run_until(deadline)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._heap) + len(self._wheel)

    @property
    def wheel(self) -> TimerWheel:
        return self._wheel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WheelEventLoop now={self.now:.6f} heap={len(self._heap)} "
            f"wheel={len(self._wheel)}>"
        )
