"""Deterministic discrete-event loop.

The loop is a binary heap of ``(fire_time, sequence, handle)`` entries.
The sequence number breaks ties so that events scheduled for the same
instant fire in scheduling order, which keeps runs fully deterministic.

Cancellation is lazy: :meth:`EventHandle.cancel` marks the handle and the
loop skips cancelled entries when they reach the head of the heap.  This
is the standard approach for simulators with many short-lived timers
(e.g. SIP retransmission timers that are almost always cancelled by the
matching response).

A loop may be given a *horizon* (:meth:`EventLoop.close_at`): the last
deadline its driver will ever pass to :meth:`EventLoop.run_until`.  An
event due after it can never fire, so ``schedule`` / ``schedule_at``
store nothing for it: the sequence counter still advances (tie-breaks
stay those of an open loop), and the handle returned holds neither
``fn`` nor ``args`` and cancels to no effect.  ``close_at`` also drops
what is already stored past the horizon.  Going past it raises
:class:`HorizonError`: ``run_until`` a later deadline, or ``step`` /
``run`` with nothing stored left (a dropped event might be next).  The
horizon defaults to infinity.  Every in-place driver closes its loop
through ``Scenario.start(until=...)``, so the Timer B/C/D/F/K and linger
timers due after the run ends keep nothing alive.

A handle that has fired or been cancelled holds no callback either, so
an owner that keeps it (a transaction's timer set) forms no reference
cycle through it.
"""

from __future__ import annotations

import gc
import heapq
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple


class HorizonError(RuntimeError):
    """A loop was asked to advance past its horizon."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    The loop drops ``fn`` and ``args`` once the callback has run.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_loop")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._loop = None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True
        # Drop references eagerly so cancelled timers do not pin large
        # object graphs (messages, transactions) until they drain.
        self.fn = _noop
        self.args = ()
        loop = self._loop
        if loop is not None:
            self._loop = None
            loop._note_heap_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop(*_args: Any) -> None:
    return None


@contextmanager
def collector_off() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled.

    Every driver of :meth:`EventLoop.run_until` wraps its whole run in
    this.  A run allocates millions of short-lived objects, none of its
    events leaves a reference cycle behind
    (``tests/engine/test_acyclic.py``), and what it keeps is held by
    live state, so a collector pass would only rescan survivors.  The
    caller's enabled or disabled state is restored on exit, also when
    the block raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class EventLoop:
    """A simulated clock plus an ordered queue of future callbacks.

    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(1.0, fired.append, "a")
    >>> _ = loop.schedule(0.5, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    1.0
    """

    #: Corpse count below which lazy-cancel compaction never runs; keeps
    #: the sweep amortized on workloads with few cancellations.
    heap_compact_floor = 1024

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_processed = 0
        self._heap_cancelled = 0
        self.heap_compactions = 0
        #: Last sim time this loop may reach; nothing due later is stored.
        self.horizon = math.inf

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # NaN too
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute sim time ``when``."""
        if not when >= self.now:  # NaN too
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        if when > self.horizon:
            return EventHandle(when, _noop, ())
        handle = EventHandle(when, fn, args)
        handle._loop = self
        heapq.heappush(self._heap, (when, self._seq, handle))
        return handle

    def close_at(self, horizon: float) -> None:
        """Set the horizon; entries already stored past it are cancelled
        and swept, so from here on nothing due after it is stored."""
        self.horizon = horizon
        for handle in [entry[2] for entry in self._heap if entry[0] > horizon]:
            handle.cancel()
        self.compact_heap()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty (after skipping any
        cancelled entries), ``True`` otherwise; raises
        :class:`HorizonError` instead of ``False`` under a finite horizon.
        """
        while self._heap:
            when, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self._heap_cancelled -= 1
                continue
            self.now = when
            self._events_processed += 1
            handle.fn(*handle.args)
            handle.fn, handle.args = _noop, ()
            return True
        return self._drained()

    def _drained(self) -> bool:
        if self.horizon != math.inf:
            raise HorizonError(
                f"nothing stored is due by the horizon {self.horizon}; "
                "events past it were never stored")
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; returns the number of events executed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def run_until(self, deadline: float) -> int:
        """Run events with fire time <= ``deadline``; advance clock to it.

        The clock is left at ``deadline`` even if the queue empties
        earlier, so periodic measurements can rely on the final time.
        The loop leaves the cyclic collector alone: whoever drives a
        run turns it off around the whole run (:func:`collector_off`).
        """
        if deadline > self.horizon:
            raise HorizonError(
                f"run_until({deadline}) is past the horizon {self.horizon}")
        count = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                when = entry[0]
                if when > deadline:
                    break
                pop(heap)
                handle = entry[2]
                if handle.cancelled:
                    self._heap_cancelled -= 1
                    continue
                self.now = when
                count += 1
                handle.fn(*handle.args)
                handle.fn, handle.args = _noop, ()
        finally:
            # Nothing reads the counter mid-run, so it is batched out of
            # the inner loop (this method executes every event of a run).
            self._events_processed += count
        if self.now < deadline:
            self.now = deadline
        return count

    # ------------------------------------------------------------------
    # Lazy-cancel heap compaction
    # ------------------------------------------------------------------
    def _note_heap_cancel(self) -> None:
        # Called once per cancelled handle that was (or may still be) in
        # the heap.  The counter can over-estimate -- cancelling a handle
        # that already fired still notifies -- which at worst triggers a
        # sweep that removes nothing; it never skips a needed one.
        self._heap_cancelled += 1
        cancelled = self._heap_cancelled
        if (
            cancelled >= self.heap_compact_floor
            and cancelled * 2 > len(self._heap) - cancelled
        ):
            self.compact_heap()

    def compact_heap(self) -> None:
        """Sweep cancelled entries out of the heap (in place).

        ``run_until`` holds a local alias to ``self._heap``, so the list
        object must be mutated, never replaced.
        """
        heap = self._heap
        alive = [entry for entry in heap if not entry[2].cancelled]
        if len(alive) != len(heap):
            heap[:] = alive
            heapq.heapify(heap)
            self.heap_compactions += 1
        self._heap_cancelled = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries, including not-yet-drained cancelled ones."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventLoop now={self.now:.6f} pending={self.pending}>"
