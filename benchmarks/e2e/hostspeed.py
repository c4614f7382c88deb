"""Host times in reference-host seconds.

The sandbox this benchmark runs in is a 2-vCPU VM whose speed wanders
by 10-40% over tens of seconds with no steal time reported (identical
runs of one simulation took 0.76-1.80 s within a few minutes, and CPU
time moved with wall time), so no amount of repeating inside one run
averages it out: raw medians of ten 12 s runs spread by 10-38%.

So every timed section is bracketed by a *reference pass*: a fixed
pure-Python kernel that knows nothing of the simulator and does the
kind of work a simulation run is made of (slotted objects through a
heap and a dict, integer arithmetic, list/dict copies with string
formatting).  A section's time is scaled by ``NOMINAL_S`` over the mean
of the passes right before and right after it, i.e. it is reported in
seconds of a host on which a pass takes ``NOMINAL_S``.  That is a
within-run ratio: it cancels slow drift (one set of ten runs went from
a 33% raw spread to 3.4%; in quieter periods the gain is smaller) and
still moves one-for-one with any change in the simulator.  Raw seconds
and the measured host speed stay in each run's ``detail`` line.

The passes run in a helper process, started once, so that the kernel's
allocations touch neither the measured process's peak RSS nor its
garbage-collector and allocator state.  The helper computes only while
the measured process waits for it.
"""

from __future__ import annotations

import heapq
import resource
import subprocess
import sys
from time import perf_counter, process_time
from typing import Dict, Tuple

#: Seconds one reference pass takes on the host the first numbers were
#: taken on (2 vCPUs of a Xeon @ 2.1 GHz, CPython 3.11) at its median
#: speed.
NOMINAL_S = 0.33

#: Consecutive sections share the pass between them unless more than
#: this much host time went by since it was taken.
_FRESH_S = 0.25


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def step(self, table) -> int:
        self.a += 1
        table[self.b] = self.c
        return self.a


class _Record:
    def __init__(self):
        self.fields = [("Via", "a"), ("From", "b"), ("To", "c"),
                       ("Call-ID", "d"), ("CSeq", "1 INVITE")]
        self.cache = {}

    def get(self, name):
        for field, value in self.fields:
            if field == name:
                return value
        return None

    def copy(self) -> "_Record":
        clone = _Record.__new__(_Record)
        clone.fields = list(self.fields)
        clone.cache = dict(self.cache)
        return clone


def reference_pass() -> Tuple[float, float]:
    """Run the fixed kernel once; returns its (wall, CPU) seconds."""
    start, cpu_start = perf_counter(), process_time()
    heap, table = [], {}
    for i in range(60_000):
        node = _Node(i, "k%d" % (i % 997), (i, i + 1))
        heapq.heappush(heap, ((i * 7919) % 10007, i, node))
        if i % 3 == 0:
            heapq.heappop(heap)[2].step(table)
    total = 0
    for i in range(1_200_000):
        total += i * i % 7
    record, keep = _Record(), []
    for i in range(60_000):
        clone = record.copy()
        clone.fields.append(("Via", "SIP/2.0/UDP p%d;branch=z9hG4bK%d"
                             % (i & 7, i)))
        clone.cache[clone.get("CSeq")] = i
        "\r\n".join(f"{field}: {value}" for field, value in clone.fields)
        keep.append(clone)
        if len(keep) > 500:
            keep.clear()
    return perf_counter() - start, process_time() - cpu_start


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


class Stopwatch:
    """Times sections in reference-host seconds.  A context manager:
    leaving it stops the helper process and waits for it."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._pass()  # the first pass also pays the helper's start-up
        self._before = self._pass()
        self._taken = perf_counter()

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.stdout.close()
        self._helper.wait()

    def _pass(self) -> Tuple[float, float]:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        wall, cpu = self._helper.stdout.readline().split()
        return float(wall), float(cpu)

    def start(self) -> None:
        if perf_counter() - self._taken > _FRESH_S:
            self._before = self._pass()
        self._cpu0 = cpu_seconds()
        self._wall0 = perf_counter()

    def stop(self) -> Dict[str, float]:
        wall = perf_counter() - self._wall0
        cpu = cpu_seconds() - self._cpu0
        after = self._pass()
        self._taken = perf_counter()
        # Each clock is scaled by the same clock of the passes (the two
        # part company when the hypervisor holds a vCPU back).  speed >
        # 1: the host ran faster than nominal, so the section would
        # have taken longer on the reference host.
        speed, cpu_speed = (NOMINAL_S / ((b + a) / 2.0)
                            for b, a in zip(self._before, after))
        self._before = after
        return {"wall_s": wall * speed, "cpu_s": cpu * cpu_speed,
                "raw_wall_s": wall, "host_speed": speed}


if __name__ == "__main__":  # the helper: one pass per line on stdin
    for _line in sys.stdin:
        print(*reference_pass(), flush=True)
