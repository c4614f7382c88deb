"""Measurement primitives for the experiment harness.

The paper's harness is SIPp statistics plus ``top`` logs; ours is this
module.  The types are intentionally simple:

- :class:`Counter` -- monotonically increasing count with a helper for
  windowed rates,
- :class:`Histogram` -- reservoir-free exact histogram over float samples
  with percentile queries (response times),
- :class:`TimeSeries` -- ``(t, value)`` pairs (utilization over time),
- :class:`MetricsRegistry` -- a per-node namespace for all of the above.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Zero-allocation ("lean") mode
# ---------------------------------------------------------------------------
# When enabled, registries hand out :class:`LeanHistogram` instances that
# write into pre-sized reservoirs instead of growing a list sample by
# sample.  Observed values, ordering and every derived statistic are
# bit-identical to the reference histogram (the differential battery
# asserts this); only the allocation pattern changes.  Toggled by
# repro.sip.message.set_engine_mode.

_LEAN_METRICS = False
LEAN_RESERVOIR = 4096


def set_lean_metrics(enabled: bool) -> None:
    global _LEAN_METRICS
    _LEAN_METRICS = bool(enabled)


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value", "_marks")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0
        self._marks: List[Tuple[float, int]] = []

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def mark(self, now: float) -> None:
        """Record (time, value) so windowed rates can be computed later."""
        self._marks.append((now, self.value))

    def rate_between(self, t0: float, t1: float) -> float:
        """Average events/second between the marks nearest t0 and t1."""
        if t1 <= t0:
            raise ValueError("t1 must be after t0")
        v0 = self._value_at(t0)
        v1 = self._value_at(t1)
        return (v1 - v0) / (t1 - t0)

    def _value_at(self, t: float) -> int:
        if not self._marks:
            return self.value
        # (t, inf) sorts after every (t, value) mark at the same time,
        # so this is bisect_right on the time component without building
        # a separate key list.
        idx = bisect.bisect_right(self._marks, (t, math.inf)) - 1
        if idx < 0:
            return 0
        return self._marks[idx][1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


def summarize(samples: List[float]) -> Dict[str, float]:
    """Count, mean and nearest-rank p50/p95/max of a sample window."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(samples)
    n = len(ordered)

    def pct(p: float) -> float:
        rank = max(1, math.ceil(p / 100.0 * n))
        return ordered[rank - 1]

    return {
        "count": n,
        "mean": sum(samples) / n,
        "p50": pct(50),
        "p95": pct(95),
        "max": ordered[-1],
    }


class Histogram:
    """Exact histogram over float samples with percentile queries.

    Samples are kept in insertion order (so measurement windows can be
    carved out with :meth:`stats_since`); percentile queries sort into a
    cache invalidated on append.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []
        self._sorted_cache: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self._samples.append(value)
        self._sorted_cache = None

    def _sorted(self) -> List[float]:
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self.samples)
        return self._sorted_cache

    @property
    def samples(self) -> List[float]:
        """Samples in insertion order (do not mutate)."""
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        samples = self.samples
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    @property
    def minimum(self) -> float:
        return self._sorted()[0] if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._sorted()[-1] if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100].

        An empty histogram reports 0.0 for every percentile rather than
        raising; a single-sample histogram reports that sample for every
        ``p``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self.count:
            return 0.0
        ordered = self._sorted()
        if p == 0:
            return ordered[0]
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def stddev(self) -> float:
        samples = self.samples
        n = len(samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1))

    def stats_since(self, start_index: int) -> Dict[str, float]:
        """Summary stats over samples appended at/after ``start_index``."""
        return summarize(self.samples[start_index:])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class LeanHistogram(Histogram):
    """Histogram writing into a pre-sized reservoir (zero-allocation mode).

    ``observe`` stores into a preallocated buffer (doubled geometrically
    when exhausted) instead of appending, so the steady-state hot path
    allocates nothing.  All statistics are computed over exactly the
    same values in the same order as the reference histogram.
    """

    def __init__(self, name: str = "", reserve: int = LEAN_RESERVOIR):
        super().__init__(name)
        self._buf: List[float] = [0.0] * max(1, reserve)
        self._n = 0

    def observe(self, value: float) -> None:
        buf = self._buf
        n = self._n
        if n >= len(buf):
            buf.extend([0.0] * len(buf))
        buf[n] = value
        self._n = n + 1
        self._sorted_cache = None

    @property
    def samples(self) -> List[float]:
        """Copy of the observed prefix, insertion order."""
        return self._buf[: self._n]

    @property
    def count(self) -> int:
        return self._n


class TimeSeries:
    """Append-only (time, value) series."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Tuple[float, float]:
        if not self.times:
            raise IndexError("empty time series")
        return self.times[-1], self.values[-1]

    def mean_over(self, t0: float, t1: float) -> float:
        """Unweighted mean of samples with t0 <= t <= t1."""
        selected = [v for t, v in zip(self.times, self.values) if t0 <= t <= t1]
        if not selected:
            return 0.0
        return sum(selected) / len(selected)

    def max_value(self) -> float:
        return max(self.values) if self.values else 0.0


class Gauge:
    """A value that can move both ways, with an optional history.

    Used for quantities that are levels rather than event counts --
    e.g. a node's up/down status or the number of transactions held.
    ``set(value, now)`` with a timestamp also appends to the gauge's
    :class:`TimeSeries` so fault timelines can be reconstructed.
    """

    __slots__ = ("name", "value", "series")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0
        self.series = TimeSeries(name)

    def set(self, value: float, now: Optional[float] = None) -> None:
        self.value = value
        if now is not None:
            self.series.append(now, value)

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount

    def decrement(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class MetricsRegistry:
    """A namespace of metrics, typically one per node."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(f"{self.name}.{name}")
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            cls = LeanHistogram if _LEAN_METRICS else Histogram
            self._histograms[name] = cls(f"{self.name}.{name}")
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(f"{self.name}.{name}")
        return self._series[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(f"{self.name}.{name}")
        return self._gauges[name]

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counter values (for reports and tests)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        """Snapshot of all gauge values."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Deep, order-stable snapshot of every metric in the registry.

        Two registries fed identical event streams produce equal
        snapshots regardless of allocation mode -- this is the equality
        the engine differential battery (tests/engine) compares.
        """
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: tuple(h.samples)
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: (tuple(s.times), tuple(s.values))
                for name, s in sorted(self._series.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry {self.name} counters={len(self._counters)} "
            f"histograms={len(self._histograms)} series={len(self._series)}>"
        )
