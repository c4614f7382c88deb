"""Single-server FIFO CPU model with utilization accounting.

This is the resource whose saturation the paper measures: an OpenSER
process is CPU-bound (the authors provisioned memory and a Gigabit LAN
precisely so that only the CPU saturates).  We model each server's CPU
as one FIFO queue:

- every incoming message is a job with a service time (seconds of CPU),
- jobs run in arrival order; the node's handler fires on completion,
- utilization is (busy seconds)/(wall seconds) per measurement window,
- an admission limit bounds the queue, mimicking a full socket buffer:
  jobs beyond it are rejected and the node may answer ``500 Server
  Busy`` or silently drop, exactly the symptoms the paper reports at
  the saturation knee ("a large increase in SIP 500 Server Busy
  messages and increased retransmission of call requests").

Service-time variability: real per-message costs are not constant
(allocator stalls, cache misses, scheduler preemption), so each job's
nominal cost is multiplied by a unit-mean lognormal factor.  With
``noise_sigma = 0`` the model degenerates to D/D/1 and saturates at
exactly the analytic capacity; the default small sigma reproduces the
gradual knee of the paper's Figures 4-5.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.events import EventLoop
from repro.sim.metrics import TimeSeries
from repro.sim.rng import RngStream

# Deferred per-component accounting (turbo; see CpuModel._component_acc).
# Flipped by repro.sip.message.set_engine_mode.
_DEFERRED_ACCOUNTING = False


def set_deferred_accounting(enabled: bool) -> None:
    global _DEFERRED_ACCOUNTING
    _DEFERRED_ACCOUNTING = enabled


class CpuJob:
    """A unit of CPU work: service time plus a completion callback."""

    __slots__ = (
        "cost", "fn", "args", "submitted_at", "start_at", "end_at", "handle",
    )

    def __init__(
        self,
        cost: float,
        fn: Callable[..., Any],
        args: tuple,
        submitted_at: float,
        start_at: float,
        end_at: float,
    ):
        self.cost = cost
        self.fn = fn
        self.args = args
        self.submitted_at = submitted_at
        self.start_at = start_at
        self.end_at = end_at
        self.handle = None  # completion EventHandle, for crash cancellation

    @property
    def queueing_delay(self) -> float:
        return self.start_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CpuJob cost={self.cost * 1e6:.1f}us start={self.start_at:.6f}>"


class CpuModel:
    """FIFO CPU with admission control and per-component cost accounting.

    Parameters
    ----------
    loop:
        The event loop that drives completions.
    rng:
        Source for service-time noise; may be ``None`` when
        ``noise_sigma == 0``.
    noise_sigma:
        Lognormal sigma for the unit-mean service-time multiplier.
    max_queue_delay:
        Jobs are rejected when the estimated queueing delay (work
        already committed) exceeds this many seconds.  This bounds the
        backlog the way a finite socket buffer does; 0.0 disables
        admission (never rejects).
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: Optional[RngStream] = None,
        noise_sigma: float = 0.0,
        max_queue_delay: float = 0.0,
    ):
        if noise_sigma > 0 and rng is None:
            raise ValueError("noise_sigma > 0 requires an RngStream")
        self.loop = loop
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.max_queue_delay = max_queue_delay

        self.busy_until = loop.now
        self.pending_jobs = 0
        self.busy_seconds = 0.0
        self.jobs_completed = 0
        self.jobs_rejected = 0
        self.jobs_aborted = 0
        self.halted = False
        # Optional repro.obs.profile.CpuProfiler; None keeps the hot path
        # free of any observability work beyond this one attribute test.
        self.profiler = None
        self._pending: "set[CpuJob]" = set()
        self._component_seconds: Dict[str, float] = {}
        # Deferred component accounting (turbo): the cost table
        # hands over a small set of long-lived breakdown dicts, so the
        # hot path just counts occurrences per dict identity and the
        # property below materializes seconds on read.  Holding the dict
        # in the entry also pins its id.
        self._component_acc: Dict[int, list] = {}
        self.utilization_series = TimeSeries("cpu.utilization")
        self._last_tick_time = loop.now
        self._last_tick_busy = 0.0

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit(
        self,
        cost: float,
        fn: Callable[..., Any],
        *args: Any,
        components: Optional[Dict[str, float]] = None,
        func: Optional[str] = None,
    ) -> Optional[CpuJob]:
        """Enqueue a job; returns ``None`` if admission control rejects it.

        ``components`` optionally breaks ``cost`` down by functional
        component (parsing, state, lookup, ...) for Figure-3-style
        profiles; the breakdown is accounting-only and does not change
        scheduling.  ``func`` is the call-site functionality label for
        the optional profiler (``None`` when profiling is off).
        """
        if cost < 0:
            raise ValueError(f"negative cost: {cost}")
        if self.halted:
            self.jobs_rejected += 1
            return None
        now = self.loop.now
        max_delay = self.max_queue_delay
        if max_delay > 0 and self.busy_until - now > max_delay:
            self.jobs_rejected += 1
            return None

        actual = cost
        if self.noise_sigma > 0 and cost > 0:
            actual = cost * self.rng.lognormal_unit_mean(self.noise_sigma)

        start = max(now, self.busy_until)
        end = start + actual
        self.busy_until = end
        self.pending_jobs += 1
        job = CpuJob(actual, fn, args, now, start, end)
        job.handle = self.loop.schedule_at(end, self._complete, job)
        self._pending.add(job)

        if components:
            if _DEFERRED_ACCOUNTING:
                acc = self._component_acc.get(id(components))
                if acc is None:
                    self._component_acc[id(components)] = [components, 1]
                else:
                    acc[1] += 1
            else:
                seconds = self._component_seconds
                for name, share in components.items():
                    seconds[name] = seconds.get(name, 0.0) + share
        if self.profiler is not None:
            self.profiler.record(func, actual, components)
        return job

    @property
    def component_seconds(self) -> Dict[str, float]:
        """Busy seconds by functional component (Figure-3 profiles)."""
        if self._component_acc:
            seconds = self._component_seconds
            for components, count in self._component_acc.values():
                for name, share in components.items():
                    seconds[name] = seconds.get(name, 0.0) + share * count
            self._component_acc.clear()
        return self._component_seconds

    def _complete(self, job: CpuJob) -> None:
        self._pending.discard(job)
        self.pending_jobs -= 1
        self.busy_seconds += job.cost
        self.jobs_completed += 1
        job.fn(*job.args)

    # ------------------------------------------------------------------
    # Crash/restart lifecycle (see repro.sim.faults)
    # ------------------------------------------------------------------
    def halt(self) -> int:
        """Abort all queued work, as a process crash would.

        Jobs that had already started keep the CPU time they consumed up
        to the crash instant (so ``busy_seconds <= wall`` still holds);
        their completion callbacks never fire.  Returns the number of
        jobs aborted.  Further submissions are rejected until
        :meth:`resume`.
        """
        now = self.loop.now
        aborted = 0
        for job in self._pending:
            if job.handle is not None:
                job.handle.cancel()
            if job.start_at < now:
                # Partially executed: account the slice actually run.
                self.busy_seconds += min(now, job.end_at) - job.start_at
            aborted += 1
        self._pending.clear()
        self.pending_jobs = 0
        self.jobs_aborted += aborted
        self.busy_until = now
        self.halted = True
        return aborted

    def resume(self) -> None:
        """Accept work again after :meth:`halt` (node restart)."""
        self.halted = False
        self.busy_until = max(self.busy_until, self.loop.now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_delay(self) -> float:
        """Seconds of committed work ahead of a job submitted right now."""
        return max(0.0, self.busy_until - self.loop.now)

    def tick(self, now: float) -> float:
        """Close a utilization window ending at ``now``; returns utilization.

        Utilization is clamped to [0, 1]; values near 1.0 mean the CPU
        was busy for the whole window (the paper's 100% saturation
        criterion from ``top`` logs).
        """
        elapsed = now - self._last_tick_time
        if elapsed <= 0:
            # Tolerate multiple drivers ticking at the same instant.
            if self.utilization_series.values:
                return self.utilization_series.values[-1]
            return 0.0
        busy_delta = self.busy_seconds - self._last_tick_busy
        utilization = min(1.0, busy_delta / elapsed)
        self.utilization_series.append(now, utilization)
        self._last_tick_time = now
        self._last_tick_busy = self.busy_seconds
        return utilization

    def mean_utilization(self, t0: float, t1: float) -> float:
        return self.utilization_series.mean_over(t0, t1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CpuModel pending={self.pending_jobs} "
            f"busy={self.busy_seconds:.3f}s rejected={self.jobs_rejected}>"
        )
