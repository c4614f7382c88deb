"""Time-varying load profiles.

The paper's load sweeps "started with 20 calls per second and increased
this load in steps of 20 calls per second"; SERvartuka's whole point is
reacting to such changes.  A :class:`LoadProfile` is a piecewise-constant
rate schedule that :func:`apply_profile` plays against one or more
generators inside a running simulation.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


class LoadStep:
    """Hold ``rate`` calls/second for ``duration`` seconds."""

    __slots__ = ("rate", "duration")

    def __init__(self, rate: float, duration: float):
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError(f"rate must be finite and positive: {rate}")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.rate = rate
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LoadStep({self.rate:.1f}cps, {self.duration:.1f}s)"


class LoadProfile:
    """An ordered sequence of load steps."""

    def __init__(self, steps: Sequence[LoadStep]):
        if not steps:
            raise ValueError("profile needs at least one step")
        self.steps = list(steps)

    @classmethod
    def constant(cls, rate: float, duration: float) -> "LoadProfile":
        return cls([LoadStep(rate, duration)])

    @classmethod
    def staircase(
        cls, start: float, stop: float, step: float, step_duration: float
    ) -> "LoadProfile":
        """The paper's sweep: start..stop in increments of ``step``."""
        if step <= 0 or start <= 0 or stop < start:
            raise ValueError("need 0 < start <= stop and step > 0")
        steps: List[LoadStep] = []
        rate = start
        while rate <= stop + 1e-9:
            steps.append(LoadStep(rate, step_duration))
            rate += step
        return cls(steps)

    @classmethod
    def ramp(
        cls, start: float, stop: float, duration: float, segments: int = 10
    ) -> "LoadProfile":
        """Approximate a linear ramp with piecewise-constant segments."""
        if segments < 1:
            raise ValueError("segments must be >= 1")
        steps = []
        for index in range(segments):
            fraction = (index + 0.5) / segments
            rate = start + (stop - start) * fraction
            steps.append(LoadStep(rate, duration / segments))
        return cls(steps)

    @property
    def total_duration(self) -> float:
        return sum(step.duration for step in self.steps)

    def boundaries(self) -> List[Tuple[float, float]]:
        """(start_time, rate) pairs relative to profile start."""
        out = []
        t = 0.0
        for step in self.steps:
            out.append((t, step.rate))
            t += step.duration
        return out

    def __iter__(self):
        return iter(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LoadProfile steps={len(self.steps)} total={self.total_duration:.1f}s>"


def apply_profile(loop, generators: Iterable, profile: LoadProfile) -> float:
    """Schedule rate changes on generators; returns the end time.

    Each generator's share of the total rate is preserved: if two
    generators currently run at 80/20, a profile step to 1000 cps sets
    them to 800/200.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    base_total = sum(g.config.rate for g in generators)
    if base_total <= 0:
        raise ValueError("generators must have positive rates")
    shares = [g.config.rate / base_total for g in generators]

    start = loop.now
    for offset, rate in profile.boundaries():
        for generator, share in zip(generators, shares):
            loop.schedule_at(
                start + offset, generator.set_rate, max(rate * share, 1e-9)
            )
    return start + profile.total_duration
