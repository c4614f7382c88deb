"""Reproducible named random streams.

Every stochastic component of the simulation (arrival process, service
time noise, link loss, jitter) draws from its own stream, derived from a
root seed and a stable name.  Adding a new consumer therefore never
perturbs the draws seen by existing consumers, which keeps regression
baselines stable across refactors.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable (seed, name) -> child seed mapping via SHA-256."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named random stream with the distributions the simulator needs."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = seed
        self.name = name
        self._random = random.Random(_derive_seed(seed, name))

    def spawn(self, name: str) -> "RngStream":
        """Create an independent child stream (stable for a given name)."""
        return RngStream(self.seed, f"{self.name}/{name}")

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival sample with the given mean."""
        if not (mean > 0 and math.isfinite(mean)):
            raise ValueError(f"mean must be finite and positive: {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal_unit_mean(self, sigma: float) -> float:
        """Lognormal multiplier with mean exactly 1.

        Used to put realistic variance on per-message CPU service times:
        ``X = exp(N(-sigma^2 / 2, sigma))`` so ``E[X] = 1``.  ``sigma = 0``
        degenerates to the constant 1 (deterministic service).
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0: {sigma}")
        if sigma == 0:
            return 1.0
        mu = -0.5 * sigma * sigma
        return math.exp(self._random.gauss(mu, sigma))

    def pareto(self, alpha: float, xm: float = 1.0) -> float:
        """Pareto sample with shape ``alpha`` and scale (minimum) ``xm``.

        Inverse-CDF form ``xm * U^(-1/alpha)``; the underlying uniform is
        drawn directly.
        """
        if alpha <= 0:
            raise ValueError(f"alpha must be positive: {alpha}")
        if xm <= 0:
            raise ValueError(f"xm must be positive: {xm}")
        u = 1.0 - self._random.random()
        return xm * u ** (-1.0 / alpha)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        if p == 0.0:
            return False
        return self._random.random() < p

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    def token(self, nbytes: int = 8) -> str:
        """Random hex token (used for SIP branch/tag/nonce generation)."""
        return "".join(f"{self._random.randrange(256):02x}" for _ in range(nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngStream seed={self.seed} name={self.name!r}>"
