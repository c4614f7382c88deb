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

_log = math.log
_sqrt = math.sqrt
_cos = math.cos
_sin = math.sin
_exp = math.exp
_TWOPI = 2.0 * math.pi

# Turbo-engine dispatch reduction: inline the pure-Python wrappers of
# random.Random (expovariate, gauss) with the exact same arithmetic on
# the exact same underlying uniforms, so every draw stays bit-identical
# to the reference engine.  Flipped by repro.sip.message.set_engine_mode.
_RNG_FAST = False

# 256-entry hex table so token() formats bytes by lookup, not f-string.
_HEX = tuple(f"{i:02x}" for i in range(256))


def set_rng_fast_path(enabled: bool) -> None:
    global _RNG_FAST
    _RNG_FAST = enabled


def rng_fast_path_active() -> bool:
    return _RNG_FAST


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
        # Pre-draw machinery (turbo): a stream whose owner declares it
        # exclusive to exponential()/lognormal_unit_mean() may batch the
        # underlying uniforms ahead of need.  Values are consumed in draw
        # order, so every sample is bit-identical to on-demand draws.
        self._predraw_block = 0
        self._pre: list = []
        self._pre_pos = 0

    def spawn(self, name: str) -> "RngStream":
        """Create an independent child stream (stable for a given name)."""
        return RngStream(self.seed, f"{self.name}/{name}")

    def enable_predraw(self, block: int = 256) -> None:
        """Batch underlying uniforms for this stream (turbo engine).

        Only valid on streams consumed exclusively through
        :meth:`exponential` / :meth:`lognormal_unit_mean`: the batch
        advances the underlying Mersenne state ahead of delivery, so a
        direct draw (uniform, token, ...) interleaved with buffered ones
        would observe a different stream position.
        """
        if block < 1:
            raise ValueError(f"block must be >= 1: {block}")
        self._predraw_block = block

    def _next_uniform(self) -> float:
        """Next underlying uniform, through the pre-draw buffer if armed."""
        if not self._predraw_block:
            return self._random.random()
        pos = self._pre_pos
        pre = self._pre
        if pos < len(pre):
            self._pre_pos = pos + 1
            return pre[pos]
        rnd = self._random.random
        self._pre = pre = [rnd() for _ in range(self._predraw_block)]
        self._pre_pos = 1
        return pre[0]

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival sample with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive: {mean}")
        if _RNG_FAST:
            # Same arithmetic as Random.expovariate(1.0 / mean) -- the
            # division by lambd is kept (not folded into a multiply by
            # mean) so the result is bit-identical.
            return -_log(1.0 - self._next_uniform()) / (1.0 / mean)
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
        if _RNG_FAST:
            # Inline of Random.gauss (Box-Muller with the cached second
            # sample kept in the underlying Random's own gauss_next slot,
            # so mixing with direct gauss() calls stays coherent).
            rnd = self._random
            z = rnd.gauss_next
            if z is None:
                x2pi = self._next_uniform() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - self._next_uniform()))
                z = _cos(x2pi) * g2rad
                rnd.gauss_next = _sin(x2pi) * g2rad
            else:
                rnd.gauss_next = None
            return _exp(mu + z * sigma)
        return math.exp(self._random.gauss(mu, sigma))

    def pareto(self, alpha: float, xm: float = 1.0) -> float:
        """Pareto sample with shape ``alpha`` and scale (minimum) ``xm``.

        Inverse-CDF form ``xm * U^(-1/alpha)``; the underlying uniform is
        drawn directly (this stream is never pre-drawn) so the sample is
        engine-independent.
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
        if _RNG_FAST:
            # Same randrange draws, formatted by table lookup.
            randrange = self._random.randrange
            return "".join([_HEX[randrange(256)] for _ in range(nbytes)])
        return "".join(f"{self._random.randrange(256):02x}" for _ in range(nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngStream seed={self.seed} name={self.name!r}>"
