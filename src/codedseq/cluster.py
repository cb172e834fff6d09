"""Straggler cluster simulation: random worker latencies and order statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatencyModel",
    "SeededRng",
    "sample_round",
    "order_stat_mean",
    "simulate_wait",
]

_KINDS = ("exponential", "deterministic", "shifted-exponential")


@dataclass(frozen=True)
class LatencyModel:
    """Per-round worker completion-time distribution."""

    kind: str
    rate: float = 1.0
    value: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown latency kind {self.kind!r}, expected {_KINDS}")
        # written so that NaN fails every check
        if self.kind in ("exponential", "shifted-exponential") and not (
            0 < self.rate < math.inf
        ):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if self.kind == "deterministic" and not 0 <= self.value < math.inf:
            raise ValueError(
                f"deterministic value must be finite and >= 0, got {self.value}"
            )
        if self.kind == "shifted-exponential" and not 0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "LatencyModel":
        return cls(kind="exponential", rate=rate)

    @classmethod
    def deterministic(cls, value: float) -> "LatencyModel":
        return cls(kind="deterministic", value=value)

    @classmethod
    def shifted_exponential(cls, shift: float, rate: float) -> "LatencyModel":
        return cls(kind="shifted-exponential", shift=shift, rate=rate)


class SeededRng:
    """Keyed deterministic RNG tree.

    A root seed plus a spawn-key path fully determines the stream, so any
    substream (per replication, per phase) is reproducible independently of
    draw order elsewhere.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = _key
        self._gen: np.random.Generator | None = None

    def spawn(self, *key: int) -> "SeededRng":
        return SeededRng(self.seed, self._key + tuple(int(k) for k in key))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def uniform_open_closed(self, size: int) -> np.ndarray:
        """Uniform draws in (0, 1], suitable for -log(u) inversions."""
        return 1.0 - self.generator.random(size)


def sample_round(model: LatencyModel, L: int, rng: SeededRng) -> np.ndarray:
    """Draw one round of L independent worker finish times, shape (L,)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if model.kind == "deterministic":
        return np.full(L, model.value)
    times = rng.uniform_open_closed(L)  # a fresh array: transform it in place
    np.negative(np.log(times, out=times), out=times)
    times /= model.rate
    if model.kind == "shifted-exponential":
        times += model.shift
    return times


def order_stat_mean(model: LatencyModel, L: int, ell: int) -> float:
    """Mean of T_(ell) for i.i.d. exponential latencies: (1/rate) * sum_{j=L-ell+1}^{L} 1/j."""
    if model.kind != "exponential":
        raise ValueError(
            f"closed-form order-statistic mean needs an exponential model, "
            f"got {model.kind!r}"
        )
    if not 1 <= ell <= L:
        raise ValueError(f"ell={ell} outside 1..{L}")
    return sum(1.0 / j for j in range(L - ell + 1, L + 1)) / model.rate


def simulate_wait(
    model: LatencyModel, L: int, ell_target: int, rng: SeededRng
) -> tuple[float, tuple[int, ...]]:
    """Wait until ell_target workers finish; return (T_(ell), responder ids).

    The responder ids are 1-based and sorted; ties go to the lower index.
    """
    if not 1 <= ell_target <= L:  # checked first, so a rejected call draws nothing
        raise ValueError(f"ell={ell_target} outside 1..{L}")
    times = sample_round(model, L, rng)
    order = times.argsort(kind="stable").tolist()
    responders = tuple(sorted(w + 1 for w in order[:ell_target]))
    return float(times[order[ell_target - 1]]), responders
