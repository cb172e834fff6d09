"""Straggler cluster simulation: random worker latencies and order statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .feasibility import as_count

__all__ = [
    "LatencyModel",
    "SeededRng",
    "sample_round",
    "order_stat_mean",
    "simulate_wait",
]

# Each latency kind and the parameters it reads; the others keep their defaults.
_READS = {
    "exponential": ("rate",),
    "deterministic": ("value",),
    "shifted-exponential": ("rate", "shift"),
}


@dataclass(frozen=True)
class LatencyModel:
    """Per-round worker completion-time distribution."""

    kind: str = "exponential"
    rate: float = 1.0
    value: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _READS:
            raise ValueError(f"unknown latency kind {self.kind!r}, "
                             f"expected {tuple(_READS)}")
        reads = _READS[self.kind]
        ignored = [f"{field.name} = {getattr(self, field.name)}" for field in fields(self)[1:]
                   if field.name not in reads and getattr(self, field.name) != field.default]
        if ignored:
            raise ValueError(f"latency kind {self.kind!r} reads only {', '.join(reads)}; "
                             f"it ignores {', '.join(ignored)}")
        # every default passes these; written so that NaN fails every check
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not 0 <= self.value < math.inf:
            raise ValueError(
                f"deterministic value must be finite and >= 0, got {self.value}"
            )
        if not 0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "LatencyModel":
        return cls(kind="exponential", rate=rate)

    @classmethod
    def deterministic(cls, value: float) -> "LatencyModel":
        return cls(kind="deterministic", value=value)


class SeededRng:
    """Keyed deterministic RNG tree.

    A root seed plus a spawn-key path fully determines the stream, so any
    substream (per replication, per phase) is reproducible independently of
    draw order elsewhere.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        # SeedSequence would refuse a negative seed only at the first draw
        self.seed = as_count("seed", seed, 0)
        self._key = _key
        self._gen: np.random.Generator | None = None

    def spawn(self, *key: int) -> "SeededRng":
        """The substream at this path plus ``key``, whose entries follow the
        seed's rule: each a count (``as_count``) and >= 0, refused here."""
        key = tuple(as_count("spawn key", k, 0) for k in key)
        return SeededRng(self.seed, self._key + key)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen


def sample_round(model: LatencyModel, L: int, rng: SeededRng) -> np.ndarray:
    """Draw one round of L independent worker finish times, shape (L,)."""
    L = as_count("L", L, 1)
    if model.kind == "deterministic":
        return np.full(L, model.value)
    times = rng.generator.random(L)  # a fresh array in [0, 1): transform it in place
    np.subtract(1.0, times, out=times)  # u -> 1 - u in (0, 1], so the log is finite
    np.negative(np.log(times, out=times), out=times)
    times /= model.rate
    if model.kind == "shifted-exponential":
        times += model.shift
    return times


def order_stat_mean(model: LatencyModel, L: int, ell: int) -> float:
    """Mean of T_(ell), the ell-th smallest of L i.i.d. latencies, in closed
    form for each law: (1/rate) * sum_{j=L-ell+1}^{L} 1/j for exponential,
    shift plus that for shifted-exponential, and value for deterministic."""
    ell = as_count("ell", ell, 1, as_count("L", L, 1))
    if model.kind == "deterministic":
        return model.value
    mean = sum(1.0 / j for j in range(L - ell + 1, L + 1)) / model.rate
    if model.kind == "shifted-exponential":
        mean += model.shift
    return mean


def simulate_wait(
    model: LatencyModel, L: int, ell_target: int, rng: SeededRng
) -> tuple[float, tuple[int, ...]]:
    """Wait until ell_target workers finish; return (T_(ell), responder ids).

    The responder ids are 1-based and sorted; ties go to the lower index.
    """
    # checked first, so a rejected call draws nothing
    ell_target = as_count("ell", ell_target, 1, as_count("L", L, 1))
    times = sample_round(model, L, rng)
    first = times.argsort(kind="stable").tolist()[:ell_target]
    elapsed = float(times[first[-1]])
    first.sort()
    return elapsed, tuple([w + 1 for w in first])
