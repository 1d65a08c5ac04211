"""Seeded randomness for replayable experiments.

Every stochastic component (delay models, workloads, fault schedules)
receives its own :class:`SeededRng` derived from the experiment master seed
and a stable string label, so adding a new consumer never perturbs the
random streams of existing ones (the classic "seed hygiene" rule for
simulation studies).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master: int, *labels: str | int) -> int:
    """Derive a child seed from a master seed and a label path.

    Stable across Python versions and processes (uses SHA-256, not
    ``hash()``, which is salted per process).
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "big")


class SeededRng:
    """A thin deterministic wrapper over :class:`random.Random`.

    Exposes only the operations the library needs, which keeps the random
    call-sequence contract small and auditable.
    """

    __slots__ = ("seed", "_rng", "random")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        #: the stream's bound ``random()`` — per-message samplers hold
        #: this directly instead of paying a wrapper frame per draw
        self.random: Callable[[], float] = self._rng.random

    def child(self, *labels: str | int) -> "SeededRng":
        """Derive an independent child stream."""
        return SeededRng(derive_seed(self.seed, *labels))

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(population, k)

    def shuffle(self, items: list[T]) -> None:
        self._rng.shuffle(items)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)


__all__ = ["SeededRng", "derive_seed"]
