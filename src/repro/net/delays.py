"""Message delay models.

The paper measures time in units of ``D``, the maximum message delay, which
nodes cannot observe.  A :class:`DelayModel` is the adversary's lever: it
assigns each message a delay in ``[0, D]``.  The worst-case experiments use
:class:`AdversarialDelay` with a schedule function; the common-case ones use
:class:`UniformDelay`.

Self-addressed messages are local memory operations and are delivered with
zero delay by every model (a node talking to itself does not traverse the
network; this matches the standard treatment in [8], [19]).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.sim.rng import SeededRng


class DelayModel(ABC):
    """Assigns a delivery delay to each message.

    Implementations must return values in ``[0, self.D]``; the network
    asserts this so that latency-in-``D`` measurements stay meaningful.
    """

    def __init__(self, D: float) -> None:
        if D <= 0:
            raise ValueError(f"D must be positive, got {D}")
        self.D = float(D)

    @abstractmethod
    def sample(self, src: int, dst: int, payload: Any, now: float) -> float:
        """Delay for a message from ``src`` to ``dst`` (``src != dst``)
        sent at ``now``.  The network binds this method once and checks
        every draw against ``[0, D]``."""


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` (default: ``D``).

    ``delay = D`` is the paper's "extreme case when every message suffers
    delay D" (Sec. III-C); it makes latency/D ratios exact integers in the
    failure-free analysis.
    """

    def __init__(self, D: float, delay: float | None = None) -> None:
        super().__init__(D)
        self.delay = D if delay is None else float(delay)
        if not 0.0 <= self.delay <= self.D:
            raise ValueError(f"constant delay {self.delay} outside [0, {D}]")

    def sample(self, src: int, dst: int, payload: Any, now: float) -> float:
        return self.delay


class UniformDelay(DelayModel):
    """Delays drawn i.i.d. uniformly from ``[lo, hi] ⊆ [0, D]``."""

    def __init__(
        self,
        D: float,
        rng: SeededRng,
        lo: float = 0.0,
        hi: float | None = None,
    ) -> None:
        super().__init__(D)
        self.lo = float(lo)
        self.hi = D if hi is None else float(hi)
        if not 0.0 <= self.lo <= self.hi <= self.D:
            raise ValueError(f"bad uniform range [{lo}, {hi}] for D={D}")
        self._span = self.hi - self.lo
        self._random = rng.random

    def sample(self, src: int, dst: int, payload: Any, now: float) -> float:
        # random.Random.uniform's own expression, minus two frames
        return self.lo + self._span * self._random()


class AdversarialDelay(DelayModel):
    """Delay chosen by an explicit adversary function.

    The function receives ``(src, dst, payload, now)`` and returns a delay
    in ``[0, D]`` or ``None`` to fall back to the default delay.  The
    failure-chain staircase of the worst-case benchmarks is expressed this
    way (the chaos plans' ``doomed`` delay kind): every message carrying a
    doomed chain head's value takes the full ``D`` and everything else is
    fast.
    """

    def __init__(
        self,
        D: float,
        schedule: Callable[[int, int, Any, float], float | None],
        *,
        default: float | None = None,
    ) -> None:
        super().__init__(D)
        self._choose = schedule
        self.default = D if default is None else float(default)
        if not 0.0 <= self.default <= self.D:
            raise ValueError(f"default delay {self.default} outside [0, {D}]")

    def sample(self, src: int, dst: int, payload: Any, now: float) -> float:
        d = self._choose(src, dst, payload, now)
        return self.default if d is None else float(d)


__all__ = ["DelayModel", "ConstantDelay", "UniformDelay", "AdversarialDelay"]
