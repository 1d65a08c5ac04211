"""The metrics registry: counters and histograms by dotted name, with a
pluggable histogram backend.

- :class:`Registry` is the namespace object.  Its histogram backend is
  chosen at construction: the exact
  :class:`~repro.obs.metrics.Histogram` for paper-facing tables (via
  :class:`~repro.obs.metrics.MetricsRegistry`), or the bounded
  :class:`HdrHistogram` (the default), which the sharded service's
  reports use.
- :class:`HdrHistogram` is a log-bucketed (HDR-style) histogram: fixed
  memory, O(1) observe, percentiles with bounded relative error
  (≤ ~1.6% with the default 32 sub-buckets per power of two).  Bucket
  indices come from :func:`math.frexp`, which is exact IEEE-754
  arithmetic, so bucketing is deterministic across platforms.  Nothing
  merges histograms: the sharded service fills its report's registry
  in one pass over the settled outcomes, in shard order, whatever the
  worker count.
"""

from __future__ import annotations

import math
from typing import Any, Callable

#: sub-buckets per power of two — 32 gives ≤ ~1.6% relative error
HDR_SUBBUCKETS = 32


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class HdrHistogram:
    """Log-bucketed histogram with bounded memory and bounded error.

    Values are assigned to buckets ``(exponent, sub-bucket)`` via
    :func:`math.frexp`; each power of two is split into
    :data:`HDR_SUBBUCKETS` linear sub-buckets.  ``count``/``total``/
    ``minimum``/``maximum`` are tracked exactly; percentiles are
    nearest-rank over the buckets and return the bucket's upper bound
    clamped to the exact observed range, so ``p100 == maximum`` and the
    relative error of any percentile is at most one sub-bucket width.

    Non-positive observations land in a dedicated zero bucket (the
    registry records durations and depths, where 0 is common and
    negatives are a caller bug worth keeping visible in ``minimum``).
    """

    __slots__ = ("name", "_buckets", "count", "total", "_min", "_max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- bucketing ------------------------------------------------------
    @staticmethod
    def _index(value: float) -> int:
        if value <= 0.0:
            return -(10**9)  # the zero bucket, below every real index
        mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * HDR_SUBBUCKETS)
        if sub >= HDR_SUBBUCKETS:  # mantissa rounding at the top edge
            sub = HDR_SUBBUCKETS - 1
        return exponent * HDR_SUBBUCKETS + sub

    @staticmethod
    def _upper_bound(index: int) -> float:
        if index == -(10**9):
            return 0.0
        exponent, sub = divmod(index, HDR_SUBBUCKETS)
        mantissa = 0.5 + (sub + 1) / (2 * HDR_SUBBUCKETS)
        return math.ldexp(mantissa, exponent)

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        idx = self._index(value)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Any) -> None:
        for v in values:
            self.observe(v)

    # -- aggregates (the exact-histogram property surface) --------------
    @property
    def empty(self) -> bool:
        return self.count == 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.count else math.nan

    def percentile(self, p: float) -> float:
        if not self.count:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        rank = max(1, math.ceil(p / 100 * self.count))
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                return min(max(self._upper_bound(idx), self._min), self._max)
        return self._max  # pragma: no cover - rank <= count by construction

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        if self.empty:
            return f"HdrHistogram({self.name}: empty)"
        return (
            f"HdrHistogram({self.name}: n={self.count} mean={self.mean:.2f} "
            f"p50={self.p50:.2f} p99={self.p99:.2f})"
        )


class Registry:
    """A namespace of counters and histograms.

    Args:
        histogram_factory: histogram constructor — :class:`HdrHistogram`
            (default, bounded; shard reports) or the exact
            :class:`~repro.obs.metrics.Histogram` (paper-facing tables,
            via :class:`~repro.obs.metrics.MetricsRegistry`).
    """

    def __init__(
        self, *, histogram_factory: Callable[[str], Any] = HdrHistogram
    ) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Any] = {}
        self._histogram_factory = histogram_factory

    # -- metric accessors (create on first use) -------------------------
    def counter(self, name: str) -> Counter:
        ctr = self.counters.get(name)
        if ctr is None:
            ctr = self.counters[name] = Counter(name)
        return ctr

    def histogram(self, name: str) -> Any:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = self._histogram_factory(name)
        return hist

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self.histograms.items())
            },
        }

    def format_lines(self) -> list[str]:
        lines = []
        for name, ctr in sorted(self.counters.items()):
            lines.append(f"{name:36s} {ctr.value}")
        for name, hist in sorted(self.histograms.items()):
            if hist.empty:
                lines.append(f"{name:36s} (empty)")
                continue
            lines.append(
                f"{name:36s} n={hist.count:<5d} mean={hist.mean:8.2f} "
                f"p50={hist.p50:8.2f} p95={hist.p95:8.2f} "
                f"p99={hist.p99:8.2f} max={hist.maximum:8.2f}"
            )
        return lines


__all__ = ["Counter", "HDR_SUBBUCKETS", "HdrHistogram", "Registry"]
