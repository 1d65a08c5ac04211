"""Latency metrics, expressed in units of the maximum message delay D.

The paper measures time complexity on the observer clock, normalized by
``D``.  All statistics here divide raw simulated latencies by the
cluster's ``D`` so the reported numbers are directly comparable to the
complexity table (e.g. a failure-free EQ-ASO scan measures 4.0 — the
``2D`` readTag plus the ``2D`` lattice round).

Statistics are computed through the observability layer's
:class:`repro.obs.metrics.Histogram`, which adds exact p50/p95/p99
percentiles; :func:`collect_registry` aggregates a whole handle set into
a :class:`repro.obs.metrics.MetricsRegistry` (latency, per-D rounds and
per-op message counts, split by operation kind) for the table and
scaling harnesses.  ``MetricsRegistry`` is
:class:`~repro.obs.registry.Registry` with the exact histogram backend,
so paper tables stay byte-reproducible; shard reports use the bounded
``HdrHistogram`` backend of the same interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runtime.cluster import OpHandle


@dataclass(frozen=True, slots=True)
class LatencyStats:
    """Aggregate latency of a set of operations, in units of D.

    An empty handle set yields ``count == 0`` with every statistic
    ``NaN``; check :attr:`empty` (or ``count``) before formatting —
    ``str()`` of an empty instance renders ``"n=0 (empty)"`` instead of
    a row of NaNs."""

    count: int
    mean: float
    maximum: float
    minimum: float
    total: float
    p50: float = math.nan
    p95: float = math.nan
    p99: float = math.nan

    @property
    def empty(self) -> bool:
        """True when no completed operation contributed."""
        return self.count == 0

    @property
    def amortized(self) -> float:
        """Average time per operation — the paper's amortized measure."""
        return self.mean

    def __str__(self) -> str:
        if self.empty:
            return "n=0 (empty)"
        return (
            f"n={self.count} mean={self.mean:.2f}D max={self.maximum:.2f}D "
            f"min={self.minimum:.2f}D p50={self.p50:.2f}D "
            f"p95={self.p95:.2f}D p99={self.p99:.2f}D"
        )


#: the canonical empty result (``summarize([])`` returns an equal value)
EMPTY_STATS = LatencyStats(
    0, math.nan, math.nan, math.nan, 0.0, math.nan, math.nan, math.nan
)


def summarize(handles: Iterable[OpHandle], D: float) -> LatencyStats:
    """Latency statistics over the completed operations in ``handles``."""
    hist = Histogram("latency_D")
    hist.observe_many(h.latency / D for h in handles if h.done)
    if hist.empty:
        return EMPTY_STATS
    return LatencyStats(
        count=hist.count,
        mean=hist.mean,
        maximum=hist.maximum,
        minimum=hist.minimum,
        total=hist.total,
        p50=hist.p50,
        p95=hist.p95,
        p99=hist.p99,
    )


def by_kind(handles: Sequence[OpHandle], D: float) -> dict[str, LatencyStats]:
    """Split statistics by operation kind (update / scan / ...)."""
    kinds = sorted({h.kind for h in handles})
    return {
        kind: summarize([h for h in handles if h.kind == kind], D)
        for kind in kinds
    }


def collect_registry(
    handles: Iterable[OpHandle], D: float, *, spans: Iterable = ()
) -> MetricsRegistry:
    """Aggregate handles (and optional spans) into a metrics registry:
    per-kind latency/rounds/message histograms plus op counters."""
    return MetricsRegistry.from_handles(handles, D, spans=spans)


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — the measured growth
    order (≈0 constant, ≈0.5 square-root, ≈1 linear).  Points with
    non-positive coordinates are dropped."""
    pts = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    if sxx == 0:
        return 0.0
    return sxy / sxx


__all__ = [
    "EMPTY_STATS",
    "LatencyStats",
    "by_kind",
    "collect_registry",
    "growth_exponent",
    "summarize",
]
