"""Paper-facing metrics: exact histograms over the registry core.

The namespace machinery (counters, histograms by name, ``to_dict``,
``format_lines``) lives in :mod:`repro.obs.registry`; what stays here
is the *exact* histogram backend: the list-backed :class:`Histogram`
with nearest-rank percentiles, and :class:`MetricsRegistry`, which is
:class:`~repro.obs.registry.Registry` specialized to it.  Experiment
tables and ``BENCH_macro*.json`` fingerprints depend on these aggregates
being byte-reproducible across platforms, so paper-facing code keeps
the exact backend; shard reports use the bounded
:class:`~repro.obs.registry.HdrHistogram` instead.

Naming convention used by :meth:`MetricsRegistry.observe_op`:

- ``ops.<kind>`` / ``ops.aborted`` — counters;
- ``latency_D.<kind>`` — end-to-end latency in units of ``D``;
- ``rounds.<kind>`` — the per-D round count (``latency / D``, the
  paper's unit of time complexity);
- ``messages.<kind>`` — messages the invoking node sent during the op;
- ``phase_D.<kind>.<phase>`` — per-phase time in units of ``D`` (only
  when spans are supplied).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.obs.registry import Counter, Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.spans import OpSpan
    from repro.runtime.cluster import OpHandle


class Histogram:
    """Exact histogram with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    # -- aggregates -----------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def empty(self) -> bool:
        return not self._values

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / len(self._values) if self._values else math.nan

    @property
    def minimum(self) -> float:
        return min(self._values) if self._values else math.nan

    @property
    def maximum(self) -> float:
        return max(self._values) if self._values else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100])."""
        if not self._values:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range [0, 100]")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100 * len(self._values)))
        return self._values[rank - 1]

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
            return f"Histogram({self.name}: empty)"
        return (
            f"Histogram({self.name}: n={self.count} mean={self.mean:.2f} "
            f"p50={self.p50:.2f} p95={self.p95:.2f} p99={self.p99:.2f})"
        )


class MetricsRegistry(Registry):
    """A namespace of counters and *exact* histograms for one run."""

    def __init__(self) -> None:
        super().__init__(histogram_factory=Histogram)

    def histogram(self, name: str) -> Histogram:
        return super().histogram(name)

    # ------------------------------------------------------------------
    def observe_op(self, handle: "OpHandle", D: float) -> None:
        """Record one completed (or aborted) operation handle."""
        if handle.aborted:
            self.counter("ops.aborted").inc()
            return
        if not handle.done:
            return
        kind = handle.kind
        lat = handle.latency / D
        self.counter(f"ops.{kind}").inc()
        self.histogram(f"latency_D.{kind}").observe(lat)
        self.histogram(f"rounds.{kind}").observe(lat)
        self.histogram(f"messages.{kind}").observe(handle.messages_sent)

    def observe_span(self, span: "OpSpan", D: float) -> None:
        """Record per-phase accounting from one closed span."""
        if span.aborted or span.t_resp is None:
            return
        for name, dur in span.phase_durations(D).items():
            self.histogram(f"phase_D.{span.kind}.{name}").observe(dur)

    @classmethod
    def from_handles(
        cls,
        handles: Iterable["OpHandle"],
        D: float,
        *,
        spans: Iterable["OpSpan"] = (),
    ) -> "MetricsRegistry":
        reg = cls()
        for handle in handles:
            reg.observe_op(handle, D)
        for span in spans:
            reg.observe_span(span, D)
        return reg


__all__ = ["Counter", "Histogram", "MetricsRegistry"]
