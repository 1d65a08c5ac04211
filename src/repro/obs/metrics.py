"""Paper-facing metrics: exact histograms over the v2 registry core.

The harnesses used to pass raw latency lists around; this module gives
them one vocabulary.  Since the registry-v2 refactor the namespace
machinery (counters, gauges, windowed snapshots, no-op mode) lives in
:mod:`repro.obs.registry`; what stays here is the *exact* end of the
telemetry plane: the list-backed :class:`Histogram` with nearest-rank
percentiles, and :class:`MetricsRegistry`, which is the v2
:class:`~repro.obs.registry.Registry` specialized to that histogram.
Experiment tables and ``BENCH_macro.json`` fingerprints depend on these
aggregates being byte-reproducible across platforms, so paper-facing
code keeps the exact backend; live telemetry uses the bounded
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
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.obs.registry import Counter, Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.spans import OpSpan
    from repro.runtime.cluster import OpHandle


class Histogram:
    """Exact histogram with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_sorted", "_win_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True
        # window state is a separate list (not a positional mark into
        # _values): percentile() sorts _values in place, which would
        # scramble any index-based window boundary
        self._win_values: list[float] = []

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._win_values.append(value)

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

    # -- windows --------------------------------------------------------
    def window_summary(self, *, reset: bool = True) -> dict[str, float]:
        """Exact aggregates of the observations since the last window
        reset — the same shape :meth:`HdrHistogram.window_summary`
        returns, so :meth:`Registry.window` reports true deltas on both
        backends."""
        values = sorted(self._win_values)
        count = len(values)
        if count == 0:
            out = {
                "count": 0,
                "mean": math.nan,
                "min": math.nan,
                "p50": math.nan,
                "p95": math.nan,
                "p99": math.nan,
                "max": math.nan,
            }
        else:
            def rank(p: float) -> float:
                return values[max(1, math.ceil(p / 100 * count)) - 1]

            out = {
                "count": count,
                "mean": sum(values) / count,
                "min": values[0],
                "p50": rank(50),
                "p95": rank(95),
                "p99": rank(99),
                "max": values[-1],
            }
        if reset:
            self._win_values = []
        return out

    def __repr__(self) -> str:
        if self.empty:
            return f"Histogram({self.name}: empty)"
        return (
            f"Histogram({self.name}: n={self.count} mean={self.mean:.2f} "
            f"p50={self.p50:.2f} p95={self.p95:.2f} p99={self.p99:.2f})"
        )

    def merge(self, other: "Histogram") -> None:
        """Fold another exact histogram's observations into this one.

        Exact histograms merge losslessly (the observations themselves
        are kept), so percentiles after a merge equal those of a single
        histogram fed both observation streams — what the parallel
        executor relies on when folding worker registries together.
        """
        theirs = other._values
        if not theirs:
            return
        if self._values and theirs[0] < self._values[-1]:
            self._sorted = False
        elif not other._sorted:
            self._sorted = False
        self._values.extend(theirs)
        # mirror HdrHistogram.merge: merged-in observations are new to
        # this registry's current window
        self._win_values.extend(theirs)


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


def percentiles(values: Iterable[float]) -> Mapping[str, float]:
    """Convenience: one-shot p50/p95/p99 of a value list."""
    hist = Histogram()
    hist.observe_many(values)
    return {"p50": hist.p50, "p95": hist.p95, "p99": hist.p99}


__all__ = ["Counter", "Histogram", "MetricsRegistry", "percentiles"]
