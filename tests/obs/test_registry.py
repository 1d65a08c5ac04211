"""The registry: HDR histograms, the counter/histogram namespace, and
the exact-histogram subclass."""

import json
import math

import pytest

from repro.obs.registry import HDR_SUBBUCKETS, HdrHistogram, Registry


# ----------------------------------------------------------------------
# HdrHistogram
# ----------------------------------------------------------------------
def test_hdr_exact_aggregates():
    hist = HdrHistogram("lat")
    hist.observe_many(float(v) for v in range(1000, 0, -1))
    assert hist.count == 1000
    assert hist.total == pytest.approx(500500.0)
    assert hist.minimum == 1.0 and hist.maximum == 1000.0
    assert hist.mean == pytest.approx(500.5)


def test_hdr_percentile_bounded_relative_error():
    hist = HdrHistogram()
    hist.observe_many(float(v) for v in range(1, 10001))
    for p, expect in ((50, 5000.0), (95, 9500.0), (99, 9900.0)):
        got = hist.percentile(p)
        assert got >= expect  # bucket upper bound never undershoots
        assert got <= expect * (1 + 2 / HDR_SUBBUCKETS)
    # extremes are exact: clamped to the observed range
    assert hist.percentile(0) >= 1.0
    assert hist.percentile(100) == 10000.0


def test_hdr_single_value_and_zero_bucket():
    hist = HdrHistogram()
    hist.observe(3.0)
    assert hist.p50 == hist.p99 == 3.0
    hist2 = HdrHistogram()
    hist2.observe(0.0)
    hist2.observe(0.0)
    assert hist2.p50 == 0.0 and hist2.maximum == 0.0


def test_hdr_empty_is_nan_and_range_checked():
    hist = HdrHistogram("empty")
    assert hist.empty and math.isnan(hist.mean) and math.isnan(hist.p95)
    assert "empty" in repr(hist)
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    assert set(hist.summary()) == {
        "count", "mean", "min", "p50", "p95", "p99", "max",
    }


def test_hdr_bucketing_is_deterministic():
    """Same observations → same buckets, independent of insert order."""
    a, b = HdrHistogram(), HdrHistogram()
    values = [0.001, 0.5, 1.0, 1.03, 7.9, 1e6, 3.14159]
    a.observe_many(values)
    b.observe_many(reversed(values))
    assert a._buckets == b._buckets
    sa, sb = a.summary(), b.summary()
    assert sa["mean"] == pytest.approx(sb["mean"])  # float-sum order
    for key in ("count", "min", "p50", "p95", "p99", "max"):
        assert sa[key] == sb[key]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_namespace_and_to_dict():
    reg = Registry()
    reg.counter("ops").inc(3)
    reg.histogram("lat").observe(2.0)
    d = reg.to_dict()
    assert set(d) == {"counters", "histograms"}
    assert d["counters"] == {"ops": 3}
    assert d["histograms"]["lat"]["count"] == 1
    assert reg.counter("ops") is reg.counter("ops")


def test_registry_json_serializable():
    reg = Registry()
    reg.counter("a").inc()
    reg.histogram("b").observe(1.5)
    json.dumps(reg.to_dict())  # no NaN in populated metrics


# ----------------------------------------------------------------------
# exact subclass
# ----------------------------------------------------------------------
def test_metrics_registry_is_a_registry_with_exact_histograms():
    from repro.obs.metrics import Histogram, MetricsRegistry

    reg = MetricsRegistry()
    assert isinstance(reg, Registry)
    assert isinstance(reg.histogram("lat"), Histogram)
    reg.histogram("lat").observe_many([3.0, 1.0, 2.0])
    assert reg.histogram("lat").p50 == 2.0  # exact, not bucketed

