"""Tests for latency metrics."""

import math

import pytest

from repro.harness.metrics import (
    EMPTY_STATS,
    collect_registry,
    growth_exponent,
    summarize,
)
from repro.runtime.cluster import OpHandle
from repro.spec.history import History


def handle(node, kind, t0, t1):
    h = History(8)
    op = h.invoke(node, kind, (), t0)
    h.respond(op, t1, None)
    out = OpHandle(node=node, kind=kind, args=())
    out.record = op
    out.done = True
    return out


def test_summarize_basic():
    hs = [handle(0, "scan", 0.0, 2.0), handle(1, "scan", 0.0, 4.0)]
    stats = summarize(hs, D=2.0)
    assert stats.count == 2
    assert stats.mean == pytest.approx(1.5)
    assert stats.maximum == 2.0 and stats.minimum == 1.0
    assert stats.amortized == stats.mean


def test_summarize_skips_incomplete():
    done = handle(0, "scan", 0.0, 2.0)
    pending = OpHandle(node=1, kind="scan", args=())
    stats = summarize([done, pending], D=1.0)
    assert stats.count == 1


def test_summarize_empty():
    stats = summarize([], D=1.0)
    assert stats.count == 0 and math.isnan(stats.mean)
    # the empty case is explicit, not NaN-poisoned formatting
    assert stats.empty
    assert stats == EMPTY_STATS
    assert str(stats) == "n=0 (empty)"
    assert stats.total == 0.0 and math.isnan(stats.p95)


def test_summarize_percentiles():
    hs = [handle(i % 8, "scan", 0.0, float(i + 1)) for i in range(20)]
    stats = summarize(hs, D=1.0)
    assert not stats.empty
    assert stats.p50 == 10.0 and stats.p95 == 19.0 and stats.p99 == 20.0
    assert "p95=19.00D" in str(stats)


def test_collect_registry_from_handles():
    hs = [handle(0, "scan", 0.0, 4.0), handle(1, "update", 0.0, 6.0)]
    reg = collect_registry(hs, D=2.0)
    assert reg.counter("ops.scan").value == 1
    assert reg.histogram("latency_D.update").mean == 3.0


def test_growth_exponent_linear():
    xs = [1, 2, 4, 8, 16]
    assert growth_exponent(xs, [2 * x for x in xs]) == pytest.approx(1.0)


def test_growth_exponent_sqrt():
    xs = [1, 4, 16, 64]
    assert growth_exponent(xs, [math.sqrt(x) for x in xs]) == pytest.approx(0.5)


def test_growth_exponent_constant():
    assert growth_exponent([1, 2, 4], [3.0, 3.0, 3.0]) == pytest.approx(0.0)


def test_growth_exponent_needs_two_points():
    with pytest.raises(ValueError):
        growth_exponent([1], [1])
    with pytest.raises(ValueError):
        growth_exponent([0, 0], [1, 1])  # non-positive xs dropped
