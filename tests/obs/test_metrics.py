"""Counters, histograms, the registry, and payload labels."""

import math
from dataclasses import dataclass

import pytest

from repro.core import byz_messages as bm
from repro.core import messages as m
from repro.core.tags import Timestamp, ValueTs
from repro.obs.describe import describe_payload
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import OpSpan
from repro.runtime.cluster import OpHandle
from repro.spec.history import History


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_nearest_rank_percentiles():
    hist = Histogram("lat")
    hist.observe_many(float(v) for v in range(100, 0, -1))  # unsorted insert
    assert hist.count == 100
    assert hist.p50 == 50.0 and hist.p95 == 95.0 and hist.p99 == 99.0
    assert hist.percentile(0) == 1.0 and hist.percentile(100) == 100.0
    assert hist.mean == pytest.approx(50.5)
    assert hist.minimum == 1.0 and hist.maximum == 100.0


def test_histogram_single_value():
    hist = Histogram()
    hist.observe(3.0)
    assert hist.p50 == hist.p99 == 3.0


def test_histogram_empty_is_nan_not_poison():
    hist = Histogram("empty")
    assert hist.empty and hist.count == 0 and hist.total == 0.0
    assert math.isnan(hist.mean) and math.isnan(hist.p95)
    assert "empty" in repr(hist)


def test_histogram_percentile_range_checked():
    hist = Histogram()
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


def test_histogram_summary_keys():
    hist = Histogram()
    hist.observe_many([1.0, 2.0, 3.0])
    assert set(hist.summary()) == {"count", "mean", "min", "p50", "p95", "p99", "max"}


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def make_handle(node, kind, t0, t1, *, sent=7, aborted=False):
    h = History(8)
    op = h.invoke(node, kind, (), t0)
    if not aborted:
        h.respond(op, t1, None)
    out = OpHandle(node=node, kind=kind, args=())
    out.record = op
    out.done = not aborted
    out.aborted = aborted
    out.sent_at_resp = sent
    return out


def test_registry_from_handles():
    handles = [
        make_handle(0, "scan", 0.0, 4.0, sent=18),
        make_handle(1, "scan", 0.0, 6.0, sent=20),
        make_handle(2, "update", 0.0, 6.0, sent=38),
        make_handle(3, "update", 0.0, 1.0, aborted=True),
    ]
    reg = MetricsRegistry.from_handles(handles, D=2.0)
    assert reg.counter("ops.scan").value == 2
    assert reg.counter("ops.update").value == 1
    assert reg.counter("ops.aborted").value == 1
    assert reg.histogram("latency_D.scan").mean == pytest.approx(2.5)
    assert reg.histogram("rounds.update").maximum == pytest.approx(3.0)
    assert reg.histogram("messages.update").mean == pytest.approx(38.0)
    # aborted op contributes nothing but the counter
    assert reg.histogram("latency_D.update").count == 1


def test_registry_observe_span_phase_histograms():
    span = OpSpan(op_id=1, node=0, kind="scan", t_inv=0.0)
    span.enter_phase("readTag", 0.0)
    span.exit_phase("readTag", 2.0)
    span.enter_phase("lattice", 2.0)
    span.exit_phase("lattice", 4.0)
    span.close(4.0)
    reg = MetricsRegistry()
    reg.observe_span(span, D=1.0)
    assert reg.histogram("phase_D.scan.readTag").mean == pytest.approx(2.0)
    assert reg.histogram("phase_D.scan.lattice").mean == pytest.approx(2.0)


def test_registry_skips_aborted_spans():
    span = OpSpan(op_id=1, node=0, kind="scan", t_inv=0.0)
    span.enter_phase("readTag", 0.0)
    span.close(1.0, aborted=True)
    reg = MetricsRegistry()
    reg.observe_span(span, D=1.0)
    assert not reg.histograms


def test_registry_to_dict_and_format():
    reg = MetricsRegistry()
    reg.counter("ops.scan").inc()
    reg.histogram("latency_D.scan").observe(4.0)
    reg.histogram("never.observed")
    d = reg.to_dict()
    assert d["counters"] == {"ops.scan": 1}
    assert d["histograms"]["latency_D.scan"]["p50"] == 4.0
    lines = "\n".join(reg.format_lines())
    assert "ops.scan" in lines and "(empty)" in lines


# ----------------------------------------------------------------------
# span edge cases
# ----------------------------------------------------------------------
def test_span_tolerates_mismatched_exit():
    span = OpSpan(op_id=1, node=0, kind="scan", t_inv=0.0)
    span.exit_phase("never-entered", 1.0)  # silently ignored
    span.enter_phase("outer", 0.0)
    span.enter_phase("inner", 1.0)
    span.exit_phase("outer", 2.0)  # out of order: closes outer, inner stays
    span.close(3.0)
    assert span.phase_durations(1.0) == {"outer": pytest.approx(2.0)}
    inner = next(p for p in span.phases if p.name == "inner")
    assert inner.t_end == 3.0 and inner.depth == 1  # truncated at close


# ----------------------------------------------------------------------
# describe_payload
# ----------------------------------------------------------------------
def vt(value="v", tag=3, writer=1):
    return ValueTs(value, Timestamp(tag, writer), 1)


def test_describe_core_messages():
    assert describe_payload(m.MValue(vt())) == "value:v/3"
    assert describe_payload(m.MWriteTag(5, 9)) == "writeTag:5"
    assert describe_payload(m.MWriteAck(5, 9)) == "writeAck:5"
    assert describe_payload(m.MReadTag(1)) == "readTag"
    assert describe_payload(m.MReadAck(4, 1)) == "readAck:4"
    assert describe_payload(m.MEchoTag(2)) == "echoTag:2"
    assert describe_payload(m.MGoodLA(6)) == "goodLA:6"
    assert describe_payload(m.MValueAck(vt())) == "valueAck:v/3"


def test_describe_byzantine_messages_not_blank():
    assert describe_payload(bm.MHave(vt())) == "have:v/3"
    label = describe_payload(bm.MByzGoodLA(4, frozenset({vt(), vt(tag=5)})))
    assert label == "byzGoodLA:4/|2|"


def test_describe_generic_fallback():
    @dataclass(frozen=True)
    class MMysteryWire:
        seq: int
        blob: str

    label = describe_payload(MMysteryWire(7, "x" * 50))
    assert label.startswith("MysteryWire(seq=7")
    assert "..." in label and len(label) < 80  # long fields truncated

    class Opaque:
        pass

    assert describe_payload(Opaque()) == "Opaque"
