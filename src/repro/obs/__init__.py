"""Observability: structured events, operation spans, metrics, traces.

The subsystem has four pieces, all deterministic and all zero-overhead
when disabled:

- **event log** (:mod:`repro.obs.events`, :mod:`repro.obs.tracer`):
  typed send/deliver/drop/crash/op/phase events with sim-time and Lamport
  clocks, emitted by the network and the cluster driver into a sink;
- **operation spans** (:mod:`repro.obs.spans`): per-operation phase
  accounting — a failure-free EQ-ASO scan decomposes into
  ``readTag ≈ 2D`` plus ``lattice ≈ 2D``;
- **metrics registry** (:mod:`repro.obs.registry`,
  :mod:`repro.obs.metrics`): counters and percentile histograms — exact
  for the paper's tables, HDR-bucketed for shard reports;
- **trace export, query & replay** (:mod:`repro.obs.export`,
  :mod:`repro.obs.query`, :mod:`repro.obs.replay`,
  ``python -m repro.obs``): byte-stable JSONL traces plus a CLI to
  aggregate, render and replay-check them.

Quickstart::

    from repro.core import EqAso
    from repro.obs import MemorySink, Tracer, export_jsonl
    from repro.runtime.cluster import Cluster

    tracer = Tracer(MemorySink(), meta={"algorithm": "EqAso", "D": 1.0})
    cluster = Cluster(EqAso, n=5, f=2, tracer=tracer)
    cluster.run_ops([(0.0, 0, "update", ("x",)), (5.0, 1, "scan", ())])
    export_jsonl(tracer, "trace.jsonl")
"""

from repro.obs.coverage import Coverage
from repro.obs.describe import describe_payload
from repro.obs.events import EVENT_KINDS, TraceEvent
from repro.obs.export import dumps_trace, export_jsonl, read_trace, write_trace
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.query import Trace, render_spacetime
from repro.obs.replay import ReplayError, ReplayResult, history_from_trace, replay_check
from repro.obs.registry import HdrHistogram, Registry
from repro.obs.spans import OpSpan, PhaseRecord
from repro.obs.tracer import EventSink, MemorySink, NullSink, Tracer

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Coverage",
    "EventSink",
    "HdrHistogram",
    "Histogram",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "OpSpan",
    "PhaseRecord",
    "Registry",
    "ReplayError",
    "ReplayResult",
    "Trace",
    "TraceEvent",
    "Tracer",
    "describe_payload",
    "dumps_trace",
    "export_jsonl",
    "history_from_trace",
    "read_trace",
    "render_spacetime",
    "replay_check",
    "write_trace",
]
