"""Telemetry must be free when off: NullSink and NullRegistry guards.

Observation must never steer: these tests pin that down so future obs
changes cannot perturb seeded schedules or paper-facing bench numbers.
"""

from repro.bench.runner import CASES, run_case
from repro.core import EqAso
from repro.obs import (
    MemorySink,
    NullRegistry,
    NullSink,
    Registry,
    Tracer,
    set_telemetry,
    telemetry,
)
from repro.runtime.cluster import Cluster

SCHEDULE = [
    (0.0, 0, "update", ("a",)),
    (0.5, 1, "update", ("b",)),
    (1.0, 2, "scan", ()),
    (6.0, 3, "scan", ()),
]


def run_cluster(tracer, **kwargs):
    cluster = Cluster(EqAso, n=5, f=2, tracer=tracer, **kwargs)
    cluster.run_ops(SCHEDULE)
    return cluster


def test_null_sink_adds_zero_kernel_events():
    """A NullSink-traced run is schedule-identical to an untraced run:
    same kernel step count, nothing watching, zero events emitted."""
    bare = run_cluster(None)
    nulled_tracer = Tracer(NullSink())
    nulled = run_cluster(nulled_tracer)

    assert not nulled_tracer.enabled
    assert nulled_tracer.events_emitted == 0
    assert nulled_tracer.spans == []
    assert nulled.sim.steps == bare.sim.steps
    assert not nulled.network._watched and not bare.network._watched
    # and the protocol outcome is identical
    assert [repr(rec) for rec in nulled.history] == [
        repr(rec) for rec in bare.history
    ]


def test_observation_does_not_change_the_schedule_shape():
    """A retaining tracer and the per-delivery trace watch every message
    yet execute the same number of kernel events as a bare run (traced
    broadcasts still batch) and produce the same history."""
    bare = run_cluster(None)
    traced = run_cluster(Tracer(MemorySink()))
    recorded = run_cluster(None, record_net_trace=True)
    assert traced.network._watched and recorded.network._watched
    assert traced.sim.steps == recorded.sim.steps == bare.sim.steps
    assert len(recorded.network.trace) == (
        bare.network.messages_delivered + bare.network.messages_dropped
    )
    for observed in (traced, recorded):
        assert [repr(rec) for rec in observed.history] == [
            repr(rec) for rec in bare.history
        ]


def test_default_telemetry_is_noop_and_collects_nothing():
    registry = telemetry()
    assert isinstance(registry, NullRegistry)
    registry.counter("anything").inc()
    registry.histogram("latency").observe(1.0)
    assert list(registry.metric_names()) == []


def test_bench_counters_cannot_perturb_seeded_schedules():
    """The same smoke case under no-op vs live telemetry produces the
    byte-identical fingerprint and kernel event counts — obs counters
    observe the bench, never steer it."""
    case = CASES["views"]
    quiet = run_case(case, smoke=True, repeats=1, warmup=0)

    live = Registry()
    previous = set_telemetry(live)
    try:
        counted = run_case(case, smoke=True, repeats=1, warmup=0)
    finally:
        set_telemetry(previous)

    assert counted["fingerprint_sha256"] == quiet["fingerprint_sha256"]
    for key in ("events", "messages"):
        assert counted["measurement"][key] == quiet["measurement"][key]
    # ... while the live registry really did observe the run
    assert live.counter("bench.cases").value == 1
    assert live.counter("bench.repeats").value == 1
    assert live.histogram("bench.wall_s").count == 1
