"""Tracing must be free when off: the NullSink guard.

Observation must never steer: these tests pin that down so future obs
changes cannot perturb seeded schedules or paper-facing bench numbers.
"""

from collections import Counter

from repro.core import EqAso
from repro.obs import MemorySink, NullSink, Tracer
from repro.runtime.cluster import Cluster
from tests.support.delivery_log import log_deliveries

SCHEDULE = [
    (0.0, 0, "update", ("a",)),
    (0.5, 1, "update", ("b",)),
    (1.0, 2, "scan", ()),
    (6.0, 3, "scan", ()),
]


def run_cluster(tracer):
    cluster = Cluster(EqAso, n=5, f=2, tracer=tracer)
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
    """A retaining tracer and a delivery log see every message yet
    execute the same number of kernel events as a bare run (traced
    broadcasts still batch) and produce the same history."""
    bare = run_cluster(None)
    traced = run_cluster(tracer := Tracer(MemorySink()))
    recorded = Cluster(EqAso, n=5, f=2)
    log = log_deliveries(recorded)
    recorded.run_ops(SCHEDULE)
    # the full trace records every send and every delivery
    kinds = Counter(ev.kind for ev in tracer.sink.events)
    assert (kinds["send"], kinds["deliver"]) == (
        bare.network.messages_sent,
        bare.network.messages_delivered,
    )
    # the log wraps ``deliver``: the network does not watch for it
    assert traced.network._watched and not recorded.network._watched
    assert traced.sim.steps == recorded.sim.steps == bare.sim.steps
    assert len(log) == (
        bare.network.messages_delivered + bare.network.messages_dropped
    )
    for observed in (traced, recorded):
        assert [repr(rec) for rec in observed.history] == [
            repr(rec) for rec in bare.history
        ]

