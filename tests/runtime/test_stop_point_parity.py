"""Counting down stops where polling did.

``run_until_complete`` used to hand the kernel a predicate — "has every
handle settled?" — polled before every event; now the last handle to
settle calls ``Simulator.stop()``.  The run must end at the very same
event: same executed-event count, same clock, same deliveries and drops,
with the same work still queued.  The polling loop lives on as the oracle
in ``tests/support/reference_substrate.py``; every scenario here is built
twice from one seed and driven once each way.
"""

import pytest

from repro.core import EqAso
from repro.core.messages import MValue
from repro.net.delays import UniformDelay
from repro.net.faults import BroadcastCrash, CrashAtTime, CrashPlan
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng
from tests.support.reference_substrate import run_until_complete_by_polling

N, F = 5, 2


def _jittered(crash_plan=None):
    rng = SeededRng(2408)
    return Cluster(
        EqAso,
        n=N,
        f=F,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
        crash_plan=crash_plan,
    )


def _chains(cluster, per_node=3):
    handles = []
    for node in range(N):
        ops = [
            ("update", (f"v{node}.{i}",)) if (node + i) % 2 else ("scan", ())
            for i in range(per_node)
        ]
        handles += cluster.chain_ops(node, ops)
    return handles


def failure_free():
    cluster = _jittered()
    return cluster, _chains(cluster)


def crash_mid_chain():
    # node 1 dies inside its second operation; the third never begins
    cluster = _jittered(CrashPlan({1: CrashAtTime(4.5)}))
    return cluster, _chains(cluster)


def begin_on_a_crashed_node():
    cluster = _jittered(CrashPlan({3: CrashAtTime(2.0)}))
    handles = [cluster.invoke_at(0.0, node, "update", node) for node in range(3)]
    # invoked long after everything else settled: its aborted begin is
    # the event the run stops at
    handles.append(cluster.invoke_at(40.0, 3, "scan"))
    return cluster, handles


def broadcast_crash():
    # node 2 dies while sending its first ``value`` message (forwarding
    # another node's): only node 0 receives it, the whole chain aborts
    plan = CrashPlan(
        {2: BroadcastCrash(deliver_to=(0,), match=lambda p: isinstance(p, MValue))}
    )
    cluster = _jittered(plan)
    return cluster, _chains(cluster)


def _stop_point(cluster):
    net = cluster.network
    return {
        "steps": cluster.sim.steps,
        "now": cluster.sim.now,
        "pending": cluster.sim.pending,
        "delivered": net.messages_delivered,
        "dropped": net.messages_dropped,
    }


@pytest.mark.parametrize(
    "scenario",
    [failure_free, crash_mid_chain, begin_on_a_crashed_node, broadcast_crash],
    ids=lambda fn: fn.__name__,
)
def test_count_down_stops_at_the_event_polling_stopped_at(scenario):
    told, told_handles = scenario()
    told.run_until_complete(told_handles)
    polled, polled_handles = scenario()
    run_until_complete_by_polling(polled, polled_handles)

    assert _stop_point(told) == _stop_point(polled)
    outcome = [(h.done, h.aborted, h.result) for h in told_handles]
    assert outcome == [(h.done, h.aborted, h.result) for h in polled_handles]
    assert all(h.done or h.aborted for h in told_handles)
    if scenario is not begin_on_a_crashed_node:
        # not a drained queue: forwarding was still in flight at the stop
        assert told.sim.pending > 0
    if scenario is not failure_free:
        assert any(h.aborted for h in told_handles) and told.network.messages_dropped


def test_nothing_left_to_wait_for_runs_no_event():
    told, handles = failure_free()
    told.run_until_complete(handles)
    before = _stop_point(told)
    told.run_until_complete(handles)  # every handle already settled
    told.run_until_complete([])
    assert _stop_point(told) == before
    polled, polled_handles = failure_free()
    run_until_complete_by_polling(polled, polled_handles)
    run_until_complete_by_polling(polled, polled_handles)
    assert _stop_point(polled) == before
