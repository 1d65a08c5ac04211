"""Unit tests for crash plans and failure chains."""

import pytest

from repro.net.faults import (
    BroadcastCrash,
    CrashAtTime,
    CrashPlan,
    chain_crash_plan,
)


def test_empty_plan():
    plan = CrashPlan.none()
    assert plan._specs == {}
    assert not plan.is_crashed(0)
    dests, crash = plan.filter_broadcast(0, "m", [1, 2])
    assert dests == [1, 2] and not crash


def test_timed_crash_listing():
    plan = CrashPlan({1: CrashAtTime(5.0), 2: BroadcastCrash(deliver_to=(3,))})
    assert plan.timed_crashes() == [(1, 5.0)]
    assert set(plan._specs) == {1, 2}


def test_negative_crash_time_rejected():
    with pytest.raises(ValueError):
        CrashAtTime(-1.0)


def test_duplicate_spec_rejected():
    plan = CrashPlan({0: CrashAtTime(1.0)})
    with pytest.raises(ValueError):
        plan.add(0, CrashAtTime(2.0))


def test_broadcast_crash_truncates_and_fires_once():
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(2,))})
    dests, crash = plan.filter_broadcast(0, "anything", [1, 2, 3])
    assert dests == [2] and crash
    # the spec fires at most once
    dests2, crash2 = plan.filter_broadcast(0, "anything", [1, 2, 3])
    assert dests2 == [1, 2, 3] and not crash2


def test_broadcast_crash_match_predicate():
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(), match=lambda p: p == "doom")})
    dests, crash = plan.filter_broadcast(0, "benign", [1, 2])
    assert dests == [1, 2] and not crash
    dests, crash = plan.filter_broadcast(0, "doom", [1, 2])
    assert dests == [] and crash


def test_mark_and_query_crashed():
    plan = CrashPlan.none()
    plan.mark_crashed(4)
    assert plan.is_crashed(4)
    assert plan.crashed_nodes == {4}


def test_chain_crash_plan_shape():
    plan = chain_crash_plan([0, 1, 2, 3])
    # first three crash, last is correct
    assert set(plan._specs) == {0, 1, 2}
    # node 1 delivers only to node 2
    dests, crash = plan.filter_broadcast(1, "v", [0, 2, 3])
    assert dests == [2] and crash


def test_chain_requires_two_distinct_nodes():
    with pytest.raises(ValueError):
        chain_crash_plan([0])
    with pytest.raises(ValueError):
        chain_crash_plan([0, 0])


def test_filter_broadcast_guards_already_crashed_node():
    # a queued broadcast flushed after the node already crashed (e.g. a
    # CrashAtTime fired, or a fuzzer-built double-crash path) must send
    # nothing and must not fire the BroadcastCrash
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(1, 2))})
    plan.mark_crashed(0)
    dests, crash = plan.filter_broadcast(0, "late", [1, 2, 3])
    assert dests == [] and not crash
    # the spec did not burn its single shot either: an (impossible in the
    # runtime, but defensive) resurrection would still see it unfired
    assert 0 not in plan._fired


def test_deliver_to_outside_dests_is_intersected():
    # survivors are deliver_to ∩ dests: planned survivors the sender was
    # not addressing (e.g. itself on include_self=False) receive nothing
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(0, 2, 9))})
    dests, crash = plan.filter_broadcast(0, "m", [1, 2, 3])
    assert dests == [2] and crash


def test_rebuilt_crash_plan_has_fresh_runtime_state():
    """Each execution builds its own live plan from plan data, so neither
    a fired shot, a broadcast countdown nor the crashed set leaks from one
    run into the next."""
    from repro.chaos.plan import (
        BcastCrashSpec,
        ChaosPlan,
        TimedCrashSpec,
        build_crash_plan,
    )

    data = ChaosPlan(
        "eq_aso",
        5,
        2,
        seed=0,
        crashes=(BcastCrashSpec(0, (2,), nth=2), TimedCrashSpec(1, 3.0)),
    )
    run1 = build_crash_plan(data)
    assert run1.filter_broadcast(0, "m", [1, 2]) == ([1, 2], False)
    assert run1.filter_broadcast(0, "m", [1, 2]) == ([2], True)
    run1.mark_crashed(0)
    run1.mark_crashed(1)
    run2 = build_crash_plan(data)
    assert run2.crashed_nodes == frozenset()
    assert run2.timed_crashes() == [(1, 3.0)]
    # the countdown starts over: the first broadcast passes again
    assert run2.filter_broadcast(0, "m", [1, 2]) == ([1, 2], False)
    assert run2.filter_broadcast(0, "m", [1, 2]) == ([2], True)


def test_chain_shared_match_misfires_on_reforwarded_traffic():
    """End-to-end: with ``match=None`` (first broadcast ever) a chain hop
    that broadcasts unrelated traffic first crashes on the *wrong*
    broadcast and the chain value never crawls; a predicate on the chain
    value crashes each hop exactly while forwarding it."""
    from repro.core import EqAso
    from repro.core.messages import MValue
    from repro.runtime.cluster import Cluster

    def run(plan):
        cluster = Cluster(EqAso, n=5, f=2, crash_plan=plan)
        # node 2 (a chain hop) issues its own update first, so its first
        # broadcast is unrelated to the chain value of writer 1
        own = cluster.invoke_at(0.0, 2, "update", "own2")
        cluster.invoke_at(4.0, 1, "update", "doom1")
        probe = cluster.invoke_at(14.0, 4, "scan")
        cluster.run_until_complete([probe])
        return cluster, own

    # shared match=None: node 2 crashes at t=0 on its own update's first
    # broadcast — before the chain value even exists
    cluster, own = run(chain_crash_plan([1, 2, 0]))
    assert cluster.crash_plan.is_crashed(2)
    assert own.aborted and not own.done

    # a predicate keyed on writer 1's value: node 2's own update
    # completes untouched; both hops crash only on the chain value
    def carries_w1(p):
        return isinstance(p, MValue) and p.vt.writer == 1

    cluster, own = run(chain_crash_plan([1, 2, 0], match=carries_w1))
    assert own.done and not own.aborted
    assert cluster.crash_plan.crashed_nodes == frozenset({1, 2})
