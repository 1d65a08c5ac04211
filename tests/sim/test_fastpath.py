"""Differential and property tests for the simulation substrate.

The shipped :class:`EventQueue` (burst lane + heap) must be
observationally identical to the heap-only :class:`ReferenceEventQueue`
oracle — same pop order, same cancel semantics, same live counts —
under arbitrary interleavings of pushes, cancels, and pops, including
the adversarial case of many events sharing one timestamp.  The
batched-broadcast network must likewise produce executions
indistinguishable from the per-message reference network.
"""

import pytest

from repro.sim.events import Event, EventQueue, Record
from repro.sim.fastpath import STATS
from repro.sim.rng import SeededRng
from tests.support.reference_substrate import ReferenceEventQueue, reference_substrate


# ----------------------------------------------------------------------
# queue differential tests
# ----------------------------------------------------------------------
def _drain(q) -> list[tuple[float, int, int]]:
    keys = []
    while q:
        keys.append(Event(q.pop()).sort_key())
    return keys


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_match_reference(seed):
    """Random push/cancel/pop traffic with heavy timestamp sharing pops
    in the identical order from both queue implementations."""
    rng = SeededRng(seed)
    fast, ref = EventQueue(), ReferenceEventQueue()
    live_fast: list[Record] = []
    live_ref: list[Record] = []
    popped: list[tuple[tuple, tuple]] = []
    clock = 0.0
    for _ in range(600):
        action = rng.random()
        if action < 0.55:
            # shared timestamps on purpose: a few buckets, some backdated
            t = clock + rng.choice((0.0, 0.0, 1.0, 1.0, 2.0, -0.5))
            t = max(t, 0.0)
            prio = rng.choice((0, 0, 0, 1, 5))
            live_fast.append(fast.push(t, lambda: None, priority=prio))
            live_ref.append(ref.push(t, lambda: None, priority=prio))
        elif action < 0.7 and live_fast:
            i = rng.randint(0, len(live_fast) - 1)
            fast.cancel(live_fast[i])
            ref.cancel(live_ref[i])
        elif fast:
            ef, er = Event(fast.pop()), Event(ref.pop())
            popped.append((ef.sort_key(), er.sort_key()))
            clock = max(clock, ef.time)
        assert len(fast) == len(ref)
    popped.extend(
        zip(
            (Event(e).sort_key() for e in _iterpop(fast)),
            (Event(e).sort_key() for e in _iterpop(ref)),
        )
    )
    for fast_key, ref_key in popped:
        assert fast_key == ref_key
    assert len(fast) == len(ref) == 0


def _iterpop(q):
    while q:
        yield q.pop()


def test_out_of_order_pushes_still_pop_sorted():
    """Pushes that break the burst lane's sorted run (and so fall back to
    the heap) still pop in global (time, priority, seq) order."""
    q = EventQueue()
    times = [5.0, 5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 0.5, 3.0]
    for t in times:
        q.push(t, lambda: None)
    popped = _drain(q)
    assert [t for t, _, _ in popped] == sorted(times)
    # equal times pop in push (seq) order
    assert popped == sorted(popped)


def test_burst_lane_restart_after_drain():
    """The sorted run restarts once the lane drains; interleaving drains
    and pushes never loses or reorders events."""
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert _drain(q) == [(1.0, 0, 0), (2.0, 0, 1)]
    q.push(1.5, lambda: None)  # earlier than the consumed run's tail
    q.push(1.5, lambda: None, priority=-1)  # breaks the run -> heap
    assert _drain(q) == [(1.5, -1, 3), (1.5, 0, 2)]


def test_cancel_after_fire_does_not_corrupt_live_count():
    """Regression: cancelling an already-fired event must be a no-op.

    The old bookkeeping kept a set of cancelled seqs and decremented the
    live count even when the event had already fired, so a fire-then-
    cancel sequence drove ``len(queue)`` negative and made ``bool(queue)``
    lie to the kernel's run loop."""
    for q in (EventQueue(), ReferenceEventQueue()):
        fired = q.push(1.0, lambda: None)
        keeper = q.push(2.0, lambda: None)
        assert q.pop() is fired and Event(fired).fired
        q.cancel(fired)  # no-op: already fired
        q.cancel(fired)  # idempotent
        assert len(q) == 1 and bool(q)
        assert not Event(fired).cancelled
        assert q.pop() is keeper
        assert len(q) == 0 and not q


def test_cancel_pending_is_idempotent():
    for q in (EventQueue(), ReferenceEventQueue()):
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 1
        assert Event(q.pop()).time == 2.0


def test_burst_lane_compaction_bounds_memory():
    """A lockstep-style run (one unbroken sorted run) must not retain
    every fired event in the lane."""
    q = EventQueue()
    for i in range(20_000):
        q.push(float(i), lambda: None)
        q.pop()
    assert len(q._fifo) < 8192


def test_stats_count_events_and_messages():
    from repro.core import EqAso
    from repro.runtime.cluster import Cluster

    before = STATS.counters()
    cluster = Cluster(EqAso, n=3, f=1)
    handle = cluster.invoke_at(0.0, 0, "update", "v")
    cluster.run_until_complete([handle])
    after = STATS.counters()
    assert after["events"] > before["events"]
    assert after["messages"] > before["messages"]


# ----------------------------------------------------------------------
# network: batched broadcast vs per-message reference
# ----------------------------------------------------------------------
def _run_cluster(factory, *, fast: bool, n: int = 5, crash=None):
    """``fast=False`` runs on the reference queue/network/views."""
    from contextlib import nullcontext

    from repro.runtime.cluster import Cluster

    with nullcontext() if fast else reference_substrate():
        kwargs = {} if crash is None else {"crash_plan": crash()}
        cluster = Cluster(factory, n=n, f=(n - 1) // 2, **kwargs)
        handles = []
        for node in range(n - 1):
            handles.append(cluster.invoke_at(0.3 * node, node, "update", f"v{node}"))
        handles.append(cluster.invoke_at(1.0, n - 1, "scan"))
        cluster.run_until_complete(handles)
        # drain to quiescence so message counts are comparable (stopping
        # mid-schedule truncates the in-flight tail at event granularity,
        # which batching legitimately coarsens)
        cluster.sim.run()
        results = [h.result for h in handles if h.done]
        net = cluster.network
        counts = (net.messages_sent, net.messages_delivered, net.messages_dropped)
        return results, counts, cluster.sim.steps


@pytest.mark.parametrize("algo", ["EqAso", "ScdAso"])
def test_fast_and_slow_substrates_agree(algo):
    """Same ops, same results, same message counts as on the reference
    substrate — batching may only reduce the number of *kernel events*."""
    import repro.baselines as baselines
    import repro.core as core

    factory = getattr(core, algo, None) or getattr(baselines, algo)
    fast_results, fast_counts, fast_steps = _run_cluster(factory, fast=True)
    slow_results, slow_counts, slow_steps = _run_cluster(factory, fast=False)
    assert fast_results == slow_results
    assert fast_counts == slow_counts
    assert fast_steps <= slow_steps


def test_fast_and_slow_agree_under_crashes():
    from repro.core import EqAso
    from repro.net.faults import CrashAtTime, CrashPlan

    def crash():
        return CrashPlan({1: CrashAtTime(time=0.9)})

    fast_results, fast_counts, _ = _run_cluster(EqAso, fast=True, crash=crash)
    slow_results, slow_counts, _ = _run_cluster(EqAso, fast=False, crash=crash)
    assert fast_results == slow_results
    assert fast_counts == slow_counts


def test_traced_run_matches_untraced_results():
    """Tracing is observational: enabling it must not perturb results."""
    from repro.core import EqAso
    from repro.obs import MemorySink, Tracer
    from repro.runtime.cluster import Cluster

    def run(tracer):
        kwargs = {} if tracer is None else {"tracer": tracer}
        cluster = Cluster(EqAso, n=4, f=1, **kwargs)
        handles = [
            cluster.invoke_at(0.2 * node, node, "update", f"v{node}")
            for node in range(3)
        ]
        handles.append(cluster.invoke_at(1.1, 3, "scan"))
        cluster.run_until_complete(handles)
        return [(h.done, h.result, h.latency) for h in handles]

    assert run(None) == run(Tracer(MemorySink()))
