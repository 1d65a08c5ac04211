"""Tests for SCD-broadcast [29] and the snapshot built on it.

Includes direct checks of the MS-ordering property (the defining
constraint of set-constrained delivery) under crash injection.
"""

import itertools

import pytest

from repro.baselines.scd_broadcast import (
    MForward,
    ScdAso,
    ScdBroadcastNode,
)
from repro.net.delays import UniformDelay
from repro.net.faults import BroadcastCrash, CrashPlan
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng
from repro.spec import is_linearizable

from tests.conftest import run_random_execution


class Recorder(ScdBroadcastNode):
    """Records the sequence of delivered sets."""

    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.sets: list[frozenset] = []

    def scd_deliver(self, batch):
        self.sets.append(frozenset(batch.keys()))


def strict_order(sets: list[frozenset]) -> set[tuple]:
    """Pairs (a, b) where a was delivered strictly before b."""
    out = set()
    for i, earlier in enumerate(sets):
        for later in sets[i + 1 :]:
            for a in earlier:
                for b in later:
                    out.add((a, b))
    return out


def assert_ms_ordering(nodes: list[Recorder]) -> None:
    """No two nodes deliver a pair of messages in opposite strict orders."""
    orders = [strict_order(node.sets) for node in nodes]
    for o1, o2 in itertools.combinations(orders, 2):
        conflicts = {(a, b) for (a, b) in o1 if (b, a) in o2}
        assert not conflicts, f"MS-ordering violated: {conflicts}"


def test_resilience_bound():
    with pytest.raises(ValueError):
        ScdBroadcastNode(0, 4, 2)


def test_broadcast_delivered_everywhere():
    cluster = Cluster(Recorder, n=4, f=1)
    cluster.start()
    mid = cluster.node(0).scd_broadcast("m")
    cluster._flush(0)
    cluster.run()
    for node in cluster.nodes:
        assert any(mid in s for s in node.sets)


def test_ms_ordering_random_traffic():
    for seed in range(5):
        rng = SeededRng(seed)
        cluster = Cluster(
            Recorder,
            n=5,
            f=2,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.05),
        )
        cluster.start()
        for i in range(12):
            src = rng.randint(0, 4)
            cluster.sim.schedule_call_at(
                rng.uniform(0.0, 6.0),
                lambda s=src, i=i: (
                    cluster.node(s).scd_broadcast(f"m{i}"),
                    cluster._flush(s),
                ),
            )
        cluster.run()
        assert_ms_ordering(cluster.nodes)


def test_ms_ordering_with_truncated_broadcasts():
    """Crash-stop with mid-broadcast truncation: the per-sender stream
    consistency the safe_before counting relies on must survive."""
    for seed in range(4):
        rng = SeededRng(100 + seed)
        plan = CrashPlan(
            {
                1: BroadcastCrash(
                    deliver_to=(2,),
                    match=lambda p: isinstance(p, MForward),
                )
            }
        )
        cluster = Cluster(
            Recorder,
            n=5,
            f=2,
            crash_plan=plan,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.05),
        )
        cluster.start()
        for i in range(8):
            src = rng.randint(0, 4)
            cluster.sim.schedule_call_at(
                rng.uniform(0.0, 4.0),
                lambda s=src, i=i: (
                    cluster.node(s).scd_broadcast(f"m{i}"),
                    cluster._flush(s),
                )
                if not cluster.crash_plan.is_crashed(s)
                else None,
            )
        cluster.run()
        live = [
            node
            for node in cluster.nodes
            if not cluster.crash_plan.is_crashed(node.node_id)
        ]
        assert_ms_ordering(live)


def test_snapshot_failure_free_latencies():
    cluster = Cluster(ScdAso, n=5, f=2)
    up = cluster.invoke_at(0.0, 0, "update", "v")
    cluster.run_until_complete([up])
    sc = cluster.invoke(1, "scan")
    cluster.run_until_complete([sc])
    assert up.latency / cluster.D == 4.0  # the paper's 4D update
    assert sc.latency / cluster.D == 2.0  # the paper's 2D scan


def test_snapshot_semantics():
    cluster = Cluster(ScdAso, n=4, f=1)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("a",)),
            (10.0, 1, "update", ("b",)),
            (20.0, 2, "scan", ()),
        ]
    )
    assert handles[2].result.values[:2] == ("a", "b")


def test_randomized_workloads_linearizable():
    for seed in range(8):
        cluster, handles = run_random_execution(ScdAso, seed=seed)
        assert all(h.done for h in handles)
        assert is_linearizable(cluster.history)


def test_linearizable_with_crashes():
    from repro.net.faults import CrashAtTime

    for seed in range(4):
        rng = SeededRng(seed)
        plan = CrashPlan({4: CrashAtTime(rng.uniform(0.5, 3.0))})
        cluster = Cluster(
            ScdAso,
            n=5,
            f=2,
            crash_plan=plan,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.1),
        )
        handles = []
        for node in range(4):
            handles += cluster.chain_ops(
                node,
                [("update", (f"v{node}",)), ("scan", ()), ("update", (f"w{node}",))],
                start=node * 0.3,
            )
        cluster.run_until_complete(handles)
        assert is_linearizable(cluster.history)
