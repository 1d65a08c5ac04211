"""Tests for the IMPR register-layered snapshot contender [IMPR16]."""

import pytest

from repro.baselines import impr, register_array
from repro.baselines.impr import ImprRegisterAso
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable

from tests.conftest import run_random_execution


def test_resilience_bound():
    with pytest.raises(ValueError):
        ImprRegisterAso(0, 4, 2)


def test_merge_is_pointwise_max_by_seq():
    """The row merges views with the shared segment-array merge."""
    assert impr.merge is register_array.merge
    a = ((1, "x"), (0, None))
    b = ((0, None), (2, "y"))
    assert impr.merge(a, b) == ((1, "x"), (2, "y"))


def test_quiet_collect_is_unanimous_fast_read():
    """Absent write concurrency an ABD read needs no write-back round."""
    cluster = Cluster(ImprRegisterAso, n=5, f=2)
    w = cluster.invoke_at(0.0, 0, "write", "v")
    c = cluster.invoke_at(5.0, 1, "read")
    cluster.run_until_complete([w, c])
    node = cluster.node(1)
    assert node.fast_reads == 1
    assert node.write_backs == 0
    assert c.result[0] == (1, "v")
    assert c.latency / cluster.D == 2.0


def test_update_is_one_round_trip():
    cluster = Cluster(ImprRegisterAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "update", "v")
    cluster.run_until_complete([h])
    assert h.latency / cluster.D == 2.0  # UPDATE = register write


def test_scan_sees_completed_update():
    cluster = Cluster(ImprRegisterAso, n=5, f=2)
    handles = cluster.run_ops(
        [(0.0, 0, "update", ("v",)), (5.0, 1, "scan", ())]
    )
    assert handles[1].result.values[0] == "v"


def test_quiet_scan_is_two_fast_collects():
    """A quiet double collect = two unanimous 1-RT reads that agree."""
    cluster = Cluster(ImprRegisterAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "scan")
    cluster.run_until_complete([h])
    node = cluster.node(0)
    assert node.double_collect_rounds == 1
    assert node.fast_reads == 2
    assert node.write_backs == 0
    assert h.latency / cluster.D == 4.0  # the layering's 2× scan constant


def test_scan_retries_under_interference():
    """Writes landing between collects force extra double-collect rounds
    and write-backs — the O(c·D) layering cost the bench measures."""
    from repro.net.delays import UniformDelay
    from repro.sim.rng import SeededRng

    rng = SeededRng(3)
    cluster = Cluster(
        ImprRegisterAso,
        n=5,
        f=2,
        delay_model=UniformDelay(1.0, rng.child("d"), lo=0.3),
    )
    for node in range(1, 5):
        cluster.chain_ops(
            node,
            [("update", (f"w{node}.{i}",)) for i in range(2)],
            start=0.4 * node,
        )
    sc = cluster.invoke_at(0.5, 0, "scan")
    cluster.run_until_complete([sc])
    scanner = cluster.node(0)
    assert scanner.double_collect_rounds > 1
    assert scanner.write_backs >= 1


def test_randomized_workloads_linearizable():
    for seed in range(6):
        cluster, handles = run_random_execution(ImprRegisterAso, seed=seed)
        assert all(h.done for h in handles)
        assert is_linearizable(cluster.history)


def test_survives_f_crashes():
    from repro.net.faults import CrashAtTime, CrashPlan

    plan = CrashPlan({3: CrashAtTime(0.5), 4: CrashAtTime(1.5)})
    cluster = Cluster(ImprRegisterAso, n=5, f=2, crash_plan=plan)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.3
        )
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    assert is_linearizable(cluster.history)
