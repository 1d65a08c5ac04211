"""Tests for the BFK fast atomic snapshot contender [BFK24]."""

import pytest

from repro.baselines import bfk, register_array
from repro.baselines.bfk import BfkAso, _weight
from repro.baselines.register_array import covers
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable

from tests.conftest import run_random_execution


def test_resilience_bound():
    with pytest.raises(ValueError):
        BfkAso(0, 4, 2)


def test_merge_is_pointwise_max_by_seq():
    """The row merges views with the shared segment-array merge."""
    assert bfk.merge is register_array.merge
    a = ((1, "x"), (0, None))
    b = ((0, None), (2, "y"))
    assert bfk.merge(a, b) == ((1, "x"), (2, "y"))


def test_covers_and_weight_helpers():
    small = ((1, "x"), (0, None))
    big = ((1, "x"), (2, "y"))
    assert covers(big, small)
    assert not covers(small, big)
    assert _weight(big) == 3


def test_update_is_one_round_trip():
    cluster = Cluster(BfkAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "update", "v")
    cluster.run_until_complete([h])
    assert h.latency / cluster.D == 2.0  # the fast O(D) update


def test_scan_sees_completed_update():
    cluster = Cluster(BfkAso, n=5, f=2)
    handles = cluster.run_ops(
        [(0.0, 0, "update", ("v",)), (5.0, 1, "scan", ())]
    )
    assert handles[1].result.values[0] == "v"


def test_quiet_scan_is_fast_path():
    cluster = Cluster(BfkAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "scan")
    cluster.run_until_complete([h])
    assert cluster.node(0).collect_rounds == 1
    assert cluster.node(0).fast_scans == 1
    assert h.latency / cluster.D == 2.0


def test_confirmation_is_published_as_stable():
    """A confirming scanner broadcasts MStableB; every replica adopts
    the view, priming the borrow path for later scanners."""
    cluster = Cluster(BfkAso, n=5, f=2)
    cluster.run_ops([(0.0, 0, "update", ("v",)), (5.0, 1, "scan", ())])
    cluster.run()  # drain the in-flight MStableB broadcast
    for i in range(5):
        stable = cluster.node(i).stable
        assert stable is not None
        assert stable[0] == (1, "v")


def test_scan_retries_under_interference():
    """A store landing mid-confirmation invalidates the exact-quorum
    round — the mechanism behind the O(c·D) lone-scanner worst case."""
    from repro.net.delays import UniformDelay
    from repro.sim.rng import SeededRng

    rng = SeededRng(3)
    cluster = Cluster(
        BfkAso, n=5, f=2, delay_model=UniformDelay(1.0, rng.child("d"), lo=0.3)
    )
    for node in range(1, 5):
        cluster.chain_ops(
            node,
            [("update", (f"w{node}.{i}",)) for i in range(2)],
            start=0.4 * node,
        )
    sc = cluster.invoke_at(0.5, 0, "scan")
    cluster.run_until_complete([sc])
    assert cluster.node(0).collect_rounds > 1


def test_borrowed_confirmation_fires_and_stays_linearizable():
    """Under a scan/update mix some scanner returns a borrowed stable
    view instead of confirming its own — and the history still
    linearizes (seed chosen so the borrow path is exercised)."""
    cluster, handles = run_random_execution(
        BfkAso, seed=13, ops_per_node=4, scan_prob=0.6
    )
    assert all(h.done for h in handles)
    assert sum(cluster.node(i).borrowed_scans for i in range(cluster.n)) >= 1
    assert is_linearizable(cluster.history)


def test_randomized_workloads_linearizable():
    for seed in range(6):
        cluster, handles = run_random_execution(BfkAso, seed=seed)
        assert all(h.done for h in handles)
        assert is_linearizable(cluster.history)


def test_survives_f_crashes():
    from repro.net.faults import CrashAtTime, CrashPlan

    plan = CrashPlan({3: CrashAtTime(0.5), 4: CrashAtTime(1.5)})
    cluster = Cluster(BfkAso, n=5, f=2, crash_plan=plan)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.3
        )
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    assert is_linearizable(cluster.history)
