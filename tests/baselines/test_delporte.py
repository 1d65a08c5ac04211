"""Tests for the Delporte et al. [19] baseline."""

import pytest

from repro.baselines import delporte, register_array
from repro.baselines.delporte import DelporteAso
from repro.runtime.cluster import Cluster
from repro.spec import is_linearizable

from tests.conftest import run_random_execution


def test_resilience_bound():
    with pytest.raises(ValueError):
        DelporteAso(0, 4, 2)


def test_merge_is_pointwise_max_by_seq():
    """The row merges views with the shared segment-array merge."""
    assert delporte.merge is register_array.merge
    a = ((1, "x"), (0, None))
    b = ((0, None), (2, "y"))
    assert delporte.merge(a, b) == ((1, "x"), (2, "y"))


def test_update_is_one_round_trip():
    cluster = Cluster(DelporteAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "update", "v")
    cluster.run_until_complete([h])
    assert h.latency / cluster.D == 2.0  # the paper's O(D) update


def test_scan_sees_completed_update():
    cluster = Cluster(DelporteAso, n=5, f=2)
    handles = cluster.run_ops(
        [(0.0, 0, "update", ("v",)), (5.0, 1, "scan", ())]
    )
    assert handles[1].result.values[0] == "v"


def test_quiet_scan_single_confirmation_round():
    cluster = Cluster(DelporteAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "scan")
    cluster.run_until_complete([h])
    assert cluster.node(0).collect_rounds == 1
    assert h.latency / cluster.D == 2.0


def test_scan_retries_under_interference():
    """A write landing mid-confirmation forces another collect round —
    the mechanism behind the O(n·D) scan."""
    from repro.net.delays import UniformDelay
    from repro.sim.rng import SeededRng

    rng = SeededRng(3)
    cluster = Cluster(
        DelporteAso, n=5, f=2, delay_model=UniformDelay(1.0, rng.child("d"), lo=0.3)
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


def test_randomized_workloads_linearizable():
    for seed in range(6):
        cluster, handles = run_random_execution(DelporteAso, seed=seed)
        assert all(h.done for h in handles)
        assert is_linearizable(cluster.history)


def test_survives_f_crashes():
    from repro.net.faults import CrashAtTime, CrashPlan

    plan = CrashPlan({3: CrashAtTime(0.5), 4: CrashAtTime(1.5)})
    cluster = Cluster(DelporteAso, n=5, f=2, crash_plan=plan)
    handles = []
    for node in range(3):
        handles += cluster.chain_ops(
            node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.3
        )
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    assert is_linearizable(cluster.history)
