"""Tests for workload generators."""

from repro.core import EqAso
from repro.harness.workloads import random_workload
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng


def test_random_workload_is_deterministic_per_seed():
    def run(seed):
        cluster = Cluster(EqAso, n=4, f=1)
        handles = random_workload(cluster, SeededRng(seed), ops_per_node=3)
        cluster.run_until_complete(handles)
        return [(h.node, h.kind, round(h.t_inv, 6)) for h in handles]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_random_workload_respects_node_subset():
    cluster = Cluster(EqAso, n=5, f=2)
    handles = random_workload(
        cluster, SeededRng(1), nodes=[1, 3], ops_per_node=2
    )
    assert {h.node for h in handles} == {1, 3}
    cluster.run_until_complete(handles)


def test_random_workload_scan_probability_extremes():
    cluster = Cluster(EqAso, n=3, f=1)
    all_scans = random_workload(
        cluster, SeededRng(2), ops_per_node=3, scan_prob=1.0
    )
    assert all(h.kind == "scan" for h in all_scans)
    cluster.run_until_complete(all_scans)

    cluster2 = Cluster(EqAso, n=3, f=1)
    all_updates = random_workload(
        cluster2, SeededRng(2), ops_per_node=3, scan_prob=0.0
    )
    assert all(h.kind == "update" for h in all_updates)
    cluster2.run_until_complete(all_updates)


def test_unique_values_across_workload():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = random_workload(
        cluster, SeededRng(3), ops_per_node=4, scan_prob=0.0
    )
    values = [h.args[0] for h in handles]
    assert len(values) == len(set(values))
