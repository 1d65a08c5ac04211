"""Tests for the adversary constructions."""

import pytest

from repro.core import EqAso
from repro.harness.adversary import (
    chain_staircase,
    interference_schedule,
    max_chains_for_budget,
    staircase_cluster,
    staircase_victim_latency,
)


def test_max_chains_triangle_numbers():
    assert max_chains_for_budget(1) == 1
    assert max_chains_for_budget(2) == 1
    assert max_chains_for_budget(3) == 2
    assert max_chains_for_budget(6) == 3
    assert max_chains_for_budget(10) == 4
    assert max_chains_for_budget(21) == 6


def test_staircase_structure():
    sc = chain_staircase(10)
    assert sc.k == 10
    assert len(sc.chains) == 4
    # chains end at the victim and use disjoint faulty nodes (Lemma 7)
    faulty_sets = []
    for j, chain in enumerate(sc.chains, start=1):
        assert chain[-1] == sc.victim
        assert len(chain) == j + 1
        faulty_sets.append(set(chain[:-1]))
    for i in range(len(faulty_sets)):
        for j in range(i + 1, len(faulty_sets)):
            assert not (faulty_sets[i] & faulty_sets[j])
    # resilience arithmetic holds
    assert sc.k <= sc.f < sc.n / 2
    assert sc.victim not in sc.crash_plan.planned_nodes()


def test_staircase_needs_positive_budget():
    with pytest.raises(ValueError):
        chain_staircase(0)


def test_staircase_victim_latency_grows_like_sqrt_k():
    ks = [1, 6, 21]
    for kind in ("scan", "update"):
        lats = [staircase_victim_latency(EqAso, kind, k) for k in ks]
        assert lats[0] < lats[1] < lats[2], kind
        # the measured latency tracks (#chains + const)·D
        for k, lat in zip(ks, lats):
            m = max_chains_for_budget(k)
            assert m - 1 <= lat <= m + 3, (kind, k)


def test_staircase_cluster_is_reusable_for_sequences():
    cluster, scenario = staircase_cluster(EqAso, 6)
    handles = cluster.chain_ops(scenario.victim, [("scan", ())] * 3, start=2.0)
    cluster.run_until_complete(handles)
    # first scan eats the staircase, later ones are fast (amortization)
    assert handles[0].latency > handles[-1].latency


def test_interference_schedule_staggering():
    sched = interference_schedule(4, victim=1, updates_per_writer=2, stagger=1.5)
    nodes = [node for node, _, _ in sched]
    assert nodes == [0, 2, 3]
    starts = [start for _, _, start in sched]
    assert starts == [0.0, 1.5, 3.0]
    for _, ops, _ in sched:
        assert len(ops) == 2 and all(kind == "update" for kind, _ in ops)
