"""Ablation probes: the mechanisms of Algorithm 1 are load-bearing."""

import pytest

from repro.chaos.mutants import EqAsoNoBorrowing, EqAsoNoPhase0, EqAsoNoTagRecheck
from repro.harness.ablations import _run_randomized, run_ablation
from repro.runtime.cluster import StuckError


def test_flags_are_wired():
    assert EqAsoNoTagRecheck.enable_tag_recheck is False
    assert EqAsoNoBorrowing.enable_borrowing is False
    assert EqAsoNoPhase0.enable_phase0 is False


def test_baseline_eq_aso_passes_same_probe():
    from repro.core.eq_aso import EqAso

    for seed in (51, 86):  # the seeds that kill no-phase0
        ok, stuck, _ = _run_randomized(EqAso, seed, n=4, f=1)
        assert ok and not stuck


def test_no_phase0_deadlocks_on_known_seeds():
    """Without the phase-0 lattice operation there is no guarantee of a
    good lattice operation per tag, so a renewal's borrow (line 29) can
    wait forever.  Seeds 51 and 86 (n=4, f=1, 6 ops/node) exhibit it."""
    from repro.harness.workloads import random_workload
    from repro.net.delays import UniformDelay
    from repro.runtime.cluster import Cluster
    from repro.sim.rng import SeededRng

    deadlocks = 0
    for seed in (51, 86):
        rng = SeededRng(seed)
        cluster = Cluster(
            EqAsoNoPhase0,
            n=4,
            f=1,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.02),
        )
        handles = random_workload(
            cluster,
            rng.child("w"),
            ops_per_node=6,
            scan_prob=0.5,
            start_spread=1.0,
            gap_spread=0.3,
        )
        try:
            cluster.run_until_complete(handles)
        except StuckError as exc:
            deadlocks += 1
            assert "goodLA" in str(exc)  # parked at line 29
    assert deadlocks >= 1


def test_ablation_report_structure():
    report = run_ablation("no-borrowing", seeds=2)
    assert report.name == "no-borrowing"
    assert report.seeds == 2
    # the intact algorithm's latency is finite and modest under the probe
    assert 0 < report.baseline_latency_D < 20.0


def test_unknown_ablation_rejected():
    with pytest.raises(KeyError):
        run_ablation("no-such-thing")


def test_crafted_t1_race_probe():
    """The attempted Lemma-2 cross-tag race (see the function's docstring
    for the finding): the schedule exercises concurrent lattice
    operations at different tags, and the run must stay linearizable both
    with and without T1 — pinning the row-quorum/FIFO closure argument."""
    from repro.core.eq_aso import EqAso
    from repro.harness.ablations import crafted_t1_race

    for factory in (EqAso, EqAsoNoTagRecheck):
        violations, handles = crafted_t1_race(factory)
        assert violations == []
        scans = [h for h in handles if h.kind == "scan"]
        assert all(h.done for h in scans)
        # the schedule did what it was built to do: the two scans ran at
        # different tags (B's view contains the tag-2 value x)
        scan_b = scans[1]
        assert scan_b.result.values[4] == "x"
        assert scan_b.result.meta[4].ts.tag == 2
