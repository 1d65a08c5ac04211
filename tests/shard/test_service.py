"""Sharded service: determinism, worker-count invariance, crash behavior."""

import json

import pytest

from repro.shard import (
    ShardConfig,
    ShardedSnapshotService,
    WorkloadSpec,
)
from repro.shard.service import OpOutcome

SPEC = WorkloadSpec(
    ops=160, keys=32, read_ratio=0.3, global_scan_ratio=0.2, clients=50,
    rate=2.0,
)
CONFIG = ShardConfig(shards=3, nodes_per_shard=3, f=1)


def _run(config=CONFIG, spec=SPEC, seed=7, **kw):
    return ShardedSnapshotService(config).run(spec, seed, **kw)


def test_config_validates_quorum_inequality():
    with pytest.raises(ValueError):
        ShardConfig(shards=2, nodes_per_shard=2, f=1)  # n > 2f violated
    with pytest.raises(ValueError):
        ShardConfig(shards=0)


def test_run_completes_everything_and_linearizes():
    report = _run()
    assert report.completed == SPEC.ops
    assert report.aborted == 0
    assert report.order_ok is True
    assert report.makespan_D > 0 and report.ops_per_D > 0
    assert sum(report.per_shard_ops) >= SPEC.ops  # sub-scans add work
    assert len(report.per_shard_fingerprints) == 3


def test_same_seed_byte_identical_reports():
    a = json.dumps(_run().as_dict(), sort_keys=True)
    b = json.dumps(_run().as_dict(), sort_keys=True)
    assert a == b


def test_workers_do_not_change_the_report():
    serial = _run().as_dict()
    forked = _run(workers=2).as_dict()
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        forked, sort_keys=True
    )


def test_workers_invariance_without_global_scans():
    spec = WorkloadSpec(ops=120, keys=32, read_ratio=0.3, clients=50)
    serial = _run(spec=spec).as_dict()
    forked = _run(spec=spec, workers=3).as_dict()
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        forked, sort_keys=True
    )


def test_latency_lanes_populated():
    report = _run()
    for lane in ("all", "update", "scan", "gscan"):
        hist = report.registry.histogram(f"shard.latency.{lane}_D")
        assert hist.count > 0, lane
    # open-loop latency includes queueing: resp after arrival, always
    assert all(
        o.latency > 0 for o in report.outcomes if not o.aborted
    )


def test_aborted_outcome_latency_raises_a_typed_error():
    # a RuntimeError, as OpHandle.t_resp raises, not an assert that -O strips
    outcome = OpOutcome(
        index=3, shard=0, kind="scan", node=1, lane="local", t_arrival=2.0,
        t_dispatch=None, t_resp=None, aborted=True,
    )
    with pytest.raises(RuntimeError, match="aborted"):
        outcome.latency


def test_routed_imbalance():
    # uniform keys over 64 vnodes per shard: mild imbalance only; the
    # ratio is max/mean of the per-shard counts of routed (per-key) ops
    spec = WorkloadSpec(ops=400, keys=256, zipf_theta=0.0, read_ratio=0.3, clients=50)
    report = _run(ShardConfig(shards=4), spec, check=False)
    counts = [
        sum(1 for o in report.outcomes if o.shard == s and o.lane == "local")
        for s in range(4)
    ]
    assert sum(counts) == 400 and all(c > 0 for c in counts)
    assert report.routed_imbalance == max(counts) / (sum(counts) / 4)
    assert 1.0 <= report.routed_imbalance < 2.0
    # nothing routed (every op a global scan): 0.0, not a division by zero
    only_gscans = WorkloadSpec(
        ops=20, read_ratio=1.0, global_scan_ratio=1.0, clients=10
    )
    assert _run(ShardConfig(shards=4), only_gscans).routed_imbalance == 0.0


def test_composites_observe_monotone_cut():
    report = _run()
    assert report.composites
    for comp in report.composites:
        assert comp.complete
        cut = [t for t in comp.cut if t is not None]
        assert cut == sorted(cut)  # ascending shard order, monotone cut
        assert comp.t_resp == max(cut)
        assert comp.latency > 0


def test_whole_shard_crash_degrades_cleanly():
    report = _run(crash_shard=1, crash_time=15.0)
    assert report.crashed_shard == 1
    # every abort is on the crashed shard; survivors stay clean
    assert report.aborted > 0
    assert all(
        n == 0 for s, n in enumerate(report.per_shard_aborted) if s != 1
    )
    assert report.order_ok is True  # surviving shards stay linearizable
    # composites degrade to partial once shard 1 dies, never hang
    partial = [c for c in report.composites if not c.complete]
    assert partial
    for comp in partial:
        assert comp.parts[1] is None
        assert comp.cut[1] is None  # a dead shard never advances the cut


def test_crash_all_composite_degrades_to_counted_abort():
    """Regression: a composite whose *every* sub-scan aborted used to
    trip ``assert t is not None`` in ``CompositeSnapshot.latency``; a
    crash-all campaign must instead degrade to a counted abort with
    ``latency is None``."""
    config = ShardConfig(shards=1, nodes_per_shard=3, f=1)
    spec = WorkloadSpec(
        ops=40, keys=8, read_ratio=0.2, global_scan_ratio=0.5, clients=10,
        rate=2.0,
    )
    report = ShardedSnapshotService(config).run(
        spec, 7, crash_shard=0, crash_time=0.0
    )
    dead = [c for c in report.composites if c.t_resp is None]
    assert dead, "crash-at-0 must fully abort at least one composite"
    assert len(dead) == len(report.composites)  # no composite responded
    for comp in dead:
        assert comp.latency is None
        assert not comp.complete
    # every op aborts, each composite counted once (not per sub-scan)
    assert report.completed == 0
    assert report.aborted == spec.ops
    assert report.registry.histogram("shard.latency.gscan_D").empty


def test_crash_requires_time():
    with pytest.raises(ValueError):
        _run(crash_shard=0)
    with pytest.raises(ValueError):
        _run(crash_shard=99, crash_time=5.0)


def test_as_dict_is_json_stable_and_rounded():
    d = _run().as_dict()
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text) == d
    assert d["shards"] == 3
    assert d["completed"] == SPEC.ops
    assert "latency" in d and "p99" in d["latency"]["all"]
