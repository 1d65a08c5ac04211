"""Bench workloads: registration, scale-out claim, fingerprint stability."""

import json

from repro.bench.runner import CASES
from repro.shard.bench import shard_scan_tail, shard_throughput

SMOKE = dict(ops=120, baseline_ops=50, keys=48)


def test_cases_registered_with_smoke_variants():
    assert "shard_throughput" in CASES
    assert "shard_scan_tail" in CASES
    for name in ("shard_throughput", "shard_scan_tail"):
        case = CASES[name]
        assert callable(case.workload) and case.smoke_kw


def test_shard_throughput_scales_out():
    out = shard_throughput(**SMOKE)
    # the acceptance claim: >= 4 quorum groups beat one group AND one
    # table1-sized single object on the same open-loop stream (ops/D is
    # simulated, so this holds deterministically on any host)
    assert out["scale_out_ratio"] > 1.0
    assert out["vs_single_object"] > 1.0
    assert out["sharded"]["shards"] == 4
    assert out["sharded"]["aborted"] == 0
    assert out["single_shard"]["shards"] == 1
    assert out["single_object"]["nodes_per_shard"] == 5


def test_shard_scan_tail_reports_lanes_and_composites():
    out = shard_scan_tail(ops=100, keys=48)
    assert out["composites_total"] > 0
    assert out["composites_complete"] == out["composites_total"]
    for lane in ("all", "update", "scan", "gscan"):
        assert out["latency"][lane]["p99"] >= out["latency"][lane]["p50"]
    assert out["routed_imbalance"] >= 1.0


def test_bench_outputs_are_deterministic():
    a = json.dumps(shard_throughput(**SMOKE), sort_keys=True)
    b = json.dumps(shard_throughput(**SMOKE), sort_keys=True)
    assert a == b
    c = json.dumps(shard_scan_tail(ops=100, keys=48), sort_keys=True)
    d = json.dumps(shard_scan_tail(ops=100, keys=48), sort_keys=True)
    assert c == d
