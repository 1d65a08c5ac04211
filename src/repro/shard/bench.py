"""Bench workloads for the sharded service (``repro.bench`` cases).

Two cases, registered in :mod:`repro.bench.runner`:

- ``shard_throughput`` — pure per-key traffic (no composite scans) on a
  multi-shard service vs two single-group baselines: the same workload
  forced through one shard, and through one table1-sized object
  (``n=5, f=2``).  The paper-facing number is *simulated* throughput —
  completed operations per ``D`` of makespan — which is deterministic
  and therefore fingerprint-safe (wall-clock ops/sec is the ledger's
  ``shard_open_zipf`` workload, not the bench's business).  The
  arrival rate is chosen to saturate a single quorum group, so the
  scale-out ratio measures real queueing relief, not idle capacity.
- ``shard_scan_tail`` — Zipf-skewed, bursty (MMPP on/off) mixed traffic
  *with* cross-shard composite scans; the paper-facing numbers are the
  p50/p95/p99 open-loop latencies per lane (update / local scan /
  composite scan) plus the per-shard load imbalance (`routed_imbalance`).

Both workloads route every float through ``round(..., 6)`` before the
report so canonical-JSON fingerprints are stable, and neither consults
the wall clock — the bench's fingerprint gate and the tier-1 whole-run
oracle (shipped vs reference substrate, byte-identical metrics) apply to
them exactly as to every other case.
"""

from __future__ import annotations

from typing import Any

from repro.shard.service import ShardConfig, ShardRunReport, ShardedSnapshotService
from repro.shard.workload import WorkloadSpec


def _run(config: ShardConfig, spec: WorkloadSpec, seed: int) -> ShardRunReport:
    # consistency is covered by tests/shard and the differential oracle;
    # the bench skips the polynomial checker, whose work is not a shard
    # number
    return ShardedSnapshotService(config).run(spec, seed, check=False)


def _strip(d: dict[str, Any]) -> dict[str, Any]:
    d.pop("order_ok", None)  # always None with check=False: noise
    return d


def shard_throughput(
    *,
    shards: int = 4,
    nodes_per_shard: int = 3,
    f: int = 1,
    ops: int = 1500,
    baseline_ops: int = 500,
    keys: int = 512,
    rate: float = 1.2,
    read_ratio: float = 0.2,
    zipf_theta: float = 1.1,
    clients: int = 1_000_000,
    seed: int = 7,
) -> dict[str, Any]:
    """Aggregate throughput: sharded vs single-shard vs single-object.

    The arrival rate saturates a single quorum group, so its makespan —
    and therefore its ops-per-``D`` — is capacity-bound and converges
    after a few hundred operations; the baselines run ``baseline_ops``
    of the same stream instead of the full workload to keep the bench's
    wall budget on the sharded configuration under measurement.
    """

    def spec_for(n_ops: int) -> WorkloadSpec:
        return WorkloadSpec(
            ops=n_ops,
            keys=keys,
            zipf_theta=zipf_theta,
            read_ratio=read_ratio,
            clients=clients,
            rate=rate,
        )

    base_spec = spec_for(min(baseline_ops, ops))
    sharded = _run(
        ShardConfig(shards=shards, nodes_per_shard=nodes_per_shard, f=f),
        spec_for(ops),
        seed,
    )
    single_shard = _run(
        ShardConfig(shards=1, nodes_per_shard=nodes_per_shard, f=f),
        base_spec,
        seed,
    )
    single_object = _run(
        ShardConfig(shards=1, nodes_per_shard=5, f=2), base_spec, seed
    )

    def ratio(a: ShardRunReport, b: ShardRunReport) -> float:
        return round(a.ops_per_D / b.ops_per_D, 6) if b.ops_per_D else 0.0

    return {
        "sharded": _strip(sharded.as_dict()),
        "single_shard": _strip(single_shard.as_dict()),
        "single_object": _strip(single_object.as_dict()),
        # the scale-out claim: the same open-loop workload finishes this
        # many times faster (per D) on >= `shards` quorum groups
        "scale_out_ratio": ratio(sharded, single_shard),
        "vs_single_object": ratio(sharded, single_object),
    }


def shard_scan_tail(
    *,
    shards: int = 4,
    nodes_per_shard: int = 3,
    f: int = 1,
    ops: int = 1200,
    keys: int = 256,
    rate: float = 2.0,
    off_rate: float = 0.3,
    mean_on: float = 40.0,
    mean_off: float = 20.0,
    read_ratio: float = 0.35,
    global_scan_ratio: float = 0.15,
    zipf_theta: float = 1.1,
    clients: int = 1_000_000,
    seed: int = 7,
) -> dict[str, Any]:
    """Tail latency under bursty skewed traffic with composite scans."""
    spec = WorkloadSpec(
        ops=ops,
        keys=keys,
        zipf_theta=zipf_theta,
        read_ratio=read_ratio,
        global_scan_ratio=global_scan_ratio,
        clients=clients,
        rate=rate,
        off_rate=off_rate,
        mean_on=mean_on,
        mean_off=mean_off,
    )
    report = _run(
        ShardConfig(shards=shards, nodes_per_shard=nodes_per_shard, f=f),
        spec,
        seed,
    )
    out = _strip(report.as_dict())
    out["composites_total"] = len(report.composites)
    out["composites_complete"] = sum(1 for c in report.composites if c.complete)
    return out


__all__ = ["shard_scan_tail", "shard_throughput"]
