"""Keyspace-sharded multi-object snapshot service (scale-out layer).

Everything below this package runs *one* snapshot object: a single
quorum group whose throughput is capped at roughly ``n / latency`` no
matter how fast the substrate gets.  This package scales *out*:

- :class:`~repro.shard.router.ShardRouter` maps keys to shards with
  consistent hashing (a fixed ring of virtual nodes, SHA-256 points, so
  placement is deterministic across processes and Python versions);
- :class:`~repro.shard.service.ShardedSnapshotService` runs one
  independent :class:`~repro.runtime.cluster.Cluster` (its own quorum
  group, its own registered algorithm) per shard, routes per-key UPDATEs
  to their shard, and composes cross-shard SCANs under the *monotone
  cut* rule (per-shard linearizable snapshots taken in ascending shard
  order, each invoked only after the previous shard's snapshot
  responded — see :mod:`repro.shard.service`).  One partition decides
  which shard runs which op when, and the report's metrics (per-shard
  load, latency lanes) are derived once from the settled outcomes, so a
  ``--workers`` run equals the serial one byte for byte;
- :mod:`~repro.shard.workload` is an open-loop traffic generator —
  Zipf-skewed keys, bursty MMPP-style on/off arrivals, configurable
  read/write mix — fully driven by :func:`repro.sim.rng.derive_seed`,
  so a million-op run is replayable from one integer;
- :mod:`~repro.shard.oracle` differentially validates the service
  against single-object runs (the composition rule must be the identity
  on one shard, and each shard of a sharded run must be byte-identical
  to a standalone replay of its projected schedule);
- :mod:`~repro.shard.chaos` crashes a whole shard mid-campaign and
  checks the service degrades instead of failing (surviving shards stay
  linearizable, only the dead shard's traffic aborts).

Fingerprint gate: ``python -m repro.bench shard_throughput shard_scan_tail``;
ad-hoc runs: ``python -m repro.shard --help``.
"""

from repro.shard.router import ShardRouter
from repro.shard.service import (
    CompositeSnapshot,
    ShardConfig,
    ShardedSnapshotService,
    ShardRunReport,
)
from repro.shard.workload import Arrival, WorkloadSpec, generate_arrivals

__all__ = [
    "Arrival",
    "CompositeSnapshot",
    "ShardConfig",
    "ShardRouter",
    "ShardRunReport",
    "ShardedSnapshotService",
    "WorkloadSpec",
    "generate_arrivals",
]
