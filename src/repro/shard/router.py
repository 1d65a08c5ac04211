"""Consistent-hash routing of keys to shards.

The router is a classic consistent-hashing ring: every shard owns
``vnodes`` points on a 64-bit circle and a key routes to the shard
owning the first point at or after the key's own hash point.  Two
properties matter here:

- **determinism across processes** — points come from SHA-256 (via
  :func:`repro.sim.rng.derive_seed` for vnode points and a direct
  digest for keys), never from Python's salted ``hash()``, so a key
  routes identically in every worker of a parallel sweep and in every
  CI run;
- **stability under resharding** — moving from ``S`` to ``S+1`` shards
  relocates only the keys whose arc the new shard's vnodes capture
  (~``1/(S+1)`` of the keyspace), which the router tests assert.  The
  service itself is fixed-topology per run; stability is what makes the
  ring the right *kind* of map for a growing deployment.

Routing is one ``O(log vnodes·shards)`` bisection and one SHA-256 per
key.  The router is a pure map with no counters: per-shard load is the
length of each shard's schedule, which the service reads off its
partition (``ShardRunReport.routed_imbalance``).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from repro.sim.rng import derive_seed

#: default virtual nodes per shard; 64 keeps the max/mean keyspace-arc
#: imbalance under ~1.3x for small shard counts
DEFAULT_VNODES = 64


def key_point(key: str) -> int:
    """The key's 64-bit point on the ring (SHA-256, process-stable)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRouter:
    """Maps keys to ``shards`` shards via a consistent-hash ring."""

    __slots__ = ("shards", "vnodes", "ring_seed", "_points", "_owners")

    def __init__(
        self, shards: int, *, vnodes: int = DEFAULT_VNODES, ring_seed: int = 0
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if vnodes < 1:
            raise ValueError(f"need at least one vnode per shard, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        self.ring_seed = ring_seed
        ring: list[tuple[int, int]] = []
        for shard in range(shards):
            for v in range(vnodes):
                ring.append((derive_seed(ring_seed, "ring", shard, v), shard))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def shard_of(self, key: str) -> int:
        """The shard owning ``key``."""
        idx = bisect_right(self._points, key_point(key))
        if idx == len(self._points):
            idx = 0  # wrap around the circle
        return self._owners[idx]

    def __repr__(self) -> str:
        return f"ShardRouter(shards={self.shards}, vnodes={self.vnodes})"


__all__ = ["DEFAULT_VNODES", "ShardRouter", "key_point"]
