"""Workload generators.

Shared between the integration tests (randomized histories fed to the
Theorem 1 checkers) and the benchmark harness (latency measurements).
All randomness flows through :class:`repro.sim.rng.SeededRng`, so every
workload is replayable from its seed.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.runtime.cluster import Cluster, OpHandle
from repro.sim.rng import SeededRng


def random_workload(
    cluster: Cluster,
    rng: SeededRng,
    *,
    nodes: Sequence[int] | None = None,
    ops_per_node: int = 4,
    scan_prob: float = 0.5,
    start_spread: float = 2.0,
    gap_spread: float = 1.5,
) -> list[OpHandle]:
    """Random mixed update/scan chains on every (or the given) node.

    Each node runs ``ops_per_node`` operations back-to-back with random
    think-time gaps; each op is a scan with probability ``scan_prob`` and
    an update of a unique value otherwise.
    """
    targets = list(range(cluster.n)) if nodes is None else list(nodes)
    handles: list[OpHandle] = []
    for node in targets:
        ops: list[tuple[str, tuple[Any, ...]]] = []
        for i in range(ops_per_node):
            if rng.random() < scan_prob:
                ops.append(("scan", ()))
            else:
                ops.append(("update", (f"v{node}.{i}",)))
        handles.extend(
            cluster.chain_ops(
                node,
                ops,
                start=rng.uniform(0.0, start_spread),
                gap=rng.uniform(0.0, gap_spread),
            )
        )
    return handles


__all__ = ["random_workload"]
