"""EQ-bound view-vector stress workload for ``python -m repro.bench``.

All ``n`` nodes run long back-to-back chains of UPDATEs with periodic
SCANs, concurrently, on the lockstep constant-delay cluster.  Every
delivery at a node re-polls its parked EQ predicate (the runtime
re-checks :class:`~repro.runtime.protocol.WaitUntil` after each
delivery), so with every node both writing and waiting the workload is
dominated by ``EQ(V^{≤r}, i)`` evaluations over a steadily growing
value universe — exactly the path :class:`~repro.core.views.ViewVector`'s
interning and incremental match tracking accelerate (the ``eq_rows_*``
counters of the bench report show the row work done and skipped).  The
frozenset oracle under ``tests/support/`` re-derives the same answers,
and the whole-run oracle test requires the paper-facing metrics below to
be byte-identical between the two.

Metrics are latency statistics in units of ``D`` plus total message
counts — deterministic on the lockstep substrate, independent of the
view representation.
"""

from __future__ import annotations

from typing import Any

from repro.core.eq_aso import EqAso
from repro.harness.metrics import summarize
from repro.runtime.cluster import Cluster, OpHandle


def views_stress(
    *, n: int = 10, f: int = 4, rounds: int = 25, scan_every: int = 5
) -> dict[str, Any]:
    """Concurrent update/scan chains at every node; EQ-dominated.

    Each node performs ``rounds`` UPDATEs back-to-back with a SCAN after
    every ``scan_every``-th one.  Returns per-kind latency statistics in
    ``D`` and the total message count.
    """
    cluster = Cluster(EqAso, n=n, f=f)
    handles: list[OpHandle] = []
    for node in range(n):
        ops: list[tuple[str, tuple[Any, ...]]] = []
        for i in range(rounds):
            ops.append(("update", (f"w{node}.{i}",)))
            if (i + 1) % scan_every == 0:
                ops.append(("scan", ()))
        handles.extend(cluster.chain_ops(node, ops))
    cluster.run_until_complete(handles)

    def stats(kind: str) -> dict[str, Any]:
        s = summarize([h for h in handles if h.kind == kind], cluster.D)
        return {
            "count": s.count,
            "mean_D": round(s.mean, 6),
            "p99_D": round(s.p99, 6),
            "max_D": round(s.maximum, 6),
        }

    return {
        "n": n,
        "f": f,
        "rounds": rounds,
        "update": stats("update"),
        "scan": stats("scan"),
        "messages_total": sum(cluster.network.sent_by_node),
    }


__all__ = ["views_stress"]
