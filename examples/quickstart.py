#!/usr/bin/env python3
"""Quickstart: an atomic snapshot object in 30 lines.

Creates a 5-node cluster running EQ-ASO (the paper's crash-tolerant
atomic snapshot object), performs concurrent updates and scans, prints
the snapshots and latencies (in units of the maximum message delay D),
and verifies the recorded history against the paper's Theorem 1
conditions.

Run:  python examples/quickstart.py
"""

from repro import Cluster, EqAso
from repro.spec import check_atomicity_conditions, is_linearizable, linearize


def main() -> None:
    # n = 5 nodes tolerating f = 2 crashes (n > 2f).
    cluster = Cluster(EqAso, n=5, f=2)

    # Every node writes its segment twice and scans twice, concurrently.
    handles = []
    for node in range(5):
        handles += cluster.chain_ops(
            node,
            [
                ("update", (f"{node}:first",)),
                ("scan", ()),
                ("update", (f"{node}:second",)),
                ("scan", ()),
            ],
            start=node * 0.3,  # staggered starts → real concurrency
        )
    cluster.run_until_complete(handles)

    print("== operations ==")
    for h in handles:
        out = h.result.values if h.kind == "scan" else h.result
        print(
            f"node {h.node} {h.kind:6s} -> {out}   "
            f"(latency {h.latency / cluster.D:.1f} D)"
        )

    print("\n== correctness ==")
    violations = check_atomicity_conditions(cluster.history)
    print(f"Theorem 1 conditions (A0)-(A4): {len(violations)} violations")
    print(f"linearizable: {is_linearizable(cluster.history)}")

    order = linearize(cluster.history)
    print("\n== a witness linearization ==")
    print(" < ".join(f"{op.kind}@{op.node}" for op in order))


if __name__ == "__main__":
    main()
