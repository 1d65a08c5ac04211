#!/usr/bin/env python3
"""Fault injection: failure chains, the √k worst case, and Byzantine attacks.

Three demonstrations:

1. **A failure chain (Definition 11)** — a writer crashes mid-broadcast so
   its value survives only along a chain of crashing forwarders; a later
   scan still returns a linearizable view (the value appears exactly when
   it must).
2. **The √k staircase (Sec. III-F)** — scan latency under the worst-case
   adversary grows with √k, not k: the measured curve is printed next to
   √(2k).
3. **Byzantine attacks** — the Byzantine ASO (n > 3f) under an equivocating
   and a tag-flooding node: honest operations slow down by O(k·D) but the
   honest history stays linearizable.

Run:  python examples/fault_injection.py
"""

import math

from repro import Cluster, EqAso, ByzantineAso, chain_crash_plan
from repro.core.messages import MValue
from repro.harness.adversary import staircase_victim_latency
from repro.net.byzantine import TagFlooder, Silent, byzantine_factory
from repro.spec import is_linearizable


def failure_chain_demo() -> None:
    print("== 1. failure chain ==")
    # nodes 0 and 1 crash while forwarding node 0's value; node 2 is the
    # only survivor that ever received it
    plan = chain_crash_plan([0, 1, 2], match=lambda p: isinstance(p, MValue))
    cluster = Cluster(EqAso, n=7, f=3, crash_plan=plan)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("doomed-value",)),
            (0.5, 3, "scan", ()),
            (9.0, 4, "scan", ()),
        ]
    )
    early, late = handles[1], handles[2]
    print("  early scan:", early.result.values)
    print("  late  scan:", late.result.values)
    print("  linearizable:", is_linearizable(cluster.history))


def staircase_demo() -> None:
    print("\n== 2. the sqrt(k) staircase ==")
    print(f"  {'k':>4s} {'scan latency':>14s} {'sqrt(2k)':>9s}")
    for k in (1, 3, 6, 10, 15, 21):
        latency = staircase_victim_latency("eq_aso", "scan", k)
        print(f"  {k:4d} {latency:13.2f}D {math.sqrt(2 * k):8.2f}")


def byzantine_demo() -> None:
    print("\n== 3. Byzantine attacks ==")
    for name, behaviour in (("silent", Silent()), ("tag-flooder", TagFlooder())):
        factory = byzantine_factory(ByzantineAso, {6: behaviour})
        cluster = Cluster(factory, n=7, f=2)
        handles = []
        for node in range(3):
            handles += cluster.chain_ops(
                node,
                [("update", (f"h{node}",)), ("scan", ())],
                start=node * 0.2,
            )
        cluster.run_until_complete(handles)
        worst = max(h.latency / cluster.D for h in handles)
        print(
            f"  {name:12s} worst honest latency {worst:5.2f}D, "
            f"linearizable={is_linearizable(cluster.history)}"
        )


if __name__ == "__main__":
    failure_chain_demo()
    staircase_demo()
    byzantine_demo()
