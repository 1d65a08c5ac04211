#!/usr/bin/env python3
"""The same algorithms on a real asyncio runtime.

The protocol objects are sans-io: this example runs the *identical*
EQ-ASO and Byzantine-ASO classes used by the discrete-event benchmarks —
and the identical network — on an asyncio loop, with real (randomized
wall-clock) delays: concurrent clients, a mid-run crash, an open-loop
burst of calls on one node (queued in its op FIFO, run in submission
order), and the usual correctness check.

Run:  python examples/asyncio_runtime.py
"""

import asyncio

from repro import ByzantineAso, EqAso
from repro.net.byzantine import TagFlooder, byzantine_factory
from repro.net.faults import CrashAtTime, CrashPlan
from repro.runtime.aio import AioCluster
from repro.spec import is_linearizable, order_check


async def crash_tolerant_run() -> None:
    print("== EQ-ASO on asyncio (one node crashes mid-run) ==")
    plan = CrashPlan({4: CrashAtTime(0.004)})
    cluster = AioCluster(EqAso, n=5, f=2, seed=11, crash_plan=plan)
    await cluster.start()

    async def client(node: int) -> None:
        await cluster.call(node, "update", f"from-{node}")
        snap = await cluster.call(node, "scan")
        print(f"  node {node} sees {snap.values}")

    await asyncio.gather(*(client(i) for i in range(4)))
    print("  linearizable:", is_linearizable(cluster.history))
    await cluster.shutdown()


async def open_loop_burst() -> None:
    print("\n== EQ-ASO on asyncio (an open-loop burst on node 0) ==")
    cluster = AioCluster(EqAso, n=5, f=2, seed=5)
    await cluster.start()
    finished: list[int] = []

    async def arrival(k: int) -> None:
        # nobody waits for the previous call: node 0's FIFO sequences them
        await cluster.call(0, "update", f"burst-{k}")
        finished.append(k)

    await asyncio.gather(*(arrival(k) for k in range(6)), cluster.call(1, "scan"))
    print("  completion order:", finished)
    assert finished == list(range(6)), "calls on one node must finish in order"
    ok = order_check(cluster.history, real_time=True).ok
    print("  linearizable:", ok)
    assert ok, "the burst's history must pass order_check"
    await cluster.shutdown()


async def byzantine_run() -> None:
    print("\n== Byzantine ASO on asyncio (node 3 floods tags) ==")
    factory = byzantine_factory(ByzantineAso, {3: TagFlooder()})
    cluster = AioCluster(factory, n=4, f=1, seed=23)
    await cluster.start()
    await asyncio.gather(
        cluster.call(0, "update", "honest-a"),
        cluster.call(1, "update", "honest-b"),
    )
    snap = await cluster.call(2, "scan")
    print("  honest scan:", snap.values)
    print("  linearizable:", is_linearizable(cluster.history))
    await cluster.shutdown()


if __name__ == "__main__":
    asyncio.run(crash_tolerant_run())
    asyncio.run(open_loop_burst())
    asyncio.run(byzantine_run())
