"""The per-node op FIFO: the one place a node's client operations are
sequenced, on both runtimes.

Nodes are sequential (Sec. II-A).  ``BaseCluster`` keeps one FIFO per
node and every way of submitting work feeds it: ``invoke_at``/``invoke``
(one arrival), ``chain_ops`` (one arrival carrying the chain and its
``gap``) and ``AioCluster.call`` (an arrival now, then an awaited
settle).  An arrival at an idle node with an empty FIFO begins at once;
otherwise the head begins in a new kernel event ``gap`` after the
running operation settles.  A crash aborts the whole FIFO synchronously;
a failed or cancelled operation only frees the node.

Every asyncio wait is under ``asyncio.wait_for``: a hang is a failure
here, not a stuck test run.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.net.faults import CrashAtTime, CrashPlan
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.runtime.driver import OpHandle
from repro.runtime.protocol import ProtocolNode, WaitUntil, handles

TIMEOUT = 20


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


@dataclass(frozen=True, slots=True)
class MPing:
    pass


@dataclass(frozen=True, slots=True)
class MPong:
    pass


class QueueNode(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.pongs = 0

    @handles(MPing)
    def _on_ping(self, src, msg):
        self.send(src, MPong())

    @handles(MPong)
    def _on_pong(self, src, msg):
        self.pongs += 1

    def ping(self, label=None):
        """One round trip (2D at constant delay); returns ``label``."""
        self.pongs = 0
        self.phase_enter("ping")
        self.broadcast(MPing())
        yield WaitUntil(lambda: self.pongs >= self.quorum_size, "pongs")
        self.phase_exit("ping")
        return label

    def forever(self):
        self.phase_enter("forever")
        yield WaitUntil(lambda: False, "never satisfied")

    def boom(self):
        self.phase_enter("boom")
        raise ValueError("boom at the first step")
        yield

    def stray(self):
        # a payload no handler is registered for: the receiver's raises
        self.send((self.node_id + 1) % self.n, "stray")
        yield from self.forever()


# -- the simulator ------------------------------------------------------------


def test_fifo_order_and_gap_per_node():
    cluster = Cluster(QueueNode, 3, 1)
    chain = cluster.chain_ops(0, [("ping", (k,)) for k in range(3)], gap=0.5)
    other = cluster.chain_ops(1, [("ping", ("x",)), ("ping", ("y",))], gap=2.0)
    cluster.run_until_complete(chain + other)
    assert [h.result for h in chain] == [0, 1, 2]
    assert [h.result for h in other] == ["x", "y"]
    assert [(h.t_inv, h.t_resp) for h in chain] == [(0.0, 2.0), (2.5, 4.5), (5.0, 7.0)]
    assert [(h.t_inv, h.t_resp) for h in other] == [(0.0, 2.0), (4.0, 6.0)]


def test_an_arrival_at_a_busy_node_begins_at_its_predecessors_response():
    cluster = Cluster(QueueNode, 3, 1)
    arrivals = [(0.0, "a"), (0.5, "b"), (0.7, "c"), (5.0, "d"), (10.0, "e")]
    hs = [cluster.invoke_at(t, 0, "ping", label) for t, label in arrivals]
    cluster.run_until_complete(hs)
    assert [h.result for h in hs] == ["a", "b", "c", "d", "e"]
    # b, c and d queued; e arrived at an idle node and began on arrival
    assert [h.t_inv for h in hs] == [0.0, 2.0, 4.0, 6.0, 10.0]
    assert [h.t_inv for h in hs[1:4]] == [h.t_resp for h in hs[:3]]


def test_a_crash_aborts_the_rest_of_the_fifo_synchronously():
    plan = CrashPlan({0: CrashAtTime(1.0)})
    cluster = Cluster(QueueNode, 3, 1, crash_plan=plan)
    running = cluster.invoke_at(0.0, 0, "forever")
    queued = [cluster.invoke_at(0.25 * k, 0, "ping", k) for k in (1, 2, 3)]
    fired = []
    for h in [running, *queued]:
        h.on_complete(lambda h: fired.append((h, cluster.sim.now, cluster.sim.steps)))
    cluster.run_until_complete([running, *queued])
    assert all(h.aborted and not h.done for h in [running, *queued])
    crash_event = fired[0][1:]
    assert crash_event[0] == 1.0
    # each callback exactly once, in FIFO order, all inside the crash event
    assert fired == [(h, *crash_event) for h in [running, *queued]]
    assert [h.record is None for h in queued] == [True] * 3
    assert [op.kind for op in cluster.history.ops] == ["forever"]


def test_begin_on_a_busy_node_still_raises():
    """The queue never trips it; the invariant stays in the driver."""
    cluster = Cluster(QueueNode, 3, 1)
    running = cluster.invoke(0, "forever")
    cluster.run(until=0.5)
    with pytest.raises(RuntimeError, match="sequential"):
        cluster._driver.begin(OpHandle(0, "ping", ()))
    assert cluster._driver.ops[0] is running
    assert len(cluster.history.ops) == 1


# -- asyncio ------------------------------------------------------------------


def test_concurrent_calls_on_one_node_complete_in_submission_order():
    """At the parent the second ``call()`` raised "another operation is
    pending"."""

    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        finished = []

        async def one(label):
            finished.append(await cluster.call(0, "ping", label))

        await asyncio.gather(*(one(k) for k in range(4)))
        await cluster.shutdown()
        return cluster, finished

    cluster, finished = run(main())
    assert finished == [0, 1, 2, 3]
    ops = cluster.history.ops
    assert [op.args for op in ops] == [(k,) for k in range(4)]
    assert all(op.complete for op in ops)
    assert all(a.t_resp <= b.t_inv for a, b in zip(ops, ops[1:]))


def test_cancelling_a_parked_call_lets_the_next_queued_one_run():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        parked = asyncio.ensure_future(cluster.call(0, "forever"))
        queued = asyncio.ensure_future(cluster.call(0, "ping", "next"))
        await asyncio.sleep(0)  # both submitted: one parked, one queued
        assert not queued.done()
        parked.cancel()
        assert await asyncio.wait_for(queued, 5) == "next"
        with pytest.raises(asyncio.CancelledError):
            await parked
        await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("forever", False),
        ("ping", True),
    ]


def test_cancelling_a_queued_call_skips_it():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        calls = [
            asyncio.ensure_future(cluster.call(0, "ping", label)) for label in "abc"
        ]
        await asyncio.sleep(0)
        calls[1].cancel()
        assert await asyncio.wait_for(calls[0], 5) == "a"
        assert await asyncio.wait_for(calls[2], 5) == "c"
        with pytest.raises(asyncio.CancelledError):
            await calls[1]
        await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert [op.args for op in cluster.history.ops] == [("a",), ("c",)]


def test_a_crash_fails_every_queued_call():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        calls = [asyncio.ensure_future(cluster.call(0, "forever"))]
        calls += [asyncio.ensure_future(cluster.call(0, "ping", k)) for k in range(2)]
        await asyncio.sleep(0)
        cluster.crash(0)
        for call in calls:
            with pytest.raises(RuntimeError, match="node 0 crashed during"):
                await asyncio.wait_for(call, 5)
        assert await cluster.call(1, "ping", "alive") == "alive"
        await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert [op.kind for op in cluster.history.ops] == ["forever", "ping"]


def test_shutdown_reaches_a_call_queued_behind_a_parked_one():
    """Shutdown used to abort only the running operations: a queued
    ``call()`` hung past it."""

    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        parked = asyncio.ensure_future(cluster.call(0, "forever"))
        queued = asyncio.ensure_future(cluster.call(0, "ping"))
        await asyncio.sleep(0)
        await cluster.shutdown()
        for call in (parked, queued):
            with pytest.raises(RuntimeError, match="cluster was shut down during"):
                await asyncio.wait_for(call, 5)
        return cluster

    cluster = run(main())
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("forever", False)
    ]


def test_a_handler_failure_reaches_a_queued_call():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        parked = asyncio.ensure_future(cluster.call(0, "forever"))
        queued = asyncio.ensure_future(cluster.call(0, "ping"))
        await asyncio.sleep(0)
        with pytest.raises(TypeError, match="got unknown message"):
            await cluster.call(1, "stray")
        for call in (parked, queued):
            with pytest.raises(TypeError, match="got unknown message"):
                await asyncio.wait_for(call, 5)
        with pytest.raises(TypeError, match="got unknown message"):
            await cluster.shutdown()

    run(main())


def test_a_queued_op_that_raises_fails_its_own_call_not_the_kernel():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        first = asyncio.ensure_future(cluster.call(0, "ping", "first"))
        doomed = asyncio.ensure_future(cluster.call(0, "boom"))
        after = asyncio.ensure_future(cluster.call(0, "ping", "after"))
        assert await asyncio.wait_for(first, 5) == "first"
        with pytest.raises(ValueError, match="boom at the first step"):
            await asyncio.wait_for(doomed, 5)
        assert await asyncio.wait_for(after, 5) == "after"  # the node is free
        assert await cluster.call(1, "ping", "elsewhere") == "elsewhere"
        await cluster.shutdown()  # nothing to re-raise
        return cluster

    cluster = run(main())
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("ping", True),
        ("boom", False),
        ("ping", True),
        ("ping", True),
    ]


def test_an_unknown_op_name_fails_at_the_call_site_unqueued():
    async def main():
        cluster = AioCluster(QueueNode, 3, 1, mean_delay=0)
        await cluster.start()
        parked = asyncio.ensure_future(cluster.call(0, "forever"))
        await asyncio.sleep(0)
        with pytest.raises(AttributeError, match="no_such_op"):
            await cluster.call(0, "no_such_op")
        assert not cluster._queued[0]
        await cluster.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            await parked
        return cluster

    cluster = run(main())
    assert [op.kind for op in cluster.history.ops] == ["forever"]
