"""The asyncio runtime's edges: failures, shutdown, cancellation, the
declared delay bound, and ``backpressure`` (on both runtimes).

Every wait is under ``asyncio.wait_for``: a hang is a failure here, not
a stuck test run.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.core import EqAso
from repro.obs import MemorySink, Tracer
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import ProtocolNode, WaitUntil, handles

TIMEOUT = 20


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


@dataclass(frozen=True, slots=True)
class MPing:
    nonce: int


@dataclass(frozen=True, slots=True)
class MPong:
    nonce: int


class Node(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.pongs = 0
        self.got = []

    @handles(MPing)
    def _on_ping(self, src, msg):
        self.got.append(msg.nonce)
        self.send(src, MPong(msg.nonce))

    @handles(MPong)
    def _on_pong(self, src, msg):
        self.pongs += 1

    def ping(self):
        self.pongs = 0
        self.phase_enter("ping")
        self.broadcast(MPing(0))
        yield WaitUntil(lambda: self.pongs >= self.quorum_size, "pongs")
        self.phase_exit("ping")
        return "ponged"

    def forever(self):
        self.pongs = 0
        self.phase_enter("forever")
        yield WaitUntil(lambda: self.pongs > self.n, "more pongs than nodes")

    def stray(self):
        # a payload no handler is registered for: the receiver's raises
        self.send((self.node_id + 1) % self.n, "stray")
        yield from self.forever()

    def burst(self, dst, count):
        self.phase_enter("burst")
        for nonce in range(count):
            self.send(dst, MPing(nonce))
        self.phase_exit("burst")
        return count
        yield


# -- failures surface at the caller ---------------------------------------


def test_a_raising_handler_fails_every_caller_instead_of_hanging():
    """At the parent the handler's exception killed one forwarder task,
    ``shutdown()`` swallowed it, and every client parked behind that
    channel waited forever."""

    async def main():
        cluster = AioCluster(Node, 3, 1, mean_delay=0)
        await cluster.start()
        parked = [asyncio.ensure_future(cluster.call(i, "forever")) for i in (1, 2)]
        await asyncio.sleep(0)
        with pytest.raises(TypeError, match="got unknown message"):
            await cluster.call(0, "stray")
        for fut in parked:  # woken by the failure, not left behind
            with pytest.raises(TypeError, match="got unknown message"):
                await fut
        with pytest.raises(TypeError, match="got unknown message"):
            await cluster.call(1, "ping")  # and no later call starts
        with pytest.raises(TypeError, match="got unknown message"):
            await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert [op.complete for op in cluster.history.ops] == [False] * 3


# -- shutdown and cancellation with operations in flight ------------------


def test_start_creates_no_task_and_shutdown_leaves_nothing_pending():
    async def main():
        cluster = AioCluster(Node, 5, 2, mean_delay=0, tracer=Tracer(MemorySink()))
        callers = asyncio.all_tasks()  # this coroutine (and its wait_for)
        await cluster.start()
        assert asyncio.all_tasks() == callers  # parent: n² forwarders more
        calls = [asyncio.ensure_future(cluster.call(i, "forever")) for i in range(5)]
        await asyncio.sleep(0.005)
        assert not any(call.done() for call in calls)
        await cluster.shutdown()
        outcomes = await asyncio.gather(*calls, return_exceptions=True)
        assert all(
            isinstance(exc, RuntimeError) and "shut down" in str(exc) for exc in outcomes
        )
        assert asyncio.all_tasks() == callers
        assert cluster.sim._handle is None  # nothing armed on the loop either
        with pytest.raises(RuntimeError, match="shut down"):
            await cluster.call(0, "ping")
        await cluster.shutdown()  # idempotent
        return cluster

    cluster = run(main())
    assert [op.complete for op in cluster.history.ops] == [False] * 5
    kinds = [ev.kind for ev in cluster.tracer.sink.events]
    assert kinds.count("op-invoke") == kinds.count("op-abort") == 5


def test_cancelling_a_parked_call_aborts_its_op_and_frees_the_node():
    """At the parent ``driver.ops[node]`` stayed set and the next call on
    that node raised "another operation is pending"."""

    async def main():
        cluster = AioCluster(Node, 3, 1, mean_delay=0)
        await cluster.start()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(cluster.call(0, "forever"), timeout=0.01)
        assert await cluster.call(0, "ping") == "ponged"
        await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("forever", False),
        ("ping", True),
    ]


# -- the declared bound is the kept bound ----------------------------------


def _by_channel(events, *kinds):
    channels = {}
    for ev in events:
        if ev.kind in kinds:
            channels.setdefault((ev.src, ev.dst), []).append(ev)
    return channels


def test_a_burst_on_one_channel_arrives_in_order_within_the_bound():
    """Delays overlap: 20 back-to-back sends all land within ``D`` of the
    send plus whatever the loop ran late (which the kernel measures and
    ``shutdown()`` files).  The parent slept once per message in turn, so
    the last one took at least 20 × 0.2·mean ≈ 2.2 D."""
    mean = 0.005

    async def main():
        tracer = Tracer(MemorySink())
        cluster = AioCluster(Node, 2, 0, mean_delay=mean, seed=3, tracer=tracer)
        await cluster.start()
        assert await cluster.call(0, "burst", 1, 20) == 20
        await asyncio.sleep(0.05)
        await cluster.shutdown()
        return cluster, tracer

    cluster, tracer = run(main())
    assert cluster.nodes[1].got == list(range(20))
    D = tracer.meta["D"]
    assert D == pytest.approx(1.8 * mean)
    late_D = tracer.meta["max_lateness_D"]
    assert 0 <= late_D < TIMEOUT / D
    sends = _by_channel(tracer.sink.events, "send")[0, 1]
    delivers = _by_channel(tracer.sink.events, "deliver")[0, 1]
    assert [ev.msg for ev in sends] == [ev.msg for ev in delivers]
    worst = max(got.t - sent.t for sent, got in zip(sends, delivers))
    assert worst <= D * (1 + late_D) + 0.001


def test_every_channel_is_fifo_under_jitter():
    async def main():
        tracer = Tracer(MemorySink())
        cluster = AioCluster(EqAso, 5, 2, mean_delay=0.001, seed=7, tracer=tracer)
        await cluster.start()

        async def client(node):
            await cluster.call(node, "update", f"v{node}")
            await cluster.call(node, "scan")
            await cluster.call(node, "update", f"w{node}")

        await asyncio.gather(*(client(node) for node in range(5)))
        await cluster.shutdown()
        return tracer

    events = run(main()).sink.events
    sends = _by_channel(events, "send")
    arrivals = _by_channel(events, "deliver", "drop")
    assert len(sends) == 25
    for channel, sent in sends.items():
        arrived = [ev.msg for ev in arrivals[channel]]
        # shutdown may strand a tail; what arrived is a prefix, in order
        assert arrived == [ev.msg for ev in sent][: len(arrived)]
        assert len(arrived) > 0


# -- backpressure has one source, on both runtimes -------------------------

HWM = 4


def _backpressure(tracer):
    """``backpressure`` events of the channel the tests load, 0 -> 1."""
    return [
        (ev.src, ev.dst, ev.detail)
        for ev in tracer.sink.events
        if ev.kind == "backpressure" and ev.src == 0
    ]


def test_des_gated_channel_reports_backpressure_once_per_crossing():
    tracer = Tracer(MemorySink())
    cluster = Cluster(Node, 2, 0, tracer=tracer, backpressure_hwm=HWM)
    cluster.disconnect(0, 1)
    cluster.run_ops([(0.0, 0, "burst", (1, HWM))])
    assert _backpressure(tracer) == [(0, 1, f"depth={HWM}")]
    cluster.run_ops([(cluster.sim.now, 0, "burst", (1, 3))])  # deeper: no re-report
    assert len(_backpressure(tracer)) == 1
    cluster.reconnect(0, 1)
    cluster.run()  # drained; the pongs come back on the other channel
    assert cluster.network._depth == [0] * 4
    cluster.run_ops([(cluster.sim.now, 0, "burst", (1, HWM))])  # in flight together
    assert len(_backpressure(tracer)) == 2


def test_aio_gated_channel_reports_backpressure_once():
    async def main():
        tracer = Tracer(MemorySink())
        cluster = AioCluster(
            Node, 2, 0, mean_delay=0, tracer=tracer, backpressure_hwm=HWM
        )
        await cluster.start()
        cluster.disconnect(0, 1)
        await cluster.call(0, "burst", 1, HWM)
        assert _backpressure(tracer) == [(0, 1, f"depth={HWM}")]
        cluster.reconnect(0, 1)
        await asyncio.sleep(0.005)
        assert cluster.nodes[1].got == list(range(HWM))
        assert cluster.network._depth == [0] * 4
        await cluster.shutdown()

    run(main())


def test_without_a_tracer_nothing_is_counted_and_none_means_never():
    cluster = Cluster(Node, 2, 0, backpressure_hwm=HWM)
    cluster.disconnect(0, 1)
    cluster.run_ops([(0.0, 0, "burst", (1, HWM + 2))])
    assert cluster.network._depth == [0] * 4  # the traced branch never ran
    tracer = Tracer(MemorySink())
    cluster = Cluster(Node, 2, 0, tracer=tracer)  # default: no high-water mark
    cluster.disconnect(0, 1)
    cluster.run_ops([(0.0, 0, "burst", (1, 100))])
    assert _backpressure(tracer) == []
