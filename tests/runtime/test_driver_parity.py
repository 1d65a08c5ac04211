"""Driver parity: one scripted node, the same script under both runtimes.

``Cluster`` (simulator) and ``AioCluster`` (asyncio) share
:class:`repro.runtime.driver.OpDriver`; what an operation *does* — its
outcome, what the history records, which span events a tracer sees — must
not depend on which of the two ran it.  The script covers every way a
generator can end: return without yielding, already-true predicates,
park-and-release, a mid-outbox ``BroadcastCrash``, a bad yield, a raise
before any park, and a raise after one — where the simulator resumes the
generator inside ``run_until_complete`` and asyncio inside a kernel turn,
and both must hand the original exception to the caller.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.core.one_shot import OneShotAso
from repro.net.faults import BroadcastCrash, CrashPlan
from repro.obs import MemorySink, Tracer
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import ProtocolNode, WaitUntil


@dataclass(frozen=True, slots=True)
class MPing:
    nonce: int


@dataclass(frozen=True, slots=True)
class MPong:
    nonce: int


@dataclass(frozen=True, slots=True)
class MDoom:
    pass


class Scripted(ProtocolNode):
    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.pongs = set()
        self.got = []

    def instant(self):
        self.phase_enter("instant")
        self.phase_exit("instant")
        return "instant"
        yield  # a generator that returns without yielding

    def polls(self):
        self.phase_enter("polls")
        for _ in range(3):
            yield WaitUntil(lambda: True, "already true")
        self.phase_exit("polls")
        return 3

    def ping(self):
        self.pongs.clear()
        self.phase_enter("ping")
        self.broadcast(MPing(1))
        yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "pongs")
        self.phase_exit("ping")
        return "ponged"

    def bad_yield(self):
        self.phase_enter("bad")
        yield "not a WaitUntil"

    def raises(self):
        self.phase_enter("raises")
        yield WaitUntil(lambda: True, "fine")
        raise KeyError("scripted failure")

    def ping_then_raise(self):
        self.pongs.clear()
        self.phase_enter("ping_then_raise")
        self.broadcast(MPing(4))
        yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "pongs")
        raise KeyError("scripted failure after a park")

    def doomed(self):
        self.phase_enter("doomed")
        self.send(1, MPing(2))
        self.broadcast(MDoom())  # the crash plan cuts this one short
        self.send(2, MPing(3))  # never happens
        yield WaitUntil(lambda: len(self.pongs) > self.n, "more pongs than nodes")

    def on_message(self, src, payload):
        self.got.append((src, payload))
        match payload:
            case MPing(nonce):
                self.send(src, MPong(nonce))
            case MPong(_):
                self.pongs.add(src)


SCRIPT = [
    "instant",
    "polls",
    "ping",
    "bad_yield",
    "ping",
    "raises",
    "ping",
    "ping_then_raise",
    "ping",
    "doomed",
]
SPAN_KINDS = {
    "op-invoke",
    "op-respond",
    "op-abort",
    "phase-enter",
    "phase-exit",
    "crash",
}


def _plan():
    return CrashPlan(
        {0: BroadcastCrash(deliver_to=(1,), match=lambda p: isinstance(p, MDoom))}
    )


def _observe(cluster, tracer, outcomes):
    history = [(op.kind, op.complete) for op in cluster.history.ops]
    events = [
        ev.kind for ev in tracer.sink.events if ev.node == 0 and ev.kind in SPAN_KINDS
    ]
    received = {
        i: sorted((src, repr(p)) for src, p in node.got if not isinstance(p, MPong))
        for i, node in enumerate(cluster.nodes)
        if i != 0
    }
    return outcomes, history, events, received


def run_des():
    tracer = Tracer(MemorySink())
    cluster = Cluster(Scripted, 3, 1, crash_plan=_plan(), tracer=tracer)
    outcomes = []
    for name in SCRIPT:
        try:
            (handle,) = cluster.run_ops([(cluster.sim.now, 0, name, ())])
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            outcomes.append(("raised", type(exc).__name__))
        else:
            outcomes.append(("aborted",) if handle.aborted else ("result", handle.result))
    cluster.run()  # drain in-flight deliveries
    return _observe(cluster, tracer, outcomes)


def run_aio():
    async def main():
        tracer = Tracer(MemorySink())
        cluster = AioCluster(
            Scripted, 3, 1, mean_delay=0, crash_plan=_plan(), tracer=tracer
        )
        await cluster.start()
        outcomes = []
        for name in SCRIPT:
            try:
                outcomes.append(("result", await cluster.call(0, name)))
            except RuntimeError as exc:
                assert "crashed" in str(exc)
                outcomes.append(("aborted",))
            except Exception as exc:  # noqa: BLE001 - the outcome under test
                outcomes.append(("raised", type(exc).__name__))
        for _ in range(10):
            await asyncio.sleep(0)  # drain in-flight deliveries
        await cluster.shutdown()
        return _observe(cluster, tracer, outcomes)

    # the timeout is the hang detector: an exception lost inside a kernel
    # turn would leave ``ping_then_raise``'s caller waiting forever
    return asyncio.run(asyncio.wait_for(main(), timeout=20))


def test_same_script_same_outcomes_history_and_spans():
    des, aio = run_des(), run_aio()
    assert des[0] == aio[0] == [
        ("result", "instant"),
        ("result", 3),
        ("result", "ponged"),
        ("raised", "TypeError"),
        ("result", "ponged"),  # the failed op freed the node
        ("raised", "KeyError"),
        ("result", "ponged"),
        ("raised", "KeyError"),  # raised by a resume inside a delivery
        ("result", "ponged"),
        ("aborted",),
    ]
    # history shape: kinds in order, and which records stay pending
    assert des[1] == aio[1]
    assert [kind for kind, complete in des[1] if not complete] == [
        "bad_yield",
        "raises",
        "ping_then_raise",
        "doomed",
    ]
    # span events at node 0, in order; every op settles exactly once
    assert des[2] == aio[2]
    assert des[2].count("op-invoke") == len(SCRIPT)
    assert des[2].count("op-respond") == 6 and des[2].count("op-abort") == 4
    assert des[2][-2:] == ["crash", "op-abort"]
    # the mid-outbox cut: node 1 got the ping and the doomed broadcast,
    # node 2 neither the broadcast nor the send queued behind it
    assert des[3] == aio[3]
    assert {(0, "MPing(nonce=2)"), (0, "MDoom()")} <= set(des[3][1])
    assert not {(0, "MDoom()"), (0, "MPing(nonce=3)")} & set(des[3][2])


# -- a raising op must not wedge its node (fails at the parent) -----------


def test_des_raising_op_frees_the_node_and_aborts_its_record():
    cluster = Cluster(OneShotAso, 3, 1)
    cluster.run_ops([(0.0, 0, "update", ("a",))])
    with pytest.raises(RuntimeError, match="already updated"):
        cluster.run_ops([(cluster.sim.now, 0, "update", ("b",))])
    # the failed update is aborted like a crashed one (pending forever,
    # no longer the node's open op) instead of blocking the node
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("update", True),
        ("update", False),
    ]
    assert cluster.history._open_op == [None] * 3
    (scan,) = cluster.run_ops([(cluster.sim.now, 0, "scan", ())])
    assert scan.done and scan.result.values == ("a", None, None)


def test_des_unknown_op_leaves_no_record():
    cluster = Cluster(OneShotAso, 3, 1)
    with pytest.raises(AttributeError):
        cluster.run_ops([(0.0, 0, "nope", ())])
    assert cluster.history.ops == []
    (scan,) = cluster.run_ops([(cluster.sim.now, 0, "scan", ())])
    assert scan.done


def test_aio_unknown_op_and_raising_op_free_the_node():
    async def main():
        cluster = AioCluster(OneShotAso, 3, 1, mean_delay=0)
        await cluster.start()
        with pytest.raises(AttributeError):
            await cluster.call(0, "nope")
        assert cluster.history.ops == []  # resolved before recording
        assert await cluster.call(0, "update", "x") == "ACK"
        with pytest.raises(RuntimeError, match="already updated"):
            await cluster.call(0, "update", "y")
        snap = await cluster.call(0, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = asyncio.run(main())
    assert snap.values == ("x", None, None)
    assert [(op.kind, op.complete) for op in cluster.history.ops] == [
        ("update", True),
        ("update", False),
        ("scan", True),
    ]
