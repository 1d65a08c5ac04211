"""An operation aborted before it ever began settles like any other.

An arrival at a node that has crashed since the ``invoke`` that scheduled
it, and the rest of a dead node's op FIFO (a ``chain_ops`` chain, say),
used to be marked ``aborted`` by hand: no callback fired, so whoever
counted settled handles (the sharded service's old dispatcher, and
``run_until_complete``) had to sweep for them afterwards.  Both go
through ``OpDriver.abort``: the handle settles exactly once, its
callbacks fire exactly once, and — the operation never having been
invoked — the history records nothing.
"""

import asyncio

import pytest

from repro.core import EqAso
from repro.net.faults import CrashAtTime, CrashPlan
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.runtime.driver import OpHandle


def _counting(handle, fired):
    handle.on_complete(lambda h: fired.append(h))
    return handle


def test_begin_on_a_crashed_node_fires_the_callbacks_once_and_records_nothing():
    cluster = Cluster(EqAso, n=3, f=1, crash_plan=CrashPlan({0: CrashAtTime(1.0)}))
    fired = []
    late = _counting(cluster.invoke_at(2.0, 0, "update", "never written"), fired)
    cluster.run_until_complete([late])  # returns: the abort settled it
    assert late.aborted and not late.done and late.record is None
    assert fired == [late]
    assert cluster.history.ops == []
    assert cluster.sim.now == 2.0  # stopped at the arrival that aborted it
    cluster._driver.abort(late)  # idempotent
    assert fired == [late]


def test_the_rest_of_a_chain_is_aborted_through_the_driver():
    cluster = Cluster(EqAso, n=3, f=1, crash_plan=CrashPlan({0: CrashAtTime(1.0)}))
    fired = []
    chain = [
        _counting(h, fired)
        for h in cluster.chain_ops(0, [("update", ("a",)), ("scan", ()), ("scan", ())])
    ]
    survivor = cluster.invoke_at(0.0, 1, "scan")
    cluster.run_until_complete(chain + [survivor])
    assert [h.aborted for h in chain] == [True, True, True] and survivor.done
    assert fired == chain  # each exactly once, in chain order
    # the op the crash interrupted was invoked, and stays pending; the
    # two that never began left no record
    assert chain[0].record is not None and not chain[0].record.complete
    assert chain[1].record is None and chain[2].record is None
    assert len(cluster.history.ops) == 2


def test_a_chain_launched_on_a_dead_node_aborts_whole():
    cluster = Cluster(EqAso, n=3, f=1, crash_plan=CrashPlan({2: CrashAtTime(0.0)}))
    fired = []
    chain = [
        _counting(h, fired)
        for h in cluster.chain_ops(2, [("scan", ()), ("scan", ())], start=1.0)
    ]
    cluster.run_until_complete(chain)
    assert all(h.aborted and h.record is None for h in chain)
    assert fired == chain and cluster.history.ops == []


def _abort_unbegun(cluster):
    """Abort a handle the driver never opened while another operation is
    pending at the same node; returns (handle, callbacks fired)."""
    fired = []
    unbegun = _counting(OpHandle(0, "scan", ()), fired)
    driver = cluster._driver
    pending = driver.ops[0]
    driver.abort(unbegun)
    driver.abort(unbegun)
    assert driver.ops[0] is pending  # the node's real operation is untouched
    return unbegun, fired


def test_driver_abort_of_an_unbegun_handle_on_the_simulator():
    cluster = Cluster(EqAso, n=3, f=1)
    running = cluster.invoke(0, "scan")
    cluster.run(until=0.5)
    assert cluster._driver.ops[0] is running
    unbegun, fired = _abort_unbegun(cluster)
    assert unbegun.aborted and fired == [unbegun]
    cluster.run_until_complete([running])
    assert running.done and len(cluster.history.ops) == 1


def test_driver_abort_of_an_unbegun_handle_on_asyncio():
    async def scenario():
        cluster = AioCluster(EqAso, 3, 1, mean_delay=0.0)
        await cluster.start()
        call = asyncio.ensure_future(cluster.call(0, "scan"))
        await asyncio.sleep(0)  # the call parks on its first quorum
        assert cluster._driver.ops[0] is not None
        unbegun, fired = _abort_unbegun(cluster)
        assert unbegun.aborted and fired == [unbegun]
        await asyncio.wait_for(call, 5)
        assert len(cluster.history.ops) == 1
        await cluster.shutdown()

    asyncio.run(scenario())


def test_a_crashed_node_refuses_a_call_before_any_handle_exists():
    async def scenario():
        cluster = AioCluster(EqAso, 3, 1, mean_delay=0.0)
        await cluster.start()
        cluster.crash(2)
        with pytest.raises(RuntimeError, match="node 2 is crashed"):
            await cluster.call(2, "scan")
        assert cluster.history.ops == []
        await cluster.shutdown()

    asyncio.run(scenario())


def test_timing_of_an_unsettled_op_is_a_typed_error():
    """An op's ``t_inv``/``t_resp``/``latency`` before it began or
    responded, and an open phase's ``duration`` or a running span's
    ``latency``, raise ``RuntimeError`` naming it — under ``python -O``
    too, where an ``assert`` would have let ``None`` through."""
    from repro.obs import MemorySink, Tracer

    cluster = Cluster(EqAso, n=3, f=1, tracer=Tracer(MemorySink()))
    scan = cluster.invoke_at(1.0, 0, "scan")
    with pytest.raises(RuntimeError, match="scan at node 0 not yet invoked"):
        scan.t_inv
    cluster.run(until=1.5)  # begun, still in its first phase
    assert scan.t_inv == 1.0
    with pytest.raises(RuntimeError, match="scan at node 0 has not responded"):
        scan.latency
    with pytest.raises(RuntimeError, match=r"op \d+ \(scan at node 0\) still running"):
        scan.span.latency
    phase = scan.span.phases[-1]
    with pytest.raises(RuntimeError, match=f"phase {phase.name!r} still open"):
        phase.duration
    cluster.run_until_complete([scan])
    assert scan.latency == scan.span.latency > phase.duration > 0
