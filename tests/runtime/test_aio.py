"""Asyncio runtime smoke tests (same protocols, real concurrency)."""

import asyncio

import pytest

from repro.core.eq_aso import EqAso
from repro.core.sso import SsoFastScan
from repro.net.faults import CrashAtTime, CrashPlan
from repro.runtime.aio import AioCluster
from repro.spec import check_sequentially_consistent, is_linearizable


def run(coro):
    return asyncio.run(coro)


def test_single_update_and_scan():
    async def main():
        cluster = AioCluster(EqAso, n=4, f=1, seed=1)
        await cluster.start()
        assert await cluster.call(0, "update", "hello") == "ACK"
        snap = await cluster.call(1, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = run(main())
    assert snap.values == ("hello", None, None, None)
    assert is_linearizable(cluster.history)


def test_concurrent_clients_linearizable():
    async def main():
        cluster = AioCluster(EqAso, n=5, f=2, seed=7)
        await cluster.start()

        async def client(i):
            await cluster.call(i, "update", f"a{i}")
            await cluster.call(i, "scan")
            await cluster.call(i, "update", f"b{i}")

        await asyncio.gather(*(client(i) for i in range(5)))
        snap = await cluster.call(0, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = run(main())
    assert set(snap.values) == {f"b{i}" for i in range(5)}
    assert is_linearizable(cluster.history)


def test_crash_mid_run():
    async def main():
        plan = CrashPlan({3: CrashAtTime(0.002)})
        cluster = AioCluster(EqAso, n=4, f=1, seed=3, crash_plan=plan)
        await cluster.start()
        await cluster.call(0, "update", "x")
        await asyncio.sleep(0.01)
        snap = await cluster.call(1, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = run(main())
    assert snap.values[0] == "x"
    assert is_linearizable(cluster.history)


def test_call_on_crashed_node_raises():
    async def main():
        plan = CrashPlan({0: CrashAtTime(0.0)})
        cluster = AioCluster(EqAso, n=4, f=1, crash_plan=plan)
        await cluster.start()
        await asyncio.sleep(0.005)
        with pytest.raises(RuntimeError, match="crashed"):
            await cluster.call(0, "update", "x")
        await cluster.shutdown()

    run(main())


def test_sso_runs_on_aio():
    async def main():
        cluster = AioCluster(SsoFastScan, n=4, f=1, seed=5)
        await cluster.start()
        await cluster.call(0, "update", "v")
        await asyncio.sleep(0.02)  # let safe views propagate
        snap = await cluster.call(2, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = run(main())
    assert snap.values[0] == "v"
    assert check_sequentially_consistent(cluster.history)


def test_broadcast_crash_truncation_on_aio():
    """Definition 11 crashes work on the asyncio runtime too: the value
    survives only toward the chosen destination."""
    from repro.core.messages import MValue
    from repro.net.faults import BroadcastCrash

    async def main():
        plan = CrashPlan(
            {
                0: BroadcastCrash(
                    deliver_to=(1,), match=lambda p: isinstance(p, MValue)
                )
            }
        )
        cluster = AioCluster(EqAso, n=4, f=1, seed=9, crash_plan=plan)
        await cluster.start()
        with pytest.raises(RuntimeError, match="crashed"):
            await cluster.call(0, "update", "doomed")
        # a healthy update pumps the tag so the exposed value can surface
        await cluster.call(2, "update", "healthy")
        await asyncio.sleep(0.02)
        snap = await cluster.call(3, "scan")
        await cluster.shutdown()
        return snap, cluster

    snap, cluster = run(main())
    assert snap.values[2] == "healthy"
    assert is_linearizable(cluster.history)


def test_aio_histories_feed_the_same_checkers():
    """The asyncio runtime records the same History type; the full spec
    toolchain (conditions, linearizer, serialization) applies."""
    from repro.spec import check_atomicity_conditions, linearize
    from repro.spec.serialize import history_from_dict, history_to_dict

    async def main():
        cluster = AioCluster(EqAso, n=4, f=1, seed=21)
        await cluster.start()
        await asyncio.gather(
            cluster.call(0, "update", "a"),
            cluster.call(1, "update", "b"),
            cluster.call(2, "scan"),
        )
        await cluster.shutdown()
        return cluster

    cluster = run(main())
    assert check_atomicity_conditions(cluster.history) == []
    order = linearize(cluster.history)
    assert len(order) == 3
    rebuilt = history_from_dict(history_to_dict(cluster.history))
    assert check_atomicity_conditions(rebuilt) == []


def test_aio_trace_replay_checks_under_crash(tmp_path):
    """A live (wall-clock) trace with a crash mid-run replays through
    the same polynomial checkers via ``python -m repro.obs check``."""
    from repro.obs import MemorySink, Tracer, export_jsonl, read_trace
    from repro.obs.__main__ import main as obs_main
    from repro.obs.replay import replay_check

    async def main():
        tracer = Tracer(MemorySink())
        plan = CrashPlan({3: CrashAtTime(0.004)})
        cluster = AioCluster(EqAso, n=4, f=1, seed=11, crash_plan=plan, tracer=tracer)
        await cluster.start()
        await cluster.call(0, "update", "x")
        await asyncio.gather(
            cluster.call(1, "update", "y"), cluster.call(2, "scan")
        )
        await asyncio.sleep(0.01)
        await cluster.call(1, "scan")
        await cluster.shutdown()
        return cluster, tracer

    cluster, tracer = run(main())
    assert is_linearizable(cluster.history)
    path = tmp_path / "live.jsonl"
    export_jsonl(tracer, path)
    meta, _events, spans = read_trace(path)
    result = replay_check(meta, spans)
    assert result.ok and result.level == "linearizable"
    assert obs_main(["check", str(path)]) == 0


def test_gate_endpoints_validated():
    """Regression: same contract as the DES network — out-of-range ids
    and ``src == dst`` are rejected, not silently gated."""

    async def main():
        cluster = AioCluster(EqAso, n=3, f=1, seed=1)
        await cluster.start()
        for src, dst in [(0, 7), (1, 1)]:
            with pytest.raises(ValueError, match="bad endpoints"):
                cluster.disconnect(src, dst)
            with pytest.raises(ValueError, match="bad endpoints"):
                cluster.reconnect(src, dst)
        assert await cluster.call(1, "update", "x") == "ACK"
        await cluster.shutdown()

    run(main())
