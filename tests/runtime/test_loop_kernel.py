"""The loop-paced kernel: an ``EventQueue`` run on asyncio's clock.

What the asyncio runtime relies on, pinned on the kernel alone: the
queue's total order (not ``loop.call_at``'s), one handle re-armed for
the earliest event, turns that end where they began so other tasks get
the loop, and — at zero delay — a schedule that is a function of the
seed.
"""

import asyncio

from repro.core import EqAso, messages
from repro.runtime.aio import AioCluster, LoopKernel
from repro.sim.fastpath import STATS
from repro.sim.rng import SeededRng


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=20))


def started_kernel(failures=None):
    kernel = LoopKernel((failures if failures is not None else []).append)
    kernel.start(asyncio.get_running_loop())
    return kernel


def test_equal_time_events_fire_in_priority_then_push_order():
    """Why this is an ``EventQueue`` and not ``loop.call_at``, whose heap
    does not keep equal times in push order."""

    async def main():
        kernel = started_kernel()
        fired = []
        at = kernel.now + 0.005
        for label, priority in [("a", 1), ("b", 0), ("c", 1), ("d", 0), ("e", 0)]:
            kernel.push_call(at, fired.append, (label,), priority=priority)
        await asyncio.sleep(0.03)
        return fired

    assert run(main()) == ["b", "d", "e", "a", "c"]


def test_pushing_an_earlier_event_rearms_the_handle():
    async def main():
        kernel = started_kernel()
        fired = []
        kernel.push_call(kernel.now + 30.0, fired.append, ("late",))
        far = kernel._handle
        kernel.push_call(kernel.now + 0.005, fired.append, ("early",))
        assert far.cancelled() and kernel._handle is not far
        await asyncio.sleep(0.03)
        assert fired == ["early"]
        # ... and the handle now waits for the remaining event again
        assert kernel._handle is not None and not kernel._handle.cancelled()
        kernel.stop()
        assert kernel._handle is None

    run(main())


def test_a_cancelled_event_never_fires_and_stop_disarms():
    async def main():
        kernel = started_kernel()
        fired = []
        doomed = kernel.push_call(kernel.now, fired.append, ("doomed",))
        kernel.push_call(kernel.now, fired.append, ("kept",))
        kernel.cancel(doomed)
        await asyncio.sleep(0.01)
        assert fired == ["kept"]
        kernel.push_call(kernel.now, fired.append, ("after stop",))
        kernel.stop()
        kernel.push_call(kernel.now, fired.append, ("never armed",))
        await asyncio.sleep(0.01)
        assert fired == ["kept"]

    run(main())


def test_events_pushed_during_a_turn_wait_and_other_tasks_run_in_between():
    """The starvation guard: a handler chain that always has a next,
    already-due event still yields the loop after every turn."""

    async def main():
        kernel = started_kernel()
        log = []

        def chain(k):
            log.append(f"event{k}")
            if k < 3:
                kernel.push_call(kernel.now, chain, (k + 1,))

        async def competitor():
            for _ in range(10):
                log.append("task")
                await asyncio.sleep(0)

        kernel.push_call(kernel.now, chain, (0,))
        await asyncio.gather(competitor(), asyncio.sleep(0.02))
        return log

    log = run(main())
    at = [log.index(f"event{k}") for k in range(4)]
    assert at == sorted(at)
    for earlier, later in zip(at, at[1:]):
        assert "task" in log[earlier:later]  # never two events back to back


def test_stats_count_events_not_turns():
    async def main():
        kernel = started_kernel()
        before = STATS.events
        for _ in range(7):
            kernel.push_call(kernel.now, int)
        await asyncio.sleep(0.01)  # one turn ran all seven
        return STATS.events - before

    assert run(main()) == 7


def test_an_event_that_raises_stops_the_kernel_and_reports_once():
    async def main():
        failures = []
        kernel = started_kernel(failures)
        fired = []
        kernel.push_call(kernel.now, fired.append, ("before",))
        kernel.push_call(kernel.now, [].pop)  # IndexError
        kernel.push_call(kernel.now, fired.append, ("after",))
        await asyncio.sleep(0.01)
        assert fired == ["before"] and kernel._handle is None
        return failures

    (failure,) = run(main())
    assert isinstance(failure, IndexError)


# -- zero delay: the schedule is a function of the seed -------------------


def _episode(seed):
    n, f = 5, 2
    kinds = ["scan", "update"] * 30
    SeededRng(seed).child("mix").shuffle(kinds)
    messages._intern.clear()

    async def main():
        cluster = AioCluster(EqAso, n, f, mean_delay=0, seed=seed)
        await cluster.start()
        scans = [[] for _ in range(n)]

        async def client(node):
            for i, kind in enumerate(kinds[node * 12 : node * 12 + 12]):
                if kind == "scan":
                    scans[node].append((await cluster.call(node, "scan")).values)
                else:
                    await cluster.call(node, "update", f"v{node}.{i}")

        await asyncio.gather(*(client(node) for node in range(n)))
        await cluster.shutdown()
        return scans, cluster.network.messages_sent

    before = STATS.events
    scans, sent = run(main())
    return scans, sent, STATS.events - before


def test_same_seed_zero_delay_episodes_are_identical():
    first, second = _episode(18), _episode(18)
    assert first == second
    scans, sent, events = first
    assert sum(map(len, scans)) == 30 and sent > 2000 and 0 < events < sent
