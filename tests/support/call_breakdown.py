"""The pinned call-budget episodes, and who makes the calls.

    python -m tests.support.call_breakdown [des|aio|lockstep]

prints, for an episode ``tests/runtime/test_call_budget.py`` pins — the
jittered DES one, the asyncio one, or the lockstep DES one whose
broadcasts take the batched fan-out — the Python-level calls per message of every function that
makes at least ``FLOOR`` of one — the table a pass over the per-message
path starts from.  The total of the table is the number the test holds
under its ceiling; this module owns the episodes so that the two cannot
drift apart.

``sys.setprofile`` reports a ``call`` event per Python frame entered (C
functions are ``c_call`` and not counted), so the count is exact and
repeats: it depends on the seed, never on the clock.  A method that
``dataclasses`` generated has the one qualified name
``__create_fn__.<locals>.__init__`` (or ``__eq__``, ...) for every
class; such a row is named after the class of its instance instead,
e.g. ``ValueTs.__init__ (dataclass)``.
"""

from __future__ import annotations

import asyncio
import gc
import sys
from collections import Counter
from typing import Any, Callable

from repro.core import EqAso, messages
from repro.net.delays import ConstantDelay, UniformDelay
from repro.runtime.aio import AioCluster
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng

#: functions below this many calls per message are summed as "(others)"
FLOOR = 0.05

#: the qualified-name prefix of every method ``dataclasses`` generates
_GENERATED = "__create_fn__.<locals>."


def count_calls(run: Callable[[Any], Any], arg: Any) -> Counter[str]:
    """Python-level calls made by ``run(arg)``, per function."""
    # the one process-wide state the path reads: an intern miss runs the
    # dataclass ``__init__``, a hit does not, so start every count cold
    messages._intern.clear()
    # ... and finalizers of an earlier test's garbage (an event loop's
    # ``__del__``, say) must not run, and be counted, inside this one
    gc.collect()
    calls: Counter[str] = Counter()

    def profiler(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            name = code.co_qualname
            if name.startswith(_GENERATED) and code.co_argcount:
                owner = frame.f_locals[code.co_varnames[0]]
                name = f"{type(owner).__qualname__}.{code.co_name} (dataclass)"
            calls[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run(arg)
    finally:
        sys.setprofile(previous)
    return calls


def des_episode() -> tuple[Counter[str], int]:
    """One jittered EQ-ASO episode (n = 7, f = 3, ``UniformDelay(0.1D..D)``,
    7 chains × 6 ops): calls per function, messages delivered."""
    n, f = 7, 3
    rng = SeededRng(16)
    kinds = ["scan", "update"] * 21
    rng.child("mix").shuffle(kinds)
    cluster = Cluster(
        EqAso,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
    )
    handles = []
    for node in range(n):
        ops = [
            ("scan", ()) if kind == "scan" else ("update", (f"v{node}.{i}",))
            for i, kind in enumerate(kinds[node * 6 : node * 6 + 6])
        ]
        handles += cluster.chain_ops(node, ops)
    calls = count_calls(cluster.run_until_complete, handles)
    assert all(h.done for h in handles)
    return calls, cluster.network.messages_delivered


def lockstep_episode() -> tuple[Counter[str], int]:
    """One lockstep EQ-ASO episode (n = 5, f = 2, ``ConstantDelay(D)``,
    80 % scans, 5 chains × 12 ops — the shape of the ledger's
    ``des_scan_heavy``, where every broadcast is one batched delivery
    event): calls per function, messages delivered."""
    n, f = 5, 2
    kinds = ["scan"] * 48 + ["update"] * 12
    SeededRng(19).child("mix").shuffle(kinds)
    cluster = Cluster(EqAso, n=n, f=f, delay_model=ConstantDelay(1.0))
    handles = []
    for node in range(n):
        ops = [
            ("scan", ()) if kind == "scan" else ("update", (f"v{node}.{i}",))
            for i, kind in enumerate(kinds[node * 12 : node * 12 + 12])
        ]
        handles += cluster.chain_ops(node, ops)
    calls = count_calls(cluster.run_until_complete, handles)
    assert all(h.done for h in handles)
    return calls, cluster.network.messages_delivered


def aio_episode() -> tuple[Counter[str], int]:
    """One ``mean_delay=0`` asyncio episode (n = 5, f = 2, 5 clients × 12
    ops), asyncio's own frames included: calls per function, messages
    sent."""
    n, f = 5, 2
    kinds = ["scan", "update"] * 30
    SeededRng(18).child("mix").shuffle(kinds)
    clusters = []

    async def episode() -> None:
        cluster = AioCluster(EqAso, n, f, mean_delay=0.0, seed=18)
        clusters.append(cluster)
        await cluster.start()

        async def client(node: int) -> None:
            for i, kind in enumerate(kinds[node * 12 : node * 12 + 12]):
                args = () if kind == "scan" else (f"v{node}.{i}",)
                await cluster.call(node, kind, *args)

        await asyncio.gather(*(client(node) for node in range(n)))
        await cluster.shutdown()

    loop = asyncio.new_event_loop()
    try:
        # no ``wait_for`` around it: its timer would be counted too
        calls = count_calls(loop.run_until_complete, episode())
    finally:
        loop.close()
    (cluster,) = clusters
    assert sum(op.complete for op in cluster.history.ops) == 60
    return calls, cluster.network.messages_sent


EPISODES = {"des": des_episode, "aio": aio_episode, "lockstep": lockstep_episode}


def main(argv: list[str]) -> int:
    runtime = argv[0] if argv else "des"
    if runtime not in EPISODES or len(argv) > 1:
        print(
            "usage: python -m tests.support.call_breakdown [des|aio|lockstep]",
            file=sys.stderr,
        )
        return 2
    calls, messages_counted = EPISODES[runtime]()
    total = sum(calls.values())
    print(f"| calls per message ({runtime}) | function |")
    print("| --- | --- |")
    others = 0
    for name, count in calls.most_common():
        if count / messages_counted < FLOOR:
            others += count
        else:
            print(f"| {count / messages_counted:.2f} | `{name}` |")
    print(f"| {others / messages_counted:.2f} | (others, each under {FLOOR}) |")
    print(
        f"| **{total / messages_counted:.2f}** | "
        f"total: {total} calls / {messages_counted} messages |"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
