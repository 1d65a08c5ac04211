"""The kernel interface is two members: ``now`` and ``queue.push_call``.

A kernel is all a :class:`~repro.runtime.cluster.BaseCluster` needs
beneath its network, op driver and op queue, and those read the clock
and push calls — nothing else.  This pins that down with a kernel of a
heap and a clock that offers nothing more (its loop is a function
outside it): a seeded EQ-ASO episode on it must produce the history the
simulator produces.
"""

from heapq import heappop, heappush
from itertools import count

from repro.core import EqAso
from repro.net.delays import UniformDelay
from repro.net.faults import CrashAtTime, CrashPlan
from repro.runtime.cluster import BaseCluster, Cluster
from repro.runtime.driver import OpHandle
from repro.sim.rng import SeededRng


class _Queue:
    __slots__ = ("push_call",)


class MinimalKernel:
    """``now`` and ``queue.push_call``; events at one time fire in push
    order, as on the simulator."""

    __slots__ = ("now", "queue", "_heap")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        seq = count()
        self.queue = _Queue()
        self.queue.push_call = lambda time, fn, args=(): heappush(
            self._heap, (time, next(seq), fn, args)
        )


def drain(kernel: MinimalKernel) -> None:
    while kernel._heap:
        kernel.now, _, fn, args = heappop(kernel._heap)
        fn(*args)


class MinimalCluster(BaseCluster):
    _new_kernel = MinimalKernel

    def chain_ops(self, node, ops, *, start=0.0):
        handles = [OpHandle(node=node, kind=kind, args=args) for kind, args in ops]
        self.sim.queue.push_call(start, self._arrive, (handles,))
        return handles


def _episode(cls):
    n, f = 5, 2
    rng = SeededRng(23)
    kinds = ["scan", "update"] * 10
    rng.child("mix").shuffle(kinds)
    cluster = cls(
        EqAso,
        n=n,
        f=f,
        delay_model=UniformDelay(1.0, rng.child("delay"), lo=0.1, hi=1.0),
        crash_plan=CrashPlan({4: CrashAtTime(7.5)}),
    )
    handles = []
    for node in range(n):
        ops = [
            ("scan", ()) if kind == "scan" else ("update", (f"v{node}.{i}",))
            for i, kind in enumerate(kinds[node * 4 : node * 4 + 4])
        ]
        handles += cluster.chain_ops(node, ops, start=0.5 * node)
    return cluster, handles


def test_the_kernel_offers_two_members():
    kernel = MinimalKernel()
    assert [a for a in dir(kernel) if not a.startswith("_")] == ["now", "queue"]
    assert [a for a in dir(kernel.queue) if not a.startswith("_")] == ["push_call"]


def test_a_cluster_on_the_two_member_kernel_matches_the_simulator():
    reference, expected = _episode(Cluster)
    reference.run()  # to a drained queue, as ``drain`` runs
    minimal, handles = _episode(MinimalCluster)
    minimal._start_nodes()
    drain(minimal.sim)
    assert [h.done or h.aborted for h in handles] == [True] * len(handles)
    assert any(h.aborted for h in handles)  # the crash cut node 4's chain
    assert [repr(rec) for rec in minimal.history] == [
        repr(rec) for rec in reference.history
    ]
    assert [(h.result, h.aborted) for h in handles] == [
        (h.result, h.aborted) for h in expected
    ]
    assert (minimal.network.messages_sent, minimal.network.messages_delivered) == (
        reference.network.messages_sent,
        reference.network.messages_delivered,
    )
