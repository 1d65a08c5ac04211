"""Asyncio runtime: the same sans-io protocols over real concurrency.

Demonstrates that the algorithm objects are not simulator-bound: the
identical :class:`~repro.runtime.protocol.ProtocolNode` instances run over
in-process asyncio queues with real (wall-clock) delays.  Used by the
examples and a smoke-test tier; the fault-injection *benchmarks* stay on
the discrete-event runtime (deterministic, exact-D measurement — and much
faster, per the reproduction notes).

Semantics preserved from the paper / the DES driver:

- **handler atomicity**: each node owns an ``asyncio.Lock``; a message
  handler runs under it, so no other handler or client step interleaves;
- **synchronous borrow recording**: after a handler completes, waiting
  client operations are re-evaluated under the same lock before the next
  delivery is accepted (the NOTE at Algorithm 1 line 49);
- **reliable FIFO channels**: one forwarder task per ordered pair drains
  a per-channel queue in order, sleeping the sampled delay before
  delivery; once a message is enqueued it will be delivered even if the
  sender crashes afterwards;
- **crash**: a crashed node stops sending and receiving; a crash can
  truncate an in-flight broadcast (Definition 11) via
  :class:`~repro.net.faults.BroadcastCrash` specs.

Observability: pass a :class:`repro.obs.Tracer` and the cluster emits
the same event vocabulary as the DES driver — send/deliver/drop/crash,
op spans with phases, plus the live-runtime extras (``disconnect`` /
``reconnect`` when a channel is gated, ``backpressure`` when a channel
queue crosses its high-water mark).  ``t`` is the wall clock relative
to :meth:`AioCluster.start` (the event loop's monotonic clock), Lamport
clocks come from the tracer's per-channel FIFO discipline, and the
JSONL export feeds ``python -m repro.obs check``, which replays the
trace through the :mod:`repro.spec` polynomial checkers.  A disabled
tracer is normalized to ``None`` — no instrumentation site runs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.net.faults import CrashPlan
from repro.runtime.driver import OpDriver, OpHandle
from repro.runtime.protocol import ProtocolNode
from repro.sim.rng import SeededRng
from repro.spec.history import History


class AioCluster:
    """Asyncio driver for a cluster of sans-io protocol nodes.

    Args:
        factory: ``factory(node_id, n, f) -> ProtocolNode``.
        n, f: system size and fault threshold.
        mean_delay: mean per-message delay in seconds (uniform in
            ``[0.2·mean, 1.8·mean]``; keep small — these are real sleeps).
        seed: delay-randomness seed.
        crash_plan: optional crash adversary (timed crashes are scheduled
            on the loop; broadcast crashes fire on matching sends).
        tracer: optional :class:`repro.obs.Tracer` (see module docstring);
            a disabled tracer is normalized to ``None``.
        backpressure_hwm: channel queue depth at which a ``backpressure``
            trace event fires (each time the queue grows to exactly this
            depth, so sustained congestion re-reports as it re-crosses).
        postmortem: directory for automatic crash bundles.  When set (and
            the tracer retains events — a ``MemorySink`` or the bounded
            :class:`~repro.obs.flight.FlightRecorder`), every node crash
            dumps ``<postmortem>/crash-node<k>/`` with the last events,
            in the chaos counterexample bundle layout.
    """

    #: default per-channel queue depth that counts as congestion
    BACKPRESSURE_HWM = 64

    def __init__(
        self,
        factory: Callable[[int, int, int], ProtocolNode],
        n: int,
        f: int,
        *,
        mean_delay: float = 0.002,
        seed: int = 0,
        crash_plan: CrashPlan | None = None,
        tracer: Any = None,
        backpressure_hwm: int | None = None,
        postmortem: Any = None,
    ) -> None:
        self.n = n
        self.f = f
        self.nodes = [factory(i, n, f) for i in range(n)]
        self.crash_plan = crash_plan if crash_plan is not None else CrashPlan.none()
        self.history = History(n)
        self._rng = SeededRng(seed)
        self._mean = mean_delay
        self._locks = [asyncio.Lock() for _ in range(n)]
        self._wakeups = [asyncio.Event() for _ in range(n)]
        self._channels: dict[tuple[int, int], asyncio.Queue] = {}
        self._gates: dict[tuple[int, int], asyncio.Event] = {}
        self._forwarders: list[asyncio.Task] = []
        self._started = False
        self._loop: Any = None
        self._loop_time0 = 0.0
        self._sent = [0] * n
        self._hwm = (
            backpressure_hwm if backpressure_hwm is not None else self.BACKPRESSURE_HWM
        )
        self.tracer = tracer
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._postmortem = postmortem
        if self._tracer is not None:
            self._tracer.bind(self)  # the tracer reads ``now`` from us
        self._driver = OpDriver(
            self.nodes,
            self.crash_plan,
            self.history,
            self._tracer,
            clock=self,
            send=self._enqueue,
            broadcast=self._broadcast,
            sent=self._sent,
            # D: the synchrony bound of the sampled delay distribution
            meta={"D": 1.8 * mean_delay, "runtime": "aio", "seed": seed},
        )

    @property
    def now(self) -> float:
        """Wall-clock seconds since :meth:`start` (0.0 before it)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._loop_time0

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn channel forwarders and run ``on_start`` hooks."""
        if self._started:
            return
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._loop_time0 = self._loop.time()
        for src in range(self.n):
            for dst in range(self.n):
                queue: asyncio.Queue = asyncio.Queue()
                self._channels[(src, dst)] = queue
                self._forwarders.append(
                    asyncio.create_task(self._forward(src, dst, queue))
                )
        for node_id, when in self.crash_plan.timed_crashes():
            asyncio.get_running_loop().call_later(
                when, lambda nid=node_id: self.crash(nid)
            )
        for node in self.nodes:
            if not self.crash_plan.is_crashed(node.node_id):
                async with self._locks[node.node_id]:
                    node.on_start()
                    self._driver.flush(node.node_id)

    async def shutdown(self) -> None:
        """Cancel all channel forwarders."""
        for task in self._forwarders:
            task.cancel()
        await asyncio.gather(*self._forwarders, return_exceptions=True)
        self._forwarders.clear()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _enqueue(self, src: int, dst: int, payload: Any) -> None:
        """Put one message on its channel (reliable from this point on)."""
        self._sent[src] += 1
        queue = self._channels[(src, dst)]
        queue.put_nowait(payload)
        if self._tracer is not None:
            self._tracer.on_send(src, dst, payload)
            if queue.qsize() == self._hwm:
                self._tracer.on_backpressure(src, dst, queue.qsize())

    def _broadcast(self, src: int, payload: Any, dests: tuple[int, ...]) -> None:
        """Fan one broadcast out, truncated by a mid-broadcast crash."""
        allowed, crash_now = self.crash_plan.filter_broadcast(src, payload, dests)
        for dst in allowed:
            self._enqueue(src, dst, payload)
        if crash_now:
            self.crash_plan.mark_crashed(src)
            if self._tracer is not None:
                self._tracer.on_crash(src, detail="mid-broadcast crash")
            self._wakeups[src].set()  # release a parked op
            self._dump_postmortem(src, "mid-broadcast crash")

    async def _forward(self, src: int, dst: int, queue: asyncio.Queue) -> None:
        """One FIFO channel: sequential delay-then-deliver."""
        while True:
            payload = await queue.get()
            if src != dst:
                delay = self._rng.uniform(0.2 * self._mean, 1.8 * self._mean)
                await asyncio.sleep(delay)
            gate = self._gates.get((src, dst))
            if gate is not None and not gate.is_set():
                await gate.wait()  # link gated: hold delivery, keep FIFO
            if self.crash_plan.is_crashed(dst):
                if self._tracer is not None:
                    self._tracer.on_drop(src, dst, payload)
                continue
            async with self._locks[dst]:
                if self.crash_plan.is_crashed(dst):
                    if self._tracer is not None:
                        self._tracer.on_drop(src, dst, payload)
                    continue
                if self._tracer is not None:
                    self._tracer.on_deliver(src, dst, payload)
                self.nodes[dst].on_message(src, payload)
                self._driver.flush(dst)
            self._wakeups[dst].set()

    def crash(self, node_id: int) -> None:
        """Crash a node immediately."""
        self.crash_plan.mark_crashed(node_id)
        if self._tracer is not None:
            self._tracer.on_crash(node_id)
        self._wakeups[node_id].set()  # unblock any waiting operation
        self._dump_postmortem(node_id, "crash")

    def _dump_postmortem(self, node_id: int, what: str) -> None:
        """Write an automatic crash bundle if configured (and possible)."""
        if self._postmortem is None or self._tracer is None:
            return
        if getattr(self._tracer.sink, "events", None) is None:
            return  # non-retaining sink: nothing to dump
        from pathlib import Path

        from repro.obs.flight import dump_postmortem

        dump_postmortem(
            self._tracer,
            Path(self._postmortem) / f"crash-node{node_id}",
            reason=f"node {node_id}: {what}",
        )

    # ------------------------------------------------------------------
    # link gating (temporary partitions)
    # ------------------------------------------------------------------
    def _gate(self, src: int, dst: int) -> asyncio.Event:
        # same contract as the DES Network: a node's self-addressed
        # messages never traverse the network, so there is no i -> i link
        n = self.n
        if not (0 <= src < n and 0 <= dst < n) or src == dst:
            raise ValueError(f"bad endpoints {src}->{dst} for n={n}")
        gate = self._gates.get((src, dst))
        if gate is None:
            gate = self._gates[(src, dst)] = asyncio.Event()
            gate.set()
        return gate

    def disconnect(self, src: int, dst: int, *, symmetric: bool = False) -> None:
        """Gate the ordered channel ``src -> dst``: queued and future
        messages wait (in FIFO order) until :meth:`reconnect`.  In-flight
        deliveries that already passed the gate still land."""
        self._gate(src, dst).clear()
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=False)
        if symmetric:
            self.disconnect(dst, src)

    def reconnect(self, src: int, dst: int, *, symmetric: bool = False) -> None:
        """Release a gated channel; its forwarder resumes deliveries."""
        self._gate(src, dst).set()
        if self._tracer is not None:
            self._tracer.on_link(src, dst, up=True)
        if symmetric:
            self.reconnect(dst, src)

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    async def call(self, node_id: int, opname: str, *args: Any) -> Any:
        """Run one client operation to completion; returns its result.

        Raises:
            RuntimeError: the node crashed mid-operation.
        """
        await self.start()
        if self.crash_plan.is_crashed(node_id):
            raise RuntimeError(f"node {node_id} is crashed")
        op = OpHandle(node_id, opname, args)
        lock, wakeup = self._locks[node_id], self._wakeups[node_id]
        async with lock:
            wakeup.clear()
            self._driver.begin(op)
        while op.wait is not None:  # parked: a delivery or a crash wakes us
            await wakeup.wait()
            async with lock:
                wakeup.clear()
                if self.crash_plan.is_crashed(node_id):
                    self._driver.abort(op)
                else:
                    wait = op.wait
                    if wait is not None and wait.predicate():
                        self._driver.resume(op)
        if op.aborted:
            raise RuntimeError(f"node {node_id} crashed during {opname}")
        return op.result


__all__ = ["AioCluster"]
