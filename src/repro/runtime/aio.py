"""Asyncio runtime: the same network and the same nodes on a second clock.

Demonstrates that the algorithm objects are not simulator-bound:
:class:`AioCluster` is the :class:`~repro.runtime.cluster.BaseCluster`
the simulator runs — one ``Network``, one ``OpDriver``, one ``_deliver``
— over a :class:`LoopKernel`, an event queue paced by the asyncio loop's
clock instead of virtual time.  There are no tasks, queues or locks: a
delivery is a queue event, and the loop is entered through one handle.
The fault-injection *benchmarks* stay on the discrete-event runtime
(deterministic, exact-``D`` measurement).

Semantics, all of them the shared code's:

- **handler atomicity** by construction: handlers do not ``await``
  (sans-io, lint rule RL002) and the loop is single-threaded, so nothing
  interleaves with a handler or a client step;
- **synchronous borrow recording**: ``_deliver`` resumes a released
  operation inside the kernel turn, before any further delivery (the
  NOTE at Algorithm 1 line 49); ``call()`` only awaits the settled op;
- **sequential nodes**: concurrent ``call()`` invocations on one node
  join the cluster's per-node FIFO and run in submission order, each
  beginning in a kernel turn after its predecessor settled;
- **reliable FIFO channels, delay ≤ D**: a send is an event at
  ``now + delay``, clamped FIFO per channel, so delays *overlap* — a
  burst arrives within ``D`` of its sends, not one sleep after another.
  An event runs when its turn comes, never early; the worst lateness is
  measured and filed as ``meta["max_lateness_D"]`` by ``shutdown()``;
- **crashes and tracing** are the network's and the driver's, so a
  :class:`repro.obs.Tracer` sees the simulator's event vocabulary
  (``backpressure`` included), with ``t`` on the loop's monotonic clock
  relative to :meth:`AioCluster.start`.
"""

from __future__ import annotations

import asyncio
from math import inf
from typing import Any, Callable

from repro.net.delays import ConstantDelay, UniformDelay
from repro.net.faults import CrashPlan
from repro.runtime.cluster import BaseCluster
from repro.runtime.driver import OpHandle
from repro.runtime.protocol import ProtocolNode
from repro.sim.events import EventQueue, Record
from repro.sim.fastpath import STATS
from repro.sim.rng import SeededRng


def _turn_end() -> None:
    """Marks where a kernel turn stops; never executed."""


class LoopKernel:
    """An :class:`~repro.sim.events.EventQueue` paced by an asyncio loop.

    Offers what the network and the op driver use of a kernel — ``now``
    and ``queue.push_call`` — and keeps one loop handle armed for the
    earliest event.  A **turn** executes the events that were due when it
    began, in the queue's ``(time, priority, seq)`` order (``call_at``
    keeps no order among equal times), then returns to the loop: events
    its handlers push wait for a later turn, so other tasks always run in
    between, and with zero delays the schedule does not depend on the
    clock at all.  When an event raises, the kernel stops for good and
    hands the exception to ``on_failure``.
    """

    def __init__(self, on_failure: Callable[[Exception], None]) -> None:
        self._queue = EventQueue()
        self._push = self._queue.push_call
        self.queue = self  # the network binds ``queue.push_call``: ours arms
        self._on_failure = on_failure
        self.loop: Any = None
        self._t0 = 0.0
        self._handle: Any = None
        #: the event time the handle is armed for: ``inf`` when idle, ``-inf``
        #: while a push must not arm (not started, inside a turn, stopped)
        self._armed_for = -inf
        #: worst ``now − time`` of an event a turn was armed for, seconds
        self.max_lateness = 0.0

    @property
    def now(self) -> float:
        """Seconds on the loop's clock since :meth:`start` (0.0 before)."""
        return 0.0 if self.loop is None else self.loop.time() - self._t0

    def push_call(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        *,
        priority: int = 0,
    ) -> Record:
        """Schedule ``fn(*args)`` at ``time``, which the caller guarantees
        is not in the past (as for the simulator's queue)."""
        event = self._push(time, fn, args, priority=priority)
        if time < self._armed_for:
            self._arm(time)
        return event

    def cancel(self, event: Record) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self._queue.cancel(event)

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to ``loop``: its clock, from now, is this kernel's."""
        self.loop = loop
        self._t0 = loop.time()
        self._arm_earliest()

    def stop(self) -> None:
        """Cancel the armed handle; nothing runs or arms afterwards."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._armed_for = -inf

    def _arm_earliest(self) -> None:
        self._armed_for = inf
        time = self._queue.peek_time()
        if time is not None:
            self._arm(time)

    def _arm(self, time: float) -> None:
        """Point the handle at an event at ``time``: ``call_soon`` if it
        is due (with zero delays it always is, whatever the clock says),
        a timer otherwise."""
        if self._handle is not None:
            self._handle.cancel()
        self._armed_for = time
        if time <= self.loop.time() - self._t0:
            self._handle = self.loop.call_soon(self._turn)
        else:
            self._handle = self.loop.call_at(self._t0 + time, self._turn)

    def _turn(self) -> None:
        self._handle = None
        now = self.loop.time() - self._t0
        self.max_lateness = max(self.max_lateness, now - self._armed_for)
        self._armed_for = -inf
        # the end of the turn is itself an event: at ``now`` it sorts
        # after everything that is due and, pushes never being in the
        # past, before everything this turn's handlers will push
        end = self._push(now, _turn_end)
        pop = self._queue.pop
        ran = 0
        try:
            while (event := pop()) is not end:
                ran += 1
                event[3](*event[4])
        except Exception as exc:  # a handler's bug: report it, stay stopped
            self._on_failure(exc)
            return
        finally:
            STATS.events += ran
        self._arm_earliest()


class AioCluster(BaseCluster):
    """Asyncio driver for a cluster of sans-io protocol nodes.

    Args:
        factory, n, f, crash_plan, tracer: as for ``BaseCluster`` (timed
            crashes are kernel events, on the loop's clock).
        mean_delay: mean per-message delay in seconds: each message is
            delayed uniformly in ``[0.2·mean, 1.8·mean]`` (``D`` is
            ``1.8·mean``), FIFO per channel, delays overlapping; ``0``
            delivers on the next kernel turn and draws nothing.
        seed: delay-randomness seed.
        backpressure_hwm: channel depth at which a ``backpressure``
            trace event fires (each time the depth grows to exactly
            this, so sustained congestion re-reports as it re-crosses);
            ``None`` = never.
    """

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
        backpressure_hwm: int | None = 64,
    ) -> None:
        hi = 1.8 * mean_delay  # D, the synchrony bound of the sampled delays
        if mean_delay == 0:  # no draw is ever made; the model's D is nominal
            delays = ConstantDelay(1.0, 0.0)
        else:
            delays = UniformDelay(hi, SeededRng(seed), lo=0.2 * mean_delay, hi=hi)
        super().__init__(
            factory,
            n,
            f,
            delay_model=delays,
            crash_plan=crash_plan,
            tracer=tracer,
            backpressure_hwm=backpressure_hwm,
            meta={"D": hi, "runtime": "aio", "seed": seed},
        )
        self._resume = self._in_turn(self._driver.resume)
        self._begin_op = self._in_turn(self._driver.begin)
        self._closed = False
        self._failure: Exception | None = None

    def _new_kernel(self) -> LoopKernel:
        return LoopKernel(self._end)

    async def start(self) -> None:
        """Bind the kernel to the running loop and run ``on_start`` hooks
        (idempotent).  No task is created."""
        if not self._started:
            self.sim.start(asyncio.get_running_loop())
            self._start_nodes()

    async def shutdown(self) -> None:
        """Stop the kernel and abort every pending operation — its
        ``call()`` raises ``RuntimeError``, its record stays pending (a
        queued one never had a record) — then re-raise the handler
        failure that ended the run, if any."""
        self._end()
        meta = self._tracer.meta if self._tracer is not None else {}
        if meta.get("D"):  # instant delivery declares no bound to stretch
            meta["max_lateness_D"] = self.sim.max_lateness / meta["D"]
        if self._failure is not None:
            raise self._failure

    def _end(self, failure: Exception | None = None) -> None:
        """The run is over, by ``shutdown()`` or because a handler raised
        inside a kernel turn: nobody waits for deliveries that never
        come — every parked and every later ``call()`` raises."""
        self._closed = True
        if failure is not None:
            self._failure = failure
        self.sim.stop()
        driver = self._driver
        for op in driver.ops:
            if op is not None:
                driver.abort(op)
        for queue in self._queued:
            while queue:
                driver.abort(queue.popleft()[0])

    def _in_turn(self, step: Callable[[OpHandle], None]) -> Callable[[OpHandle], None]:
        """Guard a begin or resume site that runs inside a kernel turn: an
        operation whose generator raises fails its own ``call()`` (which
        re-raises ``op.error``), not the turn."""

        def guarded(op: OpHandle) -> None:
            try:
                step(op)
            except Exception as exc:
                if exc is not op.error:
                    raise

        return guarded

    async def call(self, node_id: int, opname: str, *args: Any) -> Any:
        """Run one client operation to completion; returns its result.
        It joins the node's FIFO now: at an idle node it begins at once,
        and one that never parks completes without touching the loop;
        otherwise it begins when the node's earlier calls have settled.
        Cancelling a parked or queued ``call()`` aborts its operation.

        Raises:
            RuntimeError: the node crashed, or the cluster was shut down.
            AttributeError: the node has no operation ``opname`` (nothing
                is queued or recorded).
            Exception: whatever the operation's generator raised, or the
                handler failure that ended the run.
        """
        if not self._started:
            await self.start()
        if self._closed:
            raise self._failure or RuntimeError(f"cluster is shut down: no {opname}")
        if self.crash_plan.is_crashed(node_id):
            raise RuntimeError(f"node {node_id} is crashed")
        getattr(self.nodes[node_id], opname)  # an unknown name fails here
        op = OpHandle(node_id, opname, args)
        self._arrive((op,))
        if not (op.done or op.aborted):  # parked or queued: a settle wakes it
            settled = self.sim.loop.create_future()
            op.on_complete(lambda _op: settled.done() or settled.set_result(None))
            try:
                await settled
            except asyncio.CancelledError:
                self._driver.abort(op)  # the node's next call() may run
                raise
        if op.error is not None:
            raise op.error
        if op.aborted:
            if self.crash_plan.is_crashed(node_id):
                raise RuntimeError(f"node {node_id} crashed during {opname}")
            raise self._failure or RuntimeError(f"cluster was shut down during {opname}")
        return op.result


__all__ = ["AioCluster", "LoopKernel"]
