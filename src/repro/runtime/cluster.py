"""The cluster both runtimes are (:class:`BaseCluster`), and its
discrete-event form (:class:`Cluster`), which adds what only virtual time
can offer: invoking operations at chosen times, running until they settle,
and detecting a drained queue with operations still parked.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Sequence

from repro.net.delays import ConstantDelay, DelayModel
from repro.net.faults import CrashPlan
from repro.net.network import Network
from repro.runtime.driver import OpDriver, OpHandle
from repro.runtime.protocol import ProtocolNode
from repro.sim.kernel import Simulator
from repro.spec.history import History


class StuckError(RuntimeError):
    """The simulation drained its event queue with operations still
    pending — a liveness failure.  The message lists each stuck operation
    and the ``WaitUntil`` description it is parked on (this is the primary
    diagnostic output of the ablation experiments)."""


class BaseCluster:
    """``n`` protocol nodes on one :class:`~repro.net.network.Network`,
    driven by one :class:`~repro.runtime.driver.OpDriver`, over a kernel.

    Enforces the paper's execution discipline, once for both runtimes:

    - message handlers run atomically;
    - a parked client generator is resumed synchronously after the handler
      that satisfied its predicate (before any further delivery);
    - at most one client operation is pending per node (sequential nodes):
      each node has one FIFO of submitted operations.  An arrival at an
      idle node with an empty FIFO begins inside the arrival; otherwise it
      queues, and when the running operation settles — done, failed or
      cancelled — the head begins in a new kernel event ``gap`` later
      (0 except for :meth:`Cluster.chain_ops`);
    - a node crashed by the plan stops sending, receiving and executing —
      its queued operations abort unbegun, leaving no history record; a
      :class:`~repro.net.faults.BroadcastCrash` truncates the in-flight
      broadcast to the adversary-chosen destinations (Definition 11).

    The kernel keeps the event queue and the clock: all that is used of it
    is ``now`` and ``queue.push_call``, so the simulator and the asyncio
    loop-paced kernel are interchangeable.  A subclass names its kernel
    and adds how operations are submitted.

    Args:
        factory: ``factory(node_id, n, f) -> ProtocolNode``; usually an
            algorithm class such as :class:`repro.core.EqAso`.
        n, f: system size and fault threshold (algorithms assert their own
            resilience bound, e.g. ``n > 2f`` for EQ-ASO).
        D: maximum message delay (used when ``delay_model`` is omitted;
            the default model delivers every message in exactly ``D``).
        delay_model: adversary-controlled delay assignment.
        crash_plan: crash adversary (``CrashPlan.none()`` by default).
        record_net_trace: keep per-delivery records (figure regenerators).
        tracer: optional :class:`repro.obs.Tracer`.  When enabled, the
            cluster emits operation/crash events, opens a span per
            operation and installs the phase hook on every node; a
            disabled tracer (no sink / :class:`repro.obs.NullSink`) is
            normalized to ``None``, so disabled tracing costs nothing and
            cannot perturb the schedule.
        backpressure_hwm: channel depth at which a traced run emits a
            ``backpressure`` event (see ``Network``); ``None`` = never.
        meta: the runtime's own tracer ``meta`` entries.
    """

    #: builds the kernel (set by each runtime)
    _new_kernel: Callable[[], Any]

    def __init__(
        self,
        factory: Callable[[int, int, int], ProtocolNode],
        n: int,
        f: int,
        *,
        D: float = 1.0,
        delay_model: DelayModel | None = None,
        crash_plan: CrashPlan | None = None,
        record_net_trace: bool = False,
        tracer: Any = None,
        backpressure_hwm: int | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.n = n
        self.f = f
        self.sim = kernel = self._new_kernel()
        self.tracer = tracer
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        if self._tracer is not None:
            self._tracer.bind(kernel)
        self.crash_plan = crash_plan if crash_plan is not None else CrashPlan.none()
        self.delay_model = delay_model = delay_model or ConstantDelay(D)
        self.network = Network(
            kernel,
            n,
            delay_model,
            self.crash_plan,
            self._deliver,
            record_trace=record_net_trace,
            tracer=self._tracer,
            backpressure_hwm=backpressure_hwm,
        )
        self.history = History(n)
        self.nodes: list[ProtocolNode] = [factory(i, n, f) for i in range(n)]
        self._driver = OpDriver(
            self.nodes,
            self.network,
            self.history,
            self._tracer,
            {"D": delay_model.D, **(meta or {})},
        )
        self._driver.on_idle = self._idle
        self._flush = self._driver.flush  # flush(node_id): drain its outbox
        #: the resume and begin sites inside kernel events; a runtime may
        #: guard them (see ``AioCluster``)
        self._resume = self._driver.resume
        self._begin_op = self._driver.begin
        #: each node's submitted, not yet begun operations, with the gap
        #: each waits after its predecessor settles
        self._queued: list[deque[tuple[OpHandle, float]]] = [
            deque() for _ in range(n)
        ]
        self._started = False
        for node_id, time in self.crash_plan.timed_crashes():  # time >= 0 = now
            kernel.queue.push_call(time, self.crash, (node_id,))

    def _start_nodes(self) -> None:
        """Run each live node's ``on_start`` hook (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            if not self.crash_plan.is_crashed(node.node_id):
                node.on_start()
                self._flush(node.node_id)

    def crash(self, node_id: int) -> None:
        """Crash a node now: it stops sending/receiving/executing."""
        self.crash_plan.mark_crashed(node_id)
        if self._tracer is not None:
            self._tracer.on_crash(node_id)
        self.nodes[node_id].outbox.clear()
        op = self._driver.ops[node_id]
        if op is not None:
            self._driver.abort(op)  # its settle aborts the node's queue

    # -- the client model: one FIFO per node ---------------------------------
    def _arrive(self, ops: Sequence[OpHandle], gap: float = 0.0) -> None:
        """Submit ``ops`` (one node's, in order) to their node's FIFO, each
        to begin ``gap`` after its predecessor settles; at an idle node
        with nothing queued the first begins now."""
        node_id = ops[0].node
        queue = self._queued[node_id]
        idle = not queue and self._driver.ops[node_id] is None
        for op in ops:
            queue.append((op, gap))
        if idle:
            self._pump(node_id)

    def _idle(self, node_id: int) -> None:
        """The driver's hook: the node's running operation settled."""
        queue = self._queued[node_id]
        if not queue:
            return
        if node_id in self.crash_plan.crashed:
            self._pump(node_id)  # aborts the backlog now, op by op
        else:
            kernel = self.sim
            kernel.queue.push_call(kernel.now + queue[0][1], self._pump, (node_id,))

    def _pump(self, node_id: int) -> None:
        """Begin the node's first queued operation — or, the node having
        crashed, abort every queued one (never begun: no history record)."""
        queue = self._queued[node_id]
        while queue:
            op = queue.popleft()[0]
            if node_id in self.crash_plan.crashed:
                self._driver.abort(op)
            elif not op.aborted:  # a cancelled ``call()`` settled it queued
                self._begin_op(op)
                return

    def disconnect(self, src: int, dst: int, *, symmetric: bool = False) -> None:
        """Gate the ordered channel ``src -> dst`` (both directions with
        ``symmetric=True``); sends park until :meth:`reconnect`.  The
        tracer records a ``disconnect`` event per gated direction."""
        self.network.disconnect(src, dst)
        if symmetric:
            self.network.disconnect(dst, src)

    def reconnect(self, src: int, dst: int, *, symmetric: bool = False) -> None:
        """Release a gated channel; parked messages are delivered with
        fresh delays (FIFO preserved)."""
        self.network.reconnect(src, dst)
        if symmetric:
            self.network.reconnect(dst, src)

    def _deliver(self, dst: int, src: int, payload: Any) -> None:
        # the network already dropped deliveries to crashed nodes (its
        # per-destination check runs at delivery time, immediately before
        # this callback), so no re-check is needed here
        node = self.nodes[dst]
        node.on_message(src, payload)
        driver = self._driver
        if node.outbox:
            driver.flush(dst)
        op = driver.ops[dst]
        if op is not None:
            wait = op.wait
            if wait is not None and wait.predicate():
                # resumed synchronously, before any further delivery
                self._resume(op)


class Cluster(BaseCluster):
    """A simulated deployment of one snapshot-object algorithm: a
    :class:`BaseCluster` (see there for the arguments) on the simulator."""

    _new_kernel = Simulator

    @property
    def D(self) -> float:
        return self.delay_model.D

    def node(self, i: int) -> ProtocolNode:
        return self.nodes[i]

    start = BaseCluster._start_nodes

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def invoke_at(self, time: float, node: int, opname: str, *args: Any) -> OpHandle:
        """Submit a client operation arriving at absolute simulation time:
        it begins then, or once the node's earlier operations settled."""
        handle = OpHandle(node=node, kind=opname, args=tuple(args))
        self.sim.schedule_call_at(
            time, self._arrive, (handle,), tag=f"invoke:{opname}@{node}"
        )
        return handle

    def invoke(self, node: int, opname: str, *args: Any) -> OpHandle:
        """Submit a client operation arriving at the current simulation time."""
        return self.invoke_at(self.sim.now, node, opname, *args)

    def chain_ops(
        self,
        node: int,
        ops: Sequence[tuple[str, tuple[Any, ...]]],
        *,
        start: float = 0.0,
        gap: float = 0.0,
    ) -> list[OpHandle]:
        """Submit a sequence of operations to one node as one arrival at
        ``start``: each begins ``gap`` after the previous one settles
        (nodes are sequential, Sec. II-A — a closed-loop client).  If the
        node crashes mid-chain, the remaining handles are aborted (never
        begun: they leave no history record, and their callbacks fire).
        """
        handles = [
            OpHandle(node=node, kind=kind, args=tuple(args))
            for (kind, args) in ops
        ]
        if handles:
            self.sim.schedule_call_at(
                start, self._arrive, handles, gap, tag=f"chain@{node}"
            )
        return handles

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, *, until: float | None = None) -> None:
        self._start_nodes()
        self.sim.run(until=until)

    def run_until_complete(self, handles: Sequence[OpHandle]) -> None:
        """Run until every handle completes or its node crashes.

        Raises:
            StuckError: the event queue drained with live operations still
                parked — a liveness violation (used by ablation tests to
                detect the deadlocks that removing T1/T2/phase-0 causes).
        """
        # Every handle settles through ``OpDriver._settle`` exactly once
        # — done or aborted, begun or not — and fires its callbacks
        # there, so the run is told to stop by the last one to settle:
        # the kernel executes nothing per event on this method's behalf.
        pending = [h for h in handles if not (h.done or h.aborted)]
        remaining = len(pending)

        def count_down(_handle: OpHandle) -> None:
            nonlocal remaining
            remaining -= 1
            if not remaining:
                self.sim.stop()

        for h in pending:
            h.on_complete(count_down)
        self._start_nodes()
        try:
            if remaining:
                self.sim.run()
        finally:  # an aborted run (or a stuck one) leaves no stale stop
            for h in pending:
                if not (h.done or h.aborted):
                    h.callbacks.remove(count_down)
        if remaining:
            lines = []
            for h in handles:
                if h.done or h.aborted:
                    continue
                waiting = (
                    h.wait.description
                    if h.wait is not None
                    else "not started or not parked"
                )
                lines.append(
                    f"  node {h.node} {h.kind}{h.args!r} stuck on: {waiting}"
                )
            raise StuckError(
                "simulation drained with pending operations (liveness bug):\n"
                + "\n".join(lines)
            )

    def run_ops(
        self, schedule: Iterable[tuple[float, int, str, tuple[Any, ...]]]
    ) -> list[OpHandle]:
        """Convenience: invoke ``(time, node, opname, args)`` entries and
        run until all complete (or their nodes crash)."""
        handles = [
            self.invoke_at(t, node, opname, *args)
            for (t, node, opname, args) in schedule
        ]
        self.run_until_complete(handles)
        return handles


__all__ = ["BaseCluster", "Cluster", "OpHandle", "StuckError"]
