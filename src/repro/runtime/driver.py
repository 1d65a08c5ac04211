"""The op driver: what every runtime does around a sans-io node, once.

A runtime (:class:`~repro.runtime.cluster.Cluster` on the simulator,
:class:`~repro.runtime.aio.AioCluster` on asyncio) owns the kernel that
paces the network and the way a caller waits for a settled operation —
``run_until_complete`` on one side, an awaited future on the other.  The
rest is the same and lives here, written against the one
:class:`~repro.net.network.Network` and its kernel's clock:
**open** an operation (resolve the method, record the invocation, note
the node's ``sent`` count, open a span); **resume** its generator until
it parks on a false :class:`WaitUntil`, returns, or its node is found
crashed, flushing the outbox after every yield; **drain** an outbox item
by item, so that a node dying mid-loop
(:class:`~repro.net.faults.BroadcastCrash`) loses what is left; and
**settle** the operation exactly once — respond or abort in the history
and the span, free the node, fire the completion callbacks, then tell
the cluster the node is idle (:attr:`OpDriver.on_idle`, which begins the
node's next queued operation) — also when the generator raises or
yields something that is not a ``WaitUntil``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.net.network import Network
from repro.runtime.protocol import ProtocolNode, WaitUntil, _Broadcast
from repro.spec.history import History, OpRecord


@dataclass
class OpHandle:
    """Handle to one invoked client operation."""

    node: int
    kind: str
    args: tuple[Any, ...]
    record: OpRecord | None = None
    result: Any = None
    done: bool = False
    aborted: bool = False
    #: what the operation's generator raised (the op is then aborted)
    error: BaseException | None = None
    sent_at_inv: int = 0
    sent_at_resp: int = 0
    callbacks: list[Callable[["OpHandle"], None]] = field(default_factory=list)
    #: observability span (:class:`repro.obs.OpSpan`); ``None`` unless the
    #: runtime was built with an enabled tracer
    span: Any = None
    #: the running generator and the wait it is parked on (driver state)
    gen: Any = field(default=None, repr=False)
    wait: WaitUntil | None = field(default=None, repr=False)

    @property
    def t_inv(self) -> float:
        if self.record is None:
            raise RuntimeError(f"{self.kind} at node {self.node} not yet invoked")
        return self.record.t_inv

    @property
    def t_resp(self) -> float:
        if self.record is None or self.record.t_resp is None:
            raise RuntimeError(f"{self.kind} at node {self.node} has not responded")
        return self.record.t_resp

    @property
    def latency(self) -> float:
        return self.t_resp - self.t_inv

    @property
    def messages_sent(self) -> int:
        """Messages this node handed to the network during the operation
        (includes forwarding duties that happened to run concurrently —
        use quiet-network workloads for exact per-op message costs)."""
        return self.sent_at_resp - self.sent_at_inv

    def on_complete(self, fn: Callable[["OpHandle"], None]) -> None:
        self.callbacks.append(fn)


class OpDriver:
    """Drives the client operations of a cluster of protocol nodes.

    Args:
        nodes: the protocol nodes, indexed by node id.
        network: the :class:`~repro.net.network.Network` outboxes drain
            into; its kernel is the clock (``now``) and its crash plan is
            consulted after every outbox item and every flush.
        history: where invocations, responses and aborts are recorded.
        tracer: an *enabled* :class:`repro.obs.Tracer` or ``None``; the
            driver installs the phase hook and the run's ``meta``
            (``algorithm``, ``n``, ``f``, then the runtime's own keys).
        meta: the runtime's own tracer ``meta`` entries.
    """

    #: ``on_idle(node)`` runs once the node's running operation has settled
    #: and its callbacks fired (set by the cluster, whose queue it pumps)
    on_idle: Callable[[int], None]

    def __init__(
        self,
        nodes: Sequence[ProtocolNode],
        network: Network,
        history: History,
        tracer: Any,
        meta: dict[str, Any],
    ) -> None:
        self.nodes = nodes
        #: the crash plan's live crashed-set
        self.crashed = network.crash_plan.crashed
        self.history = history
        self.tracer = tracer
        self.clock = network.sim
        self.send = network.send
        self.broadcast = network.broadcast
        #: per-node count of messages handed to the network
        self.sent = network.sent_by_node
        #: the operation pending at each node (nodes are sequential)
        self.ops: list[OpHandle | None] = [None] * len(nodes)
        if tracer is not None:
            for node in nodes:
                node._phase_hook = tracer.phase
            first = nodes[0]
            shared = {"algorithm": type(first).__name__, "n": first.n, "f": first.f}
            for key, value in {**shared, **meta}.items():
                tracer.meta.setdefault(key, value)

    # -- operations -------------------------------------------------------
    def begin(self, op: OpHandle) -> None:
        """Open ``op`` at its node and run it to its first park."""
        node_id = op.node
        if self.ops[node_id] is not None:
            raise RuntimeError(
                f"node {node_id} invoked {op.kind} while another "
                "operation is pending (nodes are sequential, Sec. II-A)"
            )
        # resolve before recording: a bad name must leave no trace
        op.gen = getattr(self.nodes[node_id], op.kind)(*op.args)
        op.record = self.history.invoke(node_id, op.kind, op.args, self.clock.now)
        op.sent_at_inv = self.sent[node_id]
        if self.tracer is not None:
            op.span = self.tracer.op_begin(node_id, op.kind, op.args)
        self.ops[node_id] = op
        self.resume(op)

    def resume(self, op: OpHandle) -> None:
        """Step ``op``'s generator until it parks on a false predicate
        (``op.wait`` is set), returns (``op.done``) or its node is found
        crashed after a flush (``op.aborted``).  A runtime re-evaluates
        ``op.wait.predicate()`` after every handler and calls this again."""
        op.wait = None
        while True:
            try:
                yielded = op.gen.send(None)
                if not isinstance(yielded, WaitUntil):
                    raise TypeError(
                        f"operation generator yielded {yielded!r}; expected WaitUntil"
                    )
            except StopIteration as stop:
                self._finish(op, stop.value)
                return
            except BaseException as exc:
                op.error = exc  # the op failed: free the node, then report
                self.abort(op)
                raise
            self.flush(op.node)
            if op.aborted:
                return
            if not yielded.predicate():
                op.wait = yielded
                return

    def _finish(self, op: OpHandle, result: Any) -> None:
        self.flush(op.node)
        if op.aborted:
            return
        op.result = result
        op.done = True
        op.sent_at_resp = self.sent[op.node]
        if op.record is not None:
            self.history.respond(op.record, self.clock.now, result)
        if op.span is not None:
            self.tracer.op_end(op.span, messages=op.messages_sent, result=result)
        self._settle(op)

    def abort(self, op: OpHandle) -> None:
        """The op's node crashed, or its generator failed: it stays
        pending in the history forever.  Idempotent."""
        if op.done or op.aborted:
            return
        op.aborted = True
        if op.record is not None:
            self.history.abort(op.record)
        if op.span is not None:
            self.tracer.op_abort(
                op.span, messages=self.sent[op.node] - op.sent_at_inv
            )
        self._settle(op)

    def _settle(self, op: OpHandle) -> None:
        op.gen = op.wait = None  # a kept handle must not keep the frame alive
        running = self.ops[op.node] is op
        if running:
            self.ops[op.node] = None
        for fn in op.callbacks:  # settled-callbacks fire on abort too
            fn(op)
        if running:
            self.on_idle(op.node)

    # -- transport plumbing -----------------------------------------------
    def flush(self, node_id: int) -> None:
        """Drain a node's outbox into the transport, in order."""
        outbox = self.nodes[node_id].outbox
        if not outbox:
            return
        crashed = self.crashed
        while outbox:
            if node_id in crashed:
                # the node died mid-loop (BroadcastCrash): remaining
                # queued sends never happened
                outbox.clear()
                break
            item = outbox.popleft()
            if type(item) is _Broadcast:
                self.broadcast(node_id, item.payload, item.dests)
            else:
                self.send(node_id, item.dst, item.payload)
        if node_id in crashed:
            op = self.ops[node_id]
            if op is not None:
                self.abort(op)


__all__ = ["OpDriver", "OpHandle"]
