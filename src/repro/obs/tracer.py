"""The tracer: sinks, Lamport clocks, and the instrumentation facade.

The tracer is the single object the runtime layers talk to.  Design
rules, enforced here and relied on by the acceptance tests:

- **pure observer**: the tracer never schedules events, never touches
  node state, and never reads anything the protocol could not — so an
  execution with tracing enabled is schedule-identical to one without;
- **zero overhead when disabled**: a tracer with the :class:`NullSink`
  (or no sink) reports ``enabled == False``, and every instrumentation
  site in the runtime checks that flag *before* constructing any event
  or span — the disabled path allocates nothing;
- **deterministic**: event order is the simulator's deterministic
  execution order; Lamport clocks are computed from that order plus the
  per-channel FIFO discipline, so two runs with the same seed produce
  byte-identical exports.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Protocol

from repro.obs.describe import describe_payload
from repro.obs.events import TraceEvent
from repro.obs.spans import OpSpan, encode_value


class EventSink(Protocol):
    """Destination for trace events."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None: ...


class NullSink:
    """The no-op sink: installing it disables instrumentation entirely
    (emit is never even called — see :attr:`Tracer.enabled`)."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass


class MemorySink:
    """Keeps every event in memory (the default for experiments)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class Tracer:
    """Facade the runtime emits through.

    Args:
        sink: event destination; ``None`` or a :class:`NullSink`
            disables the tracer (the runtime then skips every
            instrumentation site).
        meta: free-form run metadata merged into the JSONL header
            (algorithm name, n, f, D, seed, ...).
    """

    def __init__(self, sink: EventSink | None = None, *, meta: dict[str, Any] | None = None) -> None:
        self.sink = sink
        self.meta: dict[str, Any] = dict(meta or {})
        self.spans: list[OpSpan] = []
        self.events_emitted = 0
        self._sim: Any = None
        self._clock: dict[int, int] = {}
        self._channel: dict[tuple[int, int], deque[int]] = {}
        self._current_span: dict[int, OpSpan] = {}
        self._next_op_id = 1

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.sink is not None and self.sink.enabled

    def bind(self, sim: Any) -> None:
        """Attach to a simulation kernel (the source of ``now``)."""
        self._sim = sim

    @property
    def now(self) -> float:
        return 0.0 if self._sim is None else self._sim.now

    # ------------------------------------------------------------------
    # clock maintenance
    # ------------------------------------------------------------------
    def _tick(self, node: int) -> int:
        clk = self._clock.get(node, 0) + 1
        self._clock[node] = clk
        return clk

    def _emit(self, event: TraceEvent) -> None:
        self.events_emitted += 1
        self.sink.emit(event)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # message events (called by the network)
    # ------------------------------------------------------------------
    def on_send(self, src: int, dst: int, payload: Any) -> None:
        clk = self._tick(src)
        self._channel.setdefault((src, dst), deque()).append(clk)
        self._emit(
            TraceEvent(
                kind="send",
                t=self.now,
                lamport=clk,
                node=src,
                src=src,
                dst=dst,
                msg=describe_payload(payload),
            )
        )

    def _pop_send_clock(self, src: int, dst: int) -> int:
        queue = self._channel.get((src, dst))
        return queue.popleft() if queue else 0

    def on_deliver(self, src: int, dst: int, payload: Any) -> None:
        sent_clk = self._pop_send_clock(src, dst)
        clk = max(self._clock.get(dst, 0), sent_clk) + 1
        self._clock[dst] = clk
        self._emit(
            TraceEvent(
                kind="deliver",
                t=self.now,
                lamport=clk,
                node=dst,
                src=src,
                dst=dst,
                msg=describe_payload(payload),
            )
        )

    def on_drop(self, src: int, dst: int, payload: Any) -> None:
        # a drop is not a receive: the dead destination's clock is frozen,
        # the event carries the send's clock for causality queries
        sent_clk = self._pop_send_clock(src, dst)
        self._emit(
            TraceEvent(
                kind="drop",
                t=self.now,
                lamport=sent_clk,
                node=dst,
                src=src,
                dst=dst,
                msg=describe_payload(payload),
            )
        )

    def on_crash(self, node: int, *, detail: str | None = None) -> None:
        self._emit(
            TraceEvent(
                kind="crash",
                t=self.now,
                lamport=self._tick(node),
                node=node,
                detail=detail,
            )
        )

    def on_link(self, src: int, dst: int, *, up: bool) -> None:
        """An ordered channel was gated (``up=False``) or released.
        Attributed to the destination — it is the side that stops (or
        resumes) observing deliveries."""
        self._emit(
            TraceEvent(
                kind="reconnect" if up else "disconnect",
                t=self.now,
                lamport=self._tick(dst),
                node=dst,
                src=src,
                dst=dst,
            )
        )

    def on_backpressure(self, src: int, dst: int, depth: int) -> None:
        """A channel's send queue crossed its high-water mark."""
        self._emit(
            TraceEvent(
                kind="backpressure",
                t=self.now,
                lamport=self._tick(src),
                node=src,
                src=src,
                dst=dst,
                detail=f"depth={depth}",
            )
        )

    # ------------------------------------------------------------------
    # operation spans (called by the cluster)
    # ------------------------------------------------------------------
    def op_begin(self, node: int, kind: str, args: tuple[Any, ...]) -> OpSpan:
        span = OpSpan(
            op_id=self._next_op_id, node=node, kind=kind, t_inv=self.now
        )
        if args:
            span.args = [encode_value(a) for a in args]
        self._next_op_id += 1
        self.spans.append(span)
        self._current_span[node] = span
        self._emit(
            TraceEvent(
                kind="op-invoke",
                t=self.now,
                lamport=self._tick(node),
                node=node,
                op_id=span.op_id,
                op=kind,
                detail=repr(args) if args else None,
            )
        )
        return span

    def op_end(self, span: OpSpan, *, messages: int = 0, result: Any = None) -> None:
        span.close(self.now)
        span.messages = messages
        span.result = encode_value(result)
        self._current_span.pop(span.node, None)
        self._emit(
            TraceEvent(
                kind="op-respond",
                t=self.now,
                lamport=self._tick(span.node),
                node=span.node,
                op_id=span.op_id,
                op=span.kind,
                detail=None if result is None else repr(result),
            )
        )

    def op_abort(self, span: OpSpan, *, messages: int = 0) -> None:
        span.close(self.now, aborted=True)
        span.messages = messages
        self._current_span.pop(span.node, None)
        self._emit(
            TraceEvent(
                kind="op-abort",
                t=self.now,
                lamport=self._tick(span.node),
                node=span.node,
                op_id=span.op_id,
                op=span.kind,
            )
        )

    # ------------------------------------------------------------------
    # phase annotations (called via ProtocolNode.phase_enter/_exit)
    # ------------------------------------------------------------------
    def phase(self, node: int, name: str, entering: bool) -> None:
        span = self._current_span.get(node)
        if span is None:
            return  # no operation open at this node — skip quietly
        if entering:
            span.enter_phase(name, self.now)
        else:
            span.exit_phase(name, self.now)
        self._emit(
            TraceEvent(
                kind="phase-enter" if entering else "phase-exit",
                t=self.now,
                lamport=self._tick(node),
                node=node,
                op_id=span.op_id,
                op=span.kind,
                phase=name,
            )
        )

    # ------------------------------------------------------------------
    # kernel hook (opt-in; feeds Simulator._trace_hooks into the log)
    # ------------------------------------------------------------------
    def attach_kernel(self, sim: Any, *, tag_prefixes: tuple[str, ...] = ()) -> None:
        """Log kernel events ("sched") whose tag starts with one of the
        prefixes (all tagged events when no prefix is given).  Debug aid;
        off unless explicitly attached."""
        self.bind(sim)

        def hook(event: Any) -> None:
            if not self.enabled:
                return
            tag = getattr(event, "tag", "")
            if tag_prefixes and not any(tag.startswith(p) for p in tag_prefixes):
                return
            self._emit(
                TraceEvent(
                    kind="sched", t=event.time, lamport=0, node=-1, detail=tag or None
                )
            )

        sim.add_trace_hook(hook)


__all__ = ["EventSink", "MemorySink", "NullSink", "Tracer"]
