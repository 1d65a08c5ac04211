"""The discrete-event simulator.

The simulator advances virtual time by executing scheduled events in
deterministic order.  It is the global clock of the paper's analysis
(Sec. II-A): only the harness reads :attr:`Simulator.now`; protocol code
never does.

Hot-path design: events carry ``(fn, args)`` instead of a closure —
:meth:`Simulator.schedule_call` schedules a call without allocating
anything besides the event record itself — and ``run()``,
``run(until=)`` and ``step()`` drive one loop body whose only calls per
event are the pop and the event itself (emptiness is the queue's own
``IndexError``).  A run that should end before the queue drains is
*told* to: whoever knows the moment has come — a settle callback
counting operations down, say — calls :meth:`Simulator.stop` from
inside an event, and the loop returns when that event does.  Nothing is
polled.  The executed-event total is folded into
:data:`repro.sim.fastpath.STATS` when the loop returns, which is how
``repro.bench`` (a gated counter) and ``benchmarks/ledger`` count events
per run without touching the hot loop.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Event, EventQueue, Record
from repro.sim.fastpath import STATS


class SimulationError(RuntimeError):
    """Raised when the simulation violates one of its own invariants
    (time going backwards, step-budget exhaustion, deadlock detection)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        max_steps: executed-event budget (livelock guard).

    Attributes:
        now: current simulation time (the observer clock).  A plain
            attribute, read once per message by the network; the event
            loop alone writes it.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [1.5]
    """

    __slots__ = (
        "_queue",
        "now",
        "_steps",
        "_max_steps",
        "_running",
        "_stopping",
        "_trace_hooks",
    )

    def __init__(self, *, max_steps: int = 50_000_000) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self._steps = 0
        self._max_steps = max_steps
        self._running = False
        self._stopping = False
        self._trace_hooks: list[Callable[[Event], None]] = []

    # ------------------------------------------------------------------
    # time & scheduling
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of events executed so far."""
        return self._steps

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    @property
    def queue(self) -> EventQueue:
        """The underlying event queue (advanced, hot-path API).

        Exposed so hot paths (the network's send path) can bind
        ``queue.push_call`` once and schedule without the per-call
        ``time >= now`` validation — callers own the proof that
        their times are never in the past (deliveries use
        ``now + delay`` with ``delay >= 0`` and a monotone FIFO clamp).
        Everything else should use the ``schedule*`` methods."""
        return self._queue

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push_call(
            self.now + delay, action, (), priority=priority, tag=tag
        )

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        """Schedule ``action`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self._queue.push_call(time, action, (), priority=priority, tag=tag)

    def schedule_call(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        """Schedule ``fn(*args)`` after ``delay`` — the closure-free hot
        path (the network's per-message scheduling goes through here)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push_call(
            self.now + delay, fn, args, priority=priority, tag=tag
        )

    def schedule_call_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
        tag: str = "",
    ) -> Record:
        """Schedule ``fn(*args)`` at absolute ``time`` (closure-free)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self._queue.push_call(time, fn, args, priority=priority, tag=tag)

    def cancel(self, event: Record) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self._queue.cancel(event)

    def add_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Register a hook called before each event executes, with the
        :class:`~repro.sim.events.Event` view of its record (debug/trace).

        This is the kernel's feed into the observability layer: a
        :class:`repro.obs.Tracer` attached via ``attach_kernel`` logs
        scheduler events through here."""
        self._trace_hooks.append(hook)

    def remove_trace_hook(self, hook: Callable[[Event], None]) -> None:
        """Detach a previously registered trace hook (idempotent)."""
        if hook in self._trace_hooks:
            self._trace_hooks.remove(hook)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        before = self._steps
        self._loop(None, True)
        return self._steps != before

    def run(self, *, until: float | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or an event
        calls :meth:`stop`.

        ``until`` stops *before* executing any event scheduled strictly
        after it (and advances the clock to ``until``).
        """
        if self._running:
            raise SimulationError("re-entrant Simulator.run")
        self._running = True
        # a stop belongs to the run it was requested in: one asked for
        # outside any run, or left by a run that ended some other way,
        # must not end this one
        self._stopping = False
        try:
            self._loop(until, False)
        finally:
            self._running = False

    def stop(self) -> None:
        """Make the current :meth:`run` return as soon as the event being
        executed does; the queue and the clock stay as that event left
        them (``until`` is not advanced to).  Without a run in progress
        it does nothing, and :meth:`step` never looks at it."""
        self._stopping = True

    def _loop(self, until: float | None, once: bool) -> None:
        """The event loop: every way of advancing the simulation executes
        this one body, so the invariants below hold on all of them."""
        pop = self._queue.pop
        peek_time = self._queue.peek_time
        # the live list object, so hooks added or removed by an event
        # handler take effect from the next event on
        hooks = self._trace_hooks
        max_steps = self._max_steps
        steps_at_entry = self._steps
        try:
            while True:
                if until is not None:
                    next_time = peek_time()
                    if next_time is None or next_time > until:
                        if until > self.now:
                            self.now = until
                        return
                try:
                    event = pop()
                except IndexError:  # drained
                    return
                time = event[0]
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: event at {time} < now {self.now}"
                    )
                self.now = time
                steps = self._steps = self._steps + 1
                if steps > max_steps:
                    raise SimulationError(
                        f"step budget exhausted ({max_steps}); likely livelock"
                    )
                if hooks:
                    named = Event(event)
                    for hook in hooks:
                        hook(named)
                event[3](*event[4])
                if once or self._stopping:
                    return
        finally:
            STATS.events += self._steps - steps_at_entry


__all__ = ["SimulationError", "Simulator"]
