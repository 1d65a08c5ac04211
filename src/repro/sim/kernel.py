"""The discrete-event simulator.

The simulator advances virtual time by executing scheduled events in
deterministic order.  It is the global clock of the paper's analysis
(Sec. II-A): only the harness reads :attr:`Simulator.now`; protocol code
never does.

The kernel interface is two members, :attr:`Simulator.now` and
``queue.push_call``: that is all the network, the op driver and
``BaseCluster`` call, so another kernel — the asyncio runtime's
``LoopKernel`` — needs nothing more.  :meth:`Simulator.schedule_call_at`
is the one validated entry, for callers outside that path.

Hot-path design: events carry ``(fn, args)`` instead of a closure — a
push allocates nothing besides the event record itself — and ``run()``,
``run(until=)`` and ``step()`` drive one loop body whose only call per
event is the event itself: the loop pops the queue's two lanes inline
(the body of :meth:`EventQueue.pop`).  A run that should end before the
queue drains is *told* to: whoever knows the moment has come — a settle
callback counting operations down, say — calls :meth:`Simulator.stop`
from inside an event, and the loop returns when that event does.
Nothing is polled.  The executed-event total is folded into
:data:`repro.sim.fastpath.STATS` when the loop returns, which is how
``repro.bench`` (a gated counter) and ``benchmarks/ledger`` count events
per run without touching the hot loop.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable

from repro.sim.events import _CANCELLED, _FIRED, EventQueue, Record
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
        >>> _ = sim.schedule_call_at(1.5, lambda: fired.append(sim.now))
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
    )

    def __init__(self, *, max_steps: int = 50_000_000) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self._steps = 0
        self._max_steps = max_steps
        self._running = False
        self._stopping = False

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
        """The underlying event queue: the kernel interface's
        ``queue.push_call``.

        Hot paths (the network's send path, the op queue) bind it once
        and schedule without the per-call ``time >= now`` validation —
        callers own the proof that their times are never in the past
        (deliveries use ``now + delay`` with ``delay >= 0`` and a monotone
        FIFO clamp).  Everything else uses :meth:`schedule_call_at`."""
        return self._queue

    def schedule_call_at(self, time: float, fn: Callable[..., None], *args: Any) -> Record:
        """Schedule ``fn(*args)`` at absolute ``time`` (closure-free)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self._queue.push_call(time, fn, args)

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
        queue = self._queue
        # the lanes are mutated, never replaced; the lane cursor is read
        # and written back per pop, since a push reads it
        heap = queue._heap
        fifo = queue._fifo
        peek_time = queue.peek_time
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
                # EventQueue.pop, inline
                head = queue._head
                if head < len(fifo):
                    event = fifo[head]
                    if heap and heap[0] < event:
                        event = heappop(heap)
                    else:
                        head += 1
                        if head >= 4096:
                            del fifo[:head]
                            head = 0
                        queue._head = head
                elif heap:
                    event = heappop(heap)
                else:  # drained
                    return
                if event[4] == _CANCELLED:
                    continue
                event[4] = _FIRED
                queue._live -= 1
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
                event[2](*event[3])
                if once or self._stopping:
                    return
        finally:
            STATS.events += self._steps - steps_at_entry


__all__ = ["SimulationError", "Simulator"]
