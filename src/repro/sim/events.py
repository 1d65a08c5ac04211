"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, priority, seq)``.  The monotonically
increasing sequence number makes ordering total and deterministic even when
many events share a timestamp (common under the constant-delay model used
by the worst-case adversaries).

:class:`EventQueue` is a binary heap plus a *burst lane*: an append-only
FIFO holding the longest sorted run of recent pushes.  Under the lockstep
adversaries (constant delay ``D``) every delivery scheduled while
processing time ``t`` lands at ``t + D`` with the same priority, i.e.
pushes arrive in non-decreasing key order — the burst lane absorbs the
entire steady state in O(1) per event where the heap pays O(log m) per
push *and* pop.  Popping merges the two internally-sorted lanes by
``(time, priority, seq)``, so the execution order is exactly the
heap-only order (differential tests drive it against the heap-only
reference queue in ``tests/support/reference_substrate.py``).

Events are lean ``__slots__`` records holding ``(fn, args)`` instead of a
closure; the kernel fires them with ``event.fn(*event.args)``.

Cancellation is a state flag on the event itself: an event is *pending*
until it is popped (fired) or cancelled.  Cancelling an event that
already fired is a true no-op — it neither corrupts the live count nor
leaks bookkeeping (regression-tested; the old set-of-seqs design
decremented ``_live`` for fired events).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

#: event lifecycle states (module-private ints; cheap to compare)
_PENDING = 0
_FIRED = 1
_CANCELLED = 2


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        priority: tie-break rank; lower fires first at equal time.  The
            network uses priority 0 for deliveries and the harness uses
            higher priorities for bookkeeping so measurements see a fully
            settled state.
        seq: kernel-assigned sequence number (total order tie-break).
        fn: callable executed when the event fires, as ``fn(*args)``.
        args: positional arguments for ``fn`` (empty for plain actions).
        tag: free-form label used by traces and by cancellation sweeps.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "tag", "_state")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        tag: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.tag = tag
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {_PENDING: "pending", _FIRED: "fired", _CANCELLED: "cancelled"}
        return (
            f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
            f"tag={self.tag!r}, {state[self._state]})"
        )


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    A heap plus the burst lane described in the module docstring.  The
    burst lane (``_fifo``) is a plain list consumed from the left via an
    index cursor (amortized O(1), no deque needed since entries are only
    appended at the right); it always holds a sorted run
    — an event may be appended iff its ``(time, priority)`` is >= the
    last entry's (sequence numbers are assigned monotonically, so equal
    keys stay sorted).  Any push that would break the run goes to the
    heap.  ``pop``/``peek_time`` merge the two sorted lanes.

    Cancellation is lazy: cancelled events stay in their lane but are
    skipped on pop.  This keeps push/pop cheap and is the standard
    approach for DES kernels (cancellations are rare: only crash sweeps
    use them).
    """

    __slots__ = ("_heap", "_fifo", "_head", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._fifo: list[Event] = []
        self._head = 0  # index of the burst lane's first unconsumed entry
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute ``time``; returns the event."""
        return self.push_call(time, action, (), priority=priority, tag=tag)

    def push_call(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        *,
        priority: int = 0,
        tag: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` (closure-free)."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn, args, tag)
        fifo = self._fifo
        if self._head < len(fifo):
            last = fifo[-1]
            if time > last.time or (
                time == last.time and priority >= last.priority
            ):
                fifo.append(event)
            else:
                heappush(self._heap, (time, priority, seq, event))
        else:
            # lane empty: restart the sorted run at this event
            if fifo:
                del fifo[:]
                self._head = 0
            fifo.append(event)
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent; no-op once it has fired)."""
        if event._state == _PENDING:
            event._state = _CANCELLED
            self._live -= 1

    def _advance(self, head: int) -> int:
        """Consume one burst-lane entry, compacting the fired prefix so a
        long sorted run (the lockstep steady state is one run for the
        whole execution) keeps O(pending) memory, not O(total events)."""
        head += 1
        if head >= 4096:
            del self._fifo[:head]
            return 0
        return head

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        heap = self._heap
        fifo = self._fifo
        while True:
            head = self._head
            if head < len(fifo):
                event = fifo[head]
                if heap:
                    entry = heap[0]
                    if (entry[0], entry[1], entry[2]) < (
                        event.time,
                        event.priority,
                        event.seq,
                    ):
                        event = heappop(heap)[3]
                    else:
                        self._head = self._advance(head)
                else:
                    self._head = self._advance(head)
            elif heap:
                event = heappop(heap)[3]
            else:
                raise IndexError("pop from empty EventQueue")
            if event._state == _CANCELLED:
                continue
            event._state = _FIRED
            self._live -= 1
            return event

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        fifo = self._fifo
        while True:
            head = self._head
            fifo_event = fifo[head] if head < len(fifo) else None
            if fifo_event is not None and fifo_event._state == _CANCELLED:
                self._head = head + 1
                continue
            if heap:
                entry = heap[0]
                if entry[3]._state == _CANCELLED:
                    heappop(heap)
                    continue
                if fifo_event is None or (entry[0], entry[1], entry[2]) < (
                    fifo_event.time,
                    fifo_event.priority,
                    fifo_event.seq,
                ):
                    return entry[0]
            if fifo_event is not None:
                return fifo_event.time
            return None


__all__ = ["Event", "EventQueue"]
