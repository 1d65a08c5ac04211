"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, seq)``.  The monotonically increasing
sequence number makes ordering total and deterministic even when many
events share a timestamp (common under the constant-delay model used by
the worst-case adversaries): events at one time fire in push order.

:class:`EventQueue` is a binary heap plus a *burst lane*: an append-only
FIFO holding the longest sorted run of recent pushes.  Under the lockstep
adversaries (constant delay ``D``) every delivery scheduled while
processing time ``t`` lands at ``t + D``, i.e. pushes arrive in
non-decreasing time order — the burst lane absorbs the entire steady
state in O(1) per event where the heap pays O(log m) per push *and* pop.
Popping merges the two internally-sorted lanes by ``(time, seq)``, so the
execution order is exactly the heap-only order (differential tests drive
it against the heap-only reference queue in
``tests/support/reference_substrate.py``).

An event is one record, the plain list ``[time, seq, fn, args, state]``.
Lists compare natively — by ``time``, then the unique ``seq``, never
reaching ``fn`` — so both lanes hold the records themselves, with no
object or key tuple beside them, and a push is one list display.  A
record carries ``(fn, args)`` instead of a closure; the kernel fires it
with ``event[2](*event[3])``.  The record is also the handle
:meth:`EventQueue.cancel` takes.

Cancellation is the record's state slot: an event is *pending* until it
is popped (fired) or cancelled.  Cancelling an event that already fired
is a true no-op — it neither corrupts the live count nor leaks
bookkeeping (regression-tested; the old set-of-seqs design decremented
``_live`` for fired events).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

#: event lifecycle states (module-private ints; cheap to compare)
_PENDING = 0
_FIRED = 1
_CANCELLED = 2


#: an event record: ``[time, seq, fn, args, state]``
Record = list[Any]


class EventQueue:
    """A deterministic queue of event records, in ``(time, seq)`` order.

    A heap plus the burst lane described in the module docstring.  The
    burst lane (``_fifo``) is a plain list consumed from the left via an
    index cursor (amortized O(1), no deque needed since entries are only
    appended at the right); it always holds a sorted run
    — an event may be appended iff its ``time`` is >= the last entry's
    (sequence numbers are assigned monotonically, so equal times stay
    sorted).  Any push that would break the run goes to the
    heap.  ``pop``/``peek_time`` merge the two sorted lanes.

    Cancellation is lazy: cancelled events stay in their lane but are
    skipped on pop.  This keeps push/pop cheap and is the standard
    approach for DES kernels (cancellations are rare: nothing in the
    package cancels an event; the API is for tests and experiments).
    """

    __slots__ = ("_heap", "_fifo", "_head", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[Record] = []
        self._fifo: list[Record] = []
        self._head = 0  # index of the burst lane's first unconsumed entry
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    def push_call(
        self,
        time: float,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> Record:
        """Schedule ``fn(*args)`` at absolute ``time`` (closure-free);
        returns the event's record."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._seq
        self._seq = seq + 1
        event = [time, seq, fn, args, _PENDING]
        fifo = self._fifo
        if self._head < len(fifo):
            if time >= fifo[-1][0]:
                fifo.append(event)
            else:
                heappush(self._heap, event)
        else:
            # lane empty: restart the sorted run at this event
            if fifo:
                del fifo[:]
                self._head = 0
            fifo.append(event)
        self._live += 1
        return event

    def cancel(self, event: Record) -> None:
        """Cancel a pending event (idempotent; no-op once it has fired)."""
        if event[4] == _PENDING:
            event[4] = _CANCELLED
            self._live -= 1

    def pop(self) -> Record:
        """Remove and return the earliest live event.

        ``Simulator._loop`` runs this body inline, to save a frame per
        event; a change here is a change there."""
        heap = self._heap
        fifo = self._fifo
        while True:
            head = self._head
            if head < len(fifo):
                event = fifo[head]
                if heap and heap[0] < event:
                    event = heappop(heap)
                else:
                    # consume the lane entry, compacting the fired prefix
                    # so a long sorted run (the lockstep steady state is
                    # one run for the whole execution) keeps O(pending)
                    # memory, not O(total events)
                    head += 1
                    if head >= 4096:
                        del fifo[:head]
                        head = 0
                    self._head = head
            elif heap:
                event = heappop(heap)
            else:
                raise IndexError("pop from empty EventQueue")
            if event[4] == _CANCELLED:
                continue
            event[4] = _FIRED
            self._live -= 1
            return event

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        fifo = self._fifo
        while True:
            head = self._head
            fifo_event = fifo[head] if head < len(fifo) else None
            if fifo_event is not None and fifo_event[4] == _CANCELLED:
                self._head = head + 1
                continue
            if heap:
                entry = heap[0]
                if entry[4] == _CANCELLED:
                    heappop(heap)
                    continue
                if fifo_event is None or entry < fifo_event:
                    return entry[0]
            if fifo_event is not None:
                return fifo_event[0]
            return None


__all__ = ["EventQueue", "Record"]
