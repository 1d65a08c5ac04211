"""A kernel event record read by name — for tests and debugging.

The kernel keeps an event as the plain list ``[time, seq, fn, args,
state]`` (see ``repro.sim.events``); ``Event(record).seq`` reads one
without knowing the slot numbers.
"""

from __future__ import annotations

from repro.sim.events import _CANCELLED, _FIRED, _PENDING, Record

_STATE_NAMES = {_PENDING: "pending", _FIRED: "fired", _CANCELLED: "cancelled"}


class Event:
    """A record read by name: ``Event(record).seq``.  A live view — it
    shows the record's state as it is now, not as it was when wrapped.

    Attributes:
        time: absolute simulation time at which the event fires.
        seq: queue-assigned sequence number (total order tie-break:
            events at one time fire in push order).
        fn: callable executed when the event fires, as ``fn(*args)``.
        args: positional arguments for ``fn`` (empty for plain actions).
        record: the record itself.
    """

    __slots__ = ("record",)

    def __init__(self, record: Record) -> None:
        self.record = record

    time = property(lambda self: self.record[0])
    seq = property(lambda self: self.record[1])
    fn = property(lambda self: self.record[2])
    args = property(lambda self: self.record[3])
    cancelled = property(lambda self: self.record[4] == _CANCELLED)
    fired = property(lambda self: self.record[4] == _FIRED)

    def sort_key(self) -> tuple[float, int]:
        return (self.record[0], self.record[1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        r = self.record
        return f"Event(t={r[0]}, seq={r[1]}, fn={r[2]!r}, {_STATE_NAMES[r[4]]})"


__all__ = ["Event"]
