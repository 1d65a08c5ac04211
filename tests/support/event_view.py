"""A kernel event record read by name — for tests and debugging.

The kernel keeps an event as the plain list ``[time, priority, seq, fn,
args, tag, state]`` (see ``repro.sim.events``); ``Event(record).tag``
reads one without knowing the slot numbers.
"""

from __future__ import annotations

from repro.sim.events import _CANCELLED, _FIRED, _PENDING, Record

_STATE_NAMES = {_PENDING: "pending", _FIRED: "fired", _CANCELLED: "cancelled"}


class Event:
    """A record read by name: ``Event(record).tag``.  A live view — it
    shows the record's state as it is now, not as it was when wrapped.

    Attributes:
        time: absolute simulation time at which the event fires.
        priority: tie-break rank; lower fires first at equal time.
        seq: queue-assigned sequence number (total order tie-break).
        fn: callable executed when the event fires, as ``fn(*args)``.
        args: positional arguments for ``fn`` (empty for plain actions).
        tag: free-form label.
        record: the record itself.
    """

    __slots__ = ("record",)

    def __init__(self, record: Record) -> None:
        self.record = record

    time = property(lambda self: self.record[0])
    priority = property(lambda self: self.record[1])
    seq = property(lambda self: self.record[2])
    fn = property(lambda self: self.record[3])
    args = property(lambda self: self.record[4])
    tag = property(lambda self: self.record[5])
    cancelled = property(lambda self: self.record[6] == _CANCELLED)
    fired = property(lambda self: self.record[6] == _FIRED)

    def sort_key(self) -> tuple[float, int, int]:
        return tuple(self.record[:3])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        r = self.record
        return (
            f"Event(t={r[0]}, prio={r[1]}, seq={r[2]}, tag={r[5]!r}, "
            f"{_STATE_NAMES[r[6]]})"
        )


__all__ = ["Event"]
