"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue
from tests.support.event_view import Event


def test_orders_by_time():
    q = EventQueue()
    fired = []
    q.push_call(3.0, lambda: fired.append("c"))
    q.push_call(1.0, lambda: fired.append("a"))
    q.push_call(2.0, lambda: fired.append("b"))
    while q:
        Event(q.pop()).fn()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_sequence():
    """Events at one time fire in push order, also when an earlier time
    was pushed between them."""
    q = EventQueue()
    fired = []
    q.push_call(1.0, fired.append, ("first",))
    q.push_call(0.5, fired.append, ("earlier",))
    q.push_call(1.0, fired.append, ("second",))
    q.push_call(1.0, fired.append, ("third",))
    while q:
        event = Event(q.pop())
        event.fn(*event.args)
    assert fired == ["earlier", "first", "second", "third"]


def test_len_and_bool():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push_call(1.0, lambda: None)
    assert q and len(q) == 1
    q.pop()
    assert not q


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    ev = q.push_call(1.0, lambda: fired.append("cancelled"))
    q.push_call(2.0, lambda: fired.append("kept"))
    q.cancel(ev)
    assert len(q) == 1
    while q:
        Event(q.pop()).fn()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    q = EventQueue()
    ev = q.push_call(1.0, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 0


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push_call(1.0, lambda: None)
    q.push_call(5.0, lambda: None)
    q.cancel(ev)
    assert q.peek_time() == 5.0


def test_peek_time_empty():
    assert EventQueue().peek_time() is None


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().pop()


def test_nan_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push_call(float("nan"), lambda: None)


def test_many_events_deterministic_order():
    q1, q2 = EventQueue(), EventQueue()
    import random  # lint: ignore[RL001] — seeded Random(7); the test's
    # whole point is deterministic ordering under arbitrary push patterns

    rng = random.Random(7)
    times = [rng.choice([1.0, 2.0, 3.0]) for _ in range(200)]
    out1, out2 = [], []
    for i, t in enumerate(times):
        q1.push_call(t, lambda i=i: out1.append(i))
        q2.push_call(t, lambda i=i: out2.append(i))
    while q1:
        Event(q1.pop()).fn()
    while q2:
        Event(q2.pop()).fn()
    assert out1 == out2
