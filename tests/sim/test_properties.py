"""Property-based tests for the simulation kernel."""

from hypothesis import given, strategies as st

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from tests.support.event_view import Event


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(round),
        max_size=60,
    )
)
def test_queue_pops_in_nondecreasing_key_order(times):
    q = EventQueue()
    for time in times:
        q.push_call(time, lambda: None)
    popped = []
    while q:
        ev = Event(q.pop())
        popped.append((ev.time, ev.seq))
    assert popped == sorted(popped)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False), max_size=40
    ),
    st.sets(st.integers(min_value=0, max_value=39), max_size=10),
)
def test_cancellation_removes_exactly_the_cancelled(times, to_cancel):
    q = EventQueue()
    events = [q.push_call(t, lambda: None) for t in times]
    cancelled = {i for i in to_cancel if i < len(events)}
    for i in cancelled:
        q.cancel(events[i])
    survivors = set()
    while q:
        survivors.add(Event(q.pop()).seq)
    assert survivors == {
        Event(e).seq for i, e in enumerate(events) if i not in cancelled
    }


@given(
    st.lists(
        st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_simulator_clock_is_monotone(delays):
    sim = Simulator()
    stamps = []
    for d in delays:
        sim.schedule_call_at(d, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == max(stamps)


@given(st.integers(min_value=0, max_value=2**32))
def test_rng_child_streams_never_alias_parent(seed):
    from repro.sim.rng import SeededRng

    parent = SeededRng(seed)
    child = parent.child("x")
    assert child.seed != parent.seed
