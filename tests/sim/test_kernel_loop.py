"""One event-loop body: ``run()``, ``run(until=)``, a ``run()`` that is
told to ``stop()`` after every event and entered again, and repeated
``step()`` are four ways into the same loop, so they execute one schedule
in one order and every invariant of the kernel — time never goes
backwards, the step budget, the *live* trace-hook list, the
``STATS.events`` fold — holds on all four.  Below them, what ``stop()``
means outside the run it was meant for."""

import math

import pytest

from repro.sim.fastpath import STATS
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import SeededRng


def _run(sim):
    sim.run()


def _run_until(sim):
    sim.run(until=math.inf)


def _run_stopping(sim):
    sim.add_trace_hook(lambda event: sim.stop())  # every event is the last
    while sim.pending:
        sim.run()


def _step(sim):
    while sim.step():
        pass


DRIVERS = [_run, _run_until, _run_stopping, _step]
IDS = ["run", "until", "stop", "step"]
on_every_driver = pytest.mark.parametrize("drive", DRIVERS, ids=IDS)


def _seeded_schedule(sim, order, seed=2408, events=300):
    """A random schedule with ties, priorities, cancellations and
    handlers that schedule more work."""
    rng = SeededRng(seed)

    def fire(label, spawn):
        order.append((label, sim.now))
        if spawn:
            sim.schedule_call(rng.uniform(0.0, 2.0), fire, f"{label}+", False)

    pending = []
    for i in range(events):
        time = float(rng.randint(0, 40)) / 4  # many exact ties
        pending.append(
            sim.schedule_call_at(
                time, fire, str(i), rng.random() < 0.3, priority=rng.randint(0, 2)
            )
        )
    for event in rng.sample(pending, events // 10):
        sim.cancel(event)


def _trace(drive):
    sim = Simulator()
    order = []
    _seeded_schedule(sim, order)
    before = STATS.events
    drive(sim)
    return order, sim.steps, STATS.events - before


def test_all_four_execute_the_schedule_in_the_identical_order():
    reference = _trace(_run)
    order, steps, folded = reference
    assert len(order) == steps == folded > 270
    assert [t for _, t in order] == sorted(t for _, t in order)
    for drive in DRIVERS[1:]:
        assert _trace(drive) == reference


@on_every_driver
def test_time_going_backwards_raises(drive):
    sim = Simulator()
    sim.schedule(2.0, lambda: sim.queue.push_call(1.0, lambda: None))
    with pytest.raises(SimulationError, match="time went backwards"):
        drive(sim)
    assert sim.now == 2.0  # the clock did not follow the bad event


@on_every_driver
def test_step_budget_exhaustion_raises(drive):
    sim = Simulator(max_steps=50)

    def respawn():
        sim.schedule(0.0, respawn)

    sim.schedule(0.0, respawn)
    before = STATS.events
    with pytest.raises(SimulationError, match="step budget exhausted"):
        drive(sim)
    assert sim.steps == 51
    assert STATS.events - before == 51  # folded on the way out, too


@on_every_driver
def test_a_hook_added_by_a_handler_fires_for_the_next_event(drive):
    sim = Simulator()
    seen = []

    def hook(event):
        seen.append(event.tag)

    sim.schedule(1.0, lambda: sim.add_trace_hook(hook), tag="adds")
    sim.schedule(2.0, lambda: None, tag="next")
    sim.schedule(3.0, lambda: sim.remove_trace_hook(hook), tag="removes")
    sim.schedule(4.0, lambda: None, tag="after")
    drive(sim)
    assert seen == ["next", "removes"]


def test_until_never_moves_the_clock_backwards():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    sim.run(until=6.0)
    assert sim.now == 6.0
    sim.run(until=3.0)  # an earlier horizon: nothing to do, clock stays
    assert sim.now == 6.0 and sim.pending == 1


def test_step_reports_whether_an_event_ran():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    sim.cancel(cancelled)
    assert sim.step() is True and sim.now == 1.0
    assert sim.step() is False and sim.steps == 1


# -- stop(): a request belongs to the run it was made in -------------------


def _ten_events(sim, seen, stop_at=None):
    def fire(i):
        seen.append(i)
        if i == stop_at:
            sim.stop()

    for i in range(10):
        sim.schedule_call_at(float(i + 1), fire, i)


def test_stop_ends_the_run_at_the_event_that_asked():
    sim = Simulator()
    seen = []
    _ten_events(sim, seen, stop_at=3)
    before = STATS.events
    sim.run()
    assert seen == [0, 1, 2, 3] and sim.now == 4.0 and sim.steps == 4
    assert STATS.events - before == 4
    sim.run()  # the request is spent: the next run drains the queue
    assert seen == list(range(10)) and sim.pending == 0


def test_stop_under_until_does_not_advance_the_clock_to_the_horizon():
    sim = Simulator()
    seen = []
    _ten_events(sim, seen, stop_at=1)
    sim.run(until=5.5)
    assert seen == [0, 1] and sim.now == 2.0
    sim.run(until=5.5)
    assert seen == [0, 1, 2, 3, 4] and sim.now == 5.5


@pytest.mark.parametrize("horizon", [None, 20.0], ids=["run", "until"])
def test_a_stop_requested_outside_any_run_does_not_end_the_next_one(horizon):
    sim = Simulator()
    seen = []
    _ten_events(sim, seen)
    sim.stop()
    sim.run(until=horizon)
    assert seen == list(range(10))


@pytest.mark.parametrize("horizon", [None, 20.0], ids=["run", "until"])
def test_a_stop_left_over_from_a_run_that_failed_does_not_end_the_next_one(horizon):
    sim = Simulator()
    seen = []

    def stop_then_fail():
        sim.stop()
        raise ValueError("boom")

    sim.schedule(0.5, stop_then_fail)
    _ten_events(sim, seen)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    sim.run(until=horizon)
    assert seen == list(range(10))


def test_step_is_unaffected_by_stop():
    sim = Simulator()
    seen = []
    _ten_events(sim, seen, stop_at=0)
    sim.stop()
    assert sim.step() is True and seen == [0]  # a pending request: still steps
    assert sim.step() is True and seen == [0, 1]  # one asked for inside a step
    sim.run()  # ... and neither reaches the run that follows
    assert seen == list(range(10))


def test_reentrant_run_still_raises_and_keeps_the_outer_stop():
    sim = Simulator()
    seen = []

    def reenter():
        sim.stop()
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    sim.schedule(0.5, reenter)
    _ten_events(sim, seen)
    sim.run()
    assert seen == []  # the refused inner run did not clear the outer request
    sim.run()
    assert seen == list(range(10))
