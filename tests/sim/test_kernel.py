"""Unit tests for the discrete-event simulator."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5, 1.5]
    assert sim.now == 1.5


def test_schedule_at_absolute():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(5.0, lambda: seen.append("b"))
    sim.run(until=3.0)
    assert seen == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert seen == ["a", "b"]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_stop_from_a_handler_ends_the_run_after_that_event():
    sim = Simulator()
    seen = []

    def fire(i):
        seen.append(i)
        if i == 2:
            sim.stop()
        seen.append(f"{i} finished")  # the stopping event still runs to its end

    for i in range(10):
        sim.schedule_call(float(i + 1), fire, i)
    sim.run()
    assert seen == [0, "0 finished", 1, "1 finished", 2, "2 finished"]
    assert sim.now == 3.0 and sim.pending == 7


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, lambda: seen.append("nested"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "nested"]
    assert sim.now == 2.0


def test_step_budget_guards_livelock():
    sim = Simulator(max_steps=100)

    def respawn():
        sim.schedule(0.0, respawn)

    sim.schedule(0.0, respawn)
    with pytest.raises(SimulationError, match="budget"):
        sim.run()


def test_cancel_via_kernel():
    sim = Simulator()
    seen = []
    ev = sim.schedule(1.0, lambda: seen.append("no"))
    sim.cancel(ev)
    sim.run()
    assert seen == []


def test_steps_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.steps == 5


def test_trace_hook_sees_events():
    sim = Simulator()
    tags = []
    sim.add_trace_hook(lambda ev: tags.append(ev.tag))
    sim.schedule(1.0, lambda: None, tag="x")
    sim.schedule(2.0, lambda: None, tag="y")
    sim.run()
    assert tags == ["x", "y"]


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()


def test_determinism_across_instances():
    def build():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule((i * 7) % 5 * 1.0, lambda i=i: order.append(i))
        sim.run()
        return order

    assert build() == build()
