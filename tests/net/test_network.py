"""Unit tests for the network: FIFO, reliability, crash semantics."""

import pytest

from repro.net.delays import AdversarialDelay, ConstantDelay, UniformDelay
from repro.net.faults import BroadcastCrash, CrashPlan
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng


def make_net(n=3, delay_model=None, plan=None, record=False):
    sim = Simulator()
    received = []
    net = Network(
        sim,
        n,
        delay_model or ConstantDelay(1.0),
        plan if plan is not None else CrashPlan.none(),
        lambda dst, src, payload: received.append((dst, src, payload, sim.now)),
        record_trace=record,
    )
    return sim, net, received


def test_basic_delivery():
    sim, net, received = make_net()
    net.send(0, 1, "hello")
    sim.run()
    assert received == [(1, 0, "hello", 1.0)]
    assert net.messages_sent == 1 and net.messages_delivered == 1


def test_fifo_clamp_preserves_order_and_bound():
    # message 1 slow (delay 1.0), message 2 fast (0.1) but sent later:
    # FIFO must deliver them in send order, and within D of each send
    delays = iter([1.0, 0.1])
    model = AdversarialDelay(1.0, lambda s, d, p, t: next(delays))
    sim, net, received = make_net(delay_model=model)
    net.send(0, 1, "first")
    net.send(0, 1, "second")
    sim.run()
    assert [p for (_, _, p, _) in received] == ["first", "second"]
    t_first = received[0][3]
    t_second = received[1][3]
    assert t_first <= t_second <= 0.0 + 1.0  # clamp stays within D


def test_fifo_only_per_ordered_pair():
    delays = iter([1.0, 0.1])
    model = AdversarialDelay(1.0, lambda s, d, p, t: next(delays))
    sim, net, received = make_net(delay_model=model)
    net.send(0, 1, "slow-to-1")
    net.send(0, 2, "fast-to-2")
    sim.run()
    # different destinations: no clamp, the later send arrives first
    assert [p for (_, _, p, _) in received] == ["fast-to-2", "slow-to-1"]


def test_delivery_to_crashed_node_dropped():
    plan = CrashPlan.none()
    sim, net, received = make_net(plan=plan)
    net.send(0, 1, "m")
    plan.mark_crashed(1)
    sim.run()
    assert received == []
    assert net.messages_dropped == 1


def test_reliability_sender_crash_after_send():
    # messages already handed to the network are delivered even though
    # the sender crashes immediately afterwards
    plan = CrashPlan.none()
    sim, net, received = make_net(plan=plan)
    net.send(0, 1, "survives")
    plan.mark_crashed(0)
    sim.run()
    assert [p for (_, _, p, _) in received] == ["survives"]


def test_broadcast_truncation_marks_crash():
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(2,))})
    sim, net, received = make_net(plan=plan)
    net.broadcast(0, "v", [0, 1, 2])
    sim.run()
    assert [(d, p) for (d, _, p, _) in received] == [(2, "v")]
    assert plan.is_crashed(0)


def test_bad_endpoints_rejected():
    sim, net, _ = make_net()
    with pytest.raises(ValueError):
        net.send(0, 9, "m")


def test_per_node_send_counters():
    sim, net, _ = make_net()
    net.send(0, 1, "a")
    net.send(0, 2, "b")
    net.send(1, 2, "c")
    assert net.sent_by_node == [2, 1, 0]


def test_trace_records_drops():
    plan = CrashPlan.none()
    sim = Simulator()
    net = Network(
        sim, 2, ConstantDelay(1.0), plan, lambda *a: None, record_trace=True
    )
    net.send(0, 1, "x")
    plan.mark_crashed(1)
    sim.run()
    assert len(net.trace) == 1
    assert net.trace[0].dropped and net.trace[0].payload == "x"


def test_self_send_is_instant():
    sim, net, received = make_net()
    net.send(1, 1, "self")
    sim.run()
    assert received == [(1, 1, "self", 0.0)]


# ----------------------------------------------------------------------
# link gating
# ----------------------------------------------------------------------
@pytest.mark.parametrize("src,dst", [(0, 7), (7, 0), (-1, 1), (1, 1)])
def test_gate_endpoints_validated_like_send(src, dst):
    """Regression: out-of-range pairs used to sit silently in the gated
    set, and gating i -> i parked a node's self-addressed messages
    forever although self-delivery never traverses the network."""
    sim, net, received = make_net()
    with pytest.raises(ValueError, match="bad endpoints"):
        net.disconnect(src, dst)
    with pytest.raises(ValueError, match="bad endpoints"):
        net.reconnect(src, dst)
    net.send(1, 1, "self")  # still delivered instantly
    sim.run()
    assert received == [(1, 1, "self", 0.0)]


def test_gating_parks_fifo_keeps_batching_and_unwatches():
    sim, net, received = make_net(n=4)
    assert not net._watched
    net.disconnect(0, 1)
    assert net._watched
    net.broadcast(0, "a", [0, 1, 2, 3])
    net.send(0, 1, "b")
    # 0->1 parked both; 0->0 is one instant event; 0->2 and 0->3 share
    # one batched delivery event although a gate is closed elsewhere
    assert sim.pending == 2
    assert net.messages_sent == 5
    sim.run()
    assert sorted(received) == [(0, 0, "a", 0.0), (2, 0, "a", 1.0), (3, 0, "a", 1.0)]
    sim.schedule_at(2.5, lambda: net.reconnect(0, 1))
    sim.run()
    # released in send order, delays sampled at release time
    assert received[3:] == [(1, 0, "a", 3.5), (1, 0, "b", 3.5)]
    assert not net._watched  # nothing observes any more
    net.reconnect(0, 1)  # idempotent on an open channel
    assert net.messages_delivered == 5


def test_watched_stays_true_while_any_gate_or_observer_remains():
    sim, net, _ = make_net(n=3)
    net.disconnect(0, 1)
    net.disconnect(1, 2)
    net.reconnect(0, 1)
    assert net._watched  # 1->2 still gated
    net.reconnect(1, 2)
    assert not net._watched
    sim, traced, _ = make_net(n=3, record=True)
    traced.disconnect(0, 1)
    traced.reconnect(0, 1)
    assert traced._watched  # the delivery trace still observes


def test_parked_release_samples_fresh_delays_under_fifo_clamp():
    model = UniformDelay(1.0, SeededRng(5), lo=0.1)
    sim, net, received = make_net(delay_model=model)
    net.send(0, 1, "in-flight")  # sent before the gate closes: delivers
    net.disconnect(0, 1)
    for i in range(6):
        net.send(0, 1, i)
    sim.run()
    assert [p for (_, _, p, _) in received] == ["in-flight"]
    sim.schedule_at(4.0, lambda: net.reconnect(0, 1))
    sim.run()
    released = received[1:]
    assert [p for (_, _, p, _) in released] == list(range(6))
    times = [t for (_, _, _, t) in released]
    assert times == sorted(times)
    assert all(4.0 < t <= 5.0 for t in times)  # within D of the release
