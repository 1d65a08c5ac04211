"""Unit tests for the network: FIFO, reliability, crash semantics.

The network pushes each delivery as a call of the cluster's ``_deliver``,
which drops deliveries to crashed nodes and counts, so the network is
tested under a cluster of nodes that record what they receive."""

from collections import Counter

import pytest

from repro.net.delays import AdversarialDelay, ConstantDelay, UniformDelay
from repro.net.faults import BroadcastCrash, CrashPlan
from repro.net.network import Network
from repro.obs import MemorySink, Tracer
from repro.runtime.cluster import Cluster
from repro.runtime.protocol import ProtocolNode
from repro.sim.fastpath import STATS
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRng


def make_net(n=3, delay_model=None, plan=None, tracer=None):
    received = []

    class Recorder(ProtocolNode):
        def on_message(self, src, payload):
            received.append((self.node_id, src, payload, cluster.sim.now))

    cluster = Cluster(
        Recorder,
        n,
        0,
        delay_model=delay_model or ConstantDelay(1.0),
        crash_plan=plan if plan is not None else CrashPlan.none(),
        tracer=tracer,
    )
    return cluster.sim, cluster.network, received


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


def test_broadcast_to_a_bad_destination_changes_nothing():
    """Regression: every destination is checked before anything is
    counted or clamped — the bad one used to be found mid-loop, after
    the counters took the whole fan-out and earlier channels clamped."""
    sim, net, received = make_net()
    stats_before = STATS.messages
    with pytest.raises(ValueError, match="bad endpoints 0->7 for n=3"):
        net.broadcast(0, "x", (1, 2, 7))
    assert net.messages_sent == 0 and net.sent_by_node == [0, 0, 0]
    assert STATS.messages == stats_before
    assert net._last_delivery == [0.0] * 9
    assert sim.pending == 0
    sim.run()
    assert received == []


def test_per_node_send_counters():
    sim, net, _ = make_net()
    net.send(0, 1, "a")
    net.send(0, 2, "b")
    net.send(1, 2, "c")
    assert net.sent_by_node == [2, 1, 0]


def test_trace_records_drops():
    """A traced delivery to a node that crashed since the send is a
    ``drop`` event, and ``deliver`` is still handed it to count."""
    plan = CrashPlan.none()
    sim = Simulator()
    tracer = Tracer(MemorySink())
    handed = []
    net = Network(
        sim, 2, ConstantDelay(1.0), plan, lambda *a: handed.append(a), tracer=tracer
    )
    net.send(0, 1, "x")
    plan.mark_crashed(1)
    sim.run()
    assert [(ev.kind, ev.src, ev.dst) for ev in tracer.sink.events] == [
        ("send", 0, 1),
        ("drop", 0, 1),
    ]
    assert handed == [(0, (1,), "x", 0.0)]


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
    sim.schedule_call_at(2.5, lambda: net.reconnect(0, 1))
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
    sim, traced, _ = make_net(n=3, tracer=Tracer(MemorySink()))
    traced.disconnect(0, 1)
    traced.reconnect(0, 1)
    assert traced._watched  # the tracer still observes


def test_parked_release_samples_fresh_delays_under_fifo_clamp():
    model = UniformDelay(1.0, SeededRng(5), lo=0.1)
    sim, net, received = make_net(delay_model=model)
    net.send(0, 1, "in-flight")  # sent before the gate closes: delivers
    net.disconnect(0, 1)
    for i in range(6):
        net.send(0, 1, i)
    sim.run()
    assert [p for (_, _, p, _) in received] == ["in-flight"]
    sim.schedule_call_at(4.0, lambda: net.reconnect(0, 1))
    sim.run()
    released = received[1:]
    assert [p for (_, _, p, _) in released] == list(range(6))
    times = [t for (_, _, _, t) in released]
    assert times == sorted(times)
    assert all(4.0 < t <= 5.0 for t in times)  # within D of the release


def test_a_released_message_is_counted_and_traced_once():
    """Counting, tracing and gating happen at send time; ``reconnect``
    only posts what was parked, so a released message is neither counted
    nor traced again, and its channel's depth drains back to 0."""
    tracer = Tracer(MemorySink())
    sim, net, received = make_net(n=3, tracer=tracer)
    net.disconnect(0, 1)
    net.send(0, 1, "p2p")  # parked
    net.broadcast(0, "bcast", (0, 1, 2))  # 0 -> 1 parked, 0 and 2 posted
    assert net._parked[1] == ["p2p", "bcast"]
    sent, by_node = net.messages_sent, list(net.sent_by_node)
    assert (sent, by_node) == (4, [4, 0, 0])
    assert net._depth[1] == 2
    sim.run()
    net.reconnect(0, 1)
    assert (net.messages_sent, net.sent_by_node) == (sent, by_node)
    sim.run()
    assert sorted((dst, payload) for dst, _, payload, _ in received) == [
        (0, "bcast"),
        (1, "bcast"),
        (1, "p2p"),
        (2, "bcast"),
    ]
    # one send and one deliver event per message: two of the four go to 1
    per_channel = Counter(
        (ev.kind, ev.dst) for ev in tracer.sink.events if ev.kind in ("send", "deliver")
    )
    assert per_channel == {
        (kind, dst): 2 if dst == 1 else 1
        for kind in ("send", "deliver")
        for dst in range(3)
    }
    assert net._depth == [0] * 9
    assert not net._parked
