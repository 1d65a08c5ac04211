"""Unit tests for the discrete-event cluster driver."""

import pytest

from repro.core.eq_aso import EqAso
from repro.net.faults import BroadcastCrash, CrashAtTime, CrashPlan
from repro.runtime.cluster import Cluster, StuckError
from repro.runtime.protocol import ProtocolNode, WaitUntil


class PingPong(ProtocolNode):
    """Toy protocol: op ping() broadcasts and waits for n−f pongs."""

    def __init__(self, node_id, n, f):
        super().__init__(node_id, n, f)
        self.pongs: dict[int, set[int]] = {}
        self.started = False
        self._req = 0

    def on_start(self):
        self.started = True

    # toy protocol exercising the driver; not part of the per-D accounting
    # lint: ignore-next-line[RL005]
    def ping(self):
        self._req += 1
        req = self._req
        self.pongs[req] = set()
        self.broadcast(("ping", self.node_id, req))
        yield WaitUntil(
            lambda: len(self.pongs[req]) >= self.quorum_size, f"pong quorum {req}"
        )
        return sorted(self.pongs[req])

    # deliberately-stuck op for the StuckError liveness tests
    # lint: ignore-next-line[RL005]
    def never(self):
        # stuck on purpose: the test asserts the cluster raises
        # StuckError on exactly this wait
        yield WaitUntil(lambda: False, "never satisfied")
        return None

    def on_message(self, src, payload):
        kind, origin, req = payload
        if kind == "ping":
            self.send(origin, ("pong", self.node_id, req))
        else:
            self.pongs.setdefault(req, set()).add(origin)


def test_invoke_and_complete():
    cluster = Cluster(PingPong, n=4, f=1)
    h = cluster.invoke_at(0.0, 0, "ping")
    cluster.run_until_complete([h])
    assert h.done and len(h.result) >= 3
    assert h.latency == 2.0  # round trip at constant delay D=1


def test_on_start_called_once():
    cluster = Cluster(PingPong, n=3, f=1)
    cluster.start()
    cluster.start()
    assert all(node.started for node in cluster.nodes)


def test_sequential_node_discipline_enforced():
    """An arrival at a busy node queues: it begins when the running
    operation responds, never beside it."""
    cluster = Cluster(PingPong, n=4, f=1)
    first = cluster.invoke_at(0.0, 0, "ping")
    second = cluster.invoke_at(0.5, 0, "ping")  # overlaps the first
    cluster.run_until_complete([first, second])
    assert first.done and second.done
    assert second.t_inv == first.t_resp == 2.0


def test_chain_ops_sequences_correctly():
    cluster = Cluster(PingPong, n=4, f=1)
    handles = cluster.chain_ops(0, [("ping", ()), ("ping", ()), ("ping", ())])
    cluster.run_until_complete(handles)
    assert all(h.done for h in handles)
    # strictly ordered: each starts after the previous responded
    for a, b in zip(handles, handles[1:]):
        assert a.t_resp <= b.t_inv


def test_chain_gap_spacing():
    cluster = Cluster(PingPong, n=4, f=1)
    handles = cluster.chain_ops(0, [("ping", ()), ("ping", ())], gap=3.0)
    cluster.run_until_complete(handles)
    assert handles[1].t_inv == pytest.approx(handles[0].t_resp + 3.0)


def test_stuck_error_reports_wait_description():
    cluster = Cluster(PingPong, n=4, f=1)
    h = cluster.invoke_at(0.0, 0, "never")
    with pytest.raises(StuckError, match="never satisfied"):
        cluster.run_until_complete([h])


def test_timed_crash_aborts_pending_op():
    plan = CrashPlan({0: CrashAtTime(1.0)})
    cluster = Cluster(PingPong, n=4, f=1, crash_plan=plan)
    h = cluster.invoke_at(0.0, 0, "never")
    cluster.run_until_complete([h])
    assert h.aborted and not h.done


def test_crashed_node_does_not_start_ops():
    plan = CrashPlan({0: CrashAtTime(0.5)})
    cluster = Cluster(PingPong, n=4, f=1, crash_plan=plan)
    h = cluster.invoke_at(1.0, 0, "ping")
    cluster.run_until_complete([h])
    assert h.aborted


def test_chain_aborts_remaining_links_after_crash():
    plan = CrashPlan({0: CrashAtTime(1.0)})
    cluster = Cluster(PingPong, n=4, f=1, crash_plan=plan)
    handles = cluster.chain_ops(0, [("never", ()), ("ping", ()), ("ping", ())])
    cluster.run_until_complete(handles)
    assert all(h.aborted for h in handles)


def test_history_records_operations():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = cluster.run_ops(
        [(0.0, 0, "update", ("v",)), (8.0, 1, "scan", ())]
    )
    ops = cluster.history.ops
    assert [op.kind for op in ops] == ["update", "scan"]
    assert ops[0].t_resp is not None and ops[1].t_resp is not None


def test_callbacks_fire_on_completion():
    cluster = Cluster(PingPong, n=4, f=1)
    seen = []
    h = cluster.invoke_at(0.0, 0, "ping")
    h.on_complete(lambda handle: seen.append(handle.result))
    cluster.run_until_complete([h])
    assert seen == [h.result]


def test_broadcast_crash_truncation_in_cluster():
    """A node crashing mid-broadcast delivers only to the chosen subset,
    then goes fully silent."""
    plan = CrashPlan({0: BroadcastCrash(deliver_to=(1,))})
    cluster = Cluster(PingPong, n=4, f=1, crash_plan=plan)
    h = cluster.invoke_at(0.0, 0, "ping")
    cluster.run_until_complete([h])
    assert h.aborted
    cluster.run()
    # only node 1 ever received node 0's ping
    assert 1 in cluster.nodes[1].pongs.get(1, set()) or not cluster.nodes[1].outbox
    assert cluster.network.messages_delivered >= 1


def test_messages_sent_accounting():
    cluster = Cluster(PingPong, n=4, f=1)
    h = cluster.invoke_at(0.0, 0, "ping")
    cluster.run_until_complete([h])
    assert h.messages_sent >= 4  # its broadcast


def test_deterministic_replay():
    def run():
        cluster = Cluster(EqAso, n=4, f=1)
        handles = []
        for node in range(4):
            handles += cluster.chain_ops(
                node, [("update", (f"v{node}",)), ("scan", ())], start=node * 0.25
            )
        cluster.run_until_complete(handles)
        return [(h.node, h.kind, h.t_inv, h.t_resp) for h in handles]

    assert run() == run()


def test_gate_endpoints_validated():
    """Regression: ``disconnect(0, 7)`` on n=3 was silently accepted and
    ``disconnect(1, 1)`` parked a node's self-addressed messages."""
    cluster = Cluster(EqAso, n=3, f=1)
    for src, dst in [(0, 7), (1, 1)]:
        with pytest.raises(ValueError, match="bad endpoints"):
            cluster.disconnect(src, dst)
        with pytest.raises(ValueError, match="bad endpoints"):
            cluster.reconnect(src, dst, symmetric=True)
