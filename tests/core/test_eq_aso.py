"""Tests for EQ-ASO (Algorithm 1) — behaviour pinned line by line."""

import pytest

from repro.core.eq_aso import EqAso
from repro.core.messages import (
    MEchoTag,
    MGoodLA,
    MValue,
    MWriteTag,
)
from repro.core.tags import Timestamp, ValueTs
from repro.net.delays import UniformDelay
from repro.net.faults import CrashAtTime, CrashPlan, chain_crash_plan
from repro.runtime.cluster import Cluster
from repro.sim.rng import SeededRng
from repro.spec import check_atomicity_conditions, is_linearizable

from tests.conftest import run_random_execution


def test_resilience_bound():
    with pytest.raises(ValueError):
        EqAso(0, 4, 2)
    EqAso(0, 5, 2)  # n > 2f ok


# ----------------------------------------------------------------------
# pinned pseudocode rules
# ----------------------------------------------------------------------
def test_maxtag_ignores_value_messages():
    """Sec. III-D: maxTag is updated only by writeTag/echoTag messages,
    never by value messages — the property the time analysis rests on."""
    node = EqAso(0, 3, 1)
    node.on_message(1, MValue(ValueTs("v", Timestamp(99, 1), 1)))
    assert node.max_tag == 0
    node.on_message(1, MEchoTag(7))
    assert node.max_tag == 7
    node.on_message(2, MWriteTag(9, reqid=1))
    assert node.max_tag == 9


def test_write_tag_echoes_only_new_tags():
    node = EqAso(0, 3, 1)
    node.on_message(1, MWriteTag(5, reqid=1))
    echoes = [item for item in node.outbox if isinstance(item[0], MEchoTag)]
    assert len(echoes) == 1
    node.outbox.clear()
    node.on_message(2, MWriteTag(5, reqid=2))  # already known
    echoes = [item for item in node.outbox if isinstance(item[0], MEchoTag)]
    assert echoes == []


def test_write_ack_is_unconditional():
    """A second writer of an already-known tag must still be acked (the
    deviation documented in the module docstring — otherwise writeTag
    deadlocks when two nodes run lattice ops with the same tag)."""
    from repro.core.messages import MWriteAck

    node = EqAso(0, 3, 1)
    node.on_message(1, MWriteTag(5, reqid=1))
    node.outbox.clear()
    node.on_message(2, MWriteTag(5, reqid=9))
    acks = [
        (payload, to) for payload, to in node.outbox if isinstance(payload, MWriteAck)
    ]
    assert len(acks) == 1 and acks[0][1] == 2 and acks[0][0].reqid == 9


def test_values_forwarded_exactly_once():
    node = EqAso(0, 3, 1)
    vt = ValueTs("v", Timestamp(1, 1), 1)
    node.on_message(1, MValue(vt))
    forwards = [item for item in node.outbox if isinstance(item[0], MValue)]
    assert len(forwards) == 1
    node.outbox.clear()
    node.on_message(2, MValue(vt))  # second copy: no re-forward
    forwards = [item for item in node.outbox if isinstance(item[0], MValue)]
    assert forwards == []


def test_good_la_handler_records_before_resume():
    """Line 49 must be observable before a pending renewal resumes: the
    handler stores the borrowed view synchronously."""
    node = EqAso(0, 3, 1)
    vt = ValueTs("v", Timestamp(1, 1), 1)
    node.on_message(1, MValue(vt))
    node.on_message(1, MGoodLA(1))
    assert node.D_view[1] == {vt}
    assert node._good_la_views[1][1] == {vt}


def test_unknown_message_raises():
    node = EqAso(0, 3, 1)
    with pytest.raises(TypeError):
        node.on_message(1, ("garbage",))


# ----------------------------------------------------------------------
# end-to-end semantics
# ----------------------------------------------------------------------
def test_scan_of_quiet_object_is_bottom():
    cluster = Cluster(EqAso, n=5, f=2)
    h = cluster.invoke_at(0.0, 0, "scan")
    cluster.run_until_complete([h])
    assert h.result.values == (None,) * 5


def test_update_visible_to_later_scan():
    cluster = Cluster(EqAso, n=5, f=2)
    handles = cluster.run_ops(
        [(0.0, 2, "update", ("hello",)), (10.0, 4, "scan", ())]
    )
    assert handles[1].result.values[2] == "hello"


def test_own_update_visible_to_own_next_scan():
    cluster = Cluster(EqAso, n=5, f=2)
    handles = cluster.chain_ops(0, [("update", ("mine",)), ("scan", ())])
    cluster.run_until_complete(handles)
    assert handles[1].result.values[0] == "mine"


def test_repeated_updates_last_wins():
    cluster = Cluster(EqAso, n=4, f=1)
    ops = [("update", (f"v{i}",)) for i in range(4)] + [("scan", ())]
    handles = cluster.chain_ops(0, ops)
    cluster.run_until_complete(handles)
    assert handles[-1].result.values[0] == "v3"


def test_failure_free_constant_latency():
    """The extreme case of Sec. III-C: every message takes exactly D and
    nothing fails — operations complete in a small constant number of D."""
    cluster = Cluster(EqAso, n=7, f=3)
    up = cluster.invoke_at(0.0, 0, "update", "x")
    cluster.run_until_complete([up])
    sc = cluster.invoke(1, "scan")
    cluster.run_until_complete([sc])
    assert up.latency / cluster.D == 6.0  # readTag + phase-0 + renewal
    assert sc.latency / cluster.D == 4.0  # readTag + one lattice round


def test_tags_grow_monotonically_per_writer():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = cluster.chain_ops(0, [("update", (f"v{i}",)) for i in range(3)])
    sc = cluster.invoke_at(100.0, 1, "scan")
    cluster.run_until_complete(handles + [sc])
    meta = sc.result.meta[0]
    assert meta.useq == 3 and meta.ts.tag >= 3


def test_concurrent_mixed_workload_linearizable():
    for seed in (0, 1, 2, 3, 4, 5):
        cluster, handles = run_random_execution(EqAso, seed=seed)
        assert all(h.done for h in handles)
        assert check_atomicity_conditions(cluster.history) == []


def test_linearizable_under_random_crashes():
    for seed in range(4):
        rng = SeededRng(seed)
        plan = CrashPlan(
            {
                3: CrashAtTime(rng.uniform(0.0, 6.0)),
                4: CrashAtTime(rng.uniform(0.0, 6.0)),
            }
        )
        cluster = Cluster(
            EqAso,
            n=5,
            f=2,
            crash_plan=plan,
            delay_model=UniformDelay(1.0, rng.child("d"), lo=0.1),
        )
        handles = []
        for node in range(5):
            handles += cluster.chain_ops(
                node,
                [("update", (f"a{node}",)), ("scan", ()), ("update", (f"b{node}",))],
                start=node * 0.3,
            )
        cluster.run_until_complete(handles)
        assert is_linearizable(cluster.history)


def test_failure_chain_value_eventually_visible():
    plan = chain_crash_plan([0, 1, 2], match=lambda p: isinstance(p, MValue))
    cluster = Cluster(EqAso, n=7, f=3, crash_plan=plan)
    handles = cluster.run_ops(
        [
            (0.0, 0, "update", ("doomed",)),
            # a concurrent healthy update advances the tag, pulling the
            # exposed value into later scans' tag windows
            (0.6, 4, "update", ("healthy",)),
            (20.0, 3, "scan", ()),
        ]
    )
    assert handles[0].aborted  # the writer crashed mid-broadcast
    scan = handles[2]
    assert scan.result.values[0] == "doomed"  # but the value survived
    assert scan.result.values[4] == "healthy"
    assert is_linearizable(cluster.history)


def test_instrumentation_counters():
    cluster = Cluster(EqAso, n=4, f=1)
    handles = cluster.run_ops([(0.0, 0, "update", ("v",))])
    node = cluster.node(0)
    assert node.lattice_ops_started >= 2  # phase-0 + renewal
    assert node.good_lattice_ops >= 1


def test_read_tag_requests_are_scoped():
    """Stale readAcks from an earlier request must not satisfy a newer
    request's quorum (the reqid mechanism)."""
    from repro.core.messages import MReadAck, MReadTag

    node = EqAso(0, 5, 2)
    gen = node._read_tag()
    gen.send(None)  # starts the request; reqid 1
    node.on_message(1, MReadAck(0, reqid=999))  # stale/foreign ack
    assert node._rounds[MReadTag] == {1: {}}  # round 1 open, nothing filed
    node.on_message(1, MReadAck(4, reqid=1))
    node.on_message(2, MReadAck(2, reqid=1))
    node.on_message(3, MReadAck(0, reqid=1))
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 4  # the largest acked tag
